//! Transactional memory cells.

use crate::sync::{Ordering, ShadowSlot};
use std::fmt;

use crossbeam_epoch::{self as epoch, Atomic, Shared};

use crate::arena;
use crate::error::TxResult;
use crate::orec::{Orec, OrecState};
use crate::snapshot::{self, CommitCtx, SnapshotPin};
use crate::txn::Txn;

/// A transactionally managed memory location holding a value of type `T`.
///
/// Each cell carries its own ownership record (orec), following the paper's
/// guidance that orecs be co-located with the data they protect.  The value
/// itself lives behind an epoch-managed pointer so that optimistic readers
/// can never observe a torn value: writers install a freshly allocated value
/// and retire the previous one through epoch-based reclamation.
///
/// Value storage comes from the size-classed [`crate::arena`] (see
/// `docs/PERF.md`):
/// small payloads are carved from recycled blocks rather than the global
/// allocator, so steady-state write churn — the `Link` towers of the skip
/// hash above all — performs no heap allocation.  Types that are too large
/// or over-aligned fall back to plain `Box`es transparently.
///
/// Cells are accessed inside transactions via [`TCell::read`] and
/// [`TCell::write`].  Outside of transactions, [`TCell::load_atomic`]
/// provides a consistent single-location snapshot (used by tests, statistics,
/// and destructors — never on the concurrent hot path).
///
/// # Example
///
/// ```
/// use skiphash_stm::{Stm, TCell};
///
/// let stm = Stm::new();
/// let cell = TCell::new(vec![1, 2, 3]);
/// stm.run(|tx| {
///     let mut v = cell.read(tx)?;
///     v.push(4);
///     cell.write(tx, v)
/// });
/// assert_eq!(cell.load_atomic(), vec![1, 2, 3, 4]);
/// ```
pub struct TCell<T> {
    pub(crate) orec: Orec,
    pub(crate) data: Atomic<T>,
    /// Race-detector shadow for the payload slot; zero-sized no-op outside
    /// model builds.  Writers mark installs, readers mark *validated* reads
    /// (after the orec recheck), and the model checker verifies each kept
    /// read is happens-after the install that produced its value.
    pub(crate) shadow: ShadowSlot,
}

impl<T> TCell<T> {
    /// Create a new cell holding `value`, with version 0.
    pub fn new(value: T) -> Self {
        Self::new_at(value, 0)
    }

    /// Create a new cell holding `value`, with its ownership record already
    /// at `version` — its *birth version*.
    ///
    /// For cells allocated at a runtime's birth, [`TCell::new`] (version 0)
    /// is always right.  Cells allocated **mid-lifetime** — a fresh node
    /// spliced into a long-lived structure — should instead be stamped with
    /// the creating attempt's [`read version`](crate::Txn::read_version):
    /// the snapshot registry decides whether a displaced payload is still
    /// needed by comparing pinned versions against the payload's start
    /// version, and a birth version of 0 makes every later-born cell look
    /// old enough to matter to *every* live snapshot, turning bounded
    /// custody into custody that grows with allocation churn.
    ///
    /// # Contract
    ///
    /// `version` must have been issued by the clock of the
    /// [`Stm`](crate::Stm) runtime that will manage this cell (any value at
    /// or below the clock's current reading, such as a transaction's read
    /// version).  A made-up version breaks snapshot validation: readers
    /// abort on any version above their read version, so a cell stamped
    /// ahead of the clock conflicts with every transaction until the clock
    /// catches up.
    pub fn new_at(value: T, version: u64) -> Self {
        let (ptr, _) = arena::alloc_value(value);
        let data = Atomic::null();
        data.store(Shared::from(ptr as *const T), Ordering::Relaxed);
        Self {
            orec: Orec::new(version),
            data,
            shadow: ShadowSlot::new("tcell.payload"),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TCell<T> {
    /// Transactionally read the cell, returning a clone of its value.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TxAbort::ReadConflict`] if the location is owned by a
    /// concurrent writer or has been written since the transaction began; the
    /// enclosing [`crate::Stm::run`] loop will retry the transaction.
    #[inline]
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn read(&self, tx: &mut Txn<'_>) -> TxResult<T> {
        tx.read_cell(self)
    }

    /// Transactionally overwrite the cell with `value`.
    ///
    /// The ownership record is acquired eagerly (on first write) and the new
    /// value becomes visible to the transaction's own subsequent reads
    /// immediately.  If the transaction aborts, the previous value is
    /// restored.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TxAbort::WriteConflict`] if the location is owned by
    /// a concurrent writer.
    #[inline]
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn write(&self, tx: &mut Txn<'_>, value: T) -> TxResult<()> {
        tx.write_cell(self, value)
    }

    /// Transactionally read the cell, mapping the committed value through
    /// `f` by reference instead of returning a clone.
    ///
    /// This is the zero-copy sibling of [`TCell::read`] for values that are
    /// expensive to clone or whose clone has side effects (reference-counted
    /// handles, buffers).  The value reference is only valid inside `f`;
    /// `f` **must be a pure function of its argument** — the orec is
    /// re-validated after `f` returns, and on a conflict the result is
    /// discarded and the transaction aborts, so `f` may observe a value
    /// that never validates.
    ///
    /// # Errors
    ///
    /// Same contract as [`TCell::read`].
    #[inline]
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn read_with<R>(&self, tx: &mut Txn<'_>, f: impl FnOnce(&T) -> R) -> TxResult<R> {
        tx.read_cell_with(self, f)
    }

    /// Overwrite the cell outside of any transaction.
    ///
    /// Spin-acquires the ownership record, installs the new value, and
    /// releases the orec at its **unchanged** version.  Intended for
    /// initialization (before the cell is shared) and single-threaded
    /// teardown (e.g. severing links in destructors); concurrent algorithms
    /// should use transactions.
    ///
    /// The store is atomic per location (an epoch-protected pointer swap —
    /// no reader ever observes a torn value), but it is *not* a committed
    /// transactional write: the version does not change, so a concurrent
    /// transaction's snapshot validation cannot order itself against it.
    /// The version deliberately must not be bumped here — orec versions are
    /// commit timestamps, and inventing one the clock never issued breaks
    /// logical clocks: a fresh `Counter`/`Sampled` runtime sits at 0, so a
    /// cell stamped `1` by initialization would make every transaction abort
    /// with `ReadConflict` forever (the clock only advances on commits, and
    /// no transaction can commit).  The old `Hardware` default masked
    /// exactly that livelock.
    pub fn store_atomic(&self, value: T) {
        let backoff = crossbeam_utils::Backoff::new();
        loop {
            let o1 = self.orec.raw();
            if let OrecState::Unlocked { version } = Orec::decode_raw(o1) {
                // Use a reserved owner id (u64::MAX >> 1) for non-transactional
                // stores; transaction attempt ids start at 1 and increment, so
                // they can never collide with it in practice.
                const STORE_OWNER: u64 = (1 << 62) - 1;
                if self.orec.try_acquire(version, STORE_OWNER) {
                    let (ptr, _) = arena::alloc_value(value);
                    let guard = epoch::pin();
                    let old =
                        self.data
                            .swap(Shared::from(ptr as *const T), Ordering::AcqRel, &guard);
                    self.shadow.on_write();
                    // SAFETY: `old` is unreachable once swapped out; the glue
                    // matches this cell's allocation path.
                    unsafe { guard.defer_with(old.as_raw() as *mut (), arena::drop_glue::<T>()) };
                    self.orec.release(version);
                    return;
                }
            }
            backoff.snooze();
        }
    }

    /// Resolve the cell at a pinned snapshot version, mapping the resolved
    /// value through `f` by reference.
    ///
    /// Returns exactly the value that was committed at the pin's version:
    /// the current payload when the cell has not been written since the pin,
    /// otherwise the payload preserved for the pin by the displacing commit
    /// (see the `snapshot` module docs for the custody protocol).  Never
    /// aborts and never conflicts with writers — at worst it spins briefly
    /// while the location is locked by an in-flight commit.
    ///
    /// `f` must be a pure function of its argument: on the current-value
    /// path the orec is re-validated after `f` runs and a concurrent change
    /// retries, so `f` may observe a value that is then discarded.
    ///
    /// # Panics
    ///
    /// Panics if `pin` was created by a different [`crate::Stm`] runtime
    /// than the one whose transactions version this cell — clock domains are
    /// incomparable, and the history the pin relies on was never preserved.
    /// (This is detectable only indirectly, as a missing history entry.)
    pub fn read_pinned_with<R>(&self, pin: &SnapshotPin, f: impl Fn(&T) -> R) -> R {
        let p = pin.version();
        let backoff = crossbeam_utils::Backoff::new();
        loop {
            let o1 = self.orec.raw();
            match Orec::decode_raw(o1) {
                OrecState::Unlocked { version } if version <= p => {
                    // Not written since the pin: the current payload *is* the
                    // payload at version `p`.  Same validated optimistic read
                    // as `load_atomic`, minus the clone.
                    let guard = epoch::pin();
                    let shared = self.data.load(Ordering::Acquire, &guard);
                    // SAFETY: protected by the pinned guard; a concurrent
                    // replacement defers reclamation past it, and the re-check
                    // below discards the result.
                    let result = f(unsafe { shared.deref() });
                    if self.orec.raw() == o1 {
                        self.shadow.on_read_confirmed();
                        return result;
                    }
                }
                OrecState::Unlocked { .. } => {
                    // Written after the pin: the payload at `p` was displaced
                    // and — because the displacing commit either collected
                    // this pin or its stamp precedes it — preserved in the
                    // history table (push precedes the orec release we just
                    // observed, so the entry is visible).
                    // SAFETY: `self` is a live `TCell<T>`, so every history
                    // entry keyed on its address holds a `T`.
                    let resolved = unsafe {
                        snapshot::read_history::<T, R>(self as *const Self as usize, p, &f)
                    };
                    match resolved {
                        Some(result) => return result,
                        None => panic!(
                            "snapshot pin at version {p} found no history for a cell at \
                             version {:?}; was the pin created by a different Stm runtime?",
                            Orec::decode_raw(o1)
                        ),
                    }
                }
                OrecState::Locked { .. } => {}
            }
            backoff.snooze();
        }
    }

    /// Read the cell outside of any transaction.
    ///
    /// Spins until it observes the location unlocked with an unchanged
    /// version before and after copying the value, so the returned value is
    /// always a committed one.  Intended for tests, reporting, and
    /// single-threaded teardown; concurrent algorithms should use
    /// transactions.
    pub fn load_atomic(&self) -> T {
        let backoff = crossbeam_utils::Backoff::new();
        loop {
            let guard = epoch::pin();
            let o1 = self.orec.raw();
            if let OrecState::Unlocked { .. } = Orec::decode_raw(o1) {
                let shared = self.data.load(Ordering::Acquire, &guard);
                // SAFETY: the pointer was installed by `new` or a
                // transactional write and cannot be reclaimed while `guard`
                // is pinned.
                let value = unsafe { shared.deref() }.clone();
                if self.orec.raw() == o1 {
                    self.shadow.on_read_confirmed();
                    return value;
                }
            }
            backoff.snooze();
        }
    }
}

impl<T> Drop for TCell<T> {
    fn drop(&mut self) {
        // Snapshot custody may still hold payloads this cell displaced; they
        // are dead now (no pinned reader can reach a cell being torn down)
        // and the chain must not survive the address being reused.  Gated so
        // snapshot-free workloads never touch the table.
        if snapshot::any_history() {
            snapshot::purge_cell(self as *const Self as usize);
        }
        // We have exclusive access; reclaim the current value immediately
        // (returning its block to the arena).
        // SAFETY: `&mut self` guarantees no concurrent access, and the
        // pointer is either null or owned by this cell.
        unsafe {
            let shared = self.data.load(Ordering::Relaxed, epoch::unprotected());
            if !shared.is_null() {
                arena::free_value_now(shared.as_raw() as *mut T);
            }
        }
    }
}

impl<T: Clone + Send + Sync + fmt::Debug + 'static> fmt::Debug for TCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TCell")
            .field("value", &self.load_atomic())
            .finish()
    }
}

impl<T: Clone + Send + Sync + Default + 'static> Default for TCell<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

// SAFETY: all shared-state mutation goes through the orec protocol plus
// atomic pointer swaps; values are only dropped through epoch-based
// reclamation or with exclusive access.
unsafe impl<T: Send + Sync> Send for TCell<T> {}
unsafe impl<T: Send + Sync> Sync for TCell<T> {}

/// One undo-log entry: a pending transactional write, type-erased through
/// monomorphic function pointers instead of a `Box<dyn ...>` object.
///
/// The previous design heap-allocated a trait object per write; this record
/// is plain data that lives in the pooled write log, so logging a write costs
/// a `Vec` push.  Displaced values are not retired through the epoch one at
/// a time either: they are collected into the transaction's
/// [`epoch::Bag`] and flushed in a single thread-local access when the
/// transaction finishes, so a commit with `k` writes pins once and flushes
/// once.
pub(crate) struct WriteEntry {
    cell: *const (),
    old_version: u64,
    old_data: *const (),
    commit_fn: unsafe fn(*const (), *const (), u64, &mut epoch::Bag, u64, &CommitCtx<'_>),
    abort_fn: unsafe fn(*const (), *const (), u64, &epoch::Guard, &mut epoch::Bag),
}

// SAFETY: contract — `cell` must point at the live `TCell<T>` recorded by
// `WriteEntry::new`, with this transaction owning its orec; called exactly
// once per entry, from the committing transaction, with its guard pinned.
unsafe fn commit_write<T: Send + Sync + 'static>(
    cell: *const (),
    old_data: *const (),
    old_version: u64,
    retired: &mut epoch::Bag,
    version: u64,
    ctx: &CommitCtx<'_>,
) {
    // SAFETY: forwarded from `WriteEntry::commit`'s contract; `old_data` was
    // displaced by this transaction's own write and is unreachable to new
    // readers.
    unsafe {
        if !old_data.is_null() {
            if ctx.covers(old_version, version) {
                // A live snapshot pin resolves inside this payload's validity
                // window `[old_version, version)`: preserve it in the history
                // table instead of retiring it.  The push must precede the
                // orec release below — a pinned reader that observes the new
                // version must find the entry.
                snapshot::push_history(
                    cell as usize,
                    ctx.tag,
                    old_version,
                    version,
                    old_data as *mut (),
                    arena::drop_glue::<T>(),
                );
            } else {
                retired.defer_with(old_data as *mut (), arena::drop_glue::<T>());
            }
        }
        (*(cell as *const TCell<T>)).orec.release(version);
    }
}

// SAFETY: contract — same as `commit_write`, from the aborting transaction
// while it still owns the orec.
unsafe fn abort_write<T: Send + Sync + 'static>(
    cell: *const (),
    old_data: *const (),
    old_version: u64,
    guard: &epoch::Guard,
    retired: &mut epoch::Bag,
) {
    // SAFETY: forwarded from `WriteEntry::abort`'s contract; the transaction
    // owns the orec, so nobody else can swap the data pointer concurrently.
    unsafe {
        let cell = &*(cell as *const TCell<T>);
        let old = Shared::from(old_data as *const T);
        let current = cell.data.swap(old, Ordering::AcqRel, guard);
        cell.shadow.on_write();
        if !current.is_null() {
            retired.defer_with(current.as_raw() as *mut (), arena::drop_glue::<T>());
        }
        cell.orec.release(old_version);
    }
}

impl WriteEntry {
    pub(crate) fn new<T: Send + Sync + 'static>(
        cell: *const TCell<T>,
        old_version: u64,
        old_data: *const T,
    ) -> Self {
        Self {
            cell: cell as *const (),
            old_version,
            old_data: old_data as *const (),
            commit_fn: commit_write::<T>,
            abort_fn: abort_write::<T>,
        }
    }

    /// Park the pre-transaction value in `retired` (or preserve it for a
    /// live snapshot pin per `ctx`) and release the orec at `version`.
    /// Called on commit.
    ///
    /// # Safety
    ///
    /// Must only be called by the owning transaction, exactly once, with the
    /// transaction's epoch guard still pinned; `retired` must be flushed
    /// through that guard before it is unpinned.
    pub(crate) unsafe fn commit(
        &self,
        retired: &mut epoch::Bag,
        version: u64,
        ctx: &CommitCtx<'_>,
    ) {
        // SAFETY: forwarded to the monomorphic glue under the same contract.
        unsafe {
            (self.commit_fn)(
                self.cell,
                self.old_data,
                self.old_version,
                retired,
                version,
                ctx,
            )
        }
    }

    /// Restore the pre-transaction value, release the orec at its old
    /// version, and park the displaced value in `retired`.  Called on abort.
    ///
    /// # Safety
    ///
    /// Same contract as [`WriteEntry::commit`].
    pub(crate) unsafe fn abort(&self, guard: &epoch::Guard, retired: &mut epoch::Bag) {
        // SAFETY: forwarded to the monomorphic glue under the same contract.
        unsafe { (self.abort_fn)(self.cell, self.old_data, self.old_version, guard, retired) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stm;

    #[test]
    fn new_cell_holds_initial_value() {
        let cell = TCell::new(41u32);
        assert_eq!(cell.load_atomic(), 41);
    }

    #[test]
    fn default_cell_is_default_value() {
        let cell: TCell<u64> = TCell::default();
        assert_eq!(cell.load_atomic(), 0);
    }

    #[test]
    fn debug_includes_value() {
        let cell = TCell::new(7u8);
        assert!(format!("{cell:?}").contains('7'));
    }

    #[test]
    fn write_is_visible_after_commit() {
        let stm = Stm::new();
        let cell = TCell::new(String::from("a"));
        stm.run(|tx| cell.write(tx, String::from("b")));
        assert_eq!(cell.load_atomic(), "b");
    }

    #[test]
    fn read_after_write_sees_own_update() {
        let stm = Stm::new();
        let cell = TCell::new(1u64);
        let observed = stm.run(|tx| {
            cell.write(tx, 2)?;
            cell.read(tx)
        });
        assert_eq!(observed, 2);
    }

    #[test]
    fn multiple_writes_in_one_txn_keep_last() {
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        stm.run(|tx| {
            for i in 1..=10u64 {
                cell.write(tx, i)?;
            }
            Ok(())
        });
        assert_eq!(cell.load_atomic(), 10);
    }

    #[test]
    fn dropping_cell_reclaims_value() {
        // Mostly a miri/asan target: construct and drop cells holding heap
        // data and ensure no double free / leak panics.
        for _ in 0..100 {
            let cell = TCell::new(vec![1u8; 128]);
            drop(cell);
        }
    }

    #[test]
    fn slab_ineligible_values_still_round_trip() {
        // 1 KiB payloads exceed every payload class, exercising the Box
        // fallback across write, overwrite, and store_atomic.
        let stm = Stm::new();
        let cell = TCell::new([1u8; 1024]);
        stm.run(|tx| {
            cell.write(tx, [2u8; 1024])?;
            cell.write(tx, [3u8; 1024])
        });
        assert_eq!(cell.load_atomic()[0], 3);
        cell.store_atomic([4u8; 1024]);
        assert_eq!(cell.load_atomic()[0], 4);
    }

    #[test]
    fn heap_values_survive_slab_round_trips() {
        // Values owning heap data (String) exercise the drop glue: the value
        // must be dropped exactly once when its block is recycled.
        let stm = Stm::new();
        let cell = TCell::new(String::from("start"));
        // Enough churn to cycle blocks through the arena several times; Miri
        // runs a scaled-down count (interpreted execution is ~1000x slower).
        let rounds: usize = if cfg!(miri) { 64 } else { 1000 };
        for i in 0..rounds {
            stm.run(|tx| cell.write(tx, format!("value-{i}")));
        }
        assert_eq!(cell.load_atomic(), format!("value-{}", rounds - 1));
    }
}
