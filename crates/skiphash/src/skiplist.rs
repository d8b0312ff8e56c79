//! The doubly linked, transactional skip list half of the skip hash.
//!
//! Unlike lock-free skip lists, every structural change here happens inside
//! an STM transaction, so the list can be doubly linked: each node knows its
//! predecessor and successor at every level, which is what lets `remove`
//! unstitch a node in `O(height)` without re-traversing from the head.
//!
//! Nodes are arena-pooled [`NodeRef`]s (see [`crate::node`]); traversals use
//! the stack-allocated [`LevelNodes`] scratch, so neither inserting a node
//! nor locating one touches the global allocator in the steady state.

use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use std::mem::MaybeUninit;
use std::ops::Bound as StdBound;
use std::ops::{Deref, DerefMut};

use rand::Rng;
use skiphash_stm::{SnapshotPin, TCell, TxAbort, TxResult, Txn};

use crate::node::{Bound, Node, NodeRef, RawNode};
use crate::{MapKey, MapValue};

/// Upper bound on tower heights, and the inline capacity of [`LevelNodes`]
/// ([`crate::SkipHashBuilder::max_level`] rejects anything at or above it).
pub const MAX_LEVEL_LIMIT: usize = 64;

/// One node per level, indexed by level (as returned by
/// [`SkipList::find_position`]).
///
/// A fixed-capacity inline array rather than a `Vec`: `find_position` runs
/// on every insert and ordered point query, and two heap-allocated vectors
/// per traversal would put the allocator right back on the paths the arena
/// just took it off.  Capacity is [`MAX_LEVEL_LIMIT`]; the live prefix is
/// `max_level` entries.  Dereferences to `[NodeRef<K, V>]`.
pub struct LevelNodes<K, V> {
    slots: [MaybeUninit<NodeRef<K, V>>; MAX_LEVEL_LIMIT],
    len: usize,
}

impl<K, V> LevelNodes<K, V> {
    /// Build by upgrading one borrowed handle per level.
    ///
    /// # Safety
    ///
    /// Every handle must satisfy the [`RawNode`] validity contract (obtained
    /// under the still-running transaction attempt).
    unsafe fn from_raw(raw: &[Option<RawNode<K, V>>]) -> Self {
        assert!(raw.len() <= MAX_LEVEL_LIMIT);
        let mut out = Self {
            slots: [const { MaybeUninit::uninit() }; MAX_LEVEL_LIMIT],
            len: 0,
        };
        for handle in raw {
            let handle = handle.expect("every level was resolved by the search");
            // SAFETY: forwarded from this function's contract; `len` tracks
            // initialization so a panic drops exactly the written prefix.
            out.slots[out.len].write(unsafe { handle.upgrade() });
            out.len += 1;
        }
        out
    }
}

impl<K, V> Deref for LevelNodes<K, V> {
    type Target = [NodeRef<K, V>];

    fn deref(&self) -> &[NodeRef<K, V>] {
        // SAFETY: the first `len` slots are always initialized.
        unsafe { &*(std::ptr::from_ref(&self.slots[..self.len]) as *const [NodeRef<K, V>]) }
    }
}

impl<K, V> DerefMut for LevelNodes<K, V> {
    fn deref_mut(&mut self) -> &mut [NodeRef<K, V>] {
        // SAFETY: as `deref`, plus exclusivity from `&mut self`.
        unsafe { &mut *(std::ptr::from_mut(&mut self.slots[..self.len]) as *mut [NodeRef<K, V>]) }
    }
}

impl<K, V> Drop for LevelNodes<K, V> {
    fn drop(&mut self) {
        for slot in &mut self.slots[..self.len] {
            // SAFETY: the live prefix is initialized and dropped exactly once.
            unsafe { slot.assume_init_drop() };
        }
    }
}

impl<K, V> fmt::Debug for LevelNodes<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LevelNodes")
            .field("len", &self.len)
            .finish()
    }
}

/// A doubly linked skip list whose nodes map keys to values.
///
/// All methods must be called inside a transaction; the enclosing
/// [`crate::SkipHash`] drives them.
pub struct SkipList<K, V> {
    head: NodeRef<K, V>,
    tail: NodeRef<K, V>,
    max_level: usize,
}

impl<K, V> fmt::Debug for SkipList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("max_level", &self.max_level)
            .finish()
    }
}

impl<K: MapKey, V: MapValue> SkipList<K, V> {
    /// Create an empty skip list with `max_level` levels; the sentinels are
    /// stitched together at every level.
    pub fn new(max_level: usize) -> Self {
        assert!(max_level >= 1, "skip list needs at least one level");
        assert!(
            max_level <= MAX_LEVEL_LIMIT,
            "skip list supports at most {MAX_LEVEL_LIMIT} levels"
        );
        let head = Node::sentinel(Bound::NegInf, max_level);
        let tail = Node::sentinel(Bound::PosInf, max_level);
        for level in 0..max_level {
            head.level(level).succ.store_atomic(Some(tail.clone()));
            tail.level(level).pred.store_atomic(Some(head.clone()));
        }
        Self {
            head,
            tail,
            max_level,
        }
    }

    /// The head sentinel.
    pub fn head(&self) -> &NodeRef<K, V> {
        &self.head
    }

    /// The tail sentinel.
    pub fn tail(&self) -> &NodeRef<K, V> {
        &self.tail
    }

    /// Number of levels.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Sample a tower height from the geometric distribution with p = 1/2,
    /// capped at the list's level count.
    pub fn random_height<R: Rng>(&self, rng: &mut R) -> usize {
        let mut height = 1;
        while height < self.max_level && rng.gen::<bool>() {
            height += 1;
        }
        height
    }

    /// Find, at every level, the last node whose key is strictly less than
    /// `key` (the "predecessor") and its successor at that level.
    ///
    /// Returned scratches are indexed by level and have `max_level` entries.
    pub fn find_position(
        &self,
        tx: &mut Txn<'_>,
        key: &K,
    ) -> TxResult<(LevelNodes<K, V>, LevelNodes<K, V>)> {
        // Hop with borrowed handles: a search crosses dozens of links, and
        // cloning a counted handle per hop (increment now, decrement next
        // hop) made refcount traffic the dominant traversal cost.  Links are
        // read through `read_with` (no payload clone) into `RawNode`s, and
        // only the two per-level results are upgraded to counted handles.
        //
        // SAFETY (for every `node()` and the final `from_raw`): each handle
        // was read through a cell inside this same attempt `tx`, whose epoch
        // guard stays pinned for the whole function — the RawNode validity
        // contract.
        let mut raw_preds: [Option<RawNode<K, V>>; MAX_LEVEL_LIMIT] = [None; MAX_LEVEL_LIMIT];
        let mut raw_succs: [Option<RawNode<K, V>>; MAX_LEVEL_LIMIT] = [None; MAX_LEVEL_LIMIT];

        let mut pred = RawNode::from_ref(&self.head);
        for level in (0..self.max_level).rev() {
            // SAFETY: handle read under this attempt; guard pinned (blanket note above).
            let mut curr = unsafe { pred.node() }
                .level(level)
                .succ
                .read_with(tx, RawNode::from_link)?
                .expect("levels are always terminated by the tail sentinel");
            // SAFETY: same contract — read under this attempt.
            while unsafe { curr.node() }.bound.is_before(key) {
                pred = curr;
                // SAFETY: same contract — read under this attempt.
                curr = unsafe { curr.node() }
                    .level(level)
                    .succ
                    .read_with(tx, RawNode::from_link)?
                    .expect("levels are always terminated by the tail sentinel");
            }
            raw_preds[level] = Some(pred);
            raw_succs[level] = Some(curr);
        }
        // SAFETY: as above — the attempt is still running.
        unsafe {
            Ok((
                LevelNodes::from_raw(&raw_preds[..self.max_level]),
                LevelNodes::from_raw(&raw_succs[..self.max_level]),
            ))
        }
    }

    /// A borrowed-hop [`Cursor`] over this list, reading through `mode`.
    pub(crate) fn cursor<M: ReadMode>(&self, mode: M) -> Cursor<'_, K, V, M> {
        Cursor { list: self, mode }
    }

    /// First node (logically present *or* deleted) whose key is `>= key`,
    /// possibly the tail sentinel.
    pub fn ceil_raw(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        let mut cursor = self.cursor(tx);
        let handle = cursor.ceil(key)?;
        Ok(Position {
            cursor: &mut cursor,
            handle,
        }
        .upgrade())
    }

    /// First *logically present* node whose key is `>= key`, possibly the
    /// tail sentinel.
    pub fn ceil_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        self.first_present_from(tx, StdBound::Included(key), Walk::TO_TAIL)
    }

    /// First logically present node whose key is strictly `> key`, possibly
    /// the tail sentinel.
    pub fn succ_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        self.first_present_from(tx, StdBound::Excluded(key), Walk::TO_TAIL)
    }

    /// Last logically present node whose key is `<= key`, possibly the head
    /// sentinel.  Uses the predecessor links (this is where double linking
    /// pays off for `floor`/`pred` point queries).
    pub fn floor_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        // A logically present node with this exact key may sit *after*
        // logically deleted nodes with the same key, so resolve equality via
        // `ceil_present` before falling back to the strict predecessor.
        let node = self.ceil_present(tx, key)?;
        if !node.is_tail() && node.bound.cmp_key(key) == Ordering::Equal {
            return Ok(node);
        }
        self.pred_present(tx, key)
    }

    /// Last logically present node whose key is strictly `< key`, possibly
    /// the head sentinel.
    pub fn pred_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        self.first_present_from(tx, StdBound::Excluded(key), Walk::TO_HEAD)
    }

    /// First logically present node in the list (possibly the tail sentinel).
    pub fn first_present(&self, tx: &mut Txn<'_>) -> TxResult<NodeRef<K, V>> {
        self.first_present_from(tx, StdBound::Unbounded, Walk::TO_TAIL)
    }

    /// The point queries' one shape: [`Cursor::first`], upgraded.
    fn first_present_from(
        &self,
        tx: &mut Txn<'_>,
        from: StdBound<&K>,
        walk: Walk<'_, K>,
    ) -> TxResult<NodeRef<K, V>> {
        Ok(self
            .cursor(tx)
            .first(from, walk, Visible::Present)?
            .upgrade())
    }

    /// Insert a new node for `key`.
    ///
    /// The caller (the skip hash) guarantees that no *logically present* node
    /// with this key exists; however, logically deleted nodes with the same
    /// key may still be physically linked, in which case the new node is
    /// inserted after all of them (the paper's
    /// `insert_after_logical_deletes`).
    pub fn insert_after_logical_deletes(
        &self,
        tx: &mut Txn<'_>,
        key: K,
        value: V,
        height: usize,
        i_time: u64,
    ) -> TxResult<NodeRef<K, V>> {
        debug_assert!(height >= 1 && height <= self.max_level);
        let (mut preds, mut succs) = self.find_position(tx, &key)?;

        // Advance past any logically deleted nodes that share the key so the
        // new node lands after them.
        for level in 0..height {
            loop {
                if succs[level].is_tail() || succs[level].bound.cmp_key(&key) != Ordering::Equal {
                    break;
                }
                let next = succs[level]
                    .level(level)
                    .succ
                    .read(tx)?
                    .expect("levels are always terminated by the tail sentinel");
                preds[level] = std::mem::replace(&mut succs[level], next);
            }
        }

        // The node's own cells are written below while nothing else
        // references it.  No `Txn::keep_alive` registration is needed (the
        // `Arc` design required one): if this attempt aborts after the link
        // writes, the handle dropped at the end of the body retires the
        // block through the epoch *under this attempt's pin*, so the block
        // provably outlives the rollback that restores these cells — see the
        // lifetime rules in `crate::node`.
        // Born at this attempt's read version: cells stamped 0 would look
        // older than every pinned snapshot, so the first overwrite of each
        // would be preserved forever-growing custody; stamped at `rv`, a
        // node born after a pin is provably outside its window.
        let node = Node::new(key, value, height, i_time, tx.read_version());
        for level in 0..height {
            // The fresh node is unreachable until the neighbour writes below
            // commit, so its own links need no transactional instrumentation:
            // `store_atomic` installs them at the birth version, outside the
            // write set and undo log (an abort simply drops the node).
            // Readers still see them initialized — the data swap here is
            // ordered before the neighbour's commit-time orec release, which
            // is what publishes the node.  This also keeps snapshot custody
            // from preserving the `None` placeholders transactional writes
            // would displace on every insert.
            node.level(level)
                .pred
                .store_atomic(Some(preds[level].clone()));
            node.level(level)
                .succ
                .store_atomic(Some(succs[level].clone()));
        }
        for level in 0..height {
            preds[level]
                .level(level)
                .succ
                .write(tx, Some(node.clone()))?;
            succs[level]
                .level(level)
                .pred
                .write(tx, Some(node.clone()))?;
        }
        Ok(node)
    }

    /// Physically unlink `node` from every level.
    ///
    /// Thanks to the predecessor links this is `O(height)`: no traversal from
    /// the head is required.  The node's own links are left intact so that a
    /// slow-path range query paused on it can still move forward.
    pub fn unstitch(&self, tx: &mut Txn<'_>, node: &NodeRef<K, V>) -> TxResult<()> {
        debug_assert!(!node.is_sentinel(), "sentinels are never unstitched");
        for level in 0..node.height {
            let pred = node
                .level(level)
                .pred
                .read(tx)?
                .expect("linked nodes always have predecessors");
            let succ = node
                .level(level)
                .succ
                .read(tx)?
                .expect("linked nodes always have successors");
            pred.level(level).succ.write(tx, Some(succ.clone()))?;
            succ.level(level).pred.write(tx, Some(pred))?;
        }
        Ok(())
    }

    /// Count logically present nodes by walking level 0 with borrowed hops.
    pub fn count_present(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut count = 0;
        let start = Start::Bound(StdBound::Unbounded);
        self.cursor(tx)
            .scan(start, Walk::TO_TAIL, Visible::Present, |_| {
                count += 1;
                Ok(())
            })?;
        Ok(count)
    }

    /// Collect every logically present `(key, value)` pair in order by
    /// walking level 0 (borrowed hops; keys copied out via `K::clone`).
    pub fn collect_present(&self, tx: &mut Txn<'_>) -> TxResult<Vec<(K, V)>> {
        let (mut out, all) = (Vec::new(), StdBound::Unbounded);
        self.cursor(tx)
            .range(all, all, false, &K::clone, &mut out)?;
        Ok(out)
    }

    /// Validate the structural invariants of the list (test helper):
    ///
    /// 1. keys are non-decreasing along level 0 (duplicates may appear only
    ///    when logically deleted nodes linger);
    /// 2. `pred`/`succ` links are mutually consistent at every level;
    /// 3. every node linked at level `l > 0` is also linked at level `l - 1`
    ///    (checked in one merge pass per level, so the check is linear).
    pub fn check_invariants(&self, tx: &mut Txn<'_>) -> TxResult<Result<(), String>> {
        // Level 0 ordering + doubly-linked consistency on all levels.
        for level in 0..self.max_level {
            let mut prev = self.head.clone();
            let mut curr = prev
                .level(level)
                .succ
                .read(tx)?
                .expect("levels are always terminated by the tail sentinel");
            loop {
                let back = curr
                    .level(level)
                    .pred
                    .read(tx)?
                    .expect("linked nodes always have predecessors");
                if !NodeRef::ptr_eq(&back, &prev) {
                    return Ok(Err(format!("level {level}: pred link mismatch")));
                }
                if !prev.is_head() && !curr.is_tail() {
                    let ordering = match (&prev.bound, &curr.bound) {
                        (Bound::Key(a), Bound::Key(b)) => a.cmp(b),
                        _ => Ordering::Less,
                    };
                    if ordering == Ordering::Greater {
                        return Ok(Err(format!("level {level}: keys out of order")));
                    }
                }
                if curr.is_tail() {
                    break;
                }
                prev = curr.clone();
                curr = curr
                    .level(level)
                    .succ
                    .read(tx)?
                    .expect("levels are always terminated by the tail sentinel");
            }
        }

        // Each node linked at level l is linked at level l - 1: both levels
        // are key-ordered, so one merge pass walks level l - 1 up to each
        // level-l node in turn.
        for level in 1..self.max_level {
            let mut below = self.head.clone();
            let mut node = self.head.clone();
            loop {
                node = node
                    .level(level)
                    .succ
                    .read(tx)?
                    .expect("levels are always terminated by the tail sentinel");
                if node.is_tail() {
                    break;
                }
                while !NodeRef::ptr_eq(&below, &node) {
                    if below.is_tail() {
                        return Ok(Err(format!(
                            "level {level}: node missing from level {}",
                            level - 1
                        )));
                    }
                    below = below
                        .level(level - 1)
                        .succ
                        .read(tx)?
                        .expect("levels are always terminated by the tail sentinel");
                }
            }
        }
        Ok(Ok(()))
    }

    /// Sever every link in the list (teardown helper used by
    /// [`crate::SkipHash`]'s `Drop` to break reference cycles).
    pub fn sever_all(&self) {
        let mut current = self.head.clone();
        loop {
            let next = current.level(0).succ.load_atomic();
            current.sever_links();
            match next {
                Some(n) => current = n,
                None => break,
            }
        }
        self.tail.sever_links();
    }
}

/// How a [`Cursor`] reads the list's cells: inside one transaction attempt
/// (`&mut Txn`) or at one snapshot pin's version (`&SnapshotPin`).
///
/// # Safety
///
/// An implementation vouches for the [`RawNode`] validity contract of the
/// handles a cursor reaches through it: every node reached from the list's
/// sentinels by following links read through [`ReadMode::read`] stays
/// allocated for as long as the mode value lives.  The two implementations
/// below state why; the cursor's single dereference point relies on it.
// SAFETY: the trait is unsafe so that each mode argues the contract once,
// at its `unsafe impl`, instead of every scan loop arguing it per hop.
pub(crate) unsafe trait ReadMode {
    /// What a read can fail with: a transaction abort, or nothing.
    type Error;

    /// Resolve `cell` in this mode and map its payload through `f`.
    fn read<T: Clone + Send + Sync + 'static, R>(
        &mut self,
        cell: &TCell<T>,
        f: impl Fn(&T) -> R,
    ) -> Result<R, Self::Error>;
}

// SAFETY: an attempt keeps its epoch guard pinned while it runs, and the
// `&mut Txn` borrow does not outlive the attempt.  A node read through a
// link payload under that pin keeps `refs >= 1` until the unpin: the payload
// is either still installed or was retired during the pin, and its drop
// (which holds the count) is deferred past the unpin (see `RawNode`).
unsafe impl ReadMode for &mut Txn<'_> {
    type Error = TxAbort;

    #[inline]
    fn read<T: Clone + Send + Sync + 'static, R>(
        &mut self,
        cell: &TCell<T>,
        f: impl Fn(&T) -> R,
    ) -> TxResult<R> {
        cell.read_with(self, f)
    }
}

// SAFETY: custody, not an epoch guard (see `crate::snapshot`).  A link
// payload visible at the pinned version is either current or preserved in
// the history table, and neither is freed while the pin lives: displacing
// commits see the pin and route the payload into history.  Link payloads
// hold strong `NodeRef`s, so every node reachable at the pinned version
// keeps a positive count, and the node arena cannot recycle it.
unsafe impl ReadMode for &SnapshotPin {
    type Error = Infallible;

    #[inline]
    fn read<T: Clone + Send + Sync + 'static, R>(
        &mut self,
        cell: &TCell<T>,
        f: impl Fn(&T) -> R,
    ) -> Result<R, Infallible> {
        Ok(cell.read_pinned_with(self, f))
    }
}

/// The direction of a level-0 walk and the bound that ends it: forward up to
/// an end bound, or backward over the predecessor links down to a start
/// bound.
pub(crate) enum Walk<'k, K> {
    Forward(StdBound<&'k K>),
    Backward(StdBound<&'k K>),
}

impl<K> Walk<'_, K> {
    /// Forward over the whole list, to the tail sentinel.
    pub(crate) const TO_TAIL: Self = Walk::Forward(StdBound::Unbounded);
    /// Backward over the whole list, to the head sentinel.
    const TO_HEAD: Self = Walk::Backward(StdBound::Unbounded);
}

// Manual impls: a derive would demand `K: Copy`.
impl<K> Clone for Walk<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K> Copy for Walk<'_, K> {}

/// Which nodes a walk stops on.
#[derive(Clone, Copy)]
pub(crate) enum Visible {
    /// Not marked removed, as the read mode sees it (for a snapshot: present
    /// at the pinned version).
    Present,
    /// §4.3's safety test for an RQC query with this version: inserted
    /// before the query began and not logically deleted before it began.
    SafeFor(u64),
}

/// Where a [`Cursor::scan`] begins.
pub(crate) enum Start<'r, K, V> {
    /// The first node of the walk from this bound at its near end.
    Bound(StdBound<&'r K>),
    /// At this node (the RQC slow path's start node).
    At(&'r NodeRef<K, V>),
    /// Just past this node, in the walk's direction (its resume point).
    After(&'r NodeRef<K, V>),
}

/// The one borrowed-hop reader of the list: a tower descent, the bound
/// seeks, and the scan loop, generic over the [`ReadMode`].
///
/// Every [`RawNode`] the cursor handles is a sentinel of `list`, was read
/// through `mode`, or was borrowed from a counted handle that outlives the
/// call ([`Start`]); the mode's validity contract keeps all of them
/// allocated while the cursor lives.  Handles never leave this module
/// except inside a [`Position`], which borrows the cursor, so no caller can
/// bring one from elsewhere.
pub(crate) struct Cursor<'a, K, V, M> {
    list: &'a SkipList<K, V>,
    mode: M,
}

/// A node a cursor stopped on, borrowing the cursor: read its key and
/// value in the cursor's mode, or upgrade it to a counted handle.
pub(crate) struct Position<'c, 'a, K, V, M> {
    cursor: &'c mut Cursor<'a, K, V, M>,
    handle: RawNode<K, V>,
}

impl<K: MapKey, V: MapValue, M: ReadMode> Position<'_, '_, K, V, M> {
    /// The node's key, or `None` for a sentinel.
    pub(crate) fn key(&self) -> Option<&K> {
        match &self.cursor.node(self.handle).bound {
            Bound::Key(key) => Some(key),
            _ => None,
        }
    }

    /// The value of a regular node, read in the cursor's mode.
    pub(crate) fn value(&mut self) -> Result<V, M::Error> {
        let value = &self.cursor.node(self.handle).value;
        Ok(self
            .cursor
            .mode
            .read(value, Option::clone)?
            .expect("regular nodes always carry a value"))
    }

    /// `(extract(key), value)` of a regular node.
    pub(crate) fn pair(&mut self, extract: &impl Fn(&K) -> K) -> Result<(K, V), M::Error> {
        let value = self.value()?;
        Ok((extract(self.cursor.node(self.handle).key()), value))
    }

    /// A counted handle to the node that outlives the cursor.
    pub(crate) fn upgrade(&self) -> NodeRef<K, V> {
        // SAFETY: the handle obeys the cursor's validity contract (see
        // `Cursor`), so its count is at least one and the increment cannot
        // revive a dead block.
        unsafe { self.handle.upgrade() }
    }
}

impl<'a, K: MapKey, V: MapValue, M: ReadMode> Cursor<'a, K, V, M> {
    /// The node behind `handle`.
    #[inline]
    fn node(&self, handle: RawNode<K, V>) -> &'a Node<K, V> {
        // SAFETY: `handle` is one the cursor may hold (type docs); the
        // `ReadMode` contract keeps it allocated while the cursor lives.
        unsafe { handle.node() }
    }

    /// Follow one link of `handle`'s tower.
    #[inline]
    fn link(
        &mut self,
        handle: RawNode<K, V>,
        level: usize,
        forward: bool,
    ) -> Result<RawNode<K, V>, M::Error> {
        let links = self.node(handle).level(level);
        let cell = if forward { &links.succ } else { &links.pred };
        Ok(self
            .mode
            .read(cell, RawNode::from_link)?
            .expect("levels are always terminated by the sentinels"))
    }

    /// One level-0 hop in the walk's direction.
    #[inline]
    fn step(
        &mut self,
        handle: RawNode<K, V>,
        walk: Walk<'_, K>,
    ) -> Result<RawNode<K, V>, M::Error> {
        self.link(handle, 0, matches!(walk, Walk::Forward(_)))
    }

    /// The tower descent: the first level-0 node whose key is `>= key`
    /// (possibly the tail sentinel).
    fn ceil(&mut self, key: &K) -> Result<RawNode<K, V>, M::Error> {
        let mut pred = RawNode::from_ref(&self.list.head);
        for level in (0..self.list.max_level).rev() {
            loop {
                let next = self.link(pred, level, true)?;
                // Warm the candidate's header and tower lines while the
                // bound comparison below resolves (docs/PERF.md, Mechanism
                // 6: the tower line is the next dependent load on the
                // continue-at-this-level path).
                next.prefetch();
                if !self.node(next).bound.is_before(key) {
                    if level == 0 {
                        return Ok(next);
                    }
                    break;
                }
                pred = next;
            }
        }
        unreachable!("level 0 always ends at the tail sentinel")
    }

    /// The first level-0 node past every key below `key`, and unless
    /// `inclusive` also past every node carrying `key`, logically deleted
    /// duplicates included.
    fn seek(&mut self, key: &K, inclusive: bool) -> Result<RawNode<K, V>, M::Error> {
        let mut node = self.ceil(key)?;
        while !inclusive && self.node(node).bound.cmp_key(key) == Ordering::Equal {
            node = self.link(node, 0, true)?;
        }
        Ok(node)
    }

    /// The first node of `walk` from `start`.
    fn start(
        &mut self,
        start: Start<'_, K, V>,
        walk: Walk<'_, K>,
    ) -> Result<RawNode<K, V>, M::Error> {
        let head = RawNode::from_ref(&self.list.head);
        let tail = RawNode::from_ref(&self.list.tail);
        match (walk, start) {
            (_, Start::At(node)) => Ok(RawNode::from_ref(node)),
            (_, Start::After(node)) => self.step(RawNode::from_ref(node), walk),
            (Walk::Forward(_), Start::Bound(StdBound::Unbounded)) => self.link(head, 0, true),
            (Walk::Forward(_), Start::Bound(StdBound::Included(low))) => self.seek(low, true),
            (Walk::Forward(_), Start::Bound(StdBound::Excluded(low))) => self.seek(low, false),
            (Walk::Backward(_), Start::Bound(end)) => {
                // One step back from the first node past the end bound.
                let past = match end {
                    StdBound::Unbounded => tail,
                    StdBound::Included(high) => self.seek(high, false)?,
                    StdBound::Excluded(high) => self.seek(high, true)?,
                };
                self.link(past, 0, false)
            }
        }
    }

    /// True when `handle` is a regular node the walk's bound still admits.
    #[inline]
    fn within(&self, handle: RawNode<K, V>, walk: Walk<'_, K>) -> bool {
        let node = self.node(handle);
        !node.is_sentinel()
            && match walk {
                Walk::Forward(StdBound::Included(high)) => node.bound.is_at_most(high),
                Walk::Forward(StdBound::Excluded(high)) => node.bound.is_before(high),
                Walk::Backward(StdBound::Included(low)) => !node.bound.is_before(low),
                Walk::Backward(StdBound::Excluded(low)) => {
                    node.bound.cmp_key(low) == Ordering::Greater
                }
                Walk::Forward(StdBound::Unbounded) | Walk::Backward(StdBound::Unbounded) => true,
            }
    }

    /// True when `rule` shows the regular node `handle`.
    fn visible(&mut self, handle: RawNode<K, V>, rule: Visible) -> Result<bool, M::Error> {
        let node = self.node(handle);
        Ok(match rule {
            Visible::Present => self.mode.read(&node.r_time, Option::is_none)?,
            Visible::SafeFor(version) => {
                self.mode.read(&node.i_time, |t| *t < version)?
                    && self
                        .mode
                        .read(&node.r_time, |r| r.is_none_or(|t| t >= version))?
            }
        })
    }

    /// The first node of `walk` from the bound `from` at its near end (the
    /// start bound walking forward, the end bound walking backward) that
    /// `rule` shows, or else the first node outside the walk.
    pub(crate) fn first(
        &mut self,
        from: StdBound<&K>,
        walk: Walk<'_, K>,
        rule: Visible,
    ) -> Result<Position<'_, 'a, K, V, M>, M::Error> {
        let mut handle = self.start(Start::Bound(from), walk)?;
        while self.within(handle, walk) && !self.visible(handle, rule)? {
            handle = self.step(handle, walk)?;
        }
        Ok(Position {
            cursor: self,
            handle,
        })
    }

    /// Hand every node `rule` shows along `walk` from `start` to `visit`:
    /// the one level-0 loop behind every scan.
    pub(crate) fn scan(
        &mut self,
        start: Start<'_, K, V>,
        walk: Walk<'_, K>,
        rule: Visible,
        mut visit: impl FnMut(Position<'_, 'a, K, V, M>) -> Result<(), M::Error>,
    ) -> Result<(), M::Error> {
        let mut handle = self.start(start, walk)?;
        while self.within(handle, walk) {
            let next = self.step(handle, walk)?;
            // Overlap the next node's cache miss with this node's mark and
            // value reads, the level-0 scan's dominant stall.
            next.prefetch();
            if self.visible(handle, rule)? {
                visit(Position {
                    cursor: self,
                    handle,
                })?;
            }
            handle = next;
        }
        Ok(())
    }

    /// Every logically present pair the bounds admit, ascending or (`rev`)
    /// descending: the whole query of the range fast path, `range_rev`,
    /// `TxView::range`, full scans, and snapshot ranges.
    pub(crate) fn range(
        &mut self,
        start: StdBound<&K>,
        end: StdBound<&K>,
        rev: bool,
        extract: &impl Fn(&K) -> K,
        out: &mut Vec<(K, V)>,
    ) -> Result<(), M::Error> {
        let (from, walk) = if rev {
            (end, Walk::Backward(start))
        } else {
            (start, Walk::Forward(end))
        };
        self.scan(Start::Bound(from), walk, Visible::Present, |mut node| {
            out.push(node.pair(extract)?);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiphash_stm::Stm;

    fn list_with(stm: &Stm, keys: &[u64]) -> SkipList<u64, u64> {
        let list = SkipList::new(8);
        let mut rng = rand::thread_rng();
        for &k in keys {
            let h = list.random_height(&mut rng);
            stm.run(|tx| {
                list.insert_after_logical_deletes(tx, k, k * 10, h, 0)
                    .map(|_| ())
            });
        }
        list
    }

    #[test]
    fn empty_list_has_stitched_sentinels() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(4);
        let ok = stm.run(|tx| list.check_invariants(tx));
        assert_eq!(ok, Ok(()));
        let count = stm.run(|tx| list.count_present(tx));
        assert_eq!(count, 0);
    }

    #[test]
    fn inserted_keys_come_back_in_order() {
        let stm = Stm::new();
        let list = list_with(&stm, &[5, 1, 9, 3, 7]);
        let pairs = stm.run(|tx| list.collect_present(tx));
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn ceil_and_succ_skip_correctly() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        let ceil20 = stm.run(|tx| {
            let n = list.ceil_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(ceil20, 20);
        let succ20 = stm.run(|tx| {
            let n = list.succ_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(succ20, 30);
        let ceil15 = stm.run(|tx| {
            let n = list.ceil_present(tx, &15)?;
            Ok(*n.key())
        });
        assert_eq!(ceil15, 20);
        let past_end = stm.run(|tx| Ok(list.ceil_present(tx, &31)?.is_tail()));
        assert!(past_end);
    }

    #[test]
    fn floor_and_pred_walk_backwards() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        let floor25 = stm.run(|tx| {
            let n = list.floor_present(tx, &25)?;
            Ok(*n.key())
        });
        assert_eq!(floor25, 20);
        let floor20 = stm.run(|tx| {
            let n = list.floor_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(floor20, 20);
        let pred20 = stm.run(|tx| {
            let n = list.pred_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(pred20, 10);
        let before_all = stm.run(|tx| Ok(list.pred_present(tx, &10)?.is_head()));
        assert!(before_all);
    }

    #[test]
    fn unstitch_removes_from_every_level() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        let node = stm.run(|tx| list.insert_after_logical_deletes(tx, 42, 420, 8, 0));
        assert_eq!(stm.run(|tx| list.count_present(tx)), 1);
        stm.run(|tx| list.unstitch(tx, &node));
        assert_eq!(stm.run(|tx| list.count_present(tx)), 0);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
        list.sever_all();
    }

    #[test]
    fn node_missing_from_the_level_below_is_reported() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(4);
        for (key, height) in [(10, 1), (20, 3), (30, 1)] {
            stm.run(|tx| {
                list.insert_after_logical_deletes(tx, key, key * 10, height, 0)
                    .map(|_| ())
            });
        }
        // Unlink the tall node from level 0 only, check, then restore its
        // level-0 links so the list tears down intact.
        let report = stm.run(|tx| {
            let tall = list.ceil_raw(tx, &20)?;
            let pred = tall.level(0).pred.read(tx)?.expect("linked");
            let succ = tall.level(0).succ.read(tx)?.expect("linked");
            pred.level(0).succ.write(tx, Some(succ.clone()))?;
            succ.level(0).pred.write(tx, Some(pred.clone()))?;
            let report = list.check_invariants(tx)?;
            pred.level(0).succ.write(tx, Some(tall.clone()))?;
            succ.level(0).pred.write(tx, Some(tall))?;
            Ok(report)
        });
        assert_eq!(
            report,
            Err("level 1: node missing from level 0".to_string())
        );
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn logically_deleted_nodes_are_skipped_by_present_queries() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        // Logically delete 20 without unstitching it.
        stm.run(|tx| {
            let n = list.ceil_raw(tx, &20)?;
            n.r_time.write(tx, Some(1))
        });
        let ceil20 = stm.run(|tx| {
            let n = list.ceil_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(ceil20, 30, "deleted node must be skipped");
        assert_eq!(stm.run(|tx| list.count_present(tx)), 2);
        let pairs = stm.run(|tx| list.collect_present(tx));
        assert_eq!(pairs, vec![(10, 100), (30, 300)]);
    }

    #[test]
    fn insert_after_logical_deletes_lands_after_duplicates() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        let old = stm.run(|tx| list.insert_after_logical_deletes(tx, 5, 50, 3, 0));
        // Logically delete the old node, then insert a fresh node for key 5.
        stm.run(|tx| old.r_time.write(tx, Some(1)));
        let fresh = stm.run(|tx| list.insert_after_logical_deletes(tx, 5, 55, 2, 1));
        // Level-0 order: old (deleted) comes before fresh.
        let order = stm.run(|tx| {
            let first = list.head().succ0(tx)?;
            let second = first.succ0(tx)?;
            Ok((
                NodeRef::ptr_eq(&first, &old),
                NodeRef::ptr_eq(&second, &fresh),
            ))
        });
        assert_eq!(order, (true, true));
        // Present view only sees the fresh value.
        let pairs = stm.run(|tx| list.collect_present(tx));
        assert_eq!(pairs, vec![(5, 55)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn borrowed_point_queries_match_slow_reference() {
        // Regression for the borrowed-hop rewrite of the point queries:
        // ceil/succ/floor/pred/first must agree with the reference answers
        // computed from the full present-key set, including around lingering
        // logically deleted nodes and re-inserted duplicates.
        use std::collections::BTreeSet;
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        let mut rng = rand::thread_rng();
        let mut present: BTreeSet<u64> = BTreeSet::new();
        for k in [10u64, 3, 7, 15, 12, 9, 1, 20, 5, 17] {
            let h = list.random_height(&mut rng);
            stm.run(|tx| {
                list.insert_after_logical_deletes(tx, k, k, h, 0)
                    .map(|_| ())
            });
            present.insert(k);
        }
        // Logically delete a few nodes without unstitching them.
        for k in [7u64, 15, 1] {
            stm.run(|tx| {
                let n = list.ceil_raw(tx, &k)?;
                n.r_time.write(tx, Some(1))
            });
            present.remove(&k);
        }
        // Re-insert one key so a deleted duplicate precedes a present node.
        let h = list.random_height(&mut rng);
        stm.run(|tx| {
            list.insert_after_logical_deletes(tx, 7, 70, h, 1)
                .map(|_| ())
        });
        present.insert(7);

        let key_of = |n: &NodeRef<u64, u64>| {
            if n.is_sentinel() {
                None
            } else {
                Some(*n.key())
            }
        };
        for probe in 0..=22u64 {
            let ceil = stm.run(|tx| Ok(key_of(&list.ceil_present(tx, &probe)?)));
            assert_eq!(
                ceil,
                present.range(probe..).next().copied(),
                "ceil({probe})"
            );
            let succ = stm.run(|tx| Ok(key_of(&list.succ_present(tx, &probe)?)));
            assert_eq!(
                succ,
                present.range(probe + 1..).next().copied(),
                "succ({probe})"
            );
            let floor = stm.run(|tx| Ok(key_of(&list.floor_present(tx, &probe)?)));
            assert_eq!(
                floor,
                present.range(..=probe).next_back().copied(),
                "floor({probe})"
            );
            let pred = stm.run(|tx| Ok(key_of(&list.pred_present(tx, &probe)?)));
            assert_eq!(
                pred,
                present.range(..probe).next_back().copied(),
                "pred({probe})"
            );
        }
        let first = stm.run(|tx| Ok(key_of(&list.first_present(tx)?)));
        assert_eq!(first, present.iter().next().copied());
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn random_height_is_within_bounds() {
        let list: SkipList<u64, u64> = SkipList::new(6);
        let mut rng = rand::thread_rng();
        for _ in 0..1000 {
            let h = list.random_height(&mut rng);
            assert!((1..=6).contains(&h));
        }
    }

    #[test]
    fn aborted_insert_rolls_back_without_keepalive() {
        // The rollback-through-freed-cells hazard the Arc design guarded
        // against with `Txn::keep_alive`: abort an insert *after* its link
        // writes and make sure the undo walk (which touches the dead node's
        // own cells) is sound and the list is unchanged.
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        stm.run(|tx| {
            list.insert_after_logical_deletes(tx, 10, 100, 4, 0)
                .map(|_| ())
        });
        let mut first = true;
        stm.run(|tx| {
            let _node = list.insert_after_logical_deletes(tx, 20, 200, 8, 0)?;
            if first {
                first = false;
                // `_node` (the only handle) drops at the end of this body,
                // before the rollback runs.
                return tx.abort();
            }
            Ok(())
        });
        let pairs = stm.run(|tx| list.collect_present(tx));
        assert_eq!(pairs, vec![(10, 100), (20, 200)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn sever_all_breaks_cycles() {
        let stm = Stm::new();
        let list = list_with(&stm, &[1, 2, 3, 4, 5]);
        list.sever_all();
        assert!(list.head().level(0).succ.load_atomic().is_none());
    }
}
