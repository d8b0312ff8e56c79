//! Size-classed recycling pools: the one allocator behind every
//! [`crate::TCell`] payload, skip-hash node block and hash-chain buffer.
//!
//! Every transactional write installs a fresh payload and retires the
//! displaced one through the epoch, and every structural mutation of the
//! skip hash allocates a node block or a copy-on-write chain buffer.  Paid to
//! the global allocator, both ends of each exchange made it the hottest
//! shared resource of update-heavy workloads — with the frees usually landing
//! on a *different* thread than the allocations, since epoch collection runs
//! wherever pinning happens.  This module breaks the round trip: blocks come
//! from per-thread magazines over mutex-protected global overflow pools, and
//! a freed block returns to a pool instead of the operating system, so a
//! steady-state workload recycles the same handful of blocks forever (see
//! `docs/PERF.md`, Mechanism 3).
//!
//! Two front ends share the pools:
//!
//! * **Raw blocks** ([`alloc_raw`] / [`free_raw`]) for structure memory.
//!   Callers describe a block by `(size, align)`; the typed glue (node
//!   layout, chain layout, epoch retirement) lives with the client in the
//!   `skiphash` crate.
//! * **Typed payloads** (the crate-private `alloc_value`, `free_value_now`
//!   and `drop_glue`) for `TCell` values.  A `T` with
//!   `1 <= size_of::<T>() <= 256` and `align_of::<T>() <= 16` is carved from
//!   the pools; anything else (zero-sized, huge or over-aligned values) is a
//!   plain `Box`, which keeps the fallback visible to sanitizers.  The class
//!   is a constant of `T`, so the write path does no class search.
//!
//! # Contract
//!
//! * The class — or the global-allocator fallback — and the block alignment
//!   are a pure function of `(size, align)`, so [`alloc_raw`] and
//!   [`free_raw`] called with the **same** pair always agree about a
//!   pointer's provenance and blocks never need a header.
//! * Callers whose block size is *negotiable* (the hash chains) should round
//!   it up front with [`recommended_size`] and remember the rounded value:
//!   that fills the whole class instead of stranding its tail.
//! * Blocks are process-global, not per-`Stm`: a retired payload sits in an
//!   epoch garbage bag that can outlive its `TCell`, its `Stm` and the thread
//!   that wrote it.  Pooled blocks are never returned to the operating
//!   system; the pools are bounded by peak live memory.
//!
//! # Lifetime rules (why recycling is the *client's* problem)
//!
//! Freeing recycles immediately.  A block that was ever reachable by
//! concurrent readers must therefore be retired **through the epoch** (the
//! shim's `defer_with`, with glue that ends in a free), so it re-enters a
//! magazine only after every thread pinned at retirement time has unpinned.
//! `TCell` payloads use `drop_glue`; the skip hash's node blocks follow the
//! same rule (see the `node` module of the `skiphash` crate).  Sanitizer
//! note: recycling means ASan cannot observe a use-after-free *within* a
//! reused block; the drop-balance and equivalence suites are the backstop.
//!
//! # Recycle counters
//!
//! The pools also own the process-wide `node_recycle_hits` /
//! `chain_recycle_hits` counters surfaced by [`crate::StatsSnapshot`].  They
//! are process-wide (not per-`Stm`) because blocks are recycled by whoever
//! drives epoch collection.  Each [`crate::StmStats`] takes one baseline of
//! them at construction and reports the difference, and trials take deltas
//! with [`crate::StatsSnapshot::since`].

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
// FACADE-EXEMPT: allocator internals run inside real `Mutex` critical
// sections and epoch callbacks; `stm::sync`'s module docs name this module
// as deliberately uninstrumented (schedule-space blowup + parking hazard).
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Block sizes, one free list per class.  The small classes keep a `u64`
/// payload (or a one-pair chain) in a 16-byte block; from 64 B up,
/// consecutive classes differ by at most 50%, because a skip-hash node block
/// grows by one `Level` per tower height and coarse classes would let a
/// single unlucky height sample mint a block no earlier insert warmed up.
const CLASS_SIZES: [usize; 16] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
];
const NUM_CLASSES: usize = CLASS_SIZES.len();

/// One cache line: the alignment of every class of this size or more.
/// Cache-line alignment is what makes the node header's "scan-hot fields in
/// the first line" layout rule (docs/PERF.md, Mechanism 6) mean an actual
/// line rather than an arbitrary 64-byte window.
const LINE: usize = 64;

/// Alignment of the classes below [`LINE`]; a request aligned more strictly
/// than this but no more than `LINE` is served from the line-aligned tier.
const SMALL_ALIGN: usize = 16;

/// The largest payload carved from the pools; bigger values are boxed.
const MAX_PAYLOAD: usize = 256;

/// Magazine size at which half the blocks are flushed to the global pool.
const MAGAZINE_CAP: usize = 32;

/// Blocks moved from the global pool per magazine refill.
const REFILL_BATCH: usize = 16;

/// Fresh blocks minted per allocator miss (one returned, the rest pooled).
///
/// Epoch reclamation returns blocks in bursts, ~2 collection cycles after
/// they were retired, and demand fluctuates with the random tower height, so
/// a pool sized exactly at mean demand would mint a trickle forever.
/// Minting a batch per miss converges capacity to the workload's high-water
/// mark in a handful of misses, which is what lets the steady state reach
/// *zero* allocator hits.
const MINT_BATCH: usize = 8;

/// The class serving `(size, align)`, or `None` when the request must use
/// the global allocator (zero-sized, oversized, or over-aligned).
const fn class_of(size: usize, align: usize) -> Option<usize> {
    if size == 0 || align > LINE {
        return None;
    }
    let size = if align > SMALL_ALIGN && size < LINE {
        LINE
    } else {
        size
    };
    let mut class = 0;
    while class < NUM_CLASSES {
        if size <= CLASS_SIZES[class] {
            return Some(class);
        }
        class += 1;
    }
    None
}

fn class_layout(class: usize) -> Layout {
    let align = if CLASS_SIZES[class] < LINE {
        SMALL_ALIGN
    } else {
        LINE
    };
    Layout::from_size_align(CLASS_SIZES[class], align).expect("valid class layout")
}

/// True when values of `T` are carved from the pools; false when they use
/// plain `Box`es.
const fn eligible<T>() -> bool {
    let size = std::mem::size_of::<T>();
    size >= 1 && size <= MAX_PAYLOAD && std::mem::align_of::<T>() <= SMALL_ALIGN
}

/// The class of a `T` payload, or `None` when `T` is boxed.
const fn payload_class<T>() -> Option<usize> {
    if eligible::<T>() {
        class_of(std::mem::size_of::<T>(), std::mem::align_of::<T>())
    } else {
        None
    }
}

/// True when `(size, align)` is served by the pools rather than the global
/// allocator.
pub fn pooled(size: usize, align: usize) -> bool {
    class_of(size, align).is_some()
}

/// Round a *negotiable* block size up to the full size of the class that
/// would serve it, so the block's tail capacity is usable instead of
/// stranded.  Sizes the pools cannot serve come back unchanged.
///
/// Callers must remember the rounded size and pass it to both [`alloc_raw`]
/// and [`free_raw`].
pub fn recommended_size(size: usize, align: usize) -> usize {
    class_of(size, align).map_or(size, |class| CLASS_SIZES[class])
}

/// Global overflow pools, one per class; block addresses stored as `usize`
/// so the `static` is trivially `Sync`.
static GLOBAL_POOLS: [Mutex<Vec<usize>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

/// Process-wide recycle counters (see module docs for why they are global).
static NODE_RECYCLE_HITS: AtomicU64 = AtomicU64::new(0);
static CHAIN_RECYCLE_HITS: AtomicU64 = AtomicU64::new(0);

/// Record that a skip-hash node block was served from a recycled arena block.
pub fn note_node_recycle() {
    NODE_RECYCLE_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Record that a hash-chain buffer was served from a recycled arena block.
pub fn note_chain_recycle() {
    CHAIN_RECYCLE_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide total of node blocks served from recycled memory.
pub fn node_recycle_hits() -> u64 {
    NODE_RECYCLE_HITS.load(Ordering::Relaxed)
}

/// Process-wide total of chain buffers served from recycled memory.
pub fn chain_recycle_hits() -> u64 {
    CHAIN_RECYCLE_HITS.load(Ordering::Relaxed)
}

fn global_pool(class: usize) -> std::sync::MutexGuard<'static, Vec<usize>> {
    GLOBAL_POOLS[class]
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-thread block magazines; flushed to the global pools on thread exit.
struct Magazines {
    classes: [Vec<usize>; NUM_CLASSES],
}

impl Drop for Magazines {
    fn drop(&mut self) {
        for (class, magazine) in self.classes.iter_mut().enumerate() {
            if !magazine.is_empty() {
                global_pool(class).append(magazine);
            }
        }
    }
}

thread_local! {
    static MAGAZINES: RefCell<Magazines> = const {
        RefCell::new(Magazines {
            classes: [const { Vec::new() }; NUM_CLASSES],
        })
    };
}

#[cold]
fn mint_block(layout: Layout) -> *mut u8 {
    // SAFETY: every caller passes a non-zero-size layout (class layouts are
    // non-empty; the fallback path rounds zero up to one byte).
    let ptr = unsafe { alloc(layout) };
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    ptr
}

/// Pop a block of `class`, refilling the magazine from the global pool when
/// dry and minting a batch only when both are empty.  The flag reports
/// whether the block was recycled (`false` = fresh mint).
fn alloc_block(class: usize) -> (*mut u8, bool) {
    MAGAZINES
        .try_with(|magazines| {
            let magazine = &mut magazines.borrow_mut().classes[class];
            if let Some(addr) = magazine.pop() {
                return (addr as *mut u8, true);
            }
            {
                let mut pool = global_pool(class);
                let keep = pool.len().saturating_sub(REFILL_BATCH);
                magazine.extend(pool.drain(keep..));
            }
            match magazine.pop() {
                Some(addr) => (addr as *mut u8, true),
                None => {
                    for _ in 0..MINT_BATCH - 1 {
                        magazine.push(mint_block(class_layout(class)) as usize);
                    }
                    (mint_block(class_layout(class)), false)
                }
            }
        })
        // Thread-local teardown: go straight to the global pool.
        .unwrap_or_else(|_| match global_pool(class).pop() {
            Some(addr) => (addr as *mut u8, true),
            None => (mint_block(class_layout(class)), false),
        })
}

/// Return a block of `class` to the calling thread's magazine (overflow
/// drains to the global pool in a batch).
fn free_block(ptr: *mut u8, class: usize) {
    let addr = ptr as usize;
    let stored = MAGAZINES.try_with(|magazines| {
        let magazine = &mut magazines.borrow_mut().classes[class];
        magazine.push(addr);
        if magazine.len() >= MAGAZINE_CAP {
            global_pool(class).extend(magazine.drain(MAGAZINE_CAP / 2..));
        }
    });
    if stored.is_err() {
        global_pool(class).push(addr);
    }
}

/// Allocate a block of at least `size` bytes aligned to `align`.  The flag
/// reports whether the block was recycled (`false` = fresh mint from the
/// global allocator).
///
/// Free with [`free_raw`] and the **same** `(size, align)` pair.
///
/// # Panics
///
/// Panics when the fallback path cannot form a valid `Layout` from the
/// request — `align` not a power of two, or `size` overflowing when rounded
/// up to `align`.  Pooled requests never panic, and zero-size fallback
/// requests are served as one byte rather than rejected.
pub fn alloc_raw(size: usize, align: usize) -> (*mut u8, bool) {
    match class_of(size, align) {
        Some(class) => alloc_block(class),
        None => (mint_block(fallback_layout(size, align)), false),
    }
}

/// Return a block obtained from [`alloc_raw`] with the same `(size, align)`.
///
/// # Safety
///
/// `ptr` must have come from `alloc_raw(size, align)` with exactly these
/// arguments, the caller must have exclusive access to the block, and the
/// block must not be used afterwards.  If the block was ever visible to
/// concurrent readers, the call must be sequenced after their quiescence
/// (epoch retirement — see the module docs).
pub unsafe fn free_raw(ptr: *mut u8, size: usize, align: usize) {
    match class_of(size, align) {
        Some(class) => free_block(ptr, class),
        // SAFETY: per the contract, `ptr` came from `alloc_raw`'s fallback
        // path with this exact layout.
        None => unsafe { dealloc(ptr, fallback_layout(size, align)) },
    }
}

fn fallback_layout(size: usize, align: usize) -> Layout {
    Layout::from_size_align(size.max(1), align).expect("valid fallback layout")
}

/// Allocate storage for `value` (a pooled block or a `Box`, per
/// [`eligible`]) and move it in.  The flag reports whether a recycled block
/// served the request.
pub(crate) fn alloc_value<T>(value: T) -> (*mut T, bool) {
    match const { payload_class::<T>() } {
        Some(class) => {
            let (block, recycled) = alloc_block(class);
            let ptr = block.cast::<T>();
            // SAFETY: the block is exclusively ours, at least
            // `size_of::<T>()` bytes, and aligned to at least
            // `SMALL_ALIGN >= align_of::<T>()`.
            unsafe { ptr.write(value) };
            (ptr, recycled)
        }
        None => (Box::into_raw(Box::new(value)), false),
    }
}

/// Drop the pointee and release its storage immediately.
///
/// # Safety
///
/// `ptr` must have come from [`alloc_value::<T>`], the caller must have
/// exclusive access to it, and it must not be used afterwards.
pub(crate) unsafe fn free_value_now<T>(ptr: *mut T) {
    match const { payload_class::<T>() } {
        // SAFETY: per the contract, `ptr` holds a live `T` in a block of
        // this class.
        Some(class) => unsafe {
            ptr.drop_in_place();
            free_block(ptr.cast::<u8>(), class);
        },
        // SAFETY: ineligible types are always boxed by `alloc_value`.
        None => drop(unsafe { Box::from_raw(ptr) }),
    }
}

/// The type-erased reclamation glue for `T` payloads, for use with the epoch
/// shim's `defer_with`: drops the value and returns its block to the pools
/// (or frees the `Box` for ineligible types).
pub(crate) fn drop_glue<T>() -> unsafe fn(*mut ()) {
    // SAFETY: contract — forwarded verbatim from `free_value_now`.
    unsafe fn glue<T>(ptr: *mut ()) {
        // SAFETY: forwarded from `free_value_now`'s contract via the epoch
        // retirement protocol (called exactly once, after unreachability).
        unsafe { free_value_now(ptr.cast::<T>()) }
    }
    glue::<T>
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_sizes_and_reject_extremes() {
        assert!(pooled(1, 1));
        assert!(pooled(4096, 16));
        assert!(pooled(64, 64), "cache-line alignment is pooled");
        assert!(pooled(16, 32), "stricter-than-small alignment is pooled");
        assert!(!pooled(4097, 8), "oversized blocks fall back");
        assert!(!pooled(0, 8), "zero-size requests fall back");
        assert!(!pooled(64, 128), "over-aligned blocks fall back");
        // Exhaustive on native runs; Miri strides to keep the interpreted
        // run fast while still probing every class boundary region.
        let step = if cfg!(miri) { 7 } else { 1 };
        for size in (1..=4096usize).step_by(step) {
            let class = class_of(size, 8).expect("covered");
            assert!(CLASS_SIZES[class] >= size);
            if class > 0 {
                assert!(CLASS_SIZES[class - 1] < size, "smallest fitting class");
            }
            let line_class = class_of(size, LINE).expect("covered");
            assert!(CLASS_SIZES[line_class] >= size.max(LINE));
        }
    }

    #[test]
    fn classes_cover_the_eligible_range() {
        // Payload classes are the smallest fitting ones.
        assert_eq!(payload_class::<u64>(), Some(0));
        assert_eq!(payload_class::<[u8; 17]>(), Some(1));
        assert_eq!(CLASS_SIZES[payload_class::<[u8; 256]>().unwrap()], 256);
        for size in 1..=MAX_PAYLOAD {
            let class = class_of(size, SMALL_ALIGN).expect("eligible sizes are pooled");
            assert!(CLASS_SIZES[class] >= size);
        }
    }

    #[test]
    fn eligibility_matches_size_and_alignment() {
        assert!(eligible::<u64>());
        assert!(eligible::<[u8; 256]>());
        assert!(!eligible::<[u8; 257]>(), "oversized values are boxed");
        assert!(!eligible::<()>(), "zero-sized values are boxed");
        #[repr(align(64))]
        struct Overaligned(#[allow(dead_code)] u8);
        assert!(!eligible::<Overaligned>(), "over-aligned values are boxed");
    }

    #[test]
    fn recommended_size_fills_the_class() {
        assert_eq!(recommended_size(1, 8), 16);
        assert_eq!(recommended_size(33, 8), 48);
        assert_eq!(recommended_size(4096, 8), 4096);
        assert_eq!(recommended_size(5000, 8), 5000, "oversize is unchanged");
        assert_eq!(recommended_size(48, 64), 64, "cache-line alignment pools");
        assert_eq!(recommended_size(48, 128), 48, "over-aligned is unchanged");
        // The round-trip invariant chains rely on: a recommended size maps to
        // the class whose full size it is.  (Strided under Miri, as above.)
        let step = if cfg!(miri) { 7 } else { 1 };
        for size in (1..=4096usize).step_by(step) {
            let rounded = recommended_size(size, 8);
            assert_eq!(class_of(rounded, 8), class_of(size, 8));
            assert_eq!(recommended_size(rounded, 8), rounded);
        }
    }

    #[test]
    fn freed_blocks_are_recycled_lifo() {
        // A distinctive size class to avoid interference from other tests.
        let (first, _) = alloc_raw(3000, 16);
        // SAFETY: `first` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(first, 3000, 16) };
        let (second, recycled) = alloc_raw(3000, 16);
        assert!(recycled, "the freed block must come from the magazine");
        assert_eq!(first, second, "LIFO magazine returns the same block");
        // SAFETY: `second` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(second, 3000, 16) };
    }

    #[test]
    fn freed_blocks_are_recycled() {
        // Typed payloads, in a distinctive (192-byte) class.
        type Block = [u64; 24];
        let (first, _) = alloc_value::<Block>([7; 24]);
        // SAFETY: `first` came from `alloc_value::<Block>` and is not reused.
        unsafe { free_value_now(first) };
        let (second, recycled) = alloc_value::<Block>([9; 24]);
        assert!(recycled, "the freed block must be served from the magazine");
        assert_eq!(first, second, "LIFO magazine returns the same block");
        // SAFETY: `second` came from `alloc_value::<Block>` and is not reused.
        unsafe { free_value_now(second) };
    }

    #[test]
    fn different_sizes_in_one_class_share_blocks() {
        // 400 and 500 both live in the 512 class; the free/alloc pair must
        // agree through the size alone.
        let (a, _) = alloc_raw(400, 8);
        // SAFETY: `a` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(a, 400, 8) };
        let (b, recycled) = alloc_raw(500, 8);
        assert!(recycled);
        assert_eq!(a, b);
        // SAFETY: `b` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(b, 500, 8) };

        // Payloads and raw blocks share one pool: a freed `u64` payload's
        // 16-byte block serves the next raw 16-byte request.
        let (payload, _) = alloc_value(7u64);
        // SAFETY: `payload` came from `alloc_value::<u64>` and is not reused.
        unsafe { free_value_now(payload) };
        let (raw, recycled) = alloc_raw(16, 8);
        assert!(recycled);
        assert_eq!(raw, payload.cast::<u8>());
        // SAFETY: `raw` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(raw, 16, 8) };
    }

    #[test]
    fn fallback_blocks_round_trip() {
        let (big, recycled) = alloc_raw(8192, 8);
        assert!(!recycled);
        // SAFETY: `big` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(big, 8192, 8) };
        let (aligned, recycled) = alloc_raw(128, 128);
        assert!(!recycled);
        assert_eq!(aligned as usize % 128, 0);
        // SAFETY: `aligned` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(aligned, 128, 128) };
    }

    #[test]
    fn ineligible_values_round_trip_through_boxes() {
        let (ptr, recycled) = alloc_value([0u8; 1024]);
        assert!(!recycled);
        // SAFETY: `ptr` came from `alloc_value` with the same type; not reused.
        unsafe { free_value_now(ptr) };
    }

    #[test]
    fn drop_glue_runs_destructors() {
        use crate::sync::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] u64);
        impl Drop for Counted {
            fn drop(&mut self) {
                // SC: test drop counter — strongest ordering, not perf-sensitive.
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (ptr, _) = alloc_value(Counted(1));
        // SAFETY: `ptr` came from `alloc_value::<Counted>`; freed exactly once.
        unsafe { drop_glue::<Counted>()(ptr.cast()) };
        // SC: test drop counter read.
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn recycle_counters_accumulate() {
        let node_before = node_recycle_hits();
        let chain_before = chain_recycle_hits();
        note_node_recycle();
        note_chain_recycle();
        note_chain_recycle();
        assert!(node_recycle_hits() > node_before);
        assert!(chain_recycle_hits() >= chain_before + 2);
    }

    #[test]
    fn blocks_are_aligned() {
        // Every class, by its own size: the line tier is 64-byte aligned,
        // the small tier 16-byte aligned.
        for &size in &CLASS_SIZES {
            let tier = if size < LINE { SMALL_ALIGN } else { LINE };
            let (ptr, _) = alloc_raw(size, 8);
            assert_eq!(ptr as usize % tier, 0, "class {size}");
            // SAFETY: `ptr` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(ptr, size, 8) };
        }
        // A line-aligned request below 64 B is served from the line tier.
        let (ptr, _) = alloc_raw(32, LINE);
        assert_eq!(ptr as usize % LINE, 0);
        // SAFETY: `ptr` came from `alloc_raw` with the same size/align and is not used again.
        unsafe { free_raw(ptr, 32, LINE) };
    }
}
