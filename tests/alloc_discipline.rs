//! Hot-path allocation discipline regression tests.
//!
//! The STM's steady-state commit path is supposed to be allocation-free:
//! transaction scratch is pooled per thread, the write log is unboxed, cell
//! payloads come from the recycling arena, and the epoch shim recycles its
//! sealed bags.  These tests install a counting global allocator and prove
//! it, so a future change that sneaks a `Box` or a fresh `Vec` back onto the
//! hot path fails CI instead of quietly regressing throughput.
//!
//! Everything runs in ONE `#[test]` so no concurrent test thread can
//! attribute its allocations to the measured windows.

use skiphash_stm::sync::{AtomicU64, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};

use crossbeam_epoch as epoch;
use skiphash::SkipHash;
use skiphash_stm::{Stm, TCell};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Run `body` and return how many global-allocator hits it performed.
fn count_allocs(body: impl FnOnce()) -> u64 {
    let before = allocations();
    body();
    allocations() - before
}

#[test]
fn steady_state_hot_paths_do_not_touch_the_global_allocator() {
    // ---- 1. The canonical read-modify-write transaction: ZERO allocations.
    //
    // After warmup the scratch pool holds the transaction buffers, the arena
    // magazines hold enough payload blocks to cover the epoch's in-flight
    // window, and the epoch's bag pool covers the seal/collect cycle.
    let stm = Stm::new();
    let cell = TCell::new(0u64);
    let rmw = |stm: &Stm, cell: &TCell<u64>| {
        stm.run(|tx| {
            let v = cell.read(tx)?;
            cell.write(tx, v + 1)
        });
    };
    for _ in 0..20_000 {
        rmw(&stm, &cell);
    }
    // The epoch returns retired blocks in batches, so the measured window is
    // phase-sensitive; sample a few windows and require that the steady state
    // (every window after the first clean one) stays clean.
    let mut zero_windows = 0;
    let mut measured = Vec::new();
    for _ in 0..3 {
        let allocs = count_allocs(|| {
            for _ in 0..10_000 {
                rmw(&stm, &cell);
            }
        });
        measured.push(allocs);
        zero_windows += u64::from(allocs == 0);
    }
    assert!(
        zero_windows >= 2,
        "steady-state read-modify-write transactions must be allocation-free \
         (allocations per 10k-txn window: {measured:?})"
    );
    assert!(
        stm.stats().slab_recycle_hits > 0,
        "the slab must be serving the write path"
    );
    assert!(
        stm.stats().validation_skipped_commits > 0,
        "the sampled clock's no-validation fast path must be firing"
    );

    // ---- 2. Write-only transactions over several cells: still zero.
    let cells: Vec<TCell<u64>> = (0..8).map(TCell::new).collect();
    let write8 = |stm: &Stm, cells: &[TCell<u64>]| {
        stm.run(|tx| {
            for cell in cells {
                cell.write(tx, 7)?;
            }
            Ok(())
        });
    };
    for _ in 0..20_000 {
        write8(&stm, &cells);
    }
    let mut zero_windows = 0;
    let mut measured = Vec::new();
    for _ in 0..3 {
        let allocs = count_allocs(|| {
            for _ in 0..5_000 {
                write8(&stm, &cells);
            }
        });
        measured.push(allocs);
        zero_windows += u64::from(allocs == 0);
    }
    assert!(
        zero_windows >= 2,
        "steady-state multi-cell write transactions must be allocation-free \
         (allocations per 5k-txn window: {measured:?})"
    );

    // ---- 3. End-to-end skip hash insert/remove churn: ZERO allocations.
    //
    // Until the structure arena existed, a fresh key inherently allocated its
    // node structure (an `Arc<Node>`, a boxed tower slice, hash-chain `Vec`
    // clones) and this section could only bound the damage (≤16 hits/pair).
    // Now node blocks — refcount, header, and the tower inline — are
    // height-classed arena blocks recycled through the epoch, and the hash
    // map's copy-on-write chains clone through pooled buffers, so a
    // steady-state insert/remove pair must not touch the global allocator at
    // all.
    //
    // Windows are assessed like the RMW section: tower heights are sampled
    // geometrically, so a rare tall-tower *size class* may see its very first
    // allocation inside a measured window (a once-ever event per class, not a
    // leak).  Requiring 2 of 3 windows to be exactly zero admits that one-off
    // while still failing on any per-pair allocation that grows back.
    // Steady state is defined by warm pools, so warm them deterministically
    // (a production service does the same at startup):
    //
    // * tower heights are sampled geometrically at run time, so cycle blocks
    //   of every height class through the epoch once — otherwise a rare tall
    //   tower's *first-ever* block can legitimately mint mid-measurement;
    // * the link/counter payload class (the arena's smallest) carries a
    //   standing in-flight population of a couple thousand blocks whose size
    //   fluctuates with the height distribution, so give it headroom up
    //   front instead of letting the high-water mark be discovered by
    //   minting.
    for height in 1..=20 {
        let nodes: Vec<_> = (0..32)
            .map(|i| skiphash::node::Node::<u64, u64>::new(i, 0, height, 0, 0))
            .collect();
        drop(nodes);
    }
    for _ in 0..64 * 64 {
        drop(epoch::pin());
    }
    let payload_headroom: Vec<TCell<u64>> = (0..16_384).map(TCell::new).collect();
    drop(payload_headroom);

    let map: SkipHash<u64, u64> = SkipHash::new();
    for key in 0..1_024u64 {
        map.insert(key, key);
    }
    let churn = |map: &SkipHash<u64, u64>| {
        map.insert(4_096, 1);
        map.remove(&4_096);
    };
    for _ in 0..8_000 {
        churn(&map);
    }
    let mut zero_windows = 0;
    let mut measured = Vec::new();
    for _ in 0..3 {
        let allocs = count_allocs(|| {
            for _ in 0..2_000 {
                churn(&map);
            }
        });
        measured.push(allocs);
        zero_windows += u64::from(allocs == 0);
    }
    assert!(
        zero_windows >= 2,
        "steady-state skip-hash insert/remove churn must be allocation-free \
         (allocations per 2k-pair window: {measured:?})"
    );
    let stats = map.stm_stats();
    assert!(
        stats.node_recycle_hits > 0,
        "the arena must be serving node blocks from recycled memory"
    );
    assert!(
        stats.chain_recycle_hits > 0,
        "the arena must be serving hash-chain buffers from recycled memory"
    );

    // ---- 4. Pinned snapshot reads: ZERO allocations.
    //
    // A pinned read resolves each cell either against its current payload
    // (a validated in-place borrow) or against the history side table (a
    // lookup under a shard lock) — neither path clones into fresh heap
    // memory for `Copy` values, and no transaction machinery is involved at
    // all.  Churn *between* the measured windows keeps displacing payloads
    // the snapshot needs, so the windows exercise the history path (the
    // commit side pays the preservation cost, outside the windows), and the
    // population sum below always resolves post-pin shard bumps through it.
    let snap = map.snapshot();
    for _ in 0..500 {
        churn(&map);
    }
    let pinned_reads = |snap: &skiphash::Snapshot<u64, u64>| {
        assert_eq!(snap.get(&7), Some(7));
        assert_eq!(snap.get(&4_096), None);
        assert_eq!(snap.len(), 1_024);
    };
    for _ in 0..4_000 {
        pinned_reads(&snap);
    }
    let mut zero_windows = 0;
    let mut measured = Vec::new();
    for _ in 0..3 {
        let allocs = count_allocs(|| {
            for _ in 0..2_000 {
                pinned_reads(&snap);
            }
        });
        measured.push(allocs);
        zero_windows += u64::from(allocs == 0);
        for _ in 0..200 {
            churn(&map);
        }
    }
    assert!(
        zero_windows >= 2,
        "pinned snapshot reads must be allocation-free \
         (allocations per 2k-read window: {measured:?})"
    );
    drop(snap);
}
