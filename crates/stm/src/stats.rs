//! Transaction statistics.
//!
//! The paper's Table 1 reports aborts per successful range query, and §5.2
//! attributes slow-path overheads to specific conflict sources.  To regenerate
//! those numbers the STM keeps cheap, always-on counters of commits and
//! aborts, broken down by abort cause.  Counters are updated with relaxed
//! atomics; they are for reporting only and never synchronize anything.
//!
//! Deliberately *not* routed through the `crate::sync` facade: these
//! counters synchronize nothing, and some updates are conditional on
//! process-global allocator state (e.g. `record_hot_path` skips the RMW
//! when no payload block was recycled).  Instrumenting them would make the
//! model checker's schedule-point sequence depend on cross-execution arena /
//! epoch state, breaking replay-token determinism.

use std::fmt;
// FACADE-EXEMPT: reporting-only counters; see the module docs above for why
// instrumenting them would break replay-token determinism.
use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena;
use crate::error::TxAbort;
use crate::snapshot;

/// Shared, concurrently updated statistics for one [`crate::Stm`] instance.
///
/// Most counters are per-instance atomics.  The arena counters
/// (`node_recycle_hits` / `chain_recycle_hits`) and the snapshot-custody
/// counters (`snapshot_preserved` / `snapshot_freed`) are process-global:
/// blocks are recycled, and history entries moved, by whichever thread
/// drives epoch collection or drops a pin, regardless of which `Stm` the
/// structure belonged to.  Their live totals live in [`crate::arena`] and
/// [`crate::snapshot`].  [`StmStats::snapshot`] reports every counter as
/// its live total minus one baseline taken at construction, so a fresh
/// instance reports only what happens after it was built.
#[derive(Debug, Default)]
pub struct StmStats {
    commits: AtomicU64,
    read_only_commits: AtomicU64,
    aborts_read_conflict: AtomicU64,
    aborts_write_conflict: AtomicU64,
    aborts_validation: AtomicU64,
    aborts_explicit: AtomicU64,
    validation_skipped_commits: AtomicU64,
    read_dedup_hits: AtomicU64,
    slab_recycle_hits: AtomicU64,
    /// The live totals at construction; immutable, so it needs no lock.
    base: StatsSnapshot,
}

impl StmStats {
    /// Create statistics that count from now on: the process-global
    /// counters may already be far along, so their current totals become
    /// this instance's baseline (`Default` keeps a zero baseline).
    pub fn new() -> Self {
        let mut stats = Self::default();
        stats.base = stats.totals();
        stats
    }

    pub(crate) fn record_commit(&self, read_only: bool) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if read_only {
            self.read_only_commits.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_validation_skipped(&self) {
        self.validation_skipped_commits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one attempt's locally accumulated hot-path counters in (the
    /// transaction batches these so the shared cache line is touched once
    /// per attempt, not once per read or write).
    pub(crate) fn record_hot_path(&self, dedup_hits: u32, slab_hits: u32) {
        if dedup_hits > 0 {
            self.read_dedup_hits
                .fetch_add(u64::from(dedup_hits), Ordering::Relaxed);
        }
        if slab_hits > 0 {
            self.slab_recycle_hits
                .fetch_add(u64::from(slab_hits), Ordering::Relaxed);
        }
    }

    pub(crate) fn record_abort(&self, cause: TxAbort) {
        let counter = match cause {
            TxAbort::ReadConflict => &self.aborts_read_conflict,
            TxAbort::WriteConflict => &self.aborts_write_conflict,
            TxAbort::ValidationFailed => &self.aborts_validation,
            TxAbort::Explicit => &self.aborts_explicit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The live totals: this instance's counters plus the process-global
    /// ones, before the baseline is taken off.
    fn totals(&self) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            read_only_commits: self.read_only_commits.load(Ordering::Relaxed),
            aborts_read_conflict: self.aborts_read_conflict.load(Ordering::Relaxed),
            aborts_write_conflict: self.aborts_write_conflict.load(Ordering::Relaxed),
            aborts_validation: self.aborts_validation.load(Ordering::Relaxed),
            aborts_explicit: self.aborts_explicit.load(Ordering::Relaxed),
            validation_skipped_commits: self.validation_skipped_commits.load(Ordering::Relaxed),
            read_dedup_hits: self.read_dedup_hits.load(Ordering::Relaxed),
            slab_recycle_hits: self.slab_recycle_hits.load(Ordering::Relaxed),
            node_recycle_hits: arena::node_recycle_hits(),
            chain_recycle_hits: arena::chain_recycle_hits(),
            snapshot_preserved: snapshot::preserved_total(),
            snapshot_freed: snapshot::freed_total(),
        }
    }

    /// Take a point-in-time copy of the counters, relative to this
    /// instance's construction.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.totals().since(&self.base)
    }
}

/// A point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of committed transactions.
    pub commits: u64,
    /// Number of committed transactions that performed no writes.
    pub read_only_commits: u64,
    /// Aborts caused by reading a locked or too-new location.
    pub aborts_read_conflict: u64,
    /// Aborts caused by failing to acquire an orec for writing.
    pub aborts_write_conflict: u64,
    /// Aborts caused by commit-time read-set validation.
    pub aborts_validation: u64,
    /// Aborts requested explicitly by the transaction body.
    pub aborts_explicit: u64,
    /// Writer commits that skipped read-set validation because the clock
    /// proved quiescence (see the `clock` module docs).
    pub validation_skipped_commits: u64,
    /// Reads answered by the read-set dedup filter instead of growing the
    /// read set (re-reads of already-validated cells).
    pub read_dedup_hits: u64,
    /// Transactional writes whose payload came from a recycled arena block
    /// rather than the global allocator.
    pub slab_recycle_hits: u64,
    /// Skip-hash node blocks served from recycled arena memory rather than
    /// the global allocator (process-wide, relative to this instance's
    /// construction — see [`StmStats`]).
    pub node_recycle_hits: u64,
    /// Hash-chain buffers served from recycled arena memory rather than the
    /// global allocator (same baseline semantics as `node_recycle_hits`).
    pub chain_recycle_hits: u64,
    /// Displaced values preserved for live snapshot pins instead of being
    /// retired (process-wide, relative to this instance's baseline — see
    /// [`StmStats`]).
    pub snapshot_preserved: u64,
    /// Preserved values freed again after the pins needing them dropped
    /// (same baseline semantics as `snapshot_preserved`).
    pub snapshot_freed: u64,
}

impl StatsSnapshot {
    /// Total aborts across all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_read_conflict
            + self.aborts_write_conflict
            + self.aborts_validation
            + self.aborts_explicit
    }

    /// Aborts per commit; `0.0` when no transaction has committed.
    pub fn abort_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.commits as f64
        }
    }

    /// Pointwise difference `self - earlier`, for per-trial deltas.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits - earlier.commits,
            read_only_commits: self.read_only_commits - earlier.read_only_commits,
            aborts_read_conflict: self.aborts_read_conflict - earlier.aborts_read_conflict,
            aborts_write_conflict: self.aborts_write_conflict - earlier.aborts_write_conflict,
            aborts_validation: self.aborts_validation - earlier.aborts_validation,
            aborts_explicit: self.aborts_explicit - earlier.aborts_explicit,
            validation_skipped_commits: self.validation_skipped_commits
                - earlier.validation_skipped_commits,
            read_dedup_hits: self.read_dedup_hits - earlier.read_dedup_hits,
            slab_recycle_hits: self.slab_recycle_hits - earlier.slab_recycle_hits,
            node_recycle_hits: self.node_recycle_hits - earlier.node_recycle_hits,
            chain_recycle_hits: self.chain_recycle_hits - earlier.chain_recycle_hits,
            snapshot_preserved: self.snapshot_preserved - earlier.snapshot_preserved,
            snapshot_freed: self.snapshot_freed - earlier.snapshot_freed,
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commits={} (ro={}, noval={}) aborts={} [read={} write={} validation={} explicit={}] \
             dedup={} slab={} node={} chain={} snap={}/{}",
            self.commits,
            self.read_only_commits,
            self.validation_skipped_commits,
            self.total_aborts(),
            self.aborts_read_conflict,
            self.aborts_write_conflict,
            self.aborts_validation,
            self.aborts_explicit,
            self.read_dedup_hits,
            self.slab_recycle_hits,
            self.node_recycle_hits,
            self.chain_recycle_hits,
            self.snapshot_preserved,
            self.snapshot_freed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_abort_counters() {
        let stats = StmStats::new();
        stats.record_commit(true);
        stats.record_commit(false);
        stats.record_abort(TxAbort::ReadConflict);
        stats.record_abort(TxAbort::WriteConflict);
        stats.record_abort(TxAbort::WriteConflict);
        let snap = stats.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.read_only_commits, 1);
        assert_eq!(snap.aborts_read_conflict, 1);
        assert_eq!(snap.aborts_write_conflict, 2);
        assert_eq!(snap.total_aborts(), 3);
        assert!((snap.abort_rate() - 1.5).abs() < 1e-9);
    }

    /// Zero the process-global fields (arena and snapshot custody):
    /// concurrently running tests may recycle blocks or move history entries
    /// between a construction and the `snapshot` under assertion, and those
    /// deltas are legitimate.
    fn without_arena_counters(mut snap: StatsSnapshot) -> StatsSnapshot {
        snap.node_recycle_hits = 0;
        snap.chain_recycle_hits = 0;
        snap.snapshot_preserved = 0;
        snap.snapshot_freed = 0;
        snap
    }

    #[test]
    fn fresh_stats_start_at_zero() {
        assert_eq!(
            without_arena_counters(StmStats::new().snapshot()),
            StatsSnapshot::default()
        );
    }

    #[test]
    fn since_computes_deltas() {
        let stats = StmStats::new();
        stats.record_commit(false);
        let first = stats.snapshot();
        stats.record_commit(false);
        stats.record_abort(TxAbort::ValidationFailed);
        let second = stats.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.commits, 1);
        assert_eq!(delta.aborts_validation, 1);
    }

    #[test]
    fn hot_path_counters_accumulate_and_reset() {
        let stats = StmStats::new();
        stats.record_validation_skipped();
        stats.record_hot_path(3, 2);
        stats.record_hot_path(0, 0); // zero batches must not touch the lines
        let snap = stats.snapshot();
        assert_eq!(snap.validation_skipped_commits, 1);
        assert_eq!(snap.read_dedup_hits, 3);
        assert_eq!(snap.slab_recycle_hits, 2);
        let display = snap.to_string();
        assert!(display.contains("noval=1"));
        assert!(display.contains("dedup=3"));
        assert!(display.contains("slab=2"));
    }

    #[test]
    fn arena_counters_report_deltas_from_the_baseline() {
        let stats = StmStats::new();
        let before = stats.snapshot();
        arena::note_node_recycle();
        arena::note_chain_recycle();
        let after = stats.snapshot();
        assert!(after.node_recycle_hits > before.node_recycle_hits);
        assert!(after.chain_recycle_hits > before.chain_recycle_hits);
        // A freshly constructed instance baselines at the current totals and
        // reports only recycling from here on.
        let fresh = StmStats::new();
        let fresh_before = fresh.snapshot().node_recycle_hits;
        arena::note_node_recycle();
        assert!(fresh.snapshot().node_recycle_hits > fresh_before);
    }

    #[test]
    fn abort_rate_of_empty_stats_is_zero() {
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = StmStats::new().snapshot().to_string();
        assert!(s.contains("commits=0"));
    }
}
