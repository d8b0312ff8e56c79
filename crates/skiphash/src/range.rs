//! Linearizable range queries, with std-style [`RangeBounds`] arguments.
//!
//! Implements §4.4 of the paper: a **fast path** that runs the whole range
//! query as a single `try_once` transaction, and a **slow path** that
//! registers with the [range query coordinator](crate::rqc::Rqc), acquires a
//! version number, and walks the range in many small transactions, pausing
//! only on *safe nodes* — nodes guaranteed not to be unstitched before the
//! query finishes.
//!
//! Both paths, [`SkipHash::range_rev`], the whole-map copies,
//! [`TxView::range`](crate::TxView::range) and the snapshot scans are one
//! level-0 walk: the skip list's crate-private scan cursor.  It is generic
//! over a *read mode* — a transaction attempt (`&mut Txn`) or a snapshot
//! pin (`&SnapshotPin`) — and takes a direction and a visibility rule:
//! "logically present" for the fast path, `range_rev` and snapshots, "safe
//! for version v" for the slow path's custody walk.  Each read mode states
//! why borrowed node handles stay valid once, at its `unsafe impl ReadMode`
//! in `skiplist.rs`; this module only picks the mode, the bounds and the
//! rule.
//!
//! [`SkipHash::range`] accepts any `RangeBounds<K>` (`1..=5`, `..`, `3..`,
//! `(Bound::Excluded(a), Bound::Included(b))`, …) and returns an owned
//! [`Range`] iterator over the snapshot.  An inverted range (start above
//! end) yields an empty iterator rather than panicking like
//! `BTreeMap::range` — a concurrent map should not turn a stale bound pair
//! into a crash.

use skiphash_stm::sync::Ordering;
use std::fmt;
use std::iter::FusedIterator;
use std::ops::Bound as StdBound;
use std::ops::RangeBounds;

use skiphash_stm::{TxResult, Txn};

use crate::config::RangePolicy;
use crate::map::{Inner, SkipHash};
use crate::node::NodeRef;
use crate::skiplist::{Start, Visible, Walk};
use crate::{MapKey, MapValue};

/// Collection vectors are pre-sized from the sharded population estimate,
/// clamped to this many pairs so a huge map does not turn a short range
/// query into a huge allocation.  The estimate only sizes the first
/// allocation; results longer than the clamp simply grow normally.
const RANGE_PRESIZE_CAP: usize = 1_024;

/// An owned iterator over one linearizable range-query snapshot, in key
/// order — ascending from [`SkipHash::range`], descending from
/// [`SkipHash::range_rev`].
///
/// Returned by [`SkipHash::range`], [`SkipHash::range_rev`],
/// [`SkipHash::range_attempt_fast`], and
/// [`TxView::range`](crate::TxView::range).  The snapshot is materialized at
/// the query's linearization point; iterating it performs no further
/// synchronization.
#[derive(Clone)]
pub struct Range<K, V> {
    pairs: std::vec::IntoIter<(K, V)>,
}

impl<K, V> Range<K, V> {
    pub(crate) fn new(pairs: Vec<(K, V)>) -> Self {
        Self {
            pairs: pairs.into_iter(),
        }
    }

    /// The pairs not yet yielded, as a slice (in ascending key order).
    pub fn as_slice(&self) -> &[(K, V)] {
        self.pairs.as_slice()
    }
}

impl<K, V> Iterator for Range<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        self.pairs.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.pairs.size_hint()
    }
}

impl<K, V> DoubleEndedIterator for Range<K, V> {
    fn next_back(&mut self) -> Option<(K, V)> {
        self.pairs.next_back()
    }
}

impl<K, V> ExactSizeIterator for Range<K, V> {}
impl<K, V> FusedIterator for Range<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for Range<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Range")
            .field("remaining", &self.pairs.as_slice())
            .finish()
    }
}

/// `Bound<&K> -> Bound<K>` (we hold owned bounds so retry loops can re-borrow
/// them without lifetime gymnastics; `Bound::cloned` needs K: Clone anyway).
pub(crate) fn clone_bound<K: Clone>(bound: StdBound<&K>) -> StdBound<K> {
    match bound {
        StdBound::Included(k) => StdBound::Included(k.clone()),
        StdBound::Excluded(k) => StdBound::Excluded(k.clone()),
        StdBound::Unbounded => StdBound::Unbounded,
    }
}

pub(crate) fn bound_as_ref<K>(bound: &StdBound<K>) -> StdBound<&K> {
    match bound {
        StdBound::Included(k) => StdBound::Included(k),
        StdBound::Excluded(k) => StdBound::Excluded(k),
        StdBound::Unbounded => StdBound::Unbounded,
    }
}

/// True when no key can satisfy the pair of bounds (start above end).
/// `BTreeMap::range` panics here; a concurrent map yields emptiness instead.
pub(crate) fn range_is_empty<K: Ord>(start: &StdBound<K>, end: &StdBound<K>) -> bool {
    match (start, end) {
        (StdBound::Included(l), StdBound::Included(h)) => l > h,
        (StdBound::Included(l), StdBound::Excluded(h))
        | (StdBound::Excluded(l), StdBound::Included(h))
        | (StdBound::Excluded(l), StdBound::Excluded(h)) => l >= h,
        (StdBound::Unbounded, _) | (_, StdBound::Unbounded) => false,
    }
}

impl<K: MapKey, V: MapValue> Inner<K, V> {
    /// How many pairs to reserve before a collection walk: the sharded
    /// population estimate, clamped (see [`RANGE_PRESIZE_CAP`]).
    fn collect_capacity(&self) -> usize {
        self.population.total().min(RANGE_PRESIZE_CAP)
    }

    /// Collect the range inside `tx`, ascending or (`rev`) descending, with
    /// the caller's key extractor (`K::clone`, or a copy-out for `Copy`
    /// keys): one transaction sees the whole snapshot.  Shared by the fast
    /// path, [`SkipHash::range_rev`], the whole-map copies, and
    /// [`TxView::range`](crate::TxView::range).
    pub(crate) fn collect_range(
        &self,
        tx: &mut Txn<'_>,
        start: StdBound<&K>,
        end: StdBound<&K>,
        rev: bool,
        extract: &impl Fn(&K) -> K,
    ) -> TxResult<Vec<(K, V)>> {
        let mut out = Vec::new();
        if !range_is_empty(&start, &end) {
            out.reserve(self.collect_capacity());
            self.skiplist
                .cursor(tx)
                .range(start, end, rev, extract, &mut out)?;
        }
        Ok(out)
    }
}

impl<K: MapKey, V: MapValue> SkipHash<K, V> {
    /// Collect every `(key, value)` pair whose key lies in `range`, in
    /// ascending key order, as of a single linearization point.
    ///
    /// Accepts any [`RangeBounds`] expression, like `BTreeMap::range`:
    ///
    /// ```
    /// use skiphash::SkipHash;
    ///
    /// let map: SkipHash<u64, u64> = SkipHash::new();
    /// for k in [1, 3, 5, 7] {
    ///     map.insert(k, k * 10);
    /// }
    /// assert_eq!(map.range(3..=7).collect::<Vec<_>>(), vec![(3, 30), (5, 50), (7, 70)]);
    /// assert_eq!(map.range(..4).count(), 2);
    /// assert_eq!(map.range(..).count(), 4);
    /// assert_eq!(map.range(5..2).count(), 0, "inverted ranges are empty, not a panic");
    /// ```
    ///
    /// The execution strategy (fast path, slow path, or fast-then-slow) is
    /// chosen by the configured [`RangePolicy`].
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        self.range_with(range, &K::clone)
    }

    /// Policy dispatch shared by [`SkipHash::range`] (keys cloned out) and
    /// [`SkipHash::range_copied`] (keys copied out).
    fn range_with<R: RangeBounds<K>>(&self, range: R, extract: &impl Fn(&K) -> K) -> Range<K, V> {
        let start = clone_bound(range.start_bound());
        let end = clone_bound(range.end_bound());
        if range_is_empty(&start, &end) {
            return Range::new(Vec::new());
        }
        let pairs = match self.inner.config.range_policy {
            RangePolicy::FastOnly => loop {
                if let Some(result) =
                    self.range_fast_with(bound_as_ref(&start), bound_as_ref(&end), extract)
                {
                    break result;
                }
            },
            RangePolicy::SlowOnly => {
                self.range_slow_with(bound_as_ref(&start), bound_as_ref(&end), extract)
            }
            RangePolicy::TwoPath { tries } => 'outer: {
                for _ in 0..tries.max(1) {
                    if let Some(result) =
                        self.range_fast_with(bound_as_ref(&start), bound_as_ref(&end), extract)
                    {
                        break 'outer result;
                    }
                }
                self.range_slow_with(bound_as_ref(&start), bound_as_ref(&end), extract)
            }
        };
        Range::new(pairs)
    }

    /// Collect every `(key, value)` pair whose key lies in `range`, in
    /// **descending** key order, as one atomic (fast-path style)
    /// transaction.
    ///
    /// The walk itself runs backwards over the predecessor links (this is
    /// where the doubly linked tower pays off for reverse iteration): no
    /// forward pass plus reverse, just one borrowed back-walk from the end
    /// bound.  Unlike [`SkipHash::range`] this always uses the coherent
    /// full-transaction path — the RQC slow path's safe-node argument is
    /// forward-oriented and does not apply to a backwards traversal.
    ///
    /// ```
    /// use skiphash::SkipHash;
    ///
    /// let map: SkipHash<u64, u64> = SkipHash::new();
    /// for k in [1, 3, 5, 7] {
    ///     map.insert(k, k * 10);
    /// }
    /// assert_eq!(map.range_rev(3..=7).collect::<Vec<_>>(), vec![(7, 70), (5, 50), (3, 30)]);
    /// assert_eq!(map.range_rev(5..2).count(), 0, "inverted ranges are empty, not a panic");
    /// ```
    pub fn range_rev<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        self.range_rev_with(range, &K::clone)
    }

    fn range_rev_with<R: RangeBounds<K>>(
        &self,
        range: R,
        extract: &impl Fn(&K) -> K,
    ) -> Range<K, V> {
        let start = clone_bound(range.start_bound());
        let end = clone_bound(range.end_bound());
        if range_is_empty(&start, &end) {
            return Range::new(Vec::new());
        }
        let pairs = self.inner.stm.run(|tx| {
            let (start, end) = (bound_as_ref(&start), bound_as_ref(&end));
            self.inner.collect_range(tx, start, end, true, extract)
        });
        Range::new(pairs)
    }

    /// Perform exactly one fast-path attempt of a range query, returning
    /// `None` if the single transaction aborted.
    ///
    /// This exposes the building block [`SkipHash::range`] uses so callers
    /// (and the Table 1 benchmark) can implement custom fallback policies or
    /// measure abort behaviour directly.
    pub fn range_attempt_fast<R: RangeBounds<K>>(&self, range: R) -> Option<Range<K, V>> {
        let start = range.start_bound();
        let end = range.end_bound();
        if range_is_empty(&start, &end) {
            return Some(Range::new(Vec::new()));
        }
        self.range_fast_with(start, end, &K::clone).map(Range::new)
    }

    /// One fast-path attempt: the entire query as a single transaction that
    /// does not retry on conflict.  Returns `None` if the attempt aborted.
    fn range_fast_with(
        &self,
        start: StdBound<&K>,
        end: StdBound<&K>,
        extract: &impl Fn(&K) -> K,
    ) -> Option<Vec<(K, V)>> {
        let attempt = self
            .inner
            .stm
            .try_once(|tx| self.inner.collect_range(tx, start, end, false, extract));
        match attempt {
            Ok(result) => {
                self.inner
                    .range_counters
                    .fast_success
                    .fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            Err(_) => {
                self.inner
                    .range_counters
                    .fast_abort
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The slow path: register with the RQC, then gather the range across
    /// several transactions, pausing only on safe nodes.  `extract` is the
    /// key extractor ([`Clone::clone`] or a copy-out for `Copy` keys).
    fn range_slow_with(
        &self,
        start: StdBound<&K>,
        end: StdBound<&K>,
        extract: &impl Fn(&K) -> K,
    ) -> Vec<(K, V)> {
        let inner = &self.inner;
        // Unsatisfiable bounds never register with the RQC or descend the
        // tower (defense in depth: public entry points guard too).
        if range_is_empty(&start, &end) {
            return Vec::new();
        }
        // Setup transaction: find the starting node and acquire a version
        // number atomically, so the start node is a safe node for this query.
        // This commit is the query's linearization point.
        let walk = Walk::Forward(end);
        let (start_node, version) = inner.stm.run(|tx| {
            let start_node = inner
                .skiplist
                .cursor(&mut *tx)
                .first(start, walk, Visible::Present)?
                .upgrade();
            Ok((start_node, inner.rqc.on_range(tx)?))
        });

        // Collection phase: the cursor shows only safe nodes.  `collected`
        // and `last` are plain locals captured by the closure
        // (`no_local_undo`): when an attempt aborts, all pairs gathered so
        // far and the last collected node are retained, so the next attempt
        // resumes right after it.  That node is safe, so it is still linked.
        // Inside one attempt the walk hops on borrowed handles; the counted
        // `last` is written back once per element, the custody handoff point.
        let mut collected: Vec<(K, V)> = Vec::with_capacity(inner.collect_capacity());
        let mut last: Option<NodeRef<K, V>> = None;
        inner.stm.run(|tx| {
            let resume = last.clone();
            let start = match &resume {
                None => Start::At(&start_node),
                Some(last) => Start::After(last),
            };
            let safe = Visible::SafeFor(version);
            inner
                .skiplist
                .cursor(tx)
                .scan(start, walk, safe, |mut node| {
                    let pair = node.pair(extract)?;
                    // Nothing fallible between the push and the write-back, so
                    // an abort never records a partial element or a double push.
                    collected.push(pair);
                    last = Some(node.upgrade());
                    Ok(())
                })
        });

        // Finalization: deregister from the RQC and unstitch any nodes whose
        // removal was deferred onto this query.
        let removals = inner.stm.run(|tx| inner.rqc.after_range(tx, version));
        for removed in &removals {
            inner.stm.run(|tx| inner.skiplist.unstitch(tx, removed));
        }
        inner
            .range_counters
            .slow_complete
            .fetch_add(1, Ordering::Relaxed);
        collected
    }
}

impl<K: MapKey + Copy, V: MapValue> SkipHash<K, V> {
    /// [`SkipHash::range`] for `Copy` keys: keys are copied out of the node
    /// instead of cloned.
    ///
    /// Rust has no specialization, so the generic path must call `K::clone`
    /// even when `K` is a plain integer; this method (same policy dispatch,
    /// same linearization guarantees) is the explicit opt-in the benchmark
    /// adapters use.  For `Copy` keys the compiler reduces the copy-out to a
    /// load, where the clone call was an opaque per-element function edge.
    pub fn range_copied<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        self.range_with(range, &|k: &K| *k)
    }

    /// [`SkipHash::range_rev`] for `Copy` keys (see
    /// [`SkipHash::range_copied`]).
    pub fn range_rev_copied<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        self.range_rev_with(range, &|k: &K| *k)
    }

    /// [`SkipHash::to_vec`](crate::SkipHash::to_vec) for `Copy` keys (see
    /// [`SkipHash::range_copied`]).
    pub fn to_vec_copied(&self) -> Vec<(K, V)> {
        self.inner.stm.run(|tx| {
            let unbounded = StdBound::Unbounded;
            self.inner
                .collect_range(tx, unbounded, unbounded, false, &|k: &K| *k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RemovalPolicy, SkipHashBuilder};

    fn map_with_policy(policy: RangePolicy) -> SkipHash<u64, u64> {
        SkipHashBuilder::new()
            .buckets(512)
            .max_level(12)
            .range_policy(policy)
            .build()
    }

    fn fill(map: &SkipHash<u64, u64>, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            assert!(map.insert(k, k * 10));
        }
    }

    fn collect(map: &SkipHash<u64, u64>, r: impl RangeBounds<u64>) -> Vec<(u64, u64)> {
        map.range(r).collect()
    }

    #[test]
    fn fast_path_range_collects_inclusive_bounds() {
        let map = map_with_policy(RangePolicy::FastOnly);
        fill(&map, [1, 3, 5, 7, 9]);
        assert_eq!(collect(&map, 3..=7), vec![(3, 30), (5, 50), (7, 70)]);
        assert_eq!(collect(&map, 0..=100).len(), 5);
        assert_eq!(collect(&map, 4..=4), vec![]);
        let stats = map.range_stats();
        assert!(stats.fast_path_successes >= 3);
        assert_eq!(stats.slow_path_completions, 0);
    }

    #[test]
    fn all_bound_shapes_agree_with_btreemap() {
        use std::collections::BTreeMap;
        use std::ops::Bound::*;
        let reference: BTreeMap<u64, u64> = [1, 3, 5, 7, 9].map(|k| (k, k * 10)).into();
        let cases: Vec<(StdBound<u64>, StdBound<u64>)> = vec![
            (Unbounded, Unbounded),
            (Unbounded, Included(5)),
            (Unbounded, Excluded(5)),
            (Included(3), Unbounded),
            (Excluded(3), Unbounded),
            (Included(3), Included(7)),
            (Included(3), Excluded(7)),
            (Excluded(3), Included(7)),
            (Excluded(3), Excluded(7)),
            (Excluded(0), Excluded(100)),
        ];
        let policies = [
            RangePolicy::TwoPath { tries: 3 },
            RangePolicy::FastOnly,
            RangePolicy::SlowOnly,
        ];
        for policy in policies {
            // Two inputs with the same present keys: a plain fill, and one
            // whose boundary keys 3 and 7 were removed and reinserted while
            // a slow-path query was registered, so buffered removal leaves
            // each logically deleted node linked right before its live
            // duplicate.
            for churn in [false, true] {
                let map: SkipHash<u64, u64> = SkipHashBuilder::new()
                    .buckets(512)
                    .max_level(12)
                    .range_policy(policy)
                    .removal_policy(RemovalPolicy::Buffered(16))
                    .build();
                fill(&map, [1, 3, 5, 7, 9]);
                if churn {
                    let inner = &map.inner;
                    let version = inner.stm.run(|tx| inner.rqc.on_range(tx));
                    for k in [3, 7] {
                        assert!(map.remove(&k));
                        assert!(map.insert(k, k * 10));
                    }
                    let deferred = inner.stm.run(|tx| inner.rqc.after_range(tx, version));
                    assert!(deferred.is_empty(), "buffered removals are not handed over");
                    for k in [3, 7] {
                        let first = inner.stm.run(|tx| inner.skiplist.ceil_raw(tx, &k));
                        assert!(
                            first.r_time.load_atomic().is_some(),
                            "{k}: no deleted duplicate"
                        );
                    }
                }
                let snap = map.snapshot();
                let all = map.to_vec();
                for &(start, end) in &cases {
                    let label = format!("{policy:?}, churn {churn}, bounds ({start:?}, {end:?})");
                    let expected: Vec<(u64, u64)> = reference
                        .range((start, end))
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    let reversed: Vec<(u64, u64)> = expected.iter().rev().copied().collect();
                    let slice: Vec<(u64, u64)> = all
                        .iter()
                        .filter(|(k, _)| (start, end).contains(k))
                        .copied()
                        .collect();
                    let in_txn = map.transact(|v| v.range((start, end)));
                    assert_eq!(collect(&map, (start, end)), expected, "range: {label}");
                    assert_eq!(
                        map.range_rev((start, end)).collect::<Vec<_>>(),
                        reversed,
                        "range_rev: {label}"
                    );
                    assert_eq!(
                        in_txn.collect::<Vec<_>>(),
                        expected,
                        "TxView::range: {label}"
                    );
                    assert_eq!(slice, expected, "to_vec: {label}");
                    assert_eq!(
                        snap.range((start, end)).collect::<Vec<_>>(),
                        expected,
                        "snapshot: {label}"
                    );
                }
                assert_eq!(map.inner.rqc.active_queries(), 0);
            }
        }
    }

    #[test]
    fn half_open_and_unbounded_sugar() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [2, 4, 6, 8]);
        assert_eq!(collect(&map, ..), vec![(2, 20), (4, 40), (6, 60), (8, 80)]);
        assert_eq!(collect(&map, 4..), vec![(4, 40), (6, 60), (8, 80)]);
        assert_eq!(collect(&map, ..6), vec![(2, 20), (4, 40)]);
        assert_eq!(collect(&map, 4..8), vec![(4, 40), (6, 60)]);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // inverted ranges ARE the subject
    fn inverted_ranges_are_empty_not_a_panic() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [1, 2, 3]);
        assert_eq!(collect(&map, 3..1), vec![]);
        assert_eq!(map.range(3..3).count(), 0);
        assert_eq!(map.range(5..=1).count(), 0);
        // Empty ranges never touch the counters.
        assert_eq!(map.range_stats().fast_path_successes, 0);
    }

    #[test]
    fn range_iterator_is_double_ended_and_exact() {
        let map = map_with_policy(RangePolicy::FastOnly);
        fill(&map, [1, 2, 3, 4]);
        let mut iter = map.range(1..=4);
        assert_eq!(iter.len(), 4);
        assert_eq!(iter.next(), Some((1, 10)));
        assert_eq!(iter.next_back(), Some((4, 40)));
        assert_eq!(iter.as_slice(), &[(2, 20), (3, 30)]);
        assert_eq!(iter.len(), 2);
    }

    #[test]
    fn slow_path_range_matches_fast_path() {
        let slow = map_with_policy(RangePolicy::SlowOnly);
        fill(&slow, 0..200);
        let result = collect(&slow, 10..=20);
        let expected: Vec<(u64, u64)> = (10..=20).map(|k| (k, k * 10)).collect();
        assert_eq!(result, expected);
        assert_eq!(slow.range_stats().slow_path_completions, 1);
        assert_eq!(slow.range_stats().fast_path_successes, 0);
        // The RQC must be left empty after the query finishes.
        assert_eq!(slow.inner.rqc.active_queries(), 0);
        assert!(slow.check_invariants().is_ok());
    }

    #[test]
    fn slow_path_handles_exclusive_and_unbounded_bounds() {
        let slow = map_with_policy(RangePolicy::SlowOnly);
        fill(&slow, [10, 20, 30, 40]);
        assert_eq!(
            collect(&slow, (StdBound::Excluded(10), StdBound::Excluded(40))),
            vec![(20, 200), (30, 300)]
        );
        assert_eq!(collect(&slow, ..).len(), 4);
        assert_eq!(collect(&slow, 21..), vec![(30, 300), (40, 400)]);
        assert_eq!(slow.inner.rqc.active_queries(), 0);
    }

    #[test]
    fn two_path_policy_uses_fast_path_when_uncontended() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [2, 4, 6]);
        assert_eq!(collect(&map, 1..=7), vec![(2, 20), (4, 40), (6, 60)]);
        let stats = map.range_stats();
        assert_eq!(stats.fast_path_successes, 1);
        assert_eq!(stats.slow_path_completions, 0);
    }

    #[test]
    fn empty_range_and_empty_map() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        assert_eq!(collect(&map, 0..=1000), vec![]);
        fill(&map, [100]);
        assert_eq!(collect(&map, 0..=99), vec![]);
        assert_eq!(collect(&map, 101..=1000), vec![]);
        assert_eq!(collect(&map, 100..=100), vec![(100, 1000)]);
    }

    #[test]
    fn slow_path_skips_nodes_logically_deleted_before_it_started() {
        let map = map_with_policy(RangePolicy::SlowOnly);
        fill(&map, [1, 2, 3, 4, 5]);
        assert!(map.remove(&3));
        assert_eq!(
            collect(&map, 1..=5),
            vec![(1, 10), (2, 20), (4, 40), (5, 50)]
        );
        assert!(map.check_invariants().is_ok());
    }

    #[test]
    fn deferred_nodes_are_unstitched_after_the_query() {
        // Use the Immediate removal policy so deferral goes straight to the
        // RQC (no per-thread buffer), making the effect observable from a
        // single thread.
        let map: SkipHash<u64, u64> = SkipHashBuilder::new()
            .buckets(256)
            .range_policy(RangePolicy::SlowOnly)
            .removal_policy(RemovalPolicy::Immediate)
            .build();
        fill(&map, 0..50);

        // Register a slow-path query manually (setup phase only): a removal
        // that happens while a query is registered must be deferred.
        let inner = &map.inner;
        let version = inner.stm.run(|tx| inner.rqc.on_range(tx));
        assert!(map.remove(&25));
        // The node is logically gone immediately...
        assert_eq!(map.get(&25), None);
        assert_eq!(map.len(), 49);
        // ...but physically deferred while the query is active.
        assert_eq!(inner.rqc.active_queries(), 1);
        let removals = inner.stm.run(|tx| inner.rqc.after_range(tx, version));
        assert_eq!(removals.len(), 1, "removal must have been deferred");
        for node in &removals {
            inner.stm.run(|tx| inner.skiplist.unstitch(tx, node));
        }
        assert!(map.check_invariants().is_ok());
    }

    #[test]
    fn reinserted_key_after_remove_is_visible_to_new_ranges() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [1, 2, 3]);
        assert!(map.remove(&2));
        assert!(map.insert(2, 2222));
        assert_eq!(collect(&map, 1..=3), vec![(1, 10), (2, 2222), (3, 30)]);
        assert_eq!(map.get(&2), Some(2222));
        assert!(map.check_invariants().is_ok());
    }

    #[test]
    fn excluded_start_skips_deleted_duplicates() {
        // A logically deleted node for key 5 lingers before the live one;
        // `Excluded(5)` must skip both.
        let map = map_with_policy(RangePolicy::FastOnly);
        fill(&map, [4, 5, 6]);
        assert!(map.remove(&5));
        assert!(map.insert(5, 5555));
        assert_eq!(
            collect(&map, (StdBound::Excluded(5), StdBound::Unbounded)),
            vec![(6, 60)]
        );
        assert_eq!(
            collect(&map, (StdBound::Included(5), StdBound::Unbounded)),
            vec![(5, 5555), (6, 60)]
        );
    }
}
