//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the map, and the per-layer figures derived from them.
//!
//! A traced operation opens a root span, and one span per call into a layer
//! beneath it (`stm.run`, one `view.*` span per transaction attempt, the
//! range call, the snapshot calls, the benchmark's own output check).  When
//! the operation ends its spans are folded into per-layer self time and
//! latency histograms, then appended to a fixed-capacity log that is written
//! out when the run ends.  Nothing here allocates after construction.
//!
//! The untraced code path is the same generic code instantiated with
//! [`Off`], whose methods compile to nothing.

use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// Span names.  Each belongs to exactly one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    OpGet,
    OpInsert,
    OpRemove,
    OpTransfer,
    OpRange,
    OpSnapshotRead,
    Check,
    StmRun,
    ViewGet,
    ViewInsert,
    ViewRemove,
    ViewTransfer,
    RangeFast,
    RangeSlow,
    SnapshotCreate,
    SnapshotScan,
    SnapshotDrop,
}

/// Layers, named by the module whose public functions the spans surround.
pub const LAYERS: [&str; 5] = ["bench", "stm", "view", "range", "snapshot"];

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::OpGet => "op.get",
            Name::OpInsert => "op.insert",
            Name::OpRemove => "op.remove",
            Name::OpTransfer => "op.transfer",
            Name::OpRange => "op.range",
            Name::OpSnapshotRead => "op.snapshot_read",
            Name::Check => "bench.check",
            Name::StmRun => "stm.run",
            Name::ViewGet => "view.get",
            Name::ViewInsert => "view.insert",
            Name::ViewRemove => "view.remove",
            Name::ViewTransfer => "view.transfer",
            Name::RangeFast => "range.fast",
            Name::RangeSlow => "range.slow",
            Name::SnapshotCreate => "snapshot.create",
            Name::SnapshotScan => "snapshot.scan",
            Name::SnapshotDrop => "snapshot.drop",
        }
    }

    /// Index into [`LAYERS`].
    fn layer(self) -> usize {
        match self {
            Name::OpGet
            | Name::OpInsert
            | Name::OpRemove
            | Name::OpTransfer
            | Name::OpRange
            | Name::OpSnapshotRead
            | Name::Check => 0,
            Name::StmRun => 1,
            Name::ViewGet | Name::ViewInsert | Name::ViewRemove | Name::ViewTransfer => 2,
            Name::RangeFast | Name::RangeSlow => 3,
            Name::SnapshotCreate | Name::SnapshotScan | Name::SnapshotDrop => 4,
        }
    }
}

/// Span index returned for the root and for spans past the per-op capacity.
pub const NONE: usize = usize::MAX;

/// Span recording as seen by the operation code.
pub trait Trace {
    /// False for [`Off`]: lets callers skip work only a trace needs.
    const ON: bool;
    fn open(&mut self, name: Name, parent: usize) -> usize;
    fn close(&mut self, span: usize);
    fn rename(&mut self, span: usize, name: Name);
}

/// The untraced instantiation.
pub struct Off;

impl Trace for Off {
    const ON: bool = false;
    #[inline(always)]
    fn open(&mut self, _: Name, _: usize) -> usize {
        NONE
    }
    #[inline(always)]
    fn close(&mut self, _: usize) {}
    #[inline(always)]
    fn rename(&mut self, _: usize, _: Name) {}
}

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    parent: usize,
    start: u64,
    end: u64,
}

#[derive(Clone, Copy)]
struct Logged {
    op: u64,
    index: u8,
    span: Span,
}

/// Spans an operation may open.  The only span opened over and over is a
/// transaction body, once per attempt; attempts past the limit still count
/// in `attempts` (and `overflow`) but their time is not split out.
pub const MAX_SPANS: usize = 64;

/// Per-layer figures accumulated over every traced operation of a thread.
pub struct LayerAgg {
    pub ops: u64,
    pub self_ns: [u64; LAYERS.len()],
    /// Operations that ran through `Stm::run`, and their body attempts.
    pub txn_ops: u64,
    pub attempts: u64,
    /// Time in bodies of attempts that aborted.
    pub wasted_ns: u64,
    pub stm_begin: Hist,
    pub stm_commit: Hist,
    /// Committed attempt of each `view` body: get, insert, remove, transfer.
    pub view: [Hist; 4],
    pub range_fast: Hist,
    pub range_slow: Hist,
    pub snapshot_create: Hist,
    pub snapshot_scan: Hist,
    pub snapshot_drop: Hist,
    /// Spans past the per-op limit, and the operations that had any.
    pub overflow: u64,
    pub overflowed_ops: u64,
}

impl LayerAgg {
    pub fn new() -> Self {
        Self {
            ops: 0,
            self_ns: [0; LAYERS.len()],
            txn_ops: 0,
            attempts: 0,
            wasted_ns: 0,
            stm_begin: Hist::new(),
            stm_commit: Hist::new(),
            view: [Hist::new(), Hist::new(), Hist::new(), Hist::new()],
            range_fast: Hist::new(),
            range_slow: Hist::new(),
            snapshot_create: Hist::new(),
            snapshot_scan: Hist::new(),
            snapshot_drop: Hist::new(),
            overflow: 0,
            overflowed_ops: 0,
        }
    }

    pub fn merge(&mut self, o: &LayerAgg) {
        self.ops += o.ops;
        for (a, b) in self.self_ns.iter_mut().zip(o.self_ns) {
            *a += b;
        }
        self.txn_ops += o.txn_ops;
        self.attempts += o.attempts;
        self.wasted_ns += o.wasted_ns;
        self.stm_begin.merge(&o.stm_begin);
        self.stm_commit.merge(&o.stm_commit);
        for (a, b) in self.view.iter_mut().zip(o.view.iter()) {
            a.merge(b);
        }
        self.range_fast.merge(&o.range_fast);
        self.range_slow.merge(&o.range_slow);
        self.snapshot_create.merge(&o.snapshot_create);
        self.snapshot_scan.merge(&o.snapshot_scan);
        self.snapshot_drop.merge(&o.snapshot_drop);
        self.overflow += o.overflow;
        self.overflowed_ops += o.overflowed_ops;
    }
}

/// The traced instantiation: one per worker thread.
pub struct Tracer {
    origin: Instant,
    thread: u64,
    next_op: u64,
    cur: [Span; MAX_SPANS],
    len: usize,
    op_overflow: u64,
    log: Vec<Logged>,
    pub logged_dropped: u64,
    pub agg: LayerAgg,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u64, log_capacity: usize) -> Self {
        let blank = Span {
            name: Name::Check,
            parent: NONE,
            start: 0,
            end: 0,
        };
        Self {
            origin,
            thread,
            next_op: 0,
            cur: [blank; MAX_SPANS],
            len: 0,
            op_overflow: 0,
            log: Vec::with_capacity(log_capacity),
            logged_dropped: 0,
            agg: LayerAgg::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Forget the spans of an operation that panicked.
    pub fn abandon_op(&mut self) {
        self.len = 0;
        self.op_overflow = 0;
    }

    /// Fold the finished operation's spans into the aggregates and the log.
    pub fn finish_op(&mut self) {
        let spans = &self.cur[..self.len];
        let agg = &mut self.agg;
        agg.ops += 1;
        agg.attempts += self.op_overflow;
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == i)
                .map(|c| c.end.saturating_sub(c.start))
                .sum();
            agg.self_ns[s.name.layer()] += dur.saturating_sub(children);
            match s.name {
                Name::StmRun => {
                    let mut bodies = spans.iter().filter(|c| c.parent == i);
                    let Some(first) = bodies.next() else { continue };
                    let last = bodies.fold(first, |prev, b| {
                        agg.wasted_ns += prev.end.saturating_sub(prev.start);
                        b
                    });
                    agg.txn_ops += 1;
                    agg.attempts += spans.iter().filter(|c| c.parent == i).count() as u64;
                    if self.op_overflow > 0 {
                        // The committing attempt was not recorded.
                        agg.overflowed_ops += 1;
                        continue;
                    }
                    agg.stm_begin.record(first.start.saturating_sub(s.start));
                    agg.stm_commit.record(s.end.saturating_sub(last.end));
                    let view = match last.name {
                        Name::ViewGet => 0,
                        Name::ViewInsert => 1,
                        Name::ViewRemove => 2,
                        _ => 3,
                    };
                    agg.view[view].record(last.end.saturating_sub(last.start));
                }
                Name::RangeFast => agg.range_fast.record(dur),
                Name::RangeSlow => agg.range_slow.record(dur),
                Name::SnapshotCreate => agg.snapshot_create.record(dur),
                Name::SnapshotScan => agg.snapshot_scan.record(dur),
                Name::SnapshotDrop => agg.snapshot_drop.record(dur),
                _ => {}
            }
        }
        let op = (self.thread << 48) | self.next_op;
        self.next_op += 1;
        for (index, &span) in spans.iter().enumerate() {
            if self.log.len() < self.log.capacity() {
                self.log.push(Logged {
                    op,
                    index: index as u8,
                    span,
                });
            } else {
                self.logged_dropped += 1;
            }
        }
        self.len = 0;
        self.op_overflow = 0;
    }

    pub fn logged(&self) -> usize {
        self.log.len()
    }

    /// Write the span log as tab-separated lines:
    /// `op  span  parent  name  start_ns  end_ns` (parent `-` for a root).
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        for l in &self.log {
            let parent = if l.span.parent == NONE {
                "-".to_string()
            } else {
                l.span.parent.to_string()
            };
            writeln!(
                out,
                "{}-{}\t{}\t{}\t{}\t{}\t{}",
                l.op >> 48,
                l.op & ((1 << 48) - 1),
                l.index,
                parent,
                l.span.name.label(),
                l.span.start,
                l.span.end
            )?;
        }
        Ok(())
    }
}

impl Trace for Tracer {
    const ON: bool = true;

    #[inline]
    fn open(&mut self, name: Name, parent: usize) -> usize {
        if self.len == MAX_SPANS {
            self.agg.overflow += 1;
            self.op_overflow += 1;
            return NONE;
        }
        let i = self.len;
        self.cur[i] = Span {
            name,
            parent,
            start: self.now(),
            end: 0,
        };
        self.len += 1;
        i
    }

    #[inline]
    fn close(&mut self, span: usize) {
        if span != NONE {
            self.cur[span].end = self.now();
        }
    }

    fn rename(&mut self, span: usize, name: Name) {
        if span != NONE {
            self.cur[span].name = name;
        }
    }
}
