//! The group-commit write-ahead log.
//!
//! # Hot path
//!
//! A transaction that wants durability leases a [`RecordBuf`] from the log's
//! pool, encodes its effectful operations into it as the body runs, and — if
//! the attempt reaches commit — hands the buffer to
//! `Txn::on_commit_sequenced`.  The action is one word (the boxed buffer),
//! so it rides the STM's inline action slots without a heap allocation; the
//! byte buffers themselves are pooled and recycled, so the steady state
//! allocates nothing.  Aborted attempts simply drop the buffer, which
//! returns it to the pool — nothing was logged, matching the STM's
//! exactly-once commit-action contract.
//!
//! The *sequenced* hook matters: it fires at the commit's serialization
//! point, after the attempt can no longer abort but **before** its writes
//! become visible to other transactions.  Submitting there gives the queue
//! a causal order — any commit that read this commit's effects necessarily
//! submitted after it — which is what lets [`Wal::sync`]'s simple
//! "everything submitted so far" watermark cover every commit the caller
//! could have observed (see the `map` module's contract docs).
//!
//! # Group commit
//!
//! Submitted records go into a queue drained by a single writer thread.  The
//! writer accumulates a batch (up to [`WalConfig::flush_interval`] of
//! waiting, or [`WalConfig::max_batch_bytes`] of records, whichever comes
//! first), sorts it by commit stamp, CRC32-frames each record, appends the
//! whole batch with one write, and fsyncs **once**.  Only after that fsync
//! does the durable watermark advance and [`Wal::sync`] callers wake: one
//! disk flush acknowledges every commit in the batch.  When the queue holds
//! more than [`WalConfig::queue_capacity_bytes`], submitters block
//! (backpressure) until the writer drains it.
//!
//! Stamps are assigned by the STM clock at commit, so records from
//! different threads may *enqueue* out of stamp order — and consecutive
//! batches may even overlap in stamp ranges.  That is fine: recovery sorts
//! all surviving records globally by stamp before replay (see
//! [`crate::recovery`]); batch-local sorting just keeps segments mostly
//! ordered so the sort is cheap.
//!
//! # Failure policy
//!
//! The log is fail-stop: the first append or fsync error poisons it, and so
//! does a commit record larger than [`MAX_FRAME_BYTES`] (recovery treats
//! bigger length prefixes as tail corruption, so appending one would write
//! a record that is acknowledged but unreadable — the oversized record is
//! dropped *before* it reaches the file).  The error is sticky — every
//! subsequent [`Wal::sync`] returns it — and later submissions are dropped
//! (they were never acknowledged, so the durability contract is intact).
//! A log that lied about an fsync cannot be trusted to order anything after
//! it, so there is deliberately no retry.
//!
//! # On-disk format
//!
//! ```text
//! segment  := header frame*
//! header   := "SKHW" version:u8(=1) seq:u64le
//! frame    := len:u32le crc:u32le payload      (crc = CRC32(payload))
//! payload  := stamp:u64le op_count:u32le op*
//! op       := tag:u8 (1=put,2=remove) key_field [value_field if put]
//! field    := len:u32le bytes
//! ```

use std::io;
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use crate::codec::{crc32, put_field, Codec, Cursor};
use crate::storage::{Storage, StorageFile};

/// Largest frame recovery will believe.  A length prefix beyond this is
/// treated as tail corruption, bounding the damage a flipped length byte
/// can do.  Enforced at the producer too: [`RecordBuf::submit`] poisons the
/// log instead of appending a record recovery would refuse to read, so an
/// oversized commit can never be acknowledged as durable.
pub const MAX_FRAME_BYTES: u32 = 1 << 24;

/// Segment header magic + format version.
pub const SEGMENT_MAGIC: &[u8; 4] = b"SKHW";
const SEGMENT_VERSION: u8 = 1;
/// Header length: magic + version byte + segment sequence number.
pub const SEGMENT_HEADER_BYTES: usize = 4 + 1 + 8;

const TAG_PUT: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// Tuning knobs for the group-commit writer.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// How long the writer waits to accumulate a batch after the first
    /// record arrives.
    pub flush_interval: Duration,
    /// Flush as soon as a pending batch reaches this many bytes.
    pub max_batch_bytes: usize,
    /// Backpressure threshold: submitters block while the queue holds more
    /// than this.
    pub queue_capacity_bytes: usize,
    /// Seal the active segment and start a new one past this size.
    pub segment_max_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            flush_interval: Duration::from_millis(2),
            max_batch_bytes: 256 << 10,
            queue_capacity_bytes: 4 << 20,
            segment_max_bytes: 32 << 20,
        }
    }
}

/// `wal-<seq>.log`, zero-padded so lexicographic order is numeric order.
pub fn segment_name(seq: u64) -> String {
    format!("wal-{seq:012}.log")
}

/// Parse a segment file name back to its sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Record buffers
// ---------------------------------------------------------------------------

/// Payload prefix reserved for `stamp` + `op_count`, patched at submit.
const RECORD_HEADER_BYTES: usize = 8 + 4;

struct RecordBufInner {
    bytes: Vec<u8>,
    ops: u32,
    shared: Weak<Shared>,
}

/// A leased, reusable commit-record buffer.
///
/// One word wide (an optional box), so the post-commit closure that
/// captures it stays within the STM's inline-action limit.  Both the box
/// and its byte vector come from (and return to) the log's pools, so the
/// steady-state hot path allocates nothing.  Dropping an unsubmitted
/// buffer returns it — the abort path logs nothing.
pub struct RecordBuf(Option<Box<RecordBufInner>>);

impl RecordBuf {
    fn inner(&mut self) -> &mut RecordBufInner {
        match &mut self.0 {
            Some(inner) => inner,
            // Unreachable by construction: `submit` consumes the buffer.
            None => unreachable!("RecordBuf used after submit"),
        }
    }

    /// Record a put of `key` → `value`.
    pub fn log_put<K: Codec, V: Codec>(&mut self, key: &K, value: &V) {
        let inner = self.inner();
        inner.bytes.push(TAG_PUT);
        put_field(&mut inner.bytes, key);
        put_field(&mut inner.bytes, value);
        inner.ops += 1;
    }

    /// Record a removal of `key`.
    pub fn log_remove<K: Codec>(&mut self, key: &K) {
        let inner = self.inner();
        inner.bytes.push(TAG_REMOVE);
        put_field(&mut inner.bytes, key);
        inner.ops += 1;
    }

    /// True when no operation has been recorded (nothing to submit).
    pub fn is_empty(&self) -> bool {
        self.op_count() == 0
    }

    /// Number of operations recorded so far.
    pub fn op_count(&self) -> u32 {
        self.0.as_ref().map_or(0, |inner| inner.ops)
    }

    /// A rewind point.  Lets a caller log an operation optimistically and
    /// un-log it when the map reports a no-op (e.g. `insert` on an
    /// existing key) — cheaper than cloning keys/values to log after the
    /// fact.
    pub fn mark(&mut self) -> (usize, u32) {
        let inner = self.inner();
        (inner.bytes.len(), inner.ops)
    }

    /// Truncate back to a [`RecordBuf::mark`].
    pub fn rewind(&mut self, mark: (usize, u32)) {
        let inner = self.inner();
        inner.bytes.truncate(mark.0);
        inner.ops = mark.1;
    }

    /// Patch the commit stamp in and hand the record to the writer.
    ///
    /// Called from the commit-sequenced hook with the stamp the clock
    /// assigned to this commit, *before* the commit's writes become visible
    /// to other transactions — that ordering is what makes [`Wal::sync`]'s
    /// watermark cover every observable commit.  Blocks briefly under
    /// backpressure.  If the log has already failed or shut down the record
    /// is dropped: it was never acknowledged, so dropping it cannot break
    /// the durability contract.  A record larger than [`MAX_FRAME_BYTES`]
    /// poisons the log instead of being appended: recovery would treat its
    /// length prefix as tail corruption, so acknowledging it would be a lie.
    pub fn submit(mut self, stamp: u64) {
        let Some(mut inner) = self.0.take() else {
            return;
        };
        let Some(shared) = inner.shared.upgrade() else {
            return; // log torn down; nowhere to recycle to either
        };
        if inner.bytes.len() > MAX_FRAME_BYTES as usize {
            let len = inner.bytes.len();
            // Drop the oversized allocation rather than pooling it.
            inner.bytes = Vec::new();
            inner.ops = 0;
            let mut st = lock(&shared.state);
            st.buf_pool.push(inner);
            if st.error.is_none() {
                st.error = Some(format!(
                    "commit record of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte \
                     frame limit; log poisoned before the record could be appended"
                ));
            }
            drop(st);
            shared.durable_cv.notify_all();
            shared.space_cv.notify_all();
            shared.work_cv.notify_one();
            return;
        }
        inner.bytes[0..8].copy_from_slice(&stamp.to_le_bytes());
        inner.bytes[8..12].copy_from_slice(&inner.ops.to_le_bytes());
        let bytes = mem::take(&mut inner.bytes);
        inner.ops = 0;
        let mut st = lock(&shared.state);
        st.buf_pool.push(inner);
        while st.queue_bytes > shared.config.queue_capacity_bytes
            && st.error.is_none()
            && !st.shutdown
        {
            st = shared
                .space_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.error.is_some() || st.shutdown {
            st.bytes_pool.push(bytes);
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue_bytes += bytes.len();
        st.queue.push(Pending { seq, stamp, bytes });
        drop(st);
        shared.work_cv.notify_one();
    }
}

impl Drop for RecordBuf {
    fn drop(&mut self) {
        let Some(mut inner) = self.0.take() else {
            return;
        };
        if let Some(shared) = inner.shared.upgrade() {
            let bytes = mem::take(&mut inner.bytes);
            inner.ops = 0;
            let mut st = lock(&shared.state);
            st.bytes_pool.push(bytes);
            st.buf_pool.push(inner);
        }
    }
}

// ---------------------------------------------------------------------------
// Shared writer state
// ---------------------------------------------------------------------------

struct Pending {
    seq: u64,
    stamp: u64,
    bytes: Vec<u8>,
}

#[derive(Default)]
struct State {
    queue: Vec<Pending>,
    queue_bytes: usize,
    /// Next submission sequence number; `durable_seq` trails it.
    next_seq: u64,
    /// Every submission with `seq <= durable_seq` has been fsynced.
    durable_seq: u64,
    /// Sticky first failure; poisons the log.
    error: Option<String>,
    /// Commit records fsynced, and the batches (one fsync each) that
    /// carried them.
    records_appended: u64,
    group_commit_flushes: u64,
    shutdown: bool,
    rotate_request: bool,
    bytes_pool: Vec<Vec<u8>>,
    // The Box IS the pooled allocation: `lease` hands it out inside a
    // `RecordBuf` and `submit` returns it, so storing inners by value
    // would re-box on every lease.
    #[allow(clippy::vec_box)]
    buf_pool: Vec<Box<RecordBufInner>>,
}

struct Shared {
    state: Mutex<State>,
    /// Writer waits here for records (and for shutdown).
    work_cv: Condvar,
    /// Submitters wait here under backpressure.
    space_cv: Condvar,
    /// `sync` callers wait here for the durable watermark.
    durable_cv: Condvar,
    config: WalConfig,
}

/// A sealed (rotated) segment and the largest stamp recorded in it; a
/// checkpoint at version `>= max_stamp` makes the whole file garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SealedSegment {
    pub(crate) seq: u64,
    pub(crate) max_stamp: u64,
}

#[derive(Default)]
struct Segments {
    sealed: Vec<SealedSegment>,
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// The group-commit write-ahead log: leased buffers in, fsynced batches out.
pub struct Wal {
    shared: Arc<Shared>,
    segments: Arc<Mutex<Segments>>,
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl Wal {
    /// Open the log in `dir`, starting a fresh segment `start_seq` (which
    /// must be newer than every existing segment — recovery hands us
    /// `max_seen + 1`).  `preexisting` seeds the sealed-segment registry so
    /// checkpoints can truncate pre-crash segments too.
    pub(crate) fn open(
        storage: Arc<dyn Storage>,
        dir: &Path,
        config: WalConfig,
        start_seq: u64,
        preexisting: Vec<SealedSegment>,
    ) -> io::Result<Self> {
        storage.create_dir_all(dir)?;
        let file = create_segment(&*storage, dir, start_seq)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_seq: 1,
                ..State::default()
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            durable_cv: Condvar::new(),
            config,
        });
        let segments = Arc::new(Mutex::new(Segments {
            sealed: preexisting,
        }));
        let writer = {
            let shared = Arc::clone(&shared);
            let segments = Arc::clone(&segments);
            let storage = Arc::clone(&storage);
            let dir = dir.to_path_buf();
            std::thread::Builder::new()
                .name("skh-wal-writer".into())
                .spawn(move || writer_loop(shared, segments, storage, dir, file, start_seq))
                .map_err(|e| io::Error::other(format!("spawn wal writer: {e}")))?
        };
        Ok(Self {
            shared,
            segments,
            storage,
            dir: dir.to_path_buf(),
            writer: Some(writer),
        })
    }

    /// Lease a record buffer from the pool.
    pub fn lease(&self) -> RecordBuf {
        let mut st = lock(&self.shared.state);
        let mut inner = st.buf_pool.pop().unwrap_or_else(|| {
            Box::new(RecordBufInner {
                bytes: Vec::new(),
                ops: 0,
                shared: Weak::new(),
            })
        });
        let mut bytes = st.bytes_pool.pop().unwrap_or_default();
        drop(st);
        bytes.clear();
        bytes.resize(RECORD_HEADER_BYTES, 0);
        inner.bytes = bytes;
        inner.ops = 0;
        inner.shared = Arc::downgrade(&self.shared);
        RecordBuf(Some(inner))
    }

    /// Durability barrier: block until everything submitted before this
    /// call is fsynced, or return the log's sticky error.
    pub fn sync(&self) -> io::Result<()> {
        let shared = &self.shared;
        let mut st = lock(&shared.state);
        let target = st.next_seq - 1;
        loop {
            if let Some(msg) = &st.error {
                return Err(io::Error::other(msg.clone()));
            }
            if st.durable_seq >= target {
                return Ok(());
            }
            if st.shutdown {
                return Err(io::Error::other("wal shut down with pending records"));
            }
            st = shared
                .durable_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ask the writer to seal the active segment at its next opportunity
    /// (checkpointing calls this so the pre-checkpoint tail becomes
    /// truncatable once covered).
    pub(crate) fn request_rotation(&self) {
        lock(&self.shared.state).rotate_request = true;
        self.shared.work_cv.notify_one();
    }

    /// Delete sealed segments entirely covered by a durable checkpoint at
    /// `covered_version`.  Best-effort: the first I/O error is returned,
    /// but every deletable segment is attempted — a half-finished
    /// truncation only leaves stale segments recovery will skip by stamp.
    pub(crate) fn truncate_covered(&self, covered_version: u64) -> io::Result<()> {
        let mut seg = lock(&self.segments);
        let mut first_err = None;
        seg.sealed.retain(|s| {
            if s.max_stamp > covered_version {
                return true;
            }
            match self.storage.remove(&self.dir.join(segment_name(s.seq))) {
                Ok(()) => false,
                Err(e) if e.kind() == io::ErrorKind::NotFound => false,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    true
                }
            }
        });
        drop(seg);
        let sync_res = self.storage.sync_dir(&self.dir);
        match first_err {
            Some(e) => Err(e),
            None => sync_res,
        }
    }

    /// The log's sticky failure, if any (None means healthy).
    pub fn error(&self) -> Option<String> {
        lock(&self.shared.state).error.clone()
    }

    /// Commit records made durable so far, and the group-commit flushes
    /// (one fsync each) that carried them.
    pub(crate) fn counters(&self) -> (u64, u64) {
        let st = lock(&self.shared.state);
        (st.records_appended, st.group_commit_flushes)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            // Break the buffer pools' back-references so nothing keeps the
            // shared state alive once the log is gone.
            st.buf_pool.clear();
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        self.shared.durable_cv.notify_all();
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

fn create_segment(storage: &dyn Storage, dir: &Path, seq: u64) -> io::Result<Box<dyn StorageFile>> {
    let mut file = storage.create(&dir.join(segment_name(seq)))?;
    let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES);
    header.extend_from_slice(SEGMENT_MAGIC);
    header.push(SEGMENT_VERSION);
    header.extend_from_slice(&seq.to_le_bytes());
    file.append(&header)?;
    file.sync()?;
    storage.sync_dir(dir)?;
    Ok(file)
}

// ---------------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------------

fn writer_loop(
    shared: Arc<Shared>,
    segments: Arc<Mutex<Segments>>,
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    mut active: Box<dyn StorageFile>,
    mut active_seq: u64,
) {
    let mut active_bytes = SEGMENT_HEADER_BYTES as u64;
    let mut active_max_stamp = 0u64;
    let mut batch: Vec<Pending> = Vec::new();
    let mut frame_buf: Vec<u8> = Vec::new();

    loop {
        let rotate_asked;
        {
            let mut st = lock(&shared.state);
            loop {
                if st.error.is_some() {
                    // Submit-side poison (oversized record): fail-stop like
                    // our own I/O errors — queued records were never
                    // acknowledged, so dropping them is safe.
                    st.queue.clear();
                    st.queue_bytes = 0;
                    drop(st);
                    shared.durable_cv.notify_all();
                    shared.space_cv.notify_all();
                    return;
                }
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                if st.rotate_request {
                    break; // rotate even with nothing to flush
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Group-commit accumulation: give other committers a chance to
            // join this batch's single fsync.
            let deadline = Instant::now() + shared.config.flush_interval;
            while !st.queue.is_empty()
                && st.queue_bytes < shared.config.max_batch_bytes
                && !st.shutdown
                && st.error.is_none()
            {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = shared
                    .work_cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            mem::swap(&mut batch, &mut st.queue);
            st.queue_bytes = 0;
            rotate_asked = mem::take(&mut st.rotate_request);
            shared.space_cv.notify_all();
        }

        if !batch.is_empty() {
            // Stamp order within the batch keeps segments near-sorted;
            // recovery's global sort does the rest.
            batch.sort_by_key(|p| p.stamp);
            frame_buf.clear();
            for p in &batch {
                frame_buf.extend_from_slice(&(p.bytes.len() as u32).to_le_bytes());
                frame_buf.extend_from_slice(&crc32(&p.bytes).to_le_bytes());
                frame_buf.extend_from_slice(&p.bytes);
            }
            let last_seq = batch.iter().map(|p| p.seq).max().unwrap_or(0);
            let max_stamp = batch.iter().map(|p| p.stamp).max().unwrap_or(0);
            let records = batch.len() as u64;

            let result = active.append(&frame_buf).and_then(|()| active.sync());
            let mut st = lock(&shared.state);
            match result {
                Ok(()) => {
                    active_bytes += frame_buf.len() as u64;
                    active_max_stamp = active_max_stamp.max(max_stamp);
                    st.durable_seq = st.durable_seq.max(last_seq);
                    st.records_appended += records;
                    st.group_commit_flushes += 1;
                    for p in batch.drain(..) {
                        st.bytes_pool.push(p.bytes);
                    }
                    drop(st);
                    shared.durable_cv.notify_all();
                }
                Err(e) => {
                    st.error = Some(format!("wal append/fsync failed: {e}"));
                    batch.clear();
                    st.queue.clear();
                    st.queue_bytes = 0;
                    drop(st);
                    shared.durable_cv.notify_all();
                    shared.space_cv.notify_all();
                    return;
                }
            }
        }

        let shutdown = {
            let st = lock(&shared.state);
            st.shutdown && st.queue.is_empty()
        };
        if shutdown {
            return;
        }

        if rotate_asked || active_bytes >= shared.config.segment_max_bytes {
            match create_segment(&*storage, &dir, active_seq + 1) {
                Ok(next) => {
                    lock(&segments).sealed.push(SealedSegment {
                        seq: active_seq,
                        max_stamp: active_max_stamp,
                    });
                    active = next;
                    active_seq += 1;
                    active_bytes = SEGMENT_HEADER_BYTES as u64;
                    active_max_stamp = 0;
                }
                Err(e) => {
                    let mut st = lock(&shared.state);
                    st.error = Some(format!("wal segment rotation failed: {e}"));
                    st.queue.clear();
                    st.queue_bytes = 0;
                    drop(st);
                    shared.durable_cv.notify_all();
                    shared.space_cv.notify_all();
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing (shared with recovery and with out-of-crate test oracles)
// ---------------------------------------------------------------------------

/// One logged operation, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<K, V> {
    Put(K, V),
    Remove(K),
}

/// Walk the frames of a segment body, stopping at the first invalid frame.
///
/// "Invalid" covers every mutilation recovery must survive: a length prefix
/// running past the end of the file (torn tail), an oversized length
/// (flipped length bits), and a CRC mismatch (payload or header
/// corruption).  [`FrameIter::truncated`] reports whether iteration ended
/// at corruption rather than a clean end-of-file.
pub struct FrameIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    truncated: bool,
}

impl<'a> FrameIter<'a> {
    pub fn new(body: &'a [u8]) -> Self {
        Self {
            bytes: body,
            pos: 0,
            truncated: false,
        }
    }

    /// Bytes consumed up to the end of the last valid frame.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// True when iteration stopped at a torn/corrupt frame rather than a
    /// clean end.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.truncated || self.pos == self.bytes.len() {
            return None;
        }
        let mut cur = Cursor::new(&self.bytes[self.pos..]);
        let header = (|| {
            let len = cur.take_u32()?;
            let crc = cur.take_u32()?;
            Some((len, crc))
        })();
        let Some((len, crc)) = header else {
            self.truncated = true;
            return None;
        };
        if len == 0 || len > MAX_FRAME_BYTES || cur.remaining() < len as usize {
            self.truncated = true;
            return None;
        }
        let start = self.pos + 8;
        let payload = &self.bytes[start..start + len as usize];
        if crc32(payload) != crc {
            self.truncated = true;
            return None;
        }
        self.pos = start + len as usize;
        Some(payload)
    }
}

/// Validate a segment's header; returns its sequence number and the frame
/// body.  `None` means the header itself is damaged — the caller treats
/// the whole segment as an invalid tail.
pub fn parse_segment_header(bytes: &[u8]) -> Option<(u64, &[u8])> {
    if bytes.len() < SEGMENT_HEADER_BYTES || &bytes[0..4] != SEGMENT_MAGIC {
        return None;
    }
    if bytes[4] != SEGMENT_VERSION {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[5..13].try_into().ok()?);
    Some((seq, &bytes[SEGMENT_HEADER_BYTES..]))
}

/// Decode a frame payload into its stamp and operations.  `None` for any
/// structural damage (recovery then skips the record — by construction
/// this only happens when a CRC collision admitted corrupt bytes, but the
/// decoder stays total anyway).
pub fn decode_record<K: Codec, V: Codec>(payload: &[u8]) -> Option<(u64, Vec<Op<K, V>>)> {
    let mut cur = Cursor::new(payload);
    let stamp = cur.take_u64()?;
    let count = cur.take_u32()?;
    let mut ops = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        match cur.take_u8()? {
            TAG_PUT => {
                let key = K::decode(cur.take_bytes()?)?;
                let value = V::decode(cur.take_bytes()?)?;
                ops.push(Op::Put(key, value));
            }
            TAG_REMOVE => {
                let key = K::decode(cur.take_bytes()?)?;
                ops.push(Op::Remove(key));
            }
            _ => return None,
        }
    }
    cur.finished().then_some((stamp, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn open_mem() -> (MemStorage, Wal) {
        let storage = MemStorage::new();
        let wal = Wal::open(
            Arc::new(storage.clone()),
            Path::new("/wal"),
            WalConfig {
                flush_interval: Duration::from_micros(100),
                ..WalConfig::default()
            },
            1,
            Vec::new(),
        )
        .unwrap();
        (storage, wal)
    }

    type Records = Vec<(u64, Vec<Op<u64, u64>>)>;

    fn parse_all(storage: &MemStorage, seq: u64) -> (Records, bool) {
        let bytes = storage
            .bytes(&Path::new("/wal").join(segment_name(seq)))
            .unwrap();
        let (parsed_seq, body) = parse_segment_header(&bytes).unwrap();
        assert_eq!(parsed_seq, seq);
        let mut frames = FrameIter::new(body);
        let mut records = Vec::new();
        for payload in &mut frames {
            records.push(decode_record::<u64, u64>(payload).unwrap());
        }
        (records, frames.truncated())
    }

    #[test]
    fn submit_sync_round_trips_records() {
        let (storage, wal) = open_mem();
        let mut buf = wal.lease();
        buf.log_put(&1u64, &10u64);
        buf.log_remove(&2u64);
        assert!(!buf.is_empty());
        buf.submit(41);
        let mut buf = wal.lease();
        buf.log_put(&3u64, &30u64);
        buf.submit(40);
        wal.sync().unwrap();
        let (records, truncated) = parse_all(&storage, 1);
        assert!(!truncated);
        // Batch-sorted by stamp when both landed in one batch; at minimum
        // both records survive intact.
        let mut stamps: Vec<u64> = records.iter().map(|r| r.0).collect();
        stamps.sort_unstable();
        assert_eq!(stamps, vec![40, 41]);
        let r41 = records.iter().find(|r| r.0 == 41).unwrap();
        assert_eq!(
            r41.1,
            vec![Op::Put(1, 10), Op::Remove(2)],
            "ops preserve intra-record order"
        );
    }

    #[test]
    fn dropped_lease_logs_nothing_and_recycles() {
        let (storage, wal) = open_mem();
        let buf = wal.lease();
        assert!(buf.is_empty());
        drop(buf);
        let pooled = lock(&wal.shared.state).bytes_pool.len();
        assert_eq!(pooled, 1, "dropped lease banks its bytes");
        wal.sync().unwrap();
        let (records, _) = parse_all(&storage, 1);
        assert!(records.is_empty());
    }

    #[test]
    fn empty_sync_is_immediate_and_drop_joins_writer() {
        let (_storage, wal) = open_mem();
        wal.sync().unwrap();
        drop(wal); // must not hang
    }

    #[test]
    fn rotation_seals_segment_with_max_stamp() {
        let (storage, wal) = open_mem();
        let mut buf = wal.lease();
        buf.log_put(&1u64, &1u64);
        buf.submit(7);
        wal.sync().unwrap();
        wal.request_rotation();
        // The request wakes the writer, which rotates even with nothing to
        // flush; poll until the seal lands.  (Submitting another record
        // here instead would race: the writer may batch it into the old
        // segment before honoring the rotation request.)
        for _ in 0..1000 {
            if !lock(&wal.segments).sealed.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let sealed = lock(&wal.segments).sealed.clone();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].seq, 1);
        assert_eq!(sealed[0].max_stamp, 7);
        // Records submitted after the seal land in the new segment.
        let mut buf = wal.lease();
        buf.log_put(&2u64, &2u64);
        buf.submit(8);
        wal.sync().unwrap();
        let (records, _) = parse_all(&storage, 2);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, 8);
        // Truncating below the sealed max keeps the file; at it, deletes.
        wal.truncate_covered(6).unwrap();
        assert!(storage
            .bytes(&Path::new("/wal").join(segment_name(1)))
            .is_some());
        wal.truncate_covered(7).unwrap();
        assert!(storage
            .bytes(&Path::new("/wal").join(segment_name(1)))
            .is_none());
        assert!(lock(&wal.segments).sealed.is_empty());
    }

    #[test]
    fn failed_fsync_poisons_the_log() {
        use crate::storage::{FaultPlan, FaultStorage};
        // Segment creation costs one sync (header) plus one dir sync
        // (no-op for MemStorage-backed FaultStorage counts only file
        // syncs... the plan counts StorageFile::sync calls): header sync
        // is call 1, first batch sync is call 2.
        let storage = FaultStorage::new(FaultPlan {
            fail_sync_at: Some(2),
            ..FaultPlan::default()
        });
        let wal = Wal::open(
            Arc::new(storage.clone()),
            Path::new("/wal"),
            WalConfig {
                flush_interval: Duration::from_micros(100),
                ..WalConfig::default()
            },
            1,
            Vec::new(),
        )
        .unwrap();
        let mut buf = wal.lease();
        buf.log_put(&1u64, &1u64);
        buf.submit(1);
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert!(wal.error().is_some());
        // Later submissions are dropped, later syncs keep failing.
        let mut buf = wal.lease();
        buf.log_put(&2u64, &2u64);
        buf.submit(2);
        assert!(wal.sync().is_err());
    }

    #[test]
    fn oversized_record_poisons_instead_of_acknowledging() {
        let (storage, wal) = open_mem();
        let mut buf = wal.lease();
        // Payload = 12-byte record header + op overhead + a value just past
        // the frame limit: recovery would refuse the frame, so the producer
        // must refuse the record.
        buf.log_put(&1u64, &vec![0u8; MAX_FRAME_BYTES as usize]);
        buf.submit(1);
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("frame limit"), "{err}");
        assert!(wal.error().is_some());
        // The record never reached the segment: header only, no frames.
        let bytes = storage
            .bytes(&Path::new("/wal").join(segment_name(1)))
            .unwrap();
        assert_eq!(bytes.len(), SEGMENT_HEADER_BYTES);
        // The poison is sticky; later (well-sized) submissions are dropped.
        let mut buf = wal.lease();
        buf.log_put(&2u64, &2u64);
        buf.submit(2);
        assert!(wal.sync().is_err());
        let bytes = storage
            .bytes(&Path::new("/wal").join(segment_name(1)))
            .unwrap();
        assert_eq!(bytes.len(), SEGMENT_HEADER_BYTES);
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(parse_segment_name(&segment_name(42)), Some(42));
        assert_eq!(parse_segment_name("wal-123.log"), None);
        assert_eq!(parse_segment_name("ckpt-000000000042.img"), None);
        assert_eq!(parse_segment_name("wal-00000000004x.log"), None);
    }

    #[test]
    fn frame_iter_survives_mutilation() {
        let mut body = Vec::new();
        let payload = b"record-payload".to_vec();
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(&crc32(&payload).to_le_bytes());
        body.extend_from_slice(&payload);
        // Clean parse.
        let mut it = FrameIter::new(&body);
        assert_eq!(it.next(), Some(&payload[..]));
        assert!(it.next().is_none() && !it.truncated());
        // Torn tail: drop the last byte.
        let torn = &body[..body.len() - 1];
        let mut it = FrameIter::new(torn);
        assert!(it.next().is_none());
        assert!(it.truncated());
        // Flipped CRC bit.
        let mut flipped = body.clone();
        flipped[4] ^= 1;
        let mut it = FrameIter::new(&flipped);
        assert!(it.next().is_none());
        assert!(it.truncated());
        // Absurd length prefix.
        let mut huge = body.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut it = FrameIter::new(&huge);
        assert!(it.next().is_none());
        assert!(it.truncated());
    }
}
