//! The four workloads: their inputs (made from the seed alone), set-up,
//! operations and output checks.  README.md says why each was chosen.

use skiphash::SkipHash;

use crate::trace::{Name, Trace, NONE};

pub type Map = SkipHash<u64, u64>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Paper Fig. 5d: 80% get, 10% update, 10% range of 100, 2^20 keys.
    Fig5d,
    /// Paper Fig. 5f: 1% get, 98% update, 1% range of 100, 2^14 keys.
    Fig5f,
    /// Paper Fig. 6 / Table 1: one updater, one ranger of 8192, 2^16 keys.
    Fig6,
    /// Transfers between accounts beside pinned snapshot reads of a block.
    SnapHtap,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub universe: u64,
    /// Keys present after set-up.
    pub prefill: u64,
    /// Trials per run, each on a freshly loaded map; `setup_s` is the
    /// median set-up time of the trials.
    pub trials: usize,
    /// Run `SkipHash::check_invariants` after the last trial.  Its
    /// every-level-in-level-0 check is quadratic in the key count (about two
    /// minutes at 2^19 keys), so the largest workload relies on the other
    /// after-run checks.
    pub check_invariants: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "fig5d-1m",
        kind: Kind::Fig5d,
        universe: 1 << 20,
        prefill: 1 << 19,
        trials: 3,
        check_invariants: false,
    },
    Spec {
        name: "fig5f-16k",
        kind: Kind::Fig5f,
        universe: 1 << 14,
        prefill: 1 << 13,
        trials: 10,
        check_invariants: true,
    },
    Spec {
        name: "fig6-r8k",
        kind: Kind::Fig6,
        universe: 1 << 16,
        prefill: 1 << 15,
        trials: 10,
        check_invariants: true,
    },
    Spec {
        name: "snap-htap-16k",
        kind: Kind::SnapHtap,
        universe: 1 << 14,
        prefill: 1 << 14,
        trials: 10,
        check_invariants: true,
    },
];

pub const SHORT_RANGE: u64 = 100;
pub const LONG_RANGE: u64 = 8192;
pub const BLOCK: u64 = 1024;
pub const INITIAL_BALANCE: u64 = 1_000_000;

/// The value every key-value workload stores under `key`, so that any pair
/// read back can be checked on its own.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
}

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// A seeded bijection on `0..2^bits`: the set-up inserts the first
/// `prefill` images, which gives a uniform key set in a random order.
pub struct Permutation {
    bits: u32,
    keys: [u64; 3],
}

impl Permutation {
    pub fn new(universe: u64, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x5E7);
        Self {
            bits: universe.trailing_zeros(),
            keys: [rng.next(), rng.next(), rng.next()],
        }
    }

    pub fn apply(&self, i: u64) -> u64 {
        let mask = (1u64 << self.bits) - 1;
        let mut x = i;
        for k in self.keys {
            // xor, odd multiply and xor-shift are each bijective mod 2^bits.
            x = ((x ^ k) & mask).wrapping_mul(k | 1) & mask;
            x ^= x >> (self.bits / 2).max(1);
        }
        x
    }
}

/// Client `thread`'s share of set-up: a contiguous `1/threads` of the
/// `prefill` keys, so that loading sequential account ids does not make the
/// clients collide on neighbouring keys.  `Err` names the first insert that
/// found its key present.
pub fn load(
    spec: &Spec,
    perm: &Permutation,
    map: &Map,
    thread: u64,
    threads: u64,
) -> Result<(), String> {
    let per = spec.prefill / threads;
    for i in thread * per..(thread + 1) * per {
        let (key, value) = match spec.kind {
            Kind::SnapHtap => (i, INITIAL_BALANCE),
            _ => {
                let key = perm.apply(i);
                (key, value_of(key))
            }
        };
        if !map.insert(key, value) {
            return Err(format!("set-up insert of key {key} found it present"));
        }
    }
    Ok(())
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Get(u64),
    Insert(u64),
    Remove(u64),
    Range(u64, u64),
    Transfer { from: u64, to: u64, amount: u64 },
    SnapshotRead { block: u64 },
}

/// Operation kinds, numbered by [`Op::kind`]: get, insert, remove,
/// transfer, range, snapshot read.
pub const KINDS: usize = 6;

impl Op {
    pub fn kind(self) -> usize {
        match self {
            Op::Get(_) => 0,
            Op::Insert(_) => 1,
            Op::Remove(_) => 2,
            Op::Transfer { .. } => 3,
            Op::Range(..) => 4,
            Op::SnapshotRead { .. } => 5,
        }
    }

    pub fn is_scan(self) -> bool {
        matches!(self, Op::Range(..) | Op::SnapshotRead { .. })
    }

    pub fn is_update(self) -> bool {
        matches!(self, Op::Insert(_) | Op::Remove(_) | Op::Transfer { .. })
    }

    fn root(self) -> Name {
        [
            Name::OpGet,
            Name::OpInsert,
            Name::OpRemove,
            Name::OpTransfer,
            Name::OpRange,
            Name::OpSnapshotRead,
        ][self.kind()]
    }
}

/// Draw the next operation of client `thread` (0 or 1).
pub fn next_op(spec: &Spec, thread: u64, rng: &mut Rng) -> Op {
    let u = spec.universe;
    let update = |rng: &mut Rng| {
        let key = rng.below(u);
        if rng.next() & 1 == 0 {
            Op::Insert(key)
        } else {
            Op::Remove(key)
        }
    };
    let range = |rng: &mut Rng, len: u64| Op::Range(rng.below(u - len + 1), len);
    match spec.kind {
        Kind::Fig5d => match rng.below(100) {
            0..=79 => Op::Get(rng.below(u)),
            80..=89 => update(rng),
            _ => range(rng, SHORT_RANGE),
        },
        Kind::Fig5f => match rng.below(100) {
            0 => Op::Get(rng.below(u)),
            1 => range(rng, SHORT_RANGE),
            _ => update(rng),
        },
        Kind::Fig6 if thread == 0 => update(rng),
        Kind::Fig6 => range(rng, LONG_RANGE),
        Kind::SnapHtap => {
            let block = rng.below(u / BLOCK);
            if rng.below(100) == 0 {
                return Op::SnapshotRead { block };
            }
            let from = rng.below(BLOCK);
            let to = (from + 1 + rng.below(BLOCK - 1)) % BLOCK;
            Op::Transfer {
                from: block * BLOCK + from,
                to: block * BLOCK + to,
                amount: 1 + rng.below(100),
            }
        }
    }
}

/// What a completed operation produced.
pub struct Done {
    /// Pairs returned by a range or snapshot read.
    pub pairs: u64,
    /// An insert that added its key.
    pub inserted: bool,
}

/// Run one operation, with spans around each layer call when `T` traces.
/// `Err` carries the first output check the result failed.
pub fn run_op<T: Trace>(map: &Map, op: Op, t: &mut T) -> Result<Done, String> {
    let root = t.open(op.root(), NONE);
    let done = match op {
        Op::Get(key) => {
            let got = in_txn(map, t, root, Name::ViewGet, |v| v.get(&key));
            match got {
                Some(v) if v != value_of(key) => {
                    return Err(format!("get({key}) returned {v}, not {}", value_of(key)))
                }
                _ => point(false),
            }
        }
        Op::Insert(key) => point(in_txn(map, t, root, Name::ViewInsert, |v| {
            v.insert(key, value_of(key))
        })),
        Op::Remove(key) => {
            in_txn(map, t, root, Name::ViewRemove, |v| v.remove(&key));
            point(false)
        }
        Op::Transfer { from, to, amount } => {
            let moved = in_txn(map, t, root, Name::ViewTransfer, |v| {
                let (Some(a), Some(b)) = (v.get(&from)?, v.get(&to)?) else {
                    return Ok(false);
                };
                let amount = amount.min(a);
                v.upsert(from, a - amount)?;
                v.upsert(to, b + amount)?;
                Ok(true)
            });
            if !moved {
                return Err(format!("transfer {from} -> {to} found an account missing"));
            }
            point(false)
        }
        Op::Range(lo, len) => {
            let before = if T::ON {
                map.range_stats()
            } else {
                Default::default()
            };
            let span = t.open(Name::RangeFast, root);
            let pairs = map.range_copied(lo..lo + len);
            t.close(span);
            if T::ON && map.range_stats().slow_path_completions > before.slow_path_completions {
                t.rename(span, Name::RangeSlow);
            }
            let check = t.open(Name::Check, root);
            check_range(pairs.as_slice(), lo, lo + len)?;
            t.close(check);
            Done {
                pairs: pairs.as_slice().len() as u64,
                inserted: false,
            }
        }
        Op::SnapshotRead { block } => {
            let span = t.open(Name::SnapshotCreate, root);
            let snap = map.snapshot();
            t.close(span);
            let span = t.open(Name::SnapshotScan, root);
            let pairs = snap.range_copied(block * BLOCK..(block + 1) * BLOCK);
            t.close(span);
            let check = t.open(Name::Check, root);
            check_block(pairs.as_slice(), block)?;
            t.close(check);
            let span = t.open(Name::SnapshotDrop, root);
            drop(snap);
            t.close(span);
            Done {
                pairs: pairs.as_slice().len() as u64,
                inserted: false,
            }
        }
    };
    t.close(root);
    Ok(done)
}

fn point(inserted: bool) -> Done {
    Done { pairs: 0, inserted }
}

/// `Stm::run` over a `view` body: the path every sealed operation takes
/// (`SkipHash::get` is `transact(|v| v.get(k))`), opened up so the trace can
/// time the transaction's begin, each body attempt and the commit.
fn in_txn<T: Trace, R>(
    map: &Map,
    t: &mut T,
    root: usize,
    body_name: Name,
    mut body: impl FnMut(&mut skiphash::TxView<'_, '_, u64, u64>) -> skiphash_stm::TxResult<R>,
) -> R {
    let run = t.open(Name::StmRun, root);
    let out = map.stm().run(|tx| {
        let span = t.open(body_name, run);
        let r = body(&mut map.view(tx));
        t.close(span);
        r
    });
    t.close(run);
    out
}

/// A range result must be strictly ascending (so duplicate-free), inside
/// `[lo, hi)`, and carry `value_of(key)` for every key.
fn check_range(pairs: &[(u64, u64)], lo: u64, hi: u64) -> Result<(), String> {
    let mut prev = None;
    for &(k, v) in pairs {
        if k < lo || k >= hi {
            return Err(format!("range [{lo}, {hi}) returned key {k}"));
        }
        if prev.is_some_and(|p| p >= k) {
            return Err(format!(
                "range [{lo}, {hi}) is not strictly ascending at {k}"
            ));
        }
        if v != value_of(k) {
            return Err(format!("range [{lo}, {hi}) returned {k} -> {v}"));
        }
        prev = Some(k);
    }
    Ok(())
}

/// A snapshot of one block must hold every account of the block, in order,
/// and the block's total must be exactly what set-up put there: transfers
/// stay inside a block, so any torn read breaks the sum.
fn check_block(pairs: &[(u64, u64)], block: u64) -> Result<(), String> {
    if pairs.len() as u64 != BLOCK {
        return Err(format!(
            "snapshot of block {block} held {} accounts",
            pairs.len()
        ));
    }
    let mut sum = 0u64;
    for (i, &(k, v)) in pairs.iter().enumerate() {
        if k != block * BLOCK + i as u64 {
            return Err(format!(
                "snapshot of block {block} has key {k} at position {i}"
            ));
        }
        sum += v;
    }
    if sum != BLOCK * INITIAL_BALANCE {
        return Err(format!("snapshot of block {block} sums to {sum}"));
    }
    Ok(())
}

/// Checks on the quiescent map after a trial's timed window; the costly
/// `check_invariants` only when `last`.
pub fn check_after(spec: &Spec, map: &Map, last: bool) -> Result<(), String> {
    if spec.check_invariants && last {
        map.check_invariants()?;
    }
    let all = map.to_vec();
    if map.len() != all.len() {
        return Err(format!(
            "len() = {} but to_vec() has {}",
            map.len(),
            all.len()
        ));
    }
    match spec.kind {
        Kind::SnapHtap => {
            if all.len() as u64 != spec.universe {
                return Err(format!("{} accounts after the run", all.len()));
            }
            for (b, block) in all.chunks(BLOCK as usize).enumerate() {
                check_block(block, b as u64)?;
            }
        }
        _ => check_range(&all, 0, spec.universe)?,
    }
    Ok(())
}
