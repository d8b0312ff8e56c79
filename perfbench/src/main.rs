//! Closed-loop benchmark of `skiphash::SkipHash<u64, u64>` (default
//! `Config`) with two client threads.  Usage:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Prints every metric by name and unit, then, as the last line of standard
//! output, one JSON object: the end-to-end metrics when `--trace 0`, the
//! per-layer metrics when `--trace 1`.  See README.md.

mod hist;
mod trace;
mod workload;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use skiphash::RangeStats;
use skiphash_stm::StatsSnapshot;

use hist::Hist;
use trace::{LayerAgg, Off, Tracer, LAYERS};
use workload::{Map, Op, Permutation, Rng, Spec, KINDS, SPECS};

/// Client threads: one per core of the 2-vCPU machine the benchmark was
/// sized on.
const THREADS: u64 = 2;
/// Throughput is counted per slice of this length and reported as the
/// median slice, so a short stall of the machine moves it little.  In a
/// traced run the slices alternate untraced / traced.
const SLICE: Duration = Duration::from_millis(250);
/// Operations run, unmeasured, between a trial's set-up and its window.
const WARMUP: Duration = Duration::from_millis(250);
/// Spans each thread keeps for the dump; later ones are only aggregated.
const SPAN_LOG_CAPACITY: usize = 100_000;

/// Per-slice counters, by index.
const C_OPS: usize = 0;
const C_UPDATES: usize = 1;
const C_PAIRS: usize = 2;
const C_INSERTED: usize = 3;
const C_RANGES: usize = 4;
/// CPU time (ns) the client thread ran during the slice.
const C_CPU_NS: usize = 5;

const CLIENT_THREAD: &str = "perfbench-client";
static FIRST_PANIC: OnceLock<String> = OnceLock::new();
static FIRST_CHECK_FAILURE: OnceLock<String> = OnceLock::new();

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    SPECS
                        .iter()
                        .find(|s| s.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or(format!("--seconds must be 1..=60, not {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// What one client thread measured, over all trials.
struct Client {
    thread: u64,
    rng: Rng,
    attempted: u64,
    check_failed: u64,
    panicked: u64,
    /// This trial's latency (ns) per operation kind, then the thread CPU
    /// time of scans; untraced measured slices only.
    latency: Vec<Hist>,
    /// Counters per measured slice, numbered across trials.
    slices: Vec<[u64; 6]>,
    tracer: Option<Tracer>,
}

impl Client {
    fn new(thread: u64, seed: u64, slices: usize, origin: Option<Instant>) -> Self {
        Self {
            thread,
            rng: Rng::new(seed, 1 + thread),
            attempted: 0,
            check_failed: 0,
            panicked: 0,
            latency: (0..HISTS).map(|_| Hist::new()).collect(),
            slices: vec![[0; 6]; slices],
            tracer: origin.map(|o| Tracer::new(o, thread, SPAN_LOG_CAPACITY)),
        }
    }
}

/// In a traced run, odd slices of each trial are traced.
fn is_traced(trace: bool, local_slice: usize) -> bool {
    trace && local_slice % 2 == 1
}

/// One trial's timed window: a warm-up, then `slices` slices whose
/// counters go to `first..first + slices`.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    end: Instant,
    first: usize,
    slices: usize,
    trace: bool,
}

impl Window {
    fn slice_of(&self, t: Instant) -> Option<usize> {
        let i = (t.checked_duration_since(self.start)?.as_nanos() / SLICE.as_nanos()) as usize;
        (i < self.slices).then_some(i)
    }

    fn traced(&self, local_slice: usize) -> bool {
        is_traced(self.trace, local_slice)
    }
}

/// What the main thread and the client threads share during a run.
struct Shared {
    spec: &'static Spec,
    perm: Permutation,
    trials: usize,
    /// Parties: the clients and the main thread.
    barrier: Barrier,
    /// The current trial's map and window, published by the main thread.
    map: Mutex<Option<Arc<Map>>>,
    window: Mutex<Option<Window>>,
    setup_error: Mutex<Option<String>>,
    /// CPU time of the trial's slower loader; the barrier after the load
    /// orders it before the main thread reads it.
    load_cpu_ns: AtomicU64,
    /// The trial's latency histograms, merged from both clients.
    latency: Mutex<Vec<Hist>>,
}

/// A client thread: per trial, load its share of a fresh map, then run the
/// closed loop through the window.  The same threads do both, so the
/// allocator sees the same threads in every trial.
fn client_thread(sh: &Shared, mut c: Client) -> Client {
    for _ in 0..sh.trials {
        sh.barrier.wait(); // the map is published
        let map = sh
            .map
            .lock()
            .expect("no thread panics holding it")
            .clone()
            .expect("published");
        let cpu = thread_cpu_ns();
        let loaded = workload::load(sh.spec, &sh.perm, &map, c.thread, THREADS);
        sh.load_cpu_ns
            .fetch_max(thread_cpu_ns() - cpu, Ordering::Relaxed);
        if let Err(e) = loaded {
            sh.setup_error
                .lock()
                .expect("no thread panics holding it")
                .get_or_insert(e);
        }
        sh.barrier.wait(); // loaded
        sh.barrier.wait(); // the window is published
        let w = sh
            .window
            .lock()
            .expect("no thread panics holding it")
            .expect("published");
        run_window(sh.spec, &map, &w, &mut c);
        drop(map);
        for (all, mine) in sh
            .latency
            .lock()
            .expect("no thread panics holding it")
            .iter_mut()
            .zip(c.latency.iter_mut())
        {
            all.merge(mine);
            mine.clear();
        }
        sh.barrier.wait(); // window over
    }
    c
}

fn run_window(spec: &Spec, map: &Map, w: &Window, c: &mut Client) {
    // The slice being measured and the thread's CPU time when it began.
    let mut open: Option<(usize, u64)> = None;
    loop {
        let op = workload::next_op(spec, c.thread, &mut c.rng);
        let start = Instant::now();
        if start >= w.end {
            break;
        }
        let scan = op.is_scan();
        let cpu_start = if scan { thread_cpu_ns() } else { 0 };
        let slice = w.slice_of(start);
        if slice != open.map(|o| o.0) {
            let now = thread_cpu_ns();
            if let Some((s, since)) = open {
                c.slices[w.first + s][C_CPU_NS] += now - since;
            }
            open = slice.map(|s| (s, now));
        }
        let result = match (&mut c.tracer, slice) {
            (Some(tracer), Some(s)) if w.traced(s) => {
                let r = catch_unwind(AssertUnwindSafe(|| workload::run_op(map, op, tracer)));
                if matches!(r, Ok(Ok(_))) {
                    tracer.finish_op();
                } else {
                    tracer.abandon_op();
                }
                r
            }
            _ => catch_unwind(AssertUnwindSafe(|| workload::run_op(map, op, &mut Off))),
        };
        let ns = start.elapsed().as_nanos() as u64;
        let cpu_ns = if scan { thread_cpu_ns() - cpu_start } else { 0 };
        c.attempted += 1;
        let done = match result {
            Ok(Ok(done)) => done,
            Ok(Err(msg)) => {
                c.check_failed += 1;
                let _ = FIRST_CHECK_FAILURE.set(msg);
                continue;
            }
            Err(_) => {
                c.panicked += 1;
                continue;
            }
        };
        let Some(s) = slice else { continue };
        let counts = &mut c.slices[w.first + s];
        counts[C_OPS] += 1;
        counts[C_UPDATES] += op.is_update() as u64;
        counts[C_PAIRS] += done.pairs;
        counts[C_INSERTED] += done.inserted as u64;
        counts[C_RANGES] += matches!(op, Op::Range(..)) as u64;
        if !w.traced(s) {
            c.latency[op.kind()].record(ns);
            if scan {
                c.latency[SCAN_CPU].record(cpu_ns);
            }
        }
    }
    if let Some((s, since)) = open {
        c.slices[w.first + s][C_CPU_NS] += thread_cpu_ns() - since;
    }
}

/// The `q` quantile of `v`, interpolating between neighbours; 0 if empty.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// CPU time the calling thread has run, in ns.  Unlike wall time it does
/// not count time the hypervisor takes the vCPU away, which on a shared
/// host lands inside most millisecond-long scans.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec (two 64-bit fields on the
    // 64-bit Linux targets this benchmark reads /proc on), and the clock id
    // is one every Linux kernel supports, so the call only writes `t`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as u64 * 1_000_000_000 + t.nsec as u64
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn add_stats(a: &mut StatsSnapshot, d: &StatsSnapshot) {
    a.commits += d.commits;
    a.read_only_commits += d.read_only_commits;
    a.aborts_read_conflict += d.aborts_read_conflict;
    a.aborts_write_conflict += d.aborts_write_conflict;
    a.aborts_validation += d.aborts_validation;
    a.validation_skipped_commits += d.validation_skipped_commits;
    a.read_dedup_hits += d.read_dedup_hits;
    a.slab_recycle_hits += d.slab_recycle_hits;
    a.node_recycle_hits += d.node_recycle_hits;
    a.chain_recycle_hits += d.chain_recycle_hits;
    a.snapshot_preserved += d.snapshot_preserved;
}

/// Latency histograms a client keeps: one per operation kind, then the
/// thread CPU time of scans.
const HISTS: usize = KINDS + 1;
const SCAN_CPU: usize = KINDS;

/// Latency classes: name, unit, and the histograms they merge.  A transfer
/// is an update; a scan is a range query or a snapshot read.
const CLASSES: [(&str, &str, &[usize]); 7] = [
    ("point", "ns", &[0, 1, 2, 3]),
    ("update", "ns", &[1, 2, 3]),
    ("scan", "us", &[4, 5]),
    ("scan_cpu", "us", &[SCAN_CPU]),
    ("get", "ns", &[0]),
    ("range", "us", &[4]),
    ("snapshot_read", "us", &[5]),
];
/// The classes every workload reports, whether or not it has samples.
const CLASSES_GATED: [&str; 4] = ["point", "update", "scan", "scan_cpu"];

/// One latency class over a run.
struct Timing {
    pooled: Hist,
    trial_iqm: Vec<f64>,
}

/// Metrics in print order: name, value, unit, and a note (sample counts or
/// the base of a ratio).
struct Report {
    rows: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.rows.push((name.to_string(), value, unit, note));
    }

    /// `<name>_p50_<unit>` and `_p99_` of the pooled samples, and
    /// `_iqm_`, the median over trials of each trial's interquartile mean.
    fn timing(&mut self, name: &str, unit: &'static str, t: &Timing) {
        let scale = if unit == "us" { 1e-3 } else { 1.0 };
        let h = &t.pooled;
        let n = h.count();
        let beyond = n - ((0.99 * n as f64).ceil() as u64).min(n);
        self.add(
            &format!("{name}_p50_{unit}"),
            h.quantile(0.5) * scale,
            unit,
            format!("n={n}"),
        );
        self.add(
            &format!("{name}_iqm_{unit}"),
            quantile(t.trial_iqm.clone(), 0.5) * scale,
            unit,
            format!(
                "median of {} trials' interquartile means; n={n}",
                t.trial_iqm.len()
            ),
        );
        self.add(
            &format!("{name}_p99_{unit}"),
            h.quantile(0.99) * scale,
            unit,
            format!(
                "n={n} beyond={beyond}{}",
                if beyond < 10 { " (too few)" } else { "" }
            ),
        );
    }

    fn get(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1)
    }
}

/// The end-to-end metrics in the JSON line: those that apply to every
/// workload and repeated from run to run on a shared 2-vCPU host (see
/// README.md for the ones printed but left out).
const END_TO_END: [&str; 5] = [
    "ops_per_cpu_s",
    "point_iqm_ns",
    "update_iqm_ns",
    "scan_cpu_iqm_us",
    "setup_s",
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A client's operations run under `catch_unwind`: keep the first of
    // their panic messages for the report instead of printing each one.
    std::panic::set_hook(Box::new(|info| {
        if std::thread::current().name() == Some(CLIENT_THREAD) {
            let _ = FIRST_PANIC.set(info.to_string());
        } else {
            eprintln!("{info}");
        }
    }));
    let spec = args.spec;
    let slices = (args.seconds * 1000 / SLICE.as_millis() as u64) as usize;
    // A traced run needs two slices a trial: one untraced, one traced.
    let trials = spec
        .trials
        .min(if args.trace { slices / 2 } else { slices });
    let trial_slices: Vec<usize> = (0..trials)
        .map(|t| slices / trials + usize::from(t < slices % trials))
        .collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={THREADS} load=closed-loop trials={trials}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );

    let origin = Instant::now();
    let sh = Shared {
        spec,
        perm: Permutation::new(spec.universe, args.seed),
        trials,
        barrier: Barrier::new(THREADS as usize + 1),
        map: Mutex::new(None),
        window: Mutex::new(None),
        setup_error: Mutex::new(None),
        load_cpu_ns: AtomicU64::new(0),
        latency: Mutex::new((0..HISTS).map(|_| Hist::new()).collect()),
    };
    let mut timings: Vec<Timing> = CLASSES
        .iter()
        .map(|_| Timing {
            pooled: Hist::new(),
            trial_iqm: Vec::with_capacity(trials),
        })
        .collect();
    let mut setup_wall = Vec::with_capacity(trials);
    let mut setup_cpu = Vec::with_capacity(trials);
    let mut after = Ok(());
    let mut live_history_end = 0;
    // STM and range counters summed over the traced slices.
    let mut d = StatsSnapshot::default();
    let mut rs = RangeStats::default();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = Client::new(t, args.seed, slices, args.trace.then_some(origin));
                let sh = &sh;
                std::thread::Builder::new()
                    .name(CLIENT_THREAD.into())
                    .spawn_scoped(s, move || client_thread(sh, c))
                    .expect("spawn a client thread")
            })
            .collect();
        let mut first = 0;
        for (trial, &n) in trial_slices.iter().enumerate() {
            // Each trial loads a fresh map, so set-ups and windows alternate
            // and both sample the whole run.
            let t = Instant::now();
            let map = Arc::new(Map::new());
            *sh.map.lock().expect("no thread panics holding it") = Some(Arc::clone(&map));
            sh.barrier.wait();
            sh.barrier.wait();
            setup_wall.push(t.elapsed().as_secs_f64());
            setup_cpu.push(sh.load_cpu_ns.swap(0, Ordering::Relaxed) as f64 / 1e9);

            let start = Instant::now() + WARMUP;
            let w = Window {
                start,
                end: start + SLICE * n as u32,
                first,
                slices: n,
                trace: args.trace,
            };
            *sh.window.lock().expect("no thread panics holding it") = Some(w);
            let mut marks: Vec<(StatsSnapshot, RangeStats)> = Vec::with_capacity(n + 1);
            sh.barrier.wait();
            for i in 0..=n {
                std::thread::sleep(
                    (w.start + SLICE * i as u32).saturating_duration_since(Instant::now()),
                );
                marks.push((map.stm_stats(), map.range_stats()));
            }
            sh.barrier.wait();
            *sh.map.lock().expect("no thread panics holding it") = None;
            // Every pin is dropped now, and the map (whose teardown would
            // free its history) is still alive.
            live_history_end = live_history_end.max(skiphash_stm::snapshot::live_history_entries());
            let mut latency = sh.latency.lock().expect("no thread panics holding it");
            for (t, (_, _, hists)) in timings.iter_mut().zip(CLASSES) {
                let mut h = Hist::new();
                for &k in hists {
                    h.merge(&latency[k]);
                }
                if h.count() > 0 {
                    t.trial_iqm.push(h.interquartile_mean());
                }
                t.pooled.merge(&h);
            }
            latency.iter_mut().for_each(Hist::clear);
            drop(latency);

            for i in (0..n).filter(|&i| w.traced(i)) {
                add_stats(&mut d, &marks[i + 1].0.since(&marks[i].0));
                let (a, b) = (marks[i + 1].1, marks[i].1);
                rs.fast_path_successes += a.fast_path_successes - b.fast_path_successes;
                rs.fast_path_aborts += a.fast_path_aborts - b.fast_path_aborts;
                rs.slow_path_completions += a.slow_path_completions - b.slow_path_completions;
            }
            if after.is_ok() {
                after = workload::check_after(spec, &map, trial + 1 == trials);
            }
            first += n;
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client thread panicked outside an operation")
            })
            .collect()
    });
    let setup_error = sh
        .setup_error
        .into_inner()
        .expect("no thread panics holding it");

    let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let check_failed: u64 = clients.iter().map(|c| c.check_failed).sum();
    let panicked: u64 = clients.iter().map(|c| c.panicked).sum();
    let failed = check_failed + panicked;
    let correct = setup_error.is_none() && after.is_ok() && check_failed == 0;
    println!(
        "checks: set-up {} | in-run {check_failed} failed, {panicked} panicked of {attempted} ops | after-run {}",
        setup_error.as_deref().unwrap_or("ok"),
        after.as_ref().err().map_or("ok", String::as_str)
    );
    if let Some(m) = FIRST_CHECK_FAILURE.get() {
        println!("first failed check: {m}");
    }
    if let Some(m) = FIRST_PANIC.get() {
        println!("first panic: {m}");
    }

    // Global slice index -> whether it was traced (odd within its trial).
    let traced: Vec<bool> = trial_slices
        .iter()
        .flat_map(|&n| (0..n).map(|i| is_traced(args.trace, i)))
        .collect();
    let per_slice = |i: usize, c: usize| clients.iter().map(|cl| cl.slices[i][c]).sum::<u64>();
    let rate = |c: usize, want_traced: bool| {
        let v: Vec<f64> = (0..slices)
            .filter(|&i| traced[i] == want_traced)
            .map(|i| per_slice(i, c) as f64 / SLICE.as_secs_f64())
            .collect();
        quantile(v, 0.5)
    };
    let mut r = Report { rows: Vec::new() };
    let note = format!(
        "median of {} slices of {} ms",
        traced.iter().filter(|&&t| !t).count(),
        SLICE.as_millis()
    );

    if !args.trace {
        r.add("ops_per_s", rate(C_OPS, false), "1/s", note.clone());
        let per_cpu: Vec<f64> = (0..slices)
            .filter(|&i| !traced[i] && per_slice(i, C_CPU_NS) > 0)
            .map(|i| per_slice(i, C_OPS) as f64 / (per_slice(i, C_CPU_NS) as f64 / 1e9))
            .collect();
        r.add(
            "ops_per_cpu_s",
            quantile(per_cpu, 0.5),
            "1/s",
            format!("{note}; ops per second of client-thread CPU time"),
        );
        r.add(
            "update_ops_per_s",
            rate(C_UPDATES, false),
            "1/s",
            note.clone(),
        );
        r.add(
            "scan_pairs_per_s",
            rate(C_PAIRS, false),
            "1/s",
            note.clone(),
        );
        // The classes every workload has, then the names each workload's
        // operations go by.
        for (t, &(name, unit, _)) in timings.iter().zip(CLASSES.iter()) {
            if CLASSES_GATED.contains(&name) || t.pooled.count() > 0 {
                r.timing(name, unit, t);
            }
        }
        r.add(
            "setup_s",
            quantile(setup_cpu.clone(), 0.5),
            "s",
            format!("median of {trials} set-ups' CPU time of the slower loader: {setup_cpu:.4?}"),
        );
        r.add(
            "setup_wall_s",
            quantile(setup_wall.clone(), 0.5),
            "s",
            format!("median of {trials} set-ups' wall time: {setup_wall:.4?}"),
        );
        r.add("peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM".into());
        r.add(
            "failed_op_share",
            ratio(failed, attempted),
            "share",
            format!("{failed} of {attempted} ops"),
        );
        let pairs = r.get("scan_pairs_per_s");
        if timings[5].pooled.count() > 0 {
            r.add("range_pairs_per_s", pairs, "1/s", note.clone());
        }
        if timings[6].pooled.count() > 0 {
            r.add("snapshot_pairs_per_s", pairs, "1/s", note.clone());
        }
    } else {
        let mut agg = LayerAgg::new();
        let (mut logged, mut dropped) = (0, 0);
        for c in &clients {
            let t = c.tracer.as_ref().expect("traced run has tracers");
            agg.merge(&t.agg);
            logged += t.logged();
            dropped += t.logged_dropped;
        }
        let count = |c: usize| {
            (0..slices)
                .filter(|&i| traced[i])
                .map(|i| per_slice(i, c))
                .sum::<u64>()
        };
        let (ops, updates, inserted, ranges) = (
            count(C_OPS),
            count(C_UPDATES),
            count(C_INSERTED),
            count(C_RANGES),
        );
        let writer_commits = d.commits - d.read_only_commits;
        let p50 = |h: &Hist| h.quantile(0.5);
        let n = |h: &Hist| format!("n={}", h.count());
        let per = |what: &str, base: u64| format!("base: {base} {what}");
        r.add("stm.begin_ns", p50(&agg.stm_begin), "ns", n(&agg.stm_begin));
        r.add(
            "stm.commit_ns",
            p50(&agg.stm_commit),
            "ns",
            n(&agg.stm_commit),
        );
        r.add(
            "stm.wasted_body_ns_per_op",
            ratio(agg.wasted_ns, agg.txn_ops),
            "ns/op",
            per("txn ops", agg.txn_ops),
        );
        r.add(
            "stm.attempts_per_op",
            ratio(agg.attempts, agg.txn_ops),
            "count/op",
            per("txn ops", agg.txn_ops),
        );
        r.add(
            "stm.aborts_read_conflict_per_commit",
            ratio(d.aborts_read_conflict, d.commits),
            "count/commit",
            per("commits", d.commits),
        );
        r.add(
            "stm.aborts_write_conflict_per_commit",
            ratio(d.aborts_write_conflict, d.commits),
            "count/commit",
            per("commits", d.commits),
        );
        r.add(
            "stm.aborts_validation_per_commit",
            ratio(d.aborts_validation, d.commits),
            "count/commit",
            per("commits", d.commits),
        );
        r.add(
            "stm.validation_skip_share",
            ratio(d.validation_skipped_commits, writer_commits),
            "share",
            per("writer commits", writer_commits),
        );
        r.add(
            "stm.read_dedup_hits_per_op",
            ratio(d.read_dedup_hits, ops),
            "count/op",
            per("ops", ops),
        );
        let views = [
            "view.get_ns",
            "view.insert_ns",
            "view.remove_ns",
            "view.transfer_ns",
        ];
        for (name, h) in views.iter().zip(agg.view.iter()) {
            r.add(name, p50(h), "ns", n(h));
        }
        r.add(
            "arena.node_recycle_share",
            ratio(d.node_recycle_hits, inserted),
            "share",
            per("inserts that added a key", inserted),
        );
        r.add(
            "arena.chain_recycle_hits_per_update",
            ratio(d.chain_recycle_hits, updates),
            "count/op",
            per("updates", updates),
        );
        r.add(
            "slab.recycle_hits_per_commit",
            ratio(d.slab_recycle_hits, d.commits),
            "count/commit",
            per("commits", d.commits),
        );
        r.add(
            "range.fast_ns",
            p50(&agg.range_fast),
            "ns",
            n(&agg.range_fast),
        );
        r.add(
            "range.slow_ns",
            p50(&agg.range_slow),
            "ns",
            n(&agg.range_slow),
        );
        r.add(
            "range.fast_attempts_per_query",
            ratio(rs.fast_path_successes + rs.fast_path_aborts, ranges),
            "count/query",
            per("range queries", ranges),
        );
        r.add(
            "range.slow_share",
            ratio(rs.slow_path_completions, ranges),
            "share",
            per("range queries", ranges),
        );
        r.add(
            "range.aborts_per_success",
            ratio(rs.fast_path_aborts, rs.fast_path_successes),
            "count/query",
            per("fast-path successes", rs.fast_path_successes),
        );
        r.add(
            "snapshot.create_ns",
            p50(&agg.snapshot_create),
            "ns",
            n(&agg.snapshot_create),
        );
        r.add(
            "snapshot.scan_ns",
            p50(&agg.snapshot_scan),
            "ns",
            n(&agg.snapshot_scan),
        );
        r.add(
            "snapshot.drop_ns",
            p50(&agg.snapshot_drop),
            "ns",
            n(&agg.snapshot_drop),
        );
        r.add(
            "snapshot.preserved_per_commit",
            ratio(d.snapshot_preserved, d.commits),
            "count/commit",
            per("commits", d.commits),
        );
        r.add(
            "snapshot.live_history_end",
            live_history_end as f64,
            "count",
            "most left after any trial's window; must be 0".into(),
        );
        for (l, name) in LAYERS.iter().enumerate() {
            r.add(
                &format!("{name}.self_ns_per_op"),
                ratio(agg.self_ns[l], agg.ops),
                "ns/op",
                per("traced ops", agg.ops),
            );
        }
        let plain = rate(C_OPS, false);
        let with_trace = rate(C_OPS, true);
        r.add(
            "trace.overhead_share",
            1.0 - ratio_f(with_trace, plain),
            "share",
            format!("traced {with_trace:.1} vs untraced {plain:.1} ops/s"),
        );
        println!(
            "spans: {logged} kept, {dropped} beyond the log; {} ops retried past the {} spans an op keeps ({} spans)",
            agg.overflowed_ops,
            trace::MAX_SPANS,
            agg.overflow
        );
        if let Some(path) = &args.spans {
            let written = File::create(path).and_then(|f| {
                let mut out = BufWriter::new(f);
                for c in &clients {
                    c.tracer.as_ref().expect("traced").dump(&mut out)?;
                }
                out.flush()
            });
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written to {}: {e}", path.display()),
            }
        }
    }

    for (name, value, unit, note) in &r.rows {
        println!("metric {name} = {value} {unit}  ({note})");
    }
    let names: Vec<&str> = if args.trace {
        r.rows.iter().map(|row| row.0.as_str()).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|&name| {
            let row = r
                .rows
                .iter()
                .find(|row| row.0 == name)
                .expect("every reported metric is computed");
            let value = if row.1.is_finite() { row.1 } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                row.2
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn ratio_f(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
