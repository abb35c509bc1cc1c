//! # softcache-benchmark
//!
//! The SoftCache benchmark: four fixed workloads, end-to-end metrics
//! measured untraced, and per-layer metrics from a separate traced pass
//! whose ledgers must equal the untraced run's.
//!
//! | workload | what runs | stresses |
//! |---|---|---|
//! | `ample` | compress95 scale 1024, 256 KiB tcache, paired with native runs | `sim` dispatch |
//! | `cliff` | compress95 scale 1024, 990 B tcache (the measured cliff), TRRIP | `sim` + `cc` eviction |
//! | `thrash` | compress95 scale 16, 512 B tcache, TRRIP | `cc` trap service, `mc` |
//! | `serve` | one `McServer::serve_event`, 2 tenants replaying recorded sessions | `mc`, `xlate`, `net`, `server` |
//!
//! [`run`] measures one workload in this process; the `benchmark` binary
//! wraps it in a command line that prints one result per run, and
//! `benchmark compare` judges a change against its parent.

#![forbid(unsafe_code)]

mod calib;
pub mod compare;
mod inline;
mod input;
pub mod json;
mod serve;
pub mod solo;
mod stats;
pub mod trace;

use calib::Calibrator;
use json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The benchmark's definition (`BENCHMARK.json` at the repository root):
/// workloads, metrics, bounds and the measurement window.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `run_seconds` of [`BENCHMARK_JSON`]: the default measurement window.
pub fn run_seconds() -> f64 {
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|v| v.get("run_seconds")?.as_f64())
        .expect("BENCHMARK.json sets run_seconds")
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
pub type MetricSpec = (&'static str, &'static str, Better);

/// End-to-end metrics, reported by every untraced run of every workload.
/// An *operation* is one whole softcache run of the program in the solo
/// workloads and one RPC in `serve`. Host-time metrics are scaled to the
/// reference host speed ([`calib`]); the record keeps the raw values.
pub const END_TO_END: &[MetricSpec] = &[
    // Solo: simulated instructions retired per host second under the
    // softcache, median over samples. Serve: replies per second of server
    // busy time (the MC's capacity, which the mc, xlate and net layers
    // set), median over 1 s bins.
    ("throughput", "1/s", Better::Higher),
    // Median host time one operation takes, as its caller waits for it.
    // For serve this is mostly the wake-up of the other thread.
    ("latency_p50_us", "us", Better::Lower),
    // Softcache simulated cycles over native simulated cycles (the paper's
    // Figure 5 relative time) on the experiments' fixed input, so it is
    // exact for the code and its bound is 0; for serve, of the recorded
    // devices' configuration.
    ("sim_slowdown", "ratio", Better::Lower),
    // VmHWM of the benchmark process.
    ("peak_rss_mb", "MB", Better::Lower),
    // Compile, input generation, native reference runs and session
    // recording: median over repetitions (SETUP_REPS, SETUP_MIN).
    ("setup_s", "s", Better::Lower),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not exercise reports 0 (the solo workloads have no `xlate` or
/// `server`; `serve` runs no simulation).
pub const PER_LAYER: &[MetricSpec] = &[
    ("sim.run_block.self_s", "s", Better::Lower),
    ("sim.run_block.calls", "count", Better::Lower),
    ("sim.ns_per_inst", "ns", Better::Lower),
    ("sim.native_mips", "Minst/s", Better::Higher),
    ("sim.tier.threaded_frac", "frac", Better::Higher),
    ("sim.tier.super_frac", "frac", Better::Lower),
    ("sim.tier.interp_frac", "frac", Better::Lower),
    ("sim.trace.entries", "count", Better::Lower),
    ("sim.trace.chained", "count", Better::Higher),
    ("sim.trace.breaks", "count", Better::Lower),
    ("sim.promotions", "count", Better::Lower),
    ("sim.demotions", "count", Better::Lower),
    ("cc.trap.self_s", "s", Better::Lower),
    ("cc.trap.count", "count", Better::Lower),
    ("cc.trap.p50_us", "us", Better::Lower),
    ("cc.trap.p99_us", "us", Better::Lower),
    ("cc.translations", "count", Better::Lower),
    ("cc.evictions", "count", Better::Lower),
    ("cc.flushes", "count", Better::Lower),
    ("cc.victims_per_fill", "ratio", Better::Lower),
    ("cc.words_installed", "count", Better::Lower),
    ("cc.patches", "count", Better::Lower),
    ("cycles.execute", "cycles", Better::Lower),
    ("cycles.miss_handler", "cycles", Better::Lower),
    ("cycles.link_stall", "cycles", Better::Lower),
    ("cycles.install", "cycles", Better::Lower),
    ("cycles.hash_lookup", "cycles", Better::Lower),
    ("cycles.unattributed", "cycles", Better::Lower),
    ("exec.cycles", "cycles", Better::Lower),
    ("mc.handle_frame.self_s", "s", Better::Lower),
    ("mc.handle_frame.count", "count", Better::Lower),
    ("mc.handle_frame.p50_us", "us", Better::Lower),
    ("mc.handle_frame.p99_us", "us", Better::Lower),
    ("mc.reply_bytes", "bytes", Better::Lower),
    ("xlate.hits", "count", Better::Higher),
    ("xlate.misses", "count", Better::Lower),
    ("xlate.hit_ratio", "frac", Better::Higher),
    ("xlate.unique_translations", "count", Better::Lower),
    ("xlate.variant_translations", "count", Better::Lower),
    ("net.envelope.self_s", "s", Better::Lower),
    ("net.frames", "count", Better::Lower),
    ("net.wire_bytes", "bytes", Better::Lower),
    ("server.service.p50_us", "us", Better::Lower),
    ("server.service.p99_us", "us", Better::Lower),
    ("server.busy_frac", "frac", Better::Lower),
    ("server.handoff.p50_us", "us", Better::Lower),
    ("server.handoff.p99_us", "us", Better::Lower),
    ("server.rpc_p99_us", "us", Better::Lower),
    ("server.queue_hwm", "count", Better::Lower),
    ("server.lost_wakeups", "count", Better::Lower),
    ("server.admission_rejections", "count", Better::Lower),
    ("trace.coverage", "frac", Better::Higher),
    ("trace.overhead_frac", "frac", Better::Lower),
];

/// Fewest timed set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Shortest time set-up is repeated for, so that a set-up of a few
/// milliseconds (thrash) gets enough repetitions to be steady.
pub const SETUP_MIN: Duration = Duration::from_millis(500);

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// compress95 with a tcache far larger than its working set.
    Ample,
    /// compress95 at the measured eviction cliff.
    Cliff,
    /// compress95 with a tcache an eighth of its working set.
    Thrash,
    /// Multi-tenant MC serving of recorded device sessions.
    Serve,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Ample,
        Workload::Cliff,
        Workload::Thrash,
        Workload::Serve,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ample => "ample",
            Workload::Cliff => "cliff",
            Workload::Thrash => "thrash",
            Workload::Serve => "serve",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is measured.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds (after warm-up).
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations checked (program runs, or RPCs).
    pub attempted: u64,
    /// Operations whose output or ledger was wrong, or that never
    /// completed.
    pub failed: u64,
    /// Metric values by name: [`END_TO_END`] untraced, [`PER_LAYER`]
    /// traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts, warm-up and window, for the record.
    pub context: Vec<(&'static str, Value)>,
    /// Simulated counters that must repeat exactly for a seed.
    pub counters: Vec<(&'static str, u64)>,
    /// The traced pass's spans (traced runs only).
    pub trace: Option<trace::Trace>,
}

impl Outcome {
    /// Record a check: one more operation attempted, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Set metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The metrics object of the result line: every metric of the pass in
    /// table order, 0 for a layer this workload does not exercise.
    pub fn metrics_json(&self, traced: bool) -> Value {
        let specs = if traced { PER_LAYER } else { END_TO_END };
        Value::Obj(
            specs
                .iter()
                .map(|&(name, unit, _)| {
                    let v = self.metrics.get(name).copied().unwrap_or(0.0);
                    (
                        name.to_string(),
                        json::obj([("value", v.into()), ("unit", unit.into())]),
                    )
                })
                .collect(),
        )
    }
}

/// Measure `workload` under `opts` in this process.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    let mut out = match workload {
        Workload::Ample => solo::run(&solo::AMPLE, opts),
        Workload::Cliff => solo::run(&solo::CLIFF, opts),
        Workload::Thrash => solo::run(&solo::THRASH, opts),
        Workload::Serve => serve::run(opts),
    };
    if !opts.trace {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    out.correct = out.failed == 0 && out.attempted > 0;
    out
}

/// Run `f` once untimed (the process's first pass pays for cold code,
/// page faults and allocator growth that no later set-up sees), then
/// timed, each time followed by a calibration, at least [`SETUP_REPS`]
/// times and for at least [`SETUP_MIN`]. Returns the last result and the
/// median set-up time in seconds, scaled to the reference host speed by
/// the median kernel speed, and raw.
pub(crate) fn timed_setup<T>(cal: &mut Calibrator, mut f: impl FnMut() -> T) -> (T, f64, f64) {
    let mut last = f();
    let mut raw = Vec::new();
    let mut kernel = Vec::new();
    let start = Instant::now();
    while raw.len() < SETUP_REPS || start.elapsed() < SETUP_MIN {
        let t = Instant::now();
        last = f();
        let secs = t.elapsed().as_secs_f64();
        raw.push(secs);
        kernel.push(cal.measure_after(secs));
    }
    let secs = stats::median(&raw);
    (
        last,
        Calibrator::scale_time(secs, stats::median(&kernel)),
        secs,
    )
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host facts every result carries: core count and CPU model.
pub fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    json::obj([("nproc", nproc.into()), ("cpu", Value::Str(cpu))])
}
