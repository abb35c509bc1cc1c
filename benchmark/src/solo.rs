//! The solo workloads: one compress95 device on one thread, with the MC
//! fused in-process and a free link (the paper's SPARC prototype shape,
//! Figure 5). They differ only in input scale and tcache size relative
//! to the translated working set (~1.4 KB).

use crate::calib::Calibrator;
use crate::inline::{InlineMc, Traffic};
use crate::stats::{median, quantile, us_quantile};
use crate::trace::{self, span, Site, Trace};
use crate::{input, json, timed_setup, Options, Outcome};
use softcache::core::{
    CacheError, Cc, IcacheConfig, IcacheStats, Mc, McEndpoint, RunOutput, SoftIcacheSystem,
    TcachePolicy,
};
use softcache::isa::Image;
use softcache::net::LinkModel;
use softcache::sim::{ExecStats, Machine, Step, TraceStats, Trap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One solo workload's fixed parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// compress95 input scale (input bytes / 256).
    pub scale: u32,
    /// Tcache size in bytes.
    pub tcache_bytes: u32,
    /// Softcache runs before the window opens.
    pub warmup: usize,
    /// Alternate a native run with every softcache run, so the native
    /// speed of the same engine is measured under the same host load.
    pub paired_native: bool,
}

/// Dispatch-bound: the working set fits many times over, so the CC sees
/// only the cold misses and nearly all host time is `sim` dispatch.
pub const AMPLE: Spec = Spec {
    name: "ample",
    scale: 1024,
    tcache_bytes: 256 * 1024,
    warmup: 2,
    paired_native: true,
};

/// The measured compress95 cliff (`BENCH_evict.json`): TRRIP evicts while
/// hot traces keep running, so dispatch and CC trap service share the time.
pub const CLIFF: Spec = Spec {
    name: "cliff",
    scale: 1024,
    tcache_bytes: 990,
    warmup: 1,
    paired_native: false,
};

/// An eighth of the working set: nearly every trace leaves the tcache, so
/// CC trap service and the MC dominate and dispatch barely runs.
pub const THRASH: Spec = Spec {
    name: "thrash",
    scale: 16,
    tcache_bytes: 512,
    warmup: 2,
    paired_native: false,
};

impl Spec {
    /// The softcache configuration: fused MC, free link, TRRIP.
    pub fn config(&self) -> IcacheConfig {
        IcacheConfig {
            tcache_size: self.tcache_bytes,
            link: LinkModel::free(),
            tcache_policy: TcachePolicy::Trrip,
            ..IcacheConfig::default()
        }
    }
}

fn compress95_workload() -> softcache::workloads::Workload {
    softcache::workloads::by_name("compress95").expect("compress95 is in the workload roster")
}

/// compress95 built the way the paper's experiments build it (jump
/// tables on).
pub fn compress95() -> Image {
    compress95_workload().image(true)
}

/// The paper's Figure 5 relative time under `cfg`: simulated cycles of a
/// softcache run over those of a native run, on the experiments' fixed
/// compress95 input at `scale` (the input behind `BENCH_evict.json`).
/// That input does not come from the seed, so the ratio is exact for the
/// code under test and any change in it is the code's. The softcache
/// output and install ledger are checked as one more operation.
pub fn fixed_input_slowdown(
    image: &Image,
    cfg: IcacheConfig,
    scale: u32,
    out: &mut Outcome,
) -> f64 {
    let input = (compress95_workload().gen_input)(scale);
    let native = native_run(image, &input);
    let soft = SoftIcacheSystem::new(image.clone(), cfg).run(&input);
    out.check(soft.as_ref().is_ok_and(|r| {
        r.exit_code == native.exit_code
            && r.output == native.output
            && r.cache.install_ledger_balanced()
    }));
    soft.map_or(0.0, |r| r.exec.cycles as f64 / native.exec.cycles as f64)
}

/// A native run's observable results.
#[derive(Clone, Debug)]
pub struct Native {
    /// Exit code.
    pub exit_code: i32,
    /// Bytes written.
    pub output: Vec<u8>,
    /// Execution ledger.
    pub exec: ExecStats,
}

/// Run `image` natively on `input`.
pub fn native_run(image: &Image, input: &[u8]) -> Native {
    let mut m = Machine::load_native(image, input);
    let exit_code = m
        .run_native(IcacheConfig::default().fuel)
        .expect("compress95 runs natively");
    Native {
        exit_code,
        output: std::mem::take(&mut m.env.output),
        exec: m.stats,
    }
}

/// Everything a solo run needs before timing starts.
pub struct Setup {
    /// The program.
    pub image: Image,
    /// The seeded input.
    pub input: Vec<u8>,
    /// The native reference run.
    pub native: Native,
}

impl Setup {
    /// Compile, generate the input, run the native reference.
    pub fn new(spec: &Spec, seed: u64) -> Setup {
        let image = compress95();
        let input = input::text(seed, spec.scale);
        let native = native_run(&image, &input);
        Setup {
            image,
            input,
            native,
        }
    }

    /// One production softcache run (`SoftIcacheSystem::run`).
    pub fn soft_run(&self, cfg: IcacheConfig) -> Result<RunOutput, CacheError> {
        SoftIcacheSystem::new(self.image.clone(), cfg).run(&self.input)
    }
}

/// A traced softcache run: the same observables as [`RunOutput`] plus the
/// spans and the host-independent cycle split.
pub struct Traced {
    /// Exit code.
    pub exit_code: i32,
    /// Bytes written.
    pub output: Vec<u8>,
    /// Execution ledger.
    pub exec: ExecStats,
    /// CC ledger.
    pub cache: IcacheStats,
    /// Dispatch-tier telemetry.
    pub tiers: TraceStats,
    /// Simulated cycles retired inside `Machine::run_block` (everything
    /// else was charged by the CC).
    pub execute_cycles: u64,
    /// Envelope traffic between CC and MC.
    pub traffic: Traffic,
    /// The spans.
    pub trace: Trace,
}

/// Run the program through a bench-side copy of the
/// `SoftIcacheSystem::run` loop, with every call into `sim`, `cc`, `mc`
/// and the envelope timed. The MC sits behind an in-thread transport, so
/// its time and the envelope's split out of the CC's trap time; the
/// ledgers must still equal the production run's.
pub fn traced_run(setup: &Setup, cfg: IcacheConfig) -> Result<Traced, CacheError> {
    let image = &setup.image;
    let mut machine = Machine::load_client(image, &setup.input);
    machine.set_superblocks_enabled(cfg.superblocks);
    machine.set_chaining_enabled(cfg.chaining);
    machine.set_indirect_ic_enabled(cfg.indirect_ic);
    machine.set_ras_depth(cfg.ras_depth);
    machine.set_threaded_enabled(cfg.threaded);
    machine.set_threaded_threshold(cfg.threaded_threshold);
    let mut cc = Cc::new(cfg);
    let traffic = Arc::new(Mutex::new(Traffic::default()));
    let transport = InlineMc::new(Mc::new(image.clone()), Arc::clone(&traffic));
    let mut ep = McEndpoint::remote_with_policy(Box::new(transport), cfg.link_policy);

    trace::start();
    let ran = drive(&mut machine, &mut cc, &mut ep, image.entry, cfg.fuel);
    let trace = trace::finish();
    let (exit_code, execute_cycles) = ran?;
    cc.finalize_prefetch();
    let traffic = *traffic.lock().expect("traffic counter lock");
    Ok(Traced {
        exit_code,
        output: std::mem::take(&mut machine.env.output),
        exec: machine.stats,
        cache: cc.stats,
        tiers: machine.trace,
        execute_cycles,
        traffic,
        trace,
    })
}

/// The run loop of `SoftIcacheSystem::run` (no power model, no fault
/// injection), each call wrapped in a span. Returns the exit code and the
/// cycles retired inside `run_block`.
fn drive(
    machine: &mut Machine,
    cc: &mut Cc,
    ep: &mut McEndpoint,
    entry: u32,
    fuel: u64,
) -> Result<(i32, u64), CacheError> {
    machine.cpu.pc = span(Site::Ensure, || cc.ensure(machine, ep, entry))?;
    let mut execute = 0u64;
    loop {
        if machine.stats.instructions >= fuel {
            return Err(CacheError::OutOfFuel);
        }
        let batch = (fuel - machine.stats.instructions).min(Machine::BLOCK_STEPS);
        let before = machine.stats.cycles;
        let step = span(Site::RunBlock, || machine.run_block(batch))?;
        execute += machine.stats.cycles - before;
        match step {
            Step::Running => {}
            Step::Exited(code) => return Ok((code, execute)),
            Step::Trapped(Trap::Miss { idx, .. }) => {
                span(Site::HandleMiss, || cc.handle_miss(machine, ep, idx))?;
            }
            Step::Trapped(Trap::HashJump { target, .. })
            | Step::Trapped(Trap::HashCall { target, .. }) => {
                machine.cpu.pc = span(Site::HashJump, || cc.hash_jump(machine, ep, target))?;
            }
            Step::Trapped(Trap::Ecall { .. }) => unreachable!("the machine services ecalls"),
        }
    }
}

/// The simulated-cycle split of a traced run: execution inside
/// `run_block`, then the CC's charges by cause. `unattributed` is what the
/// CC charged beyond the named causes; it is reported, never folded in.
/// The parts sum to `exec.cycles` exactly.
pub fn cycle_split(t: &Traced, cfg: &IcacheConfig) -> [(&'static str, i64); 6] {
    let c = &t.cache;
    let demand_installs = c.translations - c.link.prefetched_chunks;
    let miss_handler = (cfg.miss_handler_cycles * demand_installs) as i64;
    let install = (cfg.install_cycles_per_word * c.words_installed) as i64;
    let hash_lookup = (cfg.hash_lookup_cycles * c.hash_traps) as i64;
    let link_stall = c.link.stall_cycles as i64;
    let charged = (t.exec.cycles - t.execute_cycles) as i64;
    [
        ("cycles.execute", t.execute_cycles as i64),
        ("cycles.miss_handler", miss_handler),
        ("cycles.link_stall", link_stall),
        ("cycles.install", install),
        ("cycles.hash_lookup", hash_lookup),
        (
            "cycles.unattributed",
            charged - miss_handler - link_stall - install - hash_lookup,
        ),
    ]
}

/// Per-layer metrics of one traced run.
fn layer_metrics(t: &Traced, cfg: &IcacheConfig) -> Vec<(&'static str, f64)> {
    let tr = &t.trace;
    let traps: Vec<u64> = [Site::HandleMiss, Site::HashJump]
        .iter()
        .flat_map(|&s| tr.site(s).durations_ns.iter().copied())
        .collect();
    let frame = tr.site(Site::HandleFrame);
    let tiers = &t.tiers;
    let tiered = (tiers.tier_threaded_insts + tiers.tier_super_insts + tiers.tier_interp_insts)
        .max(1) as f64;
    let run_block = tr.site(Site::RunBlock);
    let mut m = vec![
        ("sim.run_block.self_s", tr.self_s(&[Site::RunBlock])),
        ("sim.run_block.calls", run_block.count as f64),
        (
            "sim.ns_per_inst",
            run_block.self_ns as f64 / t.exec.instructions.max(1) as f64,
        ),
        (
            "sim.tier.threaded_frac",
            tiers.tier_threaded_insts as f64 / tiered,
        ),
        (
            "sim.tier.super_frac",
            tiers.tier_super_insts as f64 / tiered,
        ),
        (
            "sim.tier.interp_frac",
            tiers.tier_interp_insts as f64 / tiered,
        ),
        ("sim.trace.entries", tiers.entries as f64),
        ("sim.trace.chained", tiers.chained as f64),
        ("sim.trace.breaks", tiers.breaks.total() as f64),
        ("sim.promotions", tiers.promotions as f64),
        ("sim.demotions", tiers.demotions as f64),
        (
            "cc.trap.self_s",
            tr.self_s(&[Site::Ensure, Site::HandleMiss, Site::HashJump]),
        ),
        ("cc.trap.count", traps.len() as f64),
        ("cc.trap.p50_us", us_quantile(&traps, 0.5)),
        ("cc.trap.p99_us", us_quantile(&traps, 0.99)),
        ("cc.translations", t.cache.translations as f64),
        ("cc.evictions", t.cache.evictions as f64),
        ("cc.flushes", t.cache.flushes as f64),
        ("cc.victims_per_fill", t.cache.victims_per_fill()),
        ("cc.words_installed", t.cache.words_installed as f64),
        ("cc.patches", t.cache.patches as f64),
        ("exec.cycles", t.exec.cycles as f64),
        ("mc.handle_frame.self_s", tr.self_s(&[Site::HandleFrame])),
        ("mc.handle_frame.count", frame.count as f64),
        (
            "mc.handle_frame.p50_us",
            us_quantile(&frame.durations_ns, 0.5),
        ),
        (
            "mc.handle_frame.p99_us",
            us_quantile(&frame.durations_ns, 0.99),
        ),
        ("mc.reply_bytes", t.traffic.reply_bytes as f64),
        ("net.envelope.self_s", tr.self_s(&[Site::Open, Site::Seal])),
        ("net.frames", t.traffic.frames as f64),
        ("net.wire_bytes", t.traffic.wire_bytes as f64),
        ("trace.coverage", tr.coverage()),
    ];
    m.extend(cycle_split(t, cfg).map(|(k, v)| (k, v as f64)));
    m
}

/// Measure one solo workload.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let mut cal = Calibrator::default();
    let cfg = spec.config();
    let (setup, setup_s, setup_raw_s) = timed_setup(&mut cal, || Setup::new(spec, opts.seed));
    let native = &setup.native;

    // The first warm-up run is the reference: it must match native output
    // and balance its install ledger, and every later run must repeat its
    // ledgers exactly.
    let reference = setup.soft_run(cfg).expect("reference softcache run");
    out.check(
        reference.exit_code == native.exit_code
            && reference.output == native.output
            && reference.cache.install_ledger_balanced(),
    );
    let same = |exit_code: i32, output: &[u8], exec: &ExecStats, cache: &IcacheStats| {
        exit_code == reference.exit_code
            && output == reference.output
            && *exec == reference.exec
            && *cache == reference.cache
    };
    // One softcache run, then the calibration kernel: (seconds, kernel Mops/s).
    let soft_sample = |out: &mut Outcome, cal: &mut Calibrator| -> (f64, f64) {
        let t = Instant::now();
        let run = setup.soft_run(cfg);
        let secs = t.elapsed().as_secs_f64();
        out.check(run.is_ok_and(|r| same(r.exit_code, &r.output, &r.exec, &r.cache)));
        (secs, cal.measure_after(secs))
    };
    let native_sample = |out: &mut Outcome| -> f64 {
        let t = Instant::now();
        let n = native_run(&setup.image, &setup.input);
        let secs = t.elapsed().as_secs_f64();
        out.check(n.output == native.output && n.exec == native.exec);
        secs
    };
    for _ in 1..spec.warmup {
        if spec.paired_native {
            native_sample(&mut out);
        }
        soft_sample(&mut out, &mut cal);
    }

    let window = Instant::now();
    let mut soft = Vec::new();
    let mut native_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    while soft.is_empty() || window.elapsed().as_secs_f64() < opts.seconds {
        if spec.paired_native || opts.trace {
            native_s.push(native_sample(&mut out));
        }
        soft.push(soft_sample(&mut out, &mut cal));
        if opts.trace {
            let t = Instant::now();
            let traced = traced_run(&setup, cfg);
            traced_s.push(t.elapsed().as_secs_f64());
            match traced {
                Ok(tr) => {
                    out.check(same(tr.exit_code, &tr.output, &tr.exec, &tr.cache));
                    layers.push(layer_metrics(&tr, &cfg));
                    out.trace = Some(tr.trace);
                }
                Err(_) => out.check(false),
            }
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let insts = reference.exec.instructions as f64;
    let soft_raw: Vec<f64> = soft.iter().map(|s| s.0).collect();
    let soft_scaled: Vec<f64> = soft
        .iter()
        .map(|&(secs, mops)| Calibrator::scale_time(secs, mops))
        .collect();
    let rate = |work: f64, times: &[f64]| -> f64 {
        median(&times.iter().map(|t| work / t).collect::<Vec<_>>())
    };
    let native_mips = rate(native.exec.instructions as f64, &native_s) / 1e6;

    if opts.trace {
        // Time-based layer metrics vary run to run: report each one's
        // median over the traced runs (counts are identical in all).
        for (i, &(name, _)) in layers.first().into_iter().flatten().enumerate() {
            let vals: Vec<f64> = layers.iter().map(|m| m[i].1).collect();
            out.set(name, median(&vals));
        }
        out.set("sim.native_mips", native_mips);
        out.set(
            "trace.overhead_frac",
            median(&traced_s) / median(&soft_raw) - 1.0,
        );
    } else {
        out.set("throughput", rate(insts, &soft_scaled));
        out.set("latency_p50_us", median(&soft_scaled) * 1e6);
        let slowdown = fixed_input_slowdown(&setup.image, cfg, spec.scale, &mut out);
        out.set("sim_slowdown", slowdown);
        out.set("setup_s", setup_s);
    }

    let kernel_mops: Vec<f64> = soft.iter().map(|s| s.1).collect();
    out.context = vec![
        ("scale", u64::from(spec.scale).into()),
        ("tcache_bytes", u64::from(spec.tcache_bytes).into()),
        ("warmup_runs", (spec.warmup as u64).into()),
        ("window_s", window_s.into()),
        ("soft_samples", (soft.len() as u64).into()),
        ("native_samples", (native_s.len() as u64).into()),
        ("traced_samples", (traced_s.len() as u64).into()),
        ("kernel_mops", median(&kernel_mops).into()),
        ("raw_throughput", rate(insts, &soft_raw).into()),
        ("raw_latency_p50_us", (median(&soft_raw) * 1e6).into()),
        ("raw_setup_s", setup_raw_s.into()),
        ("latency_p90_us", (quantile(&soft_scaled, 0.9) * 1e6).into()),
        (
            "native_mips",
            if native_s.is_empty() {
                json::Value::Null
            } else {
                native_mips.into()
            },
        ),
    ];
    out.counters = vec![
        ("exec.instructions", reference.exec.instructions),
        ("exec.cycles", reference.exec.cycles),
        ("native.cycles", native.exec.cycles),
        ("cc.translations", reference.cache.translations),
        ("cc.evictions", reference.cache.evictions),
        ("cc.flushes", reference.cache.flushes),
        ("cc.patches", reference.cache.patches),
        ("cc.words_installed", reference.cache.words_installed),
        ("cc.miss_traps", reference.cache.miss_traps),
        ("cc.hash_traps", reference.cache.hash_traps),
    ];
    out
}
