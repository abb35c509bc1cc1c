//! The complete software instruction cache system (§2 of the paper):
//! embedded machine + cache controller + memory controller, wired together.
//!
//! [`SoftIcacheSystem`] is the top-level object: give it a program image
//! and a configuration, call [`SoftIcacheSystem::run`], and the program
//! executes entirely out of the translation cache — original text never
//! enters client memory.

use crate::arena::Tier;
use crate::cc::{CacheError, Cc, IcacheConfig, IcacheStats};
use crate::endpoint::McEndpoint;
use crate::integrity::{MemFaultInjector, MemFaultPlan};
use crate::mc::Mc;
use crate::power::{strongarm, BankConfig, BankModel};
use softcache_isa::Image;
use softcache_sim::{ExecStats, Machine, Step, TraceStats, Trap};

/// Result of one softcache run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Program exit code.
    pub exit_code: i32,
    /// Bytes the program wrote.
    pub output: Vec<u8>,
    /// Cache-controller statistics.
    pub cache: IcacheStats,
    /// CPU execution statistics (cycles include miss service).
    pub exec: ExecStats,
    /// Superblock-engine telemetry (trace entries, chain breaks by
    /// terminator kind, inline-cache hits and fills). Host-side only:
    /// *not* part of the bit-identity contract the `exec`/`cache` ledgers
    /// carry.
    pub trace: TraceStats,
}

impl RunOutput {
    /// The paper's software miss-rate metric (Figure 7): "the number of
    /// basic blocks translated divided by the number of instructions
    /// executed", in percent.
    pub fn tcache_miss_rate_percent(&self) -> f64 {
        if self.exec.instructions == 0 {
            return 0.0;
        }
        self.cache.translations as f64 / self.exec.instructions as f64 * 100.0
    }
}

/// A software instruction cache system over a given image.
///
/// This is the basic-block-granularity SPARC prototype of §2.1; the
/// procedure-granularity ARM prototype with eviction lives in
/// [`crate::proc::ProcCacheSystem`].
pub struct SoftIcacheSystem {
    image: Image,
    cfg: IcacheConfig,
    endpoint: McEndpoint,
    last_power: Option<PowerReport>,
    /// Active memory-fault plan for [`SoftIcacheSystem::run_chaos`].
    chaos: Option<MemFaultPlan>,
}

impl SoftIcacheSystem {
    /// Fused system: MC and CC in one process (the SPARC prototype shape).
    pub fn new(image: Image, cfg: IcacheConfig) -> SoftIcacheSystem {
        let mc = Mc::new(image.clone());
        SoftIcacheSystem {
            image,
            cfg,
            endpoint: McEndpoint::direct(mc),
            last_power: None,
            chaos: None,
        }
    }

    /// System with an explicit endpoint (e.g. a remote MC on another
    /// thread). The image is still needed locally for its *data* segment —
    /// only text stays on the server. A remote MC's session is the
    /// caller's: each run starts from a cold tcache but sends no reset, so
    /// a caller running more than once must give each run an MC with an
    /// empty residence mirror (a fresh one, or one that saw `InvalidateAll`).
    pub fn with_endpoint(
        image: Image,
        cfg: IcacheConfig,
        endpoint: McEndpoint,
    ) -> SoftIcacheSystem {
        SoftIcacheSystem {
            image,
            cfg,
            endpoint,
            last_power: None,
            chaos: None,
        }
    }

    /// Access the fused MC's statistics (None when remote).
    pub fn mc_stats(&self) -> Option<crate::mc::McStats> {
        self.endpoint.mc().map(|m| m.stats)
    }

    /// Select the chunk-formation strategy on the fused MC (builder
    /// style). Panics on a remote endpoint — configure the remote MC
    /// directly in that case.
    pub fn chunk_strategy(mut self, strategy: crate::mc::ChunkStrategy) -> SoftIcacheSystem {
        match &mut self.endpoint {
            McEndpoint::Direct(mc) => mc.set_strategy(strategy),
            McEndpoint::Remote { .. } => {
                panic!("configure the remote MC's strategy on the server side")
            }
        }
        self
    }

    /// Run the program under the software cache. Each call starts from a
    /// cold tcache and, with the fused MC, a fresh MC session, so repeated
    /// runs give identical results.
    pub fn run(&mut self, input: &[u8]) -> Result<RunOutput, CacheError> {
        self.run_with_hook(input, |_, _| {})
    }

    /// Run under a seeded memory-fault plan: at every dispatch-loop
    /// checkpoint the injector may flip bits in installed tcache code or
    /// redirector words (through the code-write barrier, modelling
    /// corrupted SRAM refetch), after which the CC scrubs and heals
    /// *before* the guest resumes — so no corrupted instruction retires.
    /// Trap-entry seal verification is armed as defense-in-depth. The
    /// ledger lands in `RunOutput::cache.integrity`.
    pub fn run_chaos(&mut self, input: &[u8], plan: MemFaultPlan) -> Result<RunOutput, CacheError> {
        self.chaos = Some(plan);
        let out = self.run_inner(input, None, None, |_, _| {});
        self.chaos = None;
        out
    }

    /// Like [`SoftIcacheSystem::run`], but stops cleanly once
    /// `max_instructions` have retired, returning the statistics gathered
    /// so far (`exit_code` is 0 for a capped run). Miss rates converge
    /// quickly, so bounded runs are how the sweep experiments keep
    /// thrashing configurations tractable.
    pub fn run_measured(
        &mut self,
        input: &[u8],
        max_instructions: u64,
    ) -> Result<RunOutput, CacheError> {
        self.run_inner(input, None, Some(max_instructions), |_, _| {})
    }

    /// Run with a banked-SRAM power model attached (§4): chunk installs
    /// and flushes drive bank occupancy; every fetch is accounted. Returns
    /// the run output plus the power report.
    pub fn run_with_power(
        &mut self,
        input: &[u8],
        banks: BankConfig,
    ) -> Result<(RunOutput, PowerReport), CacheError> {
        let out = self.run_inner(input, Some(banks), None, |_, _| {})?;
        let report = self
            .last_power
            .take()
            .expect("power model attached for this run");
        Ok((out, report))
    }

    /// Like [`SoftIcacheSystem::run`], with a callback invoked after every
    /// serviced miss: `hook(cycles_so_far, translations_so_far)`. Drives
    /// the paging-over-time experiments.
    pub fn run_with_hook(
        &mut self,
        input: &[u8],
        hook: impl FnMut(u64, u64),
    ) -> Result<RunOutput, CacheError> {
        self.run_inner(input, None, None, hook)
    }

    fn run_inner(
        &mut self,
        input: &[u8],
        banks: Option<BankConfig>,
        cap: Option<u64>,
        mut hook: impl FnMut(u64, u64),
    ) -> Result<RunOutput, CacheError> {
        let mut machine = Machine::load_client(&self.image, input);
        machine.set_superblocks_enabled(self.cfg.superblocks);
        machine.set_chaining_enabled(self.cfg.chaining);
        machine.set_indirect_ic_enabled(self.cfg.indirect_ic);
        machine.set_threaded_enabled(self.cfg.threaded);
        machine.set_threaded_threshold(self.cfg.threaded_threshold);
        let mut cc = Cc::new(self.cfg);
        self.endpoint.set_policy(self.cfg.link_policy);
        self.endpoint.begin_session();
        let track_power = banks.is_some();
        if let Some(bcfg) = banks {
            cc.attach_power(BankModel::new(bcfg));
        }
        let mut injector = self.chaos.map(MemFaultInjector::new);
        if injector.is_some() {
            cc.arm_integrity();
        }
        let entry = cc.ensure(&mut machine, &mut self.endpoint, self.image.entry)?;
        machine.cpu.pc = entry;

        let fuel = self.cfg.fuel;
        let limit = fuel.min(cap.unwrap_or(u64::MAX));
        let exit_code = loop {
            if machine.stats.instructions >= limit {
                if cap.is_some_and(|c| machine.stats.instructions >= c) {
                    break 0;
                }
                return Err(CacheError::OutOfFuel);
            }
            // The power model needs every fetch PC, so it keeps the
            // per-step loop; otherwise whole blocks run between checks.
            let step = if track_power {
                cc.power_access(machine.cpu.pc, machine.stats.cycles);
                machine.step()?
            } else {
                let batch = (limit - machine.stats.instructions).min(Machine::BLOCK_STEPS);
                machine.run_block(batch)?
            };
            match step {
                Step::Running => {}
                Step::Exited(code) => break code,
                Step::Trapped(Trap::Miss { idx, .. }) => {
                    cc.handle_miss(&mut machine, &mut self.endpoint, idx)?;
                    hook(machine.stats.cycles, cc.stats.translations);
                }
                Step::Trapped(Trap::HashJump { target, .. })
                | Step::Trapped(Trap::HashCall { target, .. }) => {
                    let tc = cc.hash_jump(&mut machine, &mut self.endpoint, target)?;
                    machine.cpu.pc = tc;
                    hook(machine.stats.cycles, cc.stats.translations);
                }
                Step::Trapped(Trap::Ecall { .. }) => unreachable!("handled by Machine"),
            }
            // Fault-injection checkpoint: flips land and are healed here,
            // before the guest resumes — corrupted code never executes.
            if let Some(inj) = injector.as_mut() {
                cc.chaos_tick(&mut machine, &mut self.endpoint, inj)?;
            }
        };
        cc.finalize_prefetch();
        if let Some(p) = cc.power() {
            let clock = machine.cost().clock_hz as f64;
            self.last_power = Some(PowerReport {
                mean_awake_banks: p.mean_awake_banks(),
                total_banks: p.config().banks,
                energy_mj: p.energy_mj(clock),
                hardware_baseline_mj: p.hardware_baseline_mj(clock, 0.15),
            });
        }
        Ok(RunOutput {
            exit_code,
            output: machine.env.output.clone(),
            cache: cc.stats,
            exec: machine.stats,
            trace: machine.trace,
        })
    }
}

/// Power summary from [`SoftIcacheSystem::run_with_power`].
#[derive(Clone, Copy, Debug)]
pub struct PowerReport {
    /// Time-weighted average of awake banks.
    pub mean_awake_banks: f64,
    /// Total banks in the region.
    pub total_banks: u32,
    /// Estimated softcache memory energy (leakage of awake banks +
    /// per-access dynamic energy), in millijoules.
    pub energy_mj: f64,
    /// Energy of an always-on hardware cache of the same geometry with a
    /// 15 % tag-access overhead, in millijoules.
    pub hardware_baseline_mj: f64,
}

impl PowerReport {
    /// Fraction of the hardware baseline saved by bank gating.
    pub fn savings_fraction(&self) -> f64 {
        1.0 - self.energy_mj / self.hardware_baseline_mj
    }

    /// Scale the memory-energy savings to whole-chip power using the
    /// paper's StrongARM breakdown (caches = 45 % of chip power).
    pub fn chip_power_savings_fraction(&self) -> f64 {
        self.savings_fraction() * strongarm::TOTAL_CACHE_FRACTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CacheError;
    use softcache_asm::assemble;
    use softcache_minic as minic;
    use softcache_net::thread_pair;
    use softcache_sim::THREADED_NEVER;
    use std::time::Duration;

    fn run_asm(src: &str, cfg: IcacheConfig, input: &[u8]) -> RunOutput {
        let image = assemble(src).unwrap();
        SoftIcacheSystem::new(image, cfg)
            .run(input)
            .expect("softcache run")
    }

    fn run_minic(src: &str, cfg: IcacheConfig, input: &[u8]) -> RunOutput {
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        SoftIcacheSystem::new(image, cfg)
            .run(input)
            .expect("softcache run")
    }

    #[test]
    fn straight_line_program() {
        let out = run_asm(
            "_start: li a0, 7\n addi a0, a0, 35\n ecall 0",
            IcacheConfig::default(),
            &[],
        );
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.cache.translations, 1, "one block");
    }

    #[test]
    fn loop_runs_with_zero_checks_after_warmup() {
        // After the loop's blocks are translated and patched, iterations
        // execute with no traps at all: translations stays at the number of
        // distinct blocks regardless of trip count.
        let src = r#"
_start: li t0, 1000
.Ll:    addi t0, t0, -1
        bnez t0, .Ll
        li a0, 0
        ecall 0
"#;
        let out = run_asm(src, IcacheConfig::default(), &[]);
        assert_eq!(out.exit_code, 0);
        assert_eq!(out.cache.translations, 3);
        assert_eq!(out.cache.miss_traps, 2, "fall-through misses only");
        assert_eq!(out.cache.flushes, 0);
    }

    #[test]
    fn guaranteed_hit_rate_when_working_set_fits() {
        // The paper's guarantee: a module that fits in the (fully
        // associative) tcache suffers no misses once translated. Run two
        // passes; all translation happens in pass one.
        let src = r#"
int work() {
    int i; int s;
    s = 0;
    for (i = 0; i < 50; i = i + 1) s = s + i * 3 % 7;
    return s;
}
int main() {
    int a; int b;
    a = work();
    b = work();
    return a == b;
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let mut sys = SoftIcacheSystem::new(image.clone(), IcacheConfig::default());
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, 1);
        assert_eq!(out.cache.flushes, 0);
        // Translations are bounded by distinct blocks, far below the
        // dynamic block count.
        assert!(out.cache.translations < 60);

        // Independent check: a run of main calling work() once translates
        // the same number of work()-blocks; the second call added none.
        let single = r#"
int work() {
    int i; int s;
    s = 0;
    for (i = 0; i < 50; i = i + 1) s = s + i * 3 % 7;
    return s;
}
int main() {
    int a;
    a = work();
    return a == 1225 || 1;
}
"#;
        let image2 = minic::compile_to_image(single, &minic::Options::default()).unwrap();
        let mut sys2 = SoftIcacheSystem::new(image2, IcacheConfig::default());
        let out2 = sys2.run(&[]).unwrap();
        // Both runs translate the same work() blocks; the two-call run may
        // differ only in main's own blocks (a constant few).
        assert!(out.cache.translations.abs_diff(out2.cache.translations) <= 6);
    }

    #[test]
    fn output_matches_native_run() {
        let src = r#"
int tab[16];
int main() {
    int i;
    for (i = 0; i < 16; i = i + 1) tab[i] = i * i;
    for (i = 0; i < 16; i = i + 1) { puti(tab[i]); putc(' '); }
    return tab[15];
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let mut native = softcache_sim::Machine::load_native(&image, &[]);
        let native_code = native.run_native(10_000_000).unwrap();

        let out = run_minic(src, IcacheConfig::default(), &[]);
        assert_eq!(out.exit_code, native_code);
        assert_eq!(out.output, native.env.output);
    }

    /// Recursive fib over a table: the workload of the system-level knob
    /// tests below. Its 508 B of text fit the 48 KiB leg of
    /// [`KNOB_TCACHE_SIZES`] and overflow the 256 B leg, and the recursion
    /// sends `fib`'s `ret` back to three call sites.
    const KNOB_SRC: &str = r#"
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int tab[32];
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 32; i = i + 1) { tab[i] = fib(i % 12); s = s + tab[i]; }
    for (i = 0; i < 32; i = i + 1) { puti(tab[i]); putc(' '); }
    return s % 251;
}
"#;

    /// Tight and ample tcache legs for the knob tests.
    const KNOB_TCACHE_SIZES: [u32; 2] = [256, 48 * 1024];

    /// Run [`KNOB_SRC`] under `cfg`. On the tight leg, assert the cache
    /// churned, so every knob is compared across evictions, backpatch
    /// storms and predictor resets.
    fn run_knob(cfg: IcacheConfig) -> RunOutput {
        let out = run_minic(KNOB_SRC, cfg, &[]);
        if cfg.tcache_size == KNOB_TCACHE_SIZES[0] {
            assert!(
                out.cache.evictions + out.cache.flushes > 0,
                "the tight leg must evict or flush: {:?}",
                out.cache
            );
        }
        out
    }

    /// Default knobs at `tcache_size`: the side every knob variant is
    /// compared against.
    fn knob_default(tcache_size: u32) -> IcacheConfig {
        IcacheConfig {
            tcache_size,
            ..IcacheConfig::default()
        }
    }

    /// Assert every simulated observable of `other` equals `on`'s.
    fn assert_same_simulation(on: &RunOutput, other: &RunOutput, tag: &str) {
        assert_eq!(on.exit_code, other.exit_code, "{tag}");
        assert_eq!(on.output, other.output, "{tag}");
        assert_eq!(on.exec, other.exec, "{tag}");
        assert_eq!(on.cache, other.cache, "{tag}");
    }

    #[test]
    fn superblock_engine_is_bit_identical_at_system_level() {
        // Superblock micro-op engine on vs off: every simulated observable
        // must match bit for bit — the engine is host-side speed only. The
        // tight leg makes in-walk lowering, backpatching and invalidation
        // all fire.
        for tcache_size in KNOB_TCACHE_SIZES {
            let base = knob_default(tcache_size);
            let on = run_knob(base);
            let off = run_knob(IcacheConfig {
                superblocks: false,
                ..base
            });
            assert_same_simulation(&on, &off, &format!("tcache={tcache_size}"));
        }
    }

    #[test]
    fn chaining_is_bit_identical_at_system_level() {
        // Superblock chaining on vs off: links are host-side speed only.
        // On the tight leg links sever on every eviction and re-form the
        // next time a walk takes their leg.
        for tcache_size in KNOB_TCACHE_SIZES {
            let base = knob_default(tcache_size);
            let on = run_knob(base);
            let off = run_knob(IcacheConfig {
                chaining: false,
                ..base
            });
            assert_same_simulation(&on, &off, &format!("tcache={tcache_size}"));
        }
    }

    /// One callee called from two sites in a loop: its `ret` alternates
    /// between two targets, so the inline cache misses on every return
    /// and keeps the trace chained only by refilling in-walk.
    const TWO_SITE_SRC: &str = r#"
int f(int x) { return x + 1; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 2000; i = i + 1) { s = s + f(i); s = s + f(s); }
    return s % 251;
}
"#;

    #[test]
    fn indirect_ic_is_bit_identical_at_system_level() {
        // The indirect-branch inline caches on vs off: host-side dispatch
        // only. The tight leg severs cached targets on every eviction.
        for tcache_size in KNOB_TCACHE_SIZES {
            let base = knob_default(tcache_size);
            let tag = format!("tcache={tcache_size}");
            let on = run_knob(base);
            let off = run_knob(IcacheConfig {
                indirect_ic: false,
                ..base
            });
            assert_same_simulation(&on, &off, &tag);
            // The telemetry (outside the bit-identity contract) shows the
            // inline cache actually fired.
            assert!(on.trace.ic_hits > 0, "{tag}");
            for t in [&on.trace, &off.trace] {
                assert_eq!(
                    t.entries,
                    t.breaks.total() + t.code_write_exits + t.fault_exits,
                    "{tag}: walk entries balance walk exits"
                );
            }

            // A `ret` shared by two call sites still chains: each return
            // refills the cache in-walk instead of breaking the trace.
            let on = run_minic(TWO_SITE_SRC, base, &[]);
            let off = run_minic(
                TWO_SITE_SRC,
                IcacheConfig {
                    indirect_ic: false,
                    ..base
                },
                &[],
            );
            assert_same_simulation(&on, &off, &tag);
            let (t, returns) = (&on.trace, on.exec.returns);
            assert!(t.breaks.ret <= 6, "{tag}: {returns} returns, {t:?}");
            assert!(t.ic_fills * 10 >= returns * 9, "{tag}: {t:?}");
            assert_eq!(
                off.trace.breaks.ret, returns,
                "{tag}: with the IC off every return breaks"
            );
        }
    }

    #[test]
    fn threaded_tier_is_bit_identical_at_system_level() {
        // Threaded dispatch off, promoted at lowering, and never promoted
        // vs the default threshold: dispatch strategy changes how traces
        // execute, never what they do. Beyond the simulated observables,
        // the walk's trace ledger must match too, and the retired block
        // instructions move between tiers without getting lost.
        for tcache_size in KNOB_TCACHE_SIZES {
            let base = knob_default(tcache_size);
            let on = run_knob(base);
            assert!(on.trace.tier_threaded_insts > 0, "tcache={tcache_size}");
            for cfg in [
                IcacheConfig {
                    threaded: false,
                    ..base
                },
                IcacheConfig {
                    threaded_threshold: 0,
                    ..base
                },
                IcacheConfig {
                    threaded_threshold: THREADED_NEVER,
                    ..base
                },
            ] {
                let other = run_knob(cfg);
                let tag = format!(
                    "tcache={tcache_size} threaded={} thr={}",
                    cfg.threaded, cfg.threaded_threshold
                );
                assert_same_simulation(&on, &other, &tag);
                let (a, b) = (&on.trace, &other.trace);
                assert_eq!(a.entries, b.entries, "{tag}: trace entries");
                assert_eq!(a.chained, b.chained, "{tag}: chained");
                assert_eq!(a.breaks, b.breaks, "{tag}: breaks");
                assert_eq!(a.ic_hits, b.ic_hits, "{tag}: IC hits");
                assert_eq!(
                    a.tier_interp_insts + a.tier_super_insts + a.tier_threaded_insts,
                    b.tier_interp_insts + b.tier_super_insts + b.tier_threaded_insts,
                    "{tag}: tier tallies lost instructions"
                );
                if !cfg.threaded {
                    assert_eq!(b.tier_threaded_insts, 0, "{tag}");
                }
            }
        }
    }

    #[test]
    fn computed_jumps_through_hash_table() {
        // A dense switch compiles to a jump table → jr → jrh under the
        // softcache.
        let src = r#"
int f(int n) {
    switch (n) {
        case 0: return 5;
        case 1: return 6;
        case 2: return 7;
        case 3: return 8;
        case 4: return 9;
        default: return 0;
    }
}
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 40; i = i + 1) s = s + f(i % 6);
    return s;
}
"#;
        let out = run_minic(src, IcacheConfig::default(), &[]);
        // i % 6 == 5 takes the bounds-check branch to default without
        // reaching the jump table, so ~34 of 40 dispatches go through jr.
        assert!(out.cache.hash_traps >= 30, "every table dispatch traps");
        assert!(
            out.cache.hash_hits >= out.cache.hash_traps - 10,
            "steady state hits the map"
        );
        // Differential against native.
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let mut native = softcache_sim::Machine::load_native(&image, &[]);
        assert_eq!(out.exit_code, native.run_native(10_000_000).unwrap());
    }

    #[test]
    fn indirect_calls_and_returns() {
        let src = r#"
int dbl(int x) { return x * 2; }
int inc(int x) { return x + 1; }
int main() {
    int p; int i; int s;
    s = 0;
    for (i = 0; i < 10; i = i + 1) {
        if (i % 2) p = &dbl; else p = &inc;
        s = s + callptr(p, i);
    }
    return s;
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let mut native = softcache_sim::Machine::load_native(&image, &[]);
        let want = native.run_native(10_000_000).unwrap();
        let out = run_minic(src, IcacheConfig::default(), &[]);
        assert_eq!(out.exit_code, want);
        assert!(out.cache.hash_traps >= 10, "jalrh per indirect call");
    }

    #[test]
    fn tiny_tcache_thrashes_but_completes() {
        // The paper's Figure 5 rightmost bar: "performance is awful but
        // the system continues to operate".
        let src = r#"
int a() { return 1; }
int b() { return 2; }
int c() { return 3; }
int d() { return 4; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 25; i = i + 1) s = s + a() + b() + c() + d();
    return s;
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let big = SoftIcacheSystem::new(image.clone(), IcacheConfig::default())
            .run(&[])
            .unwrap();
        let small_cfg = IcacheConfig {
            tcache_size: 384,
            // Pin the paper's flush-all baseline: this test is about the
            // fig5 cliff itself, not the eviction policy that flattens it.
            tcache_policy: crate::cc::TcachePolicy::FlushAll,
            ..IcacheConfig::default()
        };
        let small = SoftIcacheSystem::new(image, small_cfg).run(&[]).unwrap();
        assert_eq!(small.exit_code, big.exit_code, "correctness preserved");
        assert!(small.cache.flushes > 0, "must have flushed");
        assert!(
            small.cache.translations > big.cache.translations,
            "thrashing retranslates: {} vs {}",
            small.cache.translations,
            big.cache.translations
        );
        assert!(small.exec.cycles > big.exec.cycles);
    }

    #[test]
    fn trrip_evicts_chunks_instead_of_flushing() {
        // Same program and tcache size as the thrash test above, but under
        // the default TRRIP policy: pressure is served by per-chunk victim
        // eviction, the output stays correct, and the install ledger
        // balances exactly (translations = residents + evictions +
        // invalidations + flush losses).
        let src = r#"
int a() { return 1; }
int b() { return 2; }
int c() { return 3; }
int d() { return 4; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 25; i = i + 1) s = s + a() + b() + c() + d();
    return s;
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let big = SoftIcacheSystem::new(image.clone(), IcacheConfig::default())
            .run(&[])
            .unwrap();
        let small_cfg = IcacheConfig {
            tcache_size: 384,
            ..IcacheConfig::default()
        };
        assert_eq!(small_cfg.tcache_policy, crate::cc::TcachePolicy::Trrip);
        let small = SoftIcacheSystem::new(image, small_cfg).run(&[]).unwrap();
        assert_eq!(small.exit_code, big.exit_code, "correctness preserved");
        assert!(small.cache.evictions > 0, "pressure must evict victims");
        assert!(
            small.cache.install_ledger_balanced(),
            "every translation is resident, evicted, invalidated, or lost \
             to a flush: {:?}",
            small.cache
        );
        assert!(
            small.cache.evicted_hot + small.cache.evicted_warm + small.cache.evicted_cold
                == small.cache.evictions,
            "temperature histogram covers every eviction"
        );
    }

    #[test]
    fn trrip_escalates_to_flush_when_eviction_cannot_fit() {
        // Regression for the room-making retry: when the incoming chunk is
        // bigger than any hole eviction can open (fragmentation, pinned or
        // RA-live survivors), `make_room` must escalate to a compacting
        // flush and the program must still complete — and a chunk bigger
        // than the refetch budget after that final flush is a hard error,
        // not a livelock.
        let src = r#"
int pad1(int x) { return x + 1; }
int pad2(int x) { return x + 2; }
int big(int n) {
    int r;
    r = pad1(n) + pad2(n) + pad1(n + 1) + pad2(n + 2);
    r = r + pad1(r) + pad2(r) + pad1(r + 3) + pad2(r + 4);
    return r;
}
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 6; i = i + 1) s = s + big(i) + pad1(i);
    return s & 0xff;
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let mut native = softcache_sim::Machine::load_native(&image, &[]);
        let want = native.run_native(10_000_000).unwrap();
        // Sweep down until eviction alone cannot serve every fill; the
        // escalation path must keep the run correct rather than erroring.
        let mut escalated = false;
        for size in [768u32, 640, 512, 448, 384, 320, 256] {
            let cfg = IcacheConfig {
                tcache_size: size,
                ..IcacheConfig::default()
            };
            match SoftIcacheSystem::new(image.clone(), cfg).run(&[]) {
                Ok(out) => {
                    assert_eq!(out.exit_code, want, "size {size}");
                    assert!(out.cache.install_ledger_balanced(), "size {size}");
                    escalated |= out.cache.evictions > 0 && out.cache.flushes > 0;
                }
                Err(CacheError::ChunkTooBig { .. }) => break,
                Err(e) => panic!("size {size}: {e}"),
            }
        }
        assert!(
            escalated,
            "no size in the sweep both evicted and escalated to a flush"
        );
    }

    #[test]
    fn chunk_too_big_is_reported_under_both_policies() {
        // One giant straight-line block larger than the tcache errors out
        // under flush-all and under TRRIP alike.
        let mut src = String::from("_start:\n");
        for i in 0..200 {
            src.push_str(&format!(" addi t0, t0, {}\n", i % 7));
        }
        src.push_str(" li a0, 0\n ecall 0\n");
        let image = assemble(&src).unwrap();
        for policy in [
            crate::cc::TcachePolicy::FlushAll,
            crate::cc::TcachePolicy::Trrip,
        ] {
            let cfg = IcacheConfig {
                tcache_size: 256,
                tcache_policy: policy,
                ..IcacheConfig::default()
            };
            let err = SoftIcacheSystem::new(image.clone(), cfg)
                .run(&[])
                .unwrap_err();
            assert!(
                matches!(err, CacheError::ChunkTooBig { .. }),
                "{policy:?}: {err}"
            );
        }
    }

    #[test]
    fn flush_mid_call_stack_fixes_return_addresses() {
        // Deep recursion with enough code that a tiny tcache flushes while
        // frames are live; returns must still land correctly.
        let src = r#"
int pad1(int x) { return x + 1; }
int pad2(int x) { return x + 2; }
int pad3(int x) { return x + 3; }
int deep(int n) {
    int r;
    if (n == 0) return pad1(0) + pad2(0) + pad3(0);
    r = deep(n - 1);
    return r + pad1(n) + pad2(n) - pad3(n);
}
int main() { return deep(6); }
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let mut native = softcache_sim::Machine::load_native(&image, &[]);
        let want = native.run_native(10_000_000).unwrap();

        let cfg = IcacheConfig {
            tcache_size: 600,
            // Flush-path hygiene test: keep the whole-cache flush in play.
            tcache_policy: crate::cc::TcachePolicy::FlushAll,
            ..IcacheConfig::default()
        };
        let out = SoftIcacheSystem::new(image, cfg).run(&[]).unwrap();
        assert_eq!(out.exit_code, want, "flush must not corrupt returns");
        assert!(out.cache.flushes > 0, "test requires at least one flush");
        assert!(out.cache.ra_redirects > 0, "stacked RAs were rewritten");
    }

    #[test]
    fn remote_mc_over_threads_end_to_end() {
        let src = r#"
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { return fib(10); }
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let (cc_t, mut mc_t) = thread_pair(Duration::from_millis(500));
        let server_image = image.clone();
        let server = std::thread::spawn(move || {
            let mut mc = Mc::new(server_image);
            crate::endpoint::serve(&mut mc, &mut mc_t);
        });
        let mut sys = SoftIcacheSystem::with_endpoint(
            image,
            IcacheConfig::default(),
            McEndpoint::remote(Box::new(cc_t)),
        );
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, 55);
        drop(sys);
        server.join().unwrap();
    }

    #[test]
    fn miss_rate_metric() {
        let src = "_start: li t0, 100\n.Ll: addi t0, t0, -1\n bnez t0, .Ll\n li a0, 0\n ecall 0";
        let out = run_asm(src, IcacheConfig::default(), &[]);
        let mr = out.tcache_miss_rate_percent();
        assert!(
            mr > 0.0 && mr < 5.0,
            "few translations over many instructions: {mr}"
        );
    }

    #[test]
    fn link_accounting_present() {
        let out = run_asm("_start: li a0, 1\n ecall 0", IcacheConfig::default(), &[]);
        assert!(out.cache.link.messages >= 2);
        assert_eq!(out.cache.link.overhead_per_rpc(), 60.0);
        assert!(out.cache.miss_cycles > 0);
    }

    #[test]
    fn out_of_fuel_detected() {
        let cfg = IcacheConfig {
            fuel: 1_000,
            ..IcacheConfig::default()
        };
        let image = assemble("_start: j _start").unwrap();
        let err = SoftIcacheSystem::new(image, cfg).run(&[]).unwrap_err();
        assert!(matches!(err, CacheError::OutOfFuel));
    }
}

#[cfg(test)]
mod power_tests {
    use super::*;
    use crate::power::BankConfig;
    use softcache_minic as minic;

    #[test]
    fn power_report_reflects_working_set() {
        // A small program occupies a couple of banks; the rest sleep.
        let src = r#"
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 3000; i = i + 1) s = (s + i * 7) % 1000;
    return s % 128;
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let cfg = IcacheConfig {
            tcache_size: 32 * 1024,
            ..IcacheConfig::default()
        };
        let banks = BankConfig {
            bank_bytes: 1024,
            banks: 32,
            ..BankConfig::default()
        };
        let mut sys = SoftIcacheSystem::new(image, cfg);
        let (out, report) = sys.run_with_power(&[], banks).unwrap();
        assert!(out.exit_code >= 0);
        assert!(
            report.mean_awake_banks < 3.0,
            "small working set awakes few banks: {}",
            report.mean_awake_banks
        );
        assert!(report.energy_mj < report.hardware_baseline_mj);
        assert!(
            report.savings_fraction() > 0.5,
            "{}",
            report.savings_fraction()
        );
        let chip = report.chip_power_savings_fraction();
        assert!(chip > 0.2 && chip < 0.45, "chip-level savings {chip}");
    }

    #[test]
    fn power_run_keeps_semantics() {
        let src = "int main() { return 37; }";
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let mut sys = SoftIcacheSystem::new(image, IcacheConfig::default());
        let (out, _) = sys.run_with_power(&[], BankConfig::default()).unwrap();
        assert_eq!(out.exit_code, 37);
    }
}

#[cfg(test)]
mod superblock_tests {
    use super::*;
    use crate::mc::ChunkStrategy;
    use softcache_minic as minic;

    const PROGRAM: &str = r#"
int work(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) {
        if (i % 3 == 0) s = s + i;
        else if (i % 3 == 1) s = s - i;
        else s = s ^ i;
    }
    return s;
}
int main() { return work(500) & 0x7f; }
"#;

    fn run_with(strategy: ChunkStrategy) -> RunOutput {
        let image = minic::compile_to_image(PROGRAM, &minic::Options::default()).unwrap();
        SoftIcacheSystem::new(image, IcacheConfig::default())
            .chunk_strategy(strategy)
            .run(&[])
            .unwrap()
    }

    #[test]
    fn superblocks_preserve_semantics() {
        let block = run_with(ChunkStrategy::BasicBlock);
        for max in [2, 4, 16] {
            let sb = run_with(ChunkStrategy::Superblock { max_blocks: max });
            assert_eq!(sb.exit_code, block.exit_code, "max={max}");
            assert_eq!(sb.output, block.output, "max={max}");
        }
    }

    #[test]
    fn superblocks_reduce_round_trips() {
        let block = run_with(ChunkStrategy::BasicBlock);
        let sb = run_with(ChunkStrategy::Superblock { max_blocks: 8 });
        assert!(
            sb.cache.translations < block.cache.translations,
            "fewer chunks: {} vs {}",
            sb.cache.translations,
            block.cache.translations
        );
        assert!(
            sb.cache.miss_traps <= block.cache.miss_traps,
            "inlined fallthroughs eliminate fall-slot misses"
        );
    }

    #[test]
    fn superblock_of_one_is_basic_block() {
        let block = run_with(ChunkStrategy::BasicBlock);
        let sb1 = run_with(ChunkStrategy::Superblock { max_blocks: 1 });
        assert_eq!(block.cache.translations, sb1.cache.translations);
        assert_eq!(block.cache.words_installed, sb1.cache.words_installed);
    }

    #[test]
    fn superblocks_work_under_flush_pressure() {
        let image = minic::compile_to_image(PROGRAM, &minic::Options::default()).unwrap();
        let want = run_with(ChunkStrategy::BasicBlock).exit_code;
        // Find a tcache size that forces at least one flush under the
        // superblock strategy, then verify semantics survive it.
        let mut flushed = false;
        for size in [768u32, 640, 512, 448, 384] {
            let cfg = IcacheConfig {
                tcache_size: size,
                // Flush-path hygiene test: keep the whole-cache flush.
                tcache_policy: crate::cc::TcachePolicy::FlushAll,
                ..IcacheConfig::default()
            };
            match SoftIcacheSystem::new(image.clone(), cfg)
                .chunk_strategy(ChunkStrategy::Superblock { max_blocks: 4 })
                .run(&[])
            {
                Ok(out) => {
                    assert_eq!(out.exit_code, want, "size {size}");
                    flushed |= out.cache.flushes > 0;
                }
                Err(CacheError::ChunkTooBig { .. }) => break,
                Err(e) => panic!("size {size}: {e}"),
            }
        }
        assert!(flushed, "no size in the sweep flushed");
    }

    #[test]
    fn superblocks_with_calls_inline_continuations() {
        let src = r#"
int f(int x) { return x + 1; }
int main() {
    int s; int i;
    s = 0;
    for (i = 0; i < 50; i = i + 1) s = s + f(i) + f(s & 7);
    return s & 0x7f;
}
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let base = SoftIcacheSystem::new(image.clone(), IcacheConfig::default())
            .run(&[])
            .unwrap();
        let sb = SoftIcacheSystem::new(image, IcacheConfig::default())
            .chunk_strategy(ChunkStrategy::Superblock { max_blocks: 8 })
            .run(&[])
            .unwrap();
        assert_eq!(sb.exit_code, base.exit_code);
        assert!(sb.cache.translations < base.cache.translations);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use softcache_minic as minic;
    use softcache_net::thread_pair;
    use std::time::Duration;

    const PROGRAM: &str = r#"
int f(int x) { if (x % 2) return x * 3; return x + 1; }
int g(int x) { if (x > 100) return x - 100; return x; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 200; i = i + 1) s = g(s + f(i));
    return s & 0x7f;
}
"#;

    fn run_depth(depth: u32) -> RunOutput {
        let image = minic::compile_to_image(PROGRAM, &minic::Options::default()).unwrap();
        let cfg = IcacheConfig {
            prefetch_depth: depth,
            ..IcacheConfig::default()
        };
        SoftIcacheSystem::new(image, cfg).run(&[]).unwrap()
    }

    #[test]
    fn speculative_push_preserves_semantics() {
        let base = run_depth(0);
        assert_eq!(base.cache.link.batches, 0, "depth 0 never batches");
        assert_eq!(base.cache.link.prefetched_chunks, 0);
        for depth in [1, 2, 4, 8] {
            let out = run_depth(depth);
            assert_eq!(out.exit_code, base.exit_code, "depth {depth}");
            assert_eq!(out.output, base.output, "depth {depth}");
            // Zero tag checks preserved: speculation never adds executed
            // instructions. It can *remove* a few one-shot `miss` stub
            // executions — when a later demand chunk is resolved straight
            // into a pushed chunk, that edge never traps — so the count
            // may drop by at most one per such resolved prefetch hit.
            assert!(
                out.exec.instructions <= base.exec.instructions,
                "depth {depth}"
            );
            assert!(
                base.exec.instructions - out.exec.instructions <= out.cache.link.prefetch_hits,
                "depth {depth}: {} vs {}",
                base.exec.instructions,
                out.exec.instructions
            );
        }
    }

    #[test]
    fn batching_cuts_exchanges_and_balances_the_ledger() {
        let base = run_depth(0);
        let out = run_depth(4);
        assert!(
            out.cache.link.messages < base.cache.link.messages,
            "pushed chunks need no exchange of their own: {} vs {}",
            out.cache.link.messages,
            base.cache.link.messages
        );
        assert!(out.cache.link.stall_cycles < base.cache.link.stall_cycles);
        assert!(out.cache.link.batches > 0);
        assert!(out.cache.link.prefetched_chunks > 0);
        assert!(out.cache.link.prefetch_hits > 0, "speculation pays off");
        assert_eq!(
            out.cache.link.prefetch_hits + out.cache.link.prefetch_wastes,
            out.cache.link.prefetched_chunks,
            "every pushed chunk settles as hit or waste"
        );
        assert_eq!(
            out.cache.link.overhead_per_rpc(),
            60.0,
            "a batch still costs one header pair"
        );
        assert!(
            out.cache.translations >= base.cache.translations,
            "wasted pushes can only add translations"
        );
    }

    #[test]
    fn speculative_push_over_remote_mc() {
        let src = r#"
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { return fib(10); }
"#;
        let image = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let (cc_t, mut mc_t) = thread_pair(Duration::from_millis(500));
        let server_image = image.clone();
        let server = std::thread::spawn(move || {
            let mut mc = Mc::new(server_image);
            crate::endpoint::serve(&mut mc, &mut mc_t)
        });
        let cfg = IcacheConfig {
            prefetch_depth: 2,
            ..IcacheConfig::default()
        };
        let mut sys =
            SoftIcacheSystem::with_endpoint(image, cfg, McEndpoint::remote(Box::new(cc_t)));
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, 55);
        assert!(out.cache.link.batches > 0);
        drop(sys);
        server.join().unwrap();
    }
}

#[cfg(test)]
mod measured_tests {
    use super::*;
    use softcache_asm::assemble;

    #[test]
    fn run_measured_stops_at_cap_with_stats() {
        let image = assemble("_start: li t0, 0\n.Ll: addi t0, t0, 1\n j .Ll").unwrap();
        let mut sys = SoftIcacheSystem::new(image, IcacheConfig::default());
        let out = sys.run_measured(&[], 10_000).unwrap();
        assert_eq!(out.exit_code, 0, "capped runs report exit 0");
        assert!(out.exec.instructions >= 10_000);
        assert!(out.exec.instructions < 10_100, "stops promptly");
        assert!(out.cache.translations >= 2);
        assert!(out.tcache_miss_rate_percent() > 0.0);
    }

    #[test]
    fn run_measured_returns_early_exit() {
        let image = assemble("_start: li a0, 9\n ecall 0").unwrap();
        let mut sys = SoftIcacheSystem::new(image, IcacheConfig::default());
        let out = sys.run_measured(&[], 1_000_000).unwrap();
        assert_eq!(out.exit_code, 9, "program finished before the cap");
    }
}
