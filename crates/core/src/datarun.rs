//! Execution systems that wire the software **data** caches (§3) into the
//! machine.
//!
//! Two shapes:
//!
//! * [`SoftDcacheSystem`] — native instruction fetch, all data accesses
//!   through the dcache/scache. Isolates the data-cache costs.
//! * [`FullSoftCacheSystem`] — the complete picture: instruction fetch
//!   from the tcache (basic-block rewriting) *and* data accesses through
//!   dcache/scache, the "single level of caching at the embedded system
//!   chip" the paper envisions.
//!
//! The interception point: before each step, loads/stores whose effective
//! address falls in the data region (`DATA_BASE..TCACHE_BASE`) are serviced
//! by the [`Dcache`]; addresses in the stack region
//! (`STACK_FLOOR..STACK_TOP`) are accounted by the [`Scache`] and then
//! performed against local memory (the window *is* local memory). This is
//! semantically identical to rewriting each load/store into the
//! Figure 10 sequences; the cycle charges come from those sequences.

use crate::cc::{CacheError, Cc, IcacheConfig, IcacheStats};
use crate::dcache::{Dcache, DcacheConfig, DcacheStats};
use crate::endpoint::McEndpoint;
use crate::integrity::{IntegrityStats, MemFaultInjector, MemFaultPlan};
use crate::mc::Mc;
use crate::scache::{Scache, ScacheConfig, ScacheStats};
use softcache_isa::image::{Image, SymKind};
use softcache_isa::inst::{Inst, MemWidth};
use softcache_isa::layout::{DATA_BASE, STACK_FLOOR, STACK_TOP, TCACHE_BASE};
use softcache_isa::INST_BYTES;
use softcache_sim::{ExecStats, Machine, MemFault, SimError, Step, Trap};

/// Result of a data-cached run.
#[derive(Clone, Debug)]
pub struct DataRunOutput {
    /// Exit code.
    pub exit_code: i32,
    /// Program output.
    pub output: Vec<u8>,
    /// Execution statistics (cycles include data-cache overheads).
    pub exec: ExecStats,
    /// Data cache statistics.
    pub dcache: DcacheStats,
    /// Stack cache statistics.
    pub scache: ScacheStats,
    /// Instruction cache statistics (zeroed for the dcache-only system).
    pub icache: IcacheStats,
}

fn in_data(addr: u32) -> bool {
    (DATA_BASE..TCACHE_BASE).contains(&addr)
}

fn in_stack(addr: u32) -> bool {
    (STACK_FLOOR..STACK_TOP).contains(&addr)
}

fn width_bytes(w: MemWidth) -> u32 {
    w.bytes()
}

fn extend(v: u32, width: MemWidth, signed: bool) -> i32 {
    match (width, signed) {
        (MemWidth::W, _) => v as i32,
        (MemWidth::H, true) => v as u16 as i16 as i32,
        (MemWidth::H, false) => (v & 0xFFFF) as i32,
        (MemWidth::B, true) => v as u8 as i8 as i32,
        (MemWidth::B, false) => (v & 0xFF) as i32,
    }
}

/// Shared data-access interception. Returns `Ok(true)` when the
/// instruction was fully handled here.
#[allow(clippy::too_many_arguments)]
fn intercept_data_access(
    machine: &mut Machine,
    dcache: &mut Dcache,
    scache: &mut Scache,
    ep: &mut McEndpoint,
    inst: Inst,
) -> Result<bool, CacheError> {
    let pc = machine.cpu.pc;
    match inst {
        Inst::Load {
            width,
            signed,
            rd,
            base,
            off,
        } => {
            let addr = (machine.cpu.get(base) as u32).wrapping_add(off as i32 as u32);
            if in_data(addr) {
                let wb = width_bytes(width);
                if !addr.is_multiple_of(wb) {
                    return Err(CacheError::Sim(SimError::DataFault {
                        pc,
                        fault: MemFault::Misaligned { addr, align: wb },
                    }));
                }
                let (raw, extra) = dcache.read(ep, pc, addr, wb)?;
                machine.cpu.set(rd, extend(raw, width, signed));
                machine.cpu.pc = pc.wrapping_add(INST_BYTES);
                machine.stats.instructions += 1;
                machine.stats.loads += 1;
                machine.stats.cycles += machine.cost().cycles_for(inst, false) + extra;
                return Ok(true);
            }
            if in_stack(addr) {
                let extra = scache.access(ep, addr, |a, len| {
                    machine
                        .mem
                        .read_bytes(a, len)
                        .expect("stack mapped")
                        .to_vec()
                })?;
                machine.stats.cycles += extra;
                // Fall through to normal execution against local memory.
            }
            Ok(false)
        }
        Inst::Store {
            width,
            src,
            base,
            off,
        } => {
            let addr = (machine.cpu.get(base) as u32).wrapping_add(off as i32 as u32);
            if in_data(addr) {
                let wb = width_bytes(width);
                if !addr.is_multiple_of(wb) {
                    return Err(CacheError::Sim(SimError::DataFault {
                        pc,
                        fault: MemFault::Misaligned { addr, align: wb },
                    }));
                }
                let extra = dcache.write(ep, pc, addr, wb, machine.cpu.get(src) as u32)?;
                machine.cpu.pc = pc.wrapping_add(INST_BYTES);
                machine.stats.instructions += 1;
                machine.stats.stores += 1;
                machine.stats.cycles += machine.cost().cycles_for(inst, false) + extra;
                return Ok(true);
            }
            if in_stack(addr) {
                let extra = scache.access(ep, addr, |a, len| {
                    machine
                        .mem
                        .read_bytes(a, len)
                        .expect("stack mapped")
                        .to_vec()
                })?;
                machine.stats.cycles += extra;
            }
            Ok(false)
        }
        _ => Ok(false),
    }
}

/// Pin every 4-byte global object (scalar) — the Figure 10 "constant
/// address known to be in-cache" specialisation target set.
fn pin_scalars(image: &Image, dcache: &mut Dcache, ep: &mut McEndpoint) -> Result<u64, CacheError> {
    let mut cycles = 0;
    for sym in &image.symbols {
        if sym.kind == SymKind::Object && sym.size == 4 {
            dcache.pin(ep, (sym.addr, sym.addr + 4), &mut cycles)?;
        }
    }
    Ok(cycles)
}

/// Native instruction fetch + software-cached data.
pub struct SoftDcacheSystem {
    image: Image,
    dcfg: DcacheConfig,
    scfg: ScacheConfig,
    endpoint: McEndpoint,
    /// Pin scalar globals for specialised (check-free) access.
    pub pin_scalar_globals: bool,
    /// Instruction budget.
    pub fuel: u64,
    chaos: Option<MemFaultPlan>,
}

impl SoftDcacheSystem {
    /// Fused system.
    pub fn new(image: Image, dcfg: DcacheConfig, scfg: ScacheConfig) -> SoftDcacheSystem {
        let mc = Mc::new(image.clone());
        SoftDcacheSystem {
            image,
            dcfg,
            scfg,
            endpoint: McEndpoint::direct(mc),
            pin_scalar_globals: true,
            fuel: 2_000_000_000,
            chaos: None,
        }
    }

    /// Run under a seeded memory-fault plan. Only the plan's dcache rolls
    /// land here (there is no tcache in this system); clean corrupted
    /// lines are dropped by the scrubber and refill on next access.
    pub fn run_chaos(
        &mut self,
        input: &[u8],
        plan: MemFaultPlan,
    ) -> Result<DataRunOutput, CacheError> {
        self.chaos = Some(plan);
        let out = self.run(input);
        self.chaos = None;
        out
    }

    /// Run from a cold data cache.
    pub fn run(&mut self, input: &[u8]) -> Result<DataRunOutput, CacheError> {
        let mut machine = Machine::load_native(&self.image, input);
        let mut dcache = Dcache::new(self.dcfg);
        let mut scache = Scache::new(self.scfg);
        let mut injector = self.chaos.map(MemFaultInjector::new);
        let mut integrity = IntegrityStats::default();
        if self.pin_scalar_globals {
            let cyc = pin_scalars(&self.image, &mut dcache, &mut self.endpoint)?;
            machine.stats.cycles += cyc;
        }
        let exit_code = loop {
            if machine.stats.instructions >= self.fuel {
                return Err(CacheError::OutOfFuel);
            }
            let pc = machine.cpu.pc;
            let inst = machine.peek_inst().map_err(CacheError::Sim)?;
            if intercept_data_access(
                &mut machine,
                &mut dcache,
                &mut scache,
                &mut self.endpoint,
                inst,
            )? {
                dcache_chaos_tick(&mut injector, &mut dcache, &mut integrity);
                continue;
            }
            match machine.step()? {
                Step::Running => {}
                Step::Exited(code) => break code,
                Step::Trapped(t) => {
                    return Err(CacheError::Sim(SimError::IllegalInst {
                        pc,
                        word: encode_trap(t),
                    }))
                }
            }
            dcache_chaos_tick(&mut injector, &mut dcache, &mut integrity);
        };
        dcache.flush_dirty(&mut self.endpoint)?;
        dcache.check_invariants();
        Ok(DataRunOutput {
            exit_code,
            output: machine.env.output.clone(),
            exec: machine.stats,
            dcache: dcache.stats,
            scache: scache.stats,
            icache: IcacheStats {
                integrity,
                ..IcacheStats::default()
            },
        })
    }
}

/// Data-only fault-injection checkpoint: land this tick's scheduled
/// dcache flip (code/redirector rolls are consumed but have no target
/// here), then scrub so a corrupted line is dropped before the next
/// access can read it.
fn dcache_chaos_tick(
    injector: &mut Option<MemFaultInjector>,
    dcache: &mut Dcache,
    integrity: &mut IntegrityStats,
) {
    let Some(inj) = injector.as_mut() else {
        return;
    };
    let fire = inj.begin_tick();
    if fire.dcache {
        if dcache.inject_flip(inj) {
            integrity.dcache_flips += 1;
        }
        let (checked, violations) = dcache.scrub();
        integrity.seals_checked += checked;
        integrity.seal_hits += checked - violations;
        integrity.violations += violations;
        // A dropped clean line refills from the server on next access —
        // the data-side analogue of a retranslation.
        integrity.retranslations += violations;
    }
}

fn encode_trap(t: Trap) -> u32 {
    // Only used for the (unreachable-by-construction) error path above.
    match t {
        Trap::Miss { idx, .. } => idx,
        _ => 0,
    }
}

/// The full software cache: tcache for instructions, dcache + scache for
/// data.
pub struct FullSoftCacheSystem {
    image: Image,
    icfg: IcacheConfig,
    dcfg: DcacheConfig,
    scfg: ScacheConfig,
    endpoint: McEndpoint,
    /// Pin scalar globals for specialised (check-free) access.
    pub pin_scalar_globals: bool,
    chaos: Option<MemFaultPlan>,
}

impl FullSoftCacheSystem {
    /// Fused system.
    pub fn new(
        image: Image,
        icfg: IcacheConfig,
        dcfg: DcacheConfig,
        scfg: ScacheConfig,
    ) -> FullSoftCacheSystem {
        let mc = Mc::new(image.clone());
        FullSoftCacheSystem {
            image,
            icfg,
            dcfg,
            scfg,
            endpoint: McEndpoint::direct(mc),
            pin_scalar_globals: true,
            chaos: None,
        }
    }

    /// Run under a seeded memory-fault plan: every roll kind lands —
    /// tcache chunks, redirector/trampoline words, and dcache lines — the
    /// "all-at-once" chaos configuration.
    pub fn run_chaos(
        &mut self,
        input: &[u8],
        plan: MemFaultPlan,
    ) -> Result<DataRunOutput, CacheError> {
        self.chaos = Some(plan);
        let out = self.run(input);
        self.chaos = None;
        out
    }

    /// Run from cold caches.
    pub fn run(&mut self, input: &[u8]) -> Result<DataRunOutput, CacheError> {
        let mut machine = Machine::load_client(&self.image, input);
        let mut cc = Cc::new(self.icfg);
        let mut dcache = Dcache::new(self.dcfg);
        let mut scache = Scache::new(self.scfg);
        let mut injector = self.chaos.map(MemFaultInjector::new);
        if injector.is_some() {
            cc.arm_integrity();
        }
        if self.pin_scalar_globals {
            let cyc = pin_scalars(&self.image, &mut dcache, &mut self.endpoint)?;
            machine.stats.cycles += cyc;
        }
        let entry = cc.ensure(&mut machine, &mut self.endpoint, self.image.entry)?;
        machine.cpu.pc = entry;
        let fuel = self.icfg.fuel;
        let exit_code = loop {
            if machine.stats.instructions >= fuel {
                return Err(CacheError::OutOfFuel);
            }
            let inst = machine.peek_inst().map_err(CacheError::Sim)?;
            let handled = intercept_data_access(
                &mut machine,
                &mut dcache,
                &mut scache,
                &mut self.endpoint,
                inst,
            )?;
            if !handled {
                match machine.step()? {
                    Step::Running => {}
                    Step::Exited(code) => break code,
                    Step::Trapped(Trap::Miss { idx, .. }) => {
                        cc.handle_miss(&mut machine, &mut self.endpoint, idx)?;
                    }
                    Step::Trapped(Trap::HashJump { target, .. })
                    | Step::Trapped(Trap::HashCall { target, .. }) => {
                        let tc = cc.hash_jump(&mut machine, &mut self.endpoint, target)?;
                        machine.cpu.pc = tc;
                    }
                    Step::Trapped(Trap::Ecall { .. }) => unreachable!("handled by Machine"),
                }
            }
            // Fault-injection checkpoint: flips land and are healed here,
            // before the next instruction can fetch corrupted state.
            if let Some(inj) = injector.as_mut() {
                cc.chaos_tick_full(&mut machine, &mut self.endpoint, inj, &mut dcache)?;
            }
        };
        dcache.flush_dirty(&mut self.endpoint)?;
        dcache.check_invariants();
        Ok(DataRunOutput {
            exit_code,
            output: machine.env.output.clone(),
            exec: machine.stats,
            dcache: dcache.stats,
            scache: scache.stats,
            icache: cc.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_minic as minic;

    const PROGRAM: &str = r#"
int table[128];
int total = 0;
int fill(int n) {
    int i;
    for (i = 0; i < n; i = i + 1) table[i] = i * 7 % 31;
    return n;
}
int sum(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) s = s + table[i];
    return s;
}
int main() {
    int n;
    n = fill(128);
    total = sum(n);
    puti(total);
    return total % 100;
}
"#;

    fn image() -> Image {
        minic::compile_to_image(PROGRAM, &minic::Options::default()).unwrap()
    }

    fn native(img: &Image) -> (i32, Vec<u8>) {
        let mut m = Machine::load_native(img, &[]);
        let code = m.run_native(100_000_000).unwrap();
        (code, m.env.output.clone())
    }

    #[test]
    fn dcache_system_matches_native() {
        let img = image();
        let (want_code, want_out) = native(&img);
        let mut sys = SoftDcacheSystem::new(img, DcacheConfig::default(), ScacheConfig::default());
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, want_code);
        assert_eq!(out.output, want_out);
        assert!(
            out.dcache.accesses > 200,
            "array traffic went through the dcache"
        );
        assert!(out.dcache.misses > 0);
        assert!(
            out.dcache.fast_hits > out.dcache.slow_hits,
            "sequential scans should predict well"
        );
        assert!(out.dcache.pinned_hits > 0, "global scalar `total` pinned");
    }

    #[test]
    fn tiny_dcache_still_correct() {
        let img = image();
        let (want_code, want_out) = native(&img);
        let dcfg = DcacheConfig {
            capacity_blocks: 4,
            block_bytes: 16,
            ..DcacheConfig::default()
        };
        let mut sys = SoftDcacheSystem::new(img, dcfg, ScacheConfig::default());
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, want_code);
        assert_eq!(out.output, want_out);
        assert!(out.dcache.writebacks > 0, "dirty evictions happened");
    }

    #[test]
    fn full_system_matches_native() {
        let img = image();
        let (want_code, want_out) = native(&img);
        let mut sys = FullSoftCacheSystem::new(
            img,
            IcacheConfig::default(),
            DcacheConfig::default(),
            ScacheConfig::default(),
        );
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, want_code);
        assert_eq!(out.output, want_out);
        assert!(out.icache.translations > 0);
        assert!(out.dcache.accesses > 0);
    }

    #[test]
    fn deep_recursion_exercises_scache() {
        let src = r#"
int deep(int n, int acc) {
    if (n == 0) return acc;
    return deep(n - 1, acc + n);
}
int main() { return deep(200, 0) % 251; }
"#;
        let img = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let (want, _) = native(&img);
        let scfg = ScacheConfig {
            window_bytes: 1024,
            ..ScacheConfig::default()
        };
        let mut sys = SoftDcacheSystem::new(img, DcacheConfig::default(), scfg);
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, want);
        assert!(out.scache.spills > 0, "deep stack slid the window down");
        assert!(out.scache.fills > 0, "returns slid it back up");
    }

    #[test]
    fn slow_hit_guarantee_no_server_traffic_once_resident() {
        // Working set fits: after the first pass, the server sees no more
        // data fills even though predictions may miss.
        let src = r#"
int a[8];
int b[8];
int main() {
    int i; int j; int s;
    for (i = 0; i < 8; i = i + 1) { a[i] = i; b[i] = i * 2; }
    s = 0;
    for (j = 0; j < 50; j = j + 1) {
        for (i = 0; i < 8; i = i + 1) s = s + a[i] - b[7 - i];
    }
    return s & 0x7f;
}
"#;
        let img = minic::compile_to_image(src, &minic::Options::default()).unwrap();
        let (want, _) = native(&img);
        let dcfg = DcacheConfig {
            capacity_blocks: 32,
            ..DcacheConfig::default()
        };
        let mut sys = SoftDcacheSystem::new(img, dcfg, ScacheConfig::default());
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, want);
        // Two arrays of 32 bytes each + pinned scalars: a handful of
        // fills, bounded by the footprint, not by the 50 passes.
        assert!(
            out.dcache.misses < 16,
            "misses {} must reflect footprint only",
            out.dcache.misses
        );
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use softcache_asm::assemble;

    #[test]
    fn misaligned_data_access_faults_cleanly() {
        // lw from DATA_BASE + 2 is misaligned; the dcache path must report
        // a DataFault, not corrupt anything.
        let src = r#"
_start: la t0, buf
        addi t0, t0, 2
        lw t1, 0(t0)
        halt
        .data
buf:    .word 1, 2
"#;
        let image = assemble(src).unwrap();
        let mut sys =
            SoftDcacheSystem::new(image, DcacheConfig::default(), ScacheConfig::default());
        let err = sys.run(&[]).unwrap_err();
        assert!(
            matches!(err, CacheError::Sim(SimError::DataFault { .. })),
            "{err}"
        );
    }

    #[test]
    fn dcache_system_fuel_bound() {
        let image = assemble("_start: j _start").unwrap();
        let mut sys =
            SoftDcacheSystem::new(image, DcacheConfig::default(), ScacheConfig::default());
        sys.fuel = 5_000;
        assert!(matches!(sys.run(&[]), Err(CacheError::OutOfFuel)));
    }

    #[test]
    fn subword_data_accesses_roundtrip() {
        // sb/lb/lbu and sh/lh/lhu against the dcache must sign/zero extend
        // exactly like flat memory.
        let src = r#"
_start: la t0, buf
        li t1, -2
        sb t1, 0(t0)
        lb t2, 0(t0)
        lbu t3, 0(t0)
        sh t1, 4(t0)
        lh t4, 4(t0)
        lhu t5, 4(t0)
        # encode results: t2 == -2, t3 == 254, t4 == -2, t5 == 65534
        li a0, 0
        li t6, -2
        bne t2, t6, .Lbad
        li t6, 254
        bne t3, t6, .Lbad
        li t6, -2
        bne t4, t6, .Lbad
        li t6, 65534
        bne t5, t6, .Lbad
        li a0, 1
.Lbad:  ecall 0
        .data
buf:    .space 8
"#;
        let image = assemble(src).unwrap();
        let mut sys =
            SoftDcacheSystem::new(image, DcacheConfig::default(), ScacheConfig::default());
        let out = sys.run(&[]).unwrap();
        assert_eq!(out.exit_code, 1);
        assert!(out.dcache.accesses >= 6);
    }
}
