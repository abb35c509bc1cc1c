//! The complete simulated embedded machine: CPU + memory + environment.
//!
//! A [`Machine`] owns everything needed to run an [`Image`] *natively* (no
//! software cache — the paper's "ideal" baseline) and exposes the pieces the
//! softcache cache controller needs to drive execution itself: public
//! [`Cpu`], [`Memory`] and statistics, and the cost model through
//! [`Machine::cost`].
//!
//! Two engines execute code. [`Machine::step`] is the reference
//! interpreter: it fetches and decodes the word at the PC, executes it and
//! bills it under the [`CostModel`], one instruction per call. It is the
//! oracle the differential tests hold the production engine to, and the
//! only per-instruction path. [`Machine::run_block`] is the production
//! engine: it runs superblocks (the `uop` module), each lowered straight
//! into a threaded handler array the first time execution reaches it, as
//! chained traces. Each block's exit sentinel bills the block, services
//! its `ecall` through the service routine `step` uses, and follows the
//! block's link; the trace walk forms the links the sentinels find
//! missing. Every instruction no superblock covers —
//! halts, miss stubs and `jrh`/`jalrh` traps, undecodable and unwatched
//! words, spans pinned to `step`, and the tail of a step budget too short
//! for the next block — runs on `step`, its cold tier. The superblock
//! cache is the only cache of decoded code.

use crate::cost::CostModel;
use crate::cpu::{self, Cpu, Next, SimError, Trap};
use crate::mem::Memory;
use crate::uop::{self, TermKind, TraceEnd, UopCache};
use softcache_isa::image::Image;
use softcache_isa::inst::Inst;
use softcache_isa::layout::{
    DATA_BASE, FP_SENTINEL, MEM_SIZE, STACK_FLOOR, STACK_TOP, TCACHE_BASE,
};
use softcache_isa::reg::Reg;

/// Environment-call service numbers.
pub mod syscall {
    /// `exit(a0)` — stop with an exit code.
    pub const EXIT: u16 = 0;
    /// `putc(a0)` — append one byte to the output stream.
    pub const PUTC: u16 = 1;
    /// `getc() -> rv` — next input byte, or -1 at end of input.
    pub const GETC: u16 = 2;
    /// `cycles() -> rv` — low 32 bits of the cycle counter.
    pub const CYCLES: u16 = 3;
    /// `puti(a0)` — append the signed decimal rendering of `a0`.
    pub const PUTI: u16 = 4;
}

/// Byte-stream environment: program input/output and exit status.
#[derive(Clone, Default)]
pub struct Env {
    input: Vec<u8>,
    input_pos: usize,
    /// Everything the program wrote via `putc`/`puti`.
    pub output: Vec<u8>,
    /// Set once the program calls `exit`.
    pub exit_code: Option<i32>,
}

impl Env {
    /// Environment with the given input stream.
    pub fn with_input(input: &[u8]) -> Env {
        Env {
            input: input.to_vec(),
            ..Env::default()
        }
    }

    fn getc(&mut self) -> i32 {
        match self.input.get(self.input_pos) {
            Some(&b) => {
                self.input_pos += 1;
                b as i32
            }
            None => -1,
        }
    }

    /// Service environment call `code` against `cpu`'s registers, after
    /// the `ecall` has retired and been billed; `cycles` is the cycle
    /// counter at that point, which the `cycles` service reads. Returns
    /// [`Step::Exited`] for `exit` and [`Step::Running`] otherwise. The
    /// one service routine: [`Machine::step`] and the block engine's
    /// `ecall` sentinel call it.
    pub(crate) fn ecall(&mut self, code: u16, cpu: &mut Cpu, cycles: u64) -> Step {
        match code {
            syscall::EXIT => {
                let code = cpu.get(Reg::A0);
                self.exit_code = Some(code);
                return Step::Exited(code);
            }
            syscall::PUTC => self.output.push(cpu.get(Reg::A0) as u8),
            syscall::GETC => {
                let v = self.getc();
                cpu.set(Reg::RV, v);
            }
            syscall::CYCLES => cpu.set(Reg::RV, cycles as i32),
            syscall::PUTI => {
                let v = cpu.get(Reg::A0);
                self.output.extend_from_slice(v.to_string().as_bytes());
            }
            _ => {
                // Unknown services are ignored (reads yield 0), so images
                // built for richer environments still run.
                cpu.set(Reg::RV, 0);
            }
        }
        Step::Running
    }
}

/// Aggregate execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles accumulated under the cost model.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches taken.
    pub taken_branches: u64,
    /// Direct + indirect calls.
    pub calls: u64,
    /// Returns.
    pub returns: u64,
}

impl ExecStats {
    #[inline]
    fn account(&mut self, inst: Inst, taken: bool) {
        self.instructions += 1;
        match inst {
            Inst::Load { .. } => self.loads += 1,
            Inst::Store { .. } => self.stores += 1,
            Inst::Branch { .. } => {
                self.branches += 1;
                if taken {
                    self.taken_branches += 1;
                }
            }
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Jalrh { .. } => self.calls += 1,
            Inst::Ret => self.returns += 1,
            _ => {}
        }
    }
}

/// Chain-break counts by terminator kind: how many trace walks ended at
/// each class of terminator because no successor block could be linked
/// (nothing can be lowered at the next PC), because the step budget could
/// not fit the successor block, or because the call was `exit`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakStats {
    /// Block ended at a non-lowerable instruction (no terminator).
    pub fallthrough: u64,
    /// Conditional branch.
    pub branch: u64,
    /// Direct jump.
    pub jump: u64,
    /// Direct call.
    pub call: u64,
    /// Register-indirect jump.
    pub jumpreg: u64,
    /// Register-indirect call.
    pub callreg: u64,
    /// Return.
    pub ret: u64,
    /// Environment call: its sentinel serviced it, then the walk ended
    /// (on `exit`, or with no successor that fits).
    pub ecall: u64,
}

impl BreakStats {
    /// Breaks summed over every terminator kind.
    pub fn total(&self) -> u64 {
        self.fallthrough
            + self.branch
            + self.jump
            + self.call
            + self.jumpreg
            + self.callreg
            + self.ret
            + self.ecall
    }

    #[inline]
    fn bump(&mut self, kind: TermKind) {
        match kind {
            TermKind::Fallthrough => self.fallthrough += 1,
            TermKind::Branch => self.branch += 1,
            TermKind::Jump => self.jump += 1,
            TermKind::Call => self.call += 1,
            TermKind::JumpReg => self.jumpreg += 1,
            TermKind::CallReg => self.callreg += 1,
            TermKind::Ret => self.ret += 1,
            TermKind::Ecall => self.ecall += 1,
        }
    }
}

/// Superblock-engine telemetry: trace entries, chained continuations, and
/// why walks ended. Host-side only — deliberately kept **out of**
/// [`ExecStats`], whose bit-identity with [`Machine::step`] the
/// differential tests assert; these counters describe how the engine ran,
/// so they *differ* by construction between the engine and the
/// superblocks-off oracle, and with the step budget.
///
/// Every block execution either hands off to a chained successor or ends
/// the walk, so the counters satisfy
/// `entries == breaks.total() + code_write_exits + fault_exits`
/// (each walk enters once and ends once; `chained` counts the in-walk
/// hand-offs in between). A walk never outlives a [`Machine::run_block`]
/// call, which debug-asserts the equation before it returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Trace walks entered from the loop-top lookup.
    pub entries: u64,
    /// Block executions reached by following a link in-walk (static link
    /// or inline cache).
    pub chained: u64,
    /// Walks ended with no valid successor, by terminator kind.
    pub breaks: BreakStats,
    /// Walks ended because a store patched watched code mid-block.
    pub code_write_exits: u64,
    /// Walks ended on a data fault mid-block.
    pub fault_exits: u64,
    /// Indirect terminators chained through their inline cache.
    pub ic_hits: u64,
    /// Inline-cache fills (first observation, target change, or a
    /// refill after a code write).
    pub ic_fills: u64,
    /// Instructions retired by [`Machine::step`] on behalf of
    /// [`Machine::run_block`] (the cold tier: halts, trap words, pinned
    /// spans and budget tails; `ecall`s retire in their blocks). A step
    /// that ends the call is not counted. Tier counters cover `run_block`
    /// execution only; a caller that runs `step` itself bypasses them.
    pub tier_interp_insts: u64,
    /// Always 0: every superblock runs as a threaded handler array, and
    /// there is no match-dispatched tier. Kept only because the
    /// benchmark's traced run (`benchmark/src/solo.rs`) still reads it;
    /// delete it with that read.
    pub tier_super_insts: u64,
    /// Instructions retired by superblocks (threaded handler arrays), in
    /// the walk or in a threaded chain. With `tier_interp_insts` it counts
    /// every instruction `run_block` retired, but for the steps that
    /// ended a call.
    pub tier_threaded_insts: u64,
    /// Superblocks lowered: each lowering binds one threaded handler
    /// array.
    pub promotions: u64,
    /// Superblocks dropped by invalidation (a code write into their span)
    /// or by a slow-path pin.
    pub demotions: u64,
}

/// Outcome of a [`Machine::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Instruction retired; execution continues.
    Running,
    /// Program exited (via `exit` or `halt`).
    Exited(i32),
    /// A softcache trap needs servicing ([`Trap::Miss`], [`Trap::HashJump`],
    /// [`Trap::HashCall`]). `ecall`s are serviced internally and never
    /// surface here.
    Trapped(Trap),
}

/// Error from [`Machine::run_native`] when fuel runs out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The CPU faulted.
    Sim(SimError),
    /// The fuel budget was exhausted before the program exited.
    OutOfFuel {
        /// Instructions executed before giving up.
        executed: u64,
    },
    /// A softcache trap reached a native run (no cache controller attached).
    UnexpectedTrap(Trap),
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> RunError {
        RunError::Sim(e)
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::OutOfFuel { executed } => {
                write!(f, "out of fuel after {executed} instructions")
            }
            RunError::UnexpectedTrap(t) => write!(f, "unexpected trap {t:?} in native run"),
        }
    }
}

impl std::error::Error for RunError {}

/// The simulated embedded device.
pub struct Machine {
    /// CPU state.
    pub cpu: Cpu,
    /// Client memory.
    pub mem: Memory,
    /// I/O environment.
    pub env: Env,
    /// Cycle cost model, fixed at construction ([`Machine::cost`]).
    cost: CostModel,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Superblock micro-op cache — straight-line runs lowered to flat
    /// micro-op arrays with precomputed cycle totals, invalidated through
    /// the [`Memory`] code-write barrier.
    uops: UopCache,
    /// Superblock execution toggle (on by default): off selects the
    /// reference [`Machine::step`] for every instruction, the oracle.
    superblocks: bool,
    /// Superblock-engine telemetry (trace entries, chain breaks by
    /// terminator kind, inline-cache counters). Not part of the
    /// architectural [`ExecStats`] ledger.
    pub trace: TraceStats,
}

impl Machine {
    /// Build a machine with the image loaded *natively*: text and data both
    /// resident, PC at the entry point — the paper's no-software-cache
    /// baseline configuration.
    pub fn load_native(image: &Image, input: &[u8]) -> Machine {
        let mut m = Machine::blank(input);
        m.mem
            .write_words(image.text_base, &image.text)
            .expect("image text fits in memory");
        m.mem
            .write_bytes(image.data_base, &image.data)
            .expect("image data fits in memory");
        m.cpu.pc = image.entry;
        m
    }

    /// Build a machine with only the *data* segment resident — the cache
    /// controller configuration, where original text never reaches the
    /// client and all code arrives through the translation cache.
    pub fn load_client(image: &Image, input: &[u8]) -> Machine {
        let mut m = Machine::blank(input);
        m.mem
            .write_bytes(image.data_base, &image.data)
            .expect("image data fits in memory");
        // PC is set by the cache controller once the entry block is resident.
        m
    }

    fn blank(input: &[u8]) -> Machine {
        let mut cpu = Cpu::new(0);
        cpu.set(Reg::SP, STACK_TOP as i32);
        cpu.set(Reg::FP, FP_SENTINEL as i32);
        let mut mem = Memory::new(MEM_SIZE);
        // Code lives in original text (below the data segment) and in the
        // translation cache; only writes there need to invalidate lowered
        // code, so the hot data/stack stores skip the generation bump.
        mem.set_code_watch([(0, DATA_BASE), (TCACHE_BASE, STACK_FLOOR)]);
        Machine {
            cpu,
            mem,
            env: Env::with_input(input),
            cost: CostModel::default(),
            stats: ExecStats::default(),
            uops: UopCache::new(),
            superblocks: true,
            trace: TraceStats::default(),
        }
    }

    /// Bring the superblock cache up to date with `mem`'s code generation:
    /// drop the blocks the dirty span wrote and adopt the new generation.
    /// One compare when nothing changed.
    #[inline]
    fn sync_uops(&mut self) {
        let generation = self.mem.code_gen();
        if self.uops.generation() != generation {
            if let Some((lo, hi)) = self.mem.take_dirty_code() {
                self.uops.invalidate_span(lo, hi);
                self.trace.demotions += self.uops.take_drops();
            }
            self.uops.set_generation(generation);
        }
    }

    /// Execute one instruction on the reference interpreter: fetch and
    /// decode the word at the PC, execute it, account its statistics and
    /// bill its cycles under the [`CostModel`], then service it if it is
    /// an `ecall`, through the routine the block engine services calls
    /// with. Softcache traps surface as [`Step::Trapped`].
    ///
    /// This is the simulator's only per-instruction path. It is the
    /// oracle the differential tests hold [`Machine::run_block`] to, and
    /// `run_block`'s cold tier: the instructions no superblock covers run
    /// here.
    pub fn step(&mut self) -> Result<Step, SimError> {
        let (inst, next, taken) = self.cpu.step(&mut self.mem)?;
        self.stats.account(inst, taken);
        self.stats.cycles += self.cost.cycles_for(inst, taken);
        match next {
            Next::Continue => Ok(Step::Running),
            Next::Halted => Ok(Step::Exited(self.env.exit_code.unwrap_or(0))),
            Next::Trap(Trap::Ecall { code }) => {
                Ok(self.env.ecall(code, &mut self.cpu, self.stats.cycles))
            }
            Next::Trap(t) => Ok(Step::Trapped(t)),
        }
    }

    /// The decoded instruction at the current PC, without executing it:
    /// the fetch and decode [`Machine::step`] would perform. Lets callers
    /// that inspect every instruction (the software data-cache runtimes)
    /// intercept it first.
    pub fn peek_inst(&self) -> Result<Inst, SimError> {
        cpu::fetch(&self.mem, self.cpu.pc)
    }

    /// The cycle cost model, fixed at construction.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Enable or disable superblock execution in [`Machine::run_block`].
    /// Off, every instruction runs on the reference [`Machine::step`]:
    /// the one switch left, because it selects the oracle the differential
    /// tests and `tests/fault_soak.rs` compare the engine with. Accounting
    /// is bit-identical either way (`tests/end_to_end.rs::check_all_engines`).
    pub fn set_superblocks_enabled(&mut self, on: bool) {
        self.superblocks = on;
    }

    /// Does nothing: superblocks always chain along their links. Kept only
    /// because the benchmark's traced run (`benchmark/src/solo.rs`) still
    /// calls it; delete it with that call.
    pub fn set_chaining_enabled(&mut self, _on: bool) {}

    /// Does nothing: `jr`/`jalr`/`ret` always chain through their inline
    /// caches. Kept only because the benchmark's traced run
    /// (`benchmark/src/solo.rs`) still calls it; delete it with that call.
    pub fn set_indirect_ic_enabled(&mut self, _on: bool) {}

    /// Does nothing: every superblock is lowered straight into its
    /// threaded handler array, so there is no tier to switch. Kept only
    /// because the benchmark's traced run (`benchmark/src/solo.rs`) still
    /// calls it; delete it with that call.
    pub fn set_threaded_enabled(&mut self, _on: bool) {}

    /// Does nothing: no hotness threshold promotes a block, because every
    /// block is threaded when it is lowered. Kept only because the
    /// benchmark's traced run (`benchmark/src/solo.rs`) still calls it;
    /// delete it with that call.
    pub fn set_threaded_threshold(&mut self, _threshold: u32) {}

    /// Does nothing: `ret` chains through its inline cache like
    /// `jr`/`jalr`, and there is no return-address stack to size. Kept
    /// only because the benchmark's traced run (`benchmark/src/solo.rs`)
    /// still calls it; delete it with that call.
    pub fn set_ras_depth(&mut self, _depth: u32) {}

    /// Pin `[lo, hi)` to the reference [`Machine::step`]: superblock
    /// lookups inside the span answer "not worth lowering", so no uop is
    /// formed or dispatched there. The corruption watchdog uses this to
    /// degrade a repeatedly-corrupted chunk gracefully. Host-side policy
    /// only — architectural results are bit-identical, just slower.
    pub fn pin_slow_span(&mut self, lo: u32, hi: u32) {
        self.uops.pin_span(lo, hi);
        self.trace.demotions += self.uops.take_drops();
    }

    /// Remove slow-path pins lying entirely within `[lo, hi)` (the pinned
    /// chunk was invalidated; its addresses may be recycled).
    pub fn unpin_slow_span(&mut self, lo: u32, hi: u32) {
        self.uops.unpin_span(lo, hi);
    }

    /// Remove every slow-path pin (tcache flush: all spans recycled).
    pub fn clear_slow_pins(&mut self) {
        self.uops.clear_pins();
    }

    /// The superblock starting at `pc`, lowered now if no verdict is
    /// cached: the engine's one lookup-or-lower, shared by the loop top,
    /// the static-leg link and the inline-cache fill, so a block is
    /// lowered the first time execution reaches it. `None` for a word not
    /// worth lowering, a pinned span, or a misaligned `pc`, which the
    /// page map (indexed by `pc >> 2`) would alias to the aligned block:
    /// the cold tier faults on it as [`Machine::step`] does.
    #[inline]
    fn block_at(&mut self, pc: u32) -> Option<u32> {
        if pc & 3 != 0 {
            return None;
        }
        match self.uops.lookup(pc) {
            uop::Lookup::Id(id) => Some(id),
            uop::Lookup::NotWorth => None,
            uop::Lookup::Unknown => self.lower_at(pc),
        }
    }

    /// Lower the superblock starting at `pc` into its handler array and
    /// record the verdict, returning the new block's arena id. Out of
    /// line: it runs once per block per code write, and
    /// [`Machine::block_at`]'s callers sit on the trace walk.
    #[inline(never)]
    fn lower_at(&mut self, pc: u32) -> Option<u32> {
        let id = self.uops.lower(&self.cost, &self.mem, pc)?;
        self.trace.promotions += 1;
        Some(id)
    }

    /// Walk one trace from block `first`, which fits the budget: run the
    /// threaded chain, and wherever it stops at an unlinked leg, link the
    /// leg ([`Machine::link_leg`]) and run on if the successor fits.
    /// `done` is the call's steps retired, which the chain advances.
    /// Returns how the walk ended, once counted in [`TraceStats`]; every
    /// walk enters once and ends once.
    fn walk(&mut self, first: u32, done: &mut u64, max_steps: u64) -> TraceEnd {
        // Valid for the whole walk: a code write ends the trace
        // (`TraceEnd::CodeWrite`) before the stamp could go stale.
        let entry_gen = self.mem.code_gen();
        self.trace.entries += 1;
        let mut id = first;
        loop {
            let run = self.uops.execute_trace(
                id,
                &mut self.cpu,
                &mut self.mem,
                &mut self.env,
                &mut self.stats,
                &mut self.trace,
                entry_gen,
                *done,
                max_steps,
            );
            *done = run.done;
            match run.end {
                TraceEnd::Unlinked { taken } => match self.link_leg(run.cur, taken) {
                    Some(next) if u64::from(self.uops.block(next).len) <= max_steps - *done => {
                        self.trace.chained += 1;
                        id = next;
                        continue;
                    }
                    _ => self.trace.breaks.bump(self.uops.block(run.cur).term_kind()),
                },
                TraceEnd::Break | TraceEnd::Exited(_) => {
                    self.trace.breaks.bump(self.uops.block(run.cur).term_kind());
                }
                TraceEnd::CodeWrite => self.trace.code_write_exits += 1,
                TraceEnd::Fault(_) => self.trace.fault_exits += 1,
            }
            return run.end;
        }
    }

    /// Link block `id`'s executed leg, which its sentinel found unlinked,
    /// to the block at the PC the terminator computed, lowering that block
    /// first if none is cached: a static leg gets its generation-stamped
    /// link, an indirect terminator a refilled inline cache. `None` where
    /// nothing can be lowered. The one place links are formed.
    fn link_leg(&mut self, id: u32, taken: bool) -> Option<u32> {
        let pc = self.cpu.pc;
        let next = self.block_at(pc)?;
        if self.uops.block(id).leg_target(taken).is_some() {
            self.uops.set_link(id, taken, next);
        } else {
            self.uops.set_ic(id, pc, next);
            self.trace.ic_fills += 1;
        }
        Some(next)
    }

    /// Run up to `max_steps` instructions, stopping early on exit or trap.
    /// Returns [`Step::Running`] exactly when the whole budget was
    /// consumed. This is the production engine: at each loop top it looks
    /// up (or lowers) the superblock at the PC and walks a chained trace
    /// from it (the `walk` method), one handler chain and one cycle add per
    /// block. Each block's exit sentinel bills the block, services its
    /// `ecall` and follows its link, so everything a walk retires is
    /// billed where it retired. Instructions no superblock covers — halts,
    /// trap words, words not worth lowering, pinned spans, and a budget
    /// tail too short for the next whole block — run on [`Machine::step`],
    /// the cold tier. Accounting is bit-identical to driving `step` alone;
    /// the differential tests hold it there.
    pub fn run_block(&mut self, max_steps: u64) -> Result<Step, SimError> {
        self.sync_uops();
        let mut done = 0u64; // steps retired this call
        let result = 'run: {
            while done < max_steps {
                // The first block must fit the remaining budget; the cold
                // tier consumes a too-small tail exactly.
                let first = if self.superblocks {
                    self.block_at(self.cpu.pc)
                } else {
                    None
                };
                if let Some(first) =
                    first.filter(|&id| u64::from(self.uops.block(id).len) <= max_steps - done)
                {
                    let walk_start = done;
                    let end = self.walk(first, &mut done, max_steps);
                    self.trace.tier_threaded_insts += done - walk_start;
                    match end {
                        TraceEnd::Exited(status) => break 'run Ok(Step::Exited(status)),
                        TraceEnd::Fault(err) => break 'run Err(err),
                        TraceEnd::CodeWrite => self.sync_uops(),
                        TraceEnd::Unlinked { .. } | TraceEnd::Break => {}
                    }
                    continue;
                }
                // Cold tier: the reference interpreter.
                match self.step() {
                    Ok(Step::Running) => {
                        done += 1;
                        self.trace.tier_interp_insts += 1;
                        // The instruction may have written code.
                        self.sync_uops();
                    }
                    stop => break 'run stop,
                }
            }
            Ok(Step::Running)
        };
        debug_assert_eq!(
            self.trace.entries,
            self.trace.breaks.total() + self.trace.code_write_exits + self.trace.fault_exits,
            "every trace walk enters once and ends once: {:?}",
            self.trace
        );
        result
    }

    /// Batch size for block runs: long enough to amortise loop entry,
    /// short enough that fuel checks stay responsive.
    pub const BLOCK_STEPS: u64 = 4096;

    /// Run natively until exit. Softcache traps are errors here (native
    /// images contain no rewritten instructions).
    pub fn run_native(&mut self, fuel: u64) -> Result<i32, RunError> {
        let mut remaining = fuel;
        while remaining > 0 {
            let batch = remaining.min(Self::BLOCK_STEPS);
            match self.run_block(batch)? {
                Step::Running => remaining -= batch,
                Step::Exited(code) => return Ok(code),
                Step::Trapped(t) => return Err(RunError::UnexpectedTrap(t)),
            }
        }
        Err(RunError::OutOfFuel {
            executed: self.stats.instructions,
        })
    }

    /// Run natively, invoking `fetch_hook` with the PC of every executed
    /// instruction — this drives the hardware cache model of Figure 6.
    pub fn run_native_traced(
        &mut self,
        fuel: u64,
        mut fetch_hook: impl FnMut(u32),
    ) -> Result<i32, RunError> {
        for _ in 0..fuel {
            fetch_hook(self.cpu.pc);
            match self.step()? {
                Step::Running => {}
                Step::Exited(code) => return Ok(code),
                Step::Trapped(t) => return Err(RunError::UnexpectedTrap(t)),
            }
        }
        Err(RunError::OutOfFuel {
            executed: self.stats.instructions,
        })
    }

    /// The program's output as a UTF-8 string (lossy), for test assertions.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.env.output).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_asm::assemble;

    fn run(src: &str, input: &[u8]) -> (i32, Machine) {
        let img = assemble(src).unwrap();
        let mut m = Machine::load_native(&img, input);
        let code = m.run_native(1_000_000).unwrap();
        (code, m)
    }

    #[test]
    fn exit_code_via_ecall() {
        let (code, _) = run("_start: li a0, 42\n ecall 0", &[]);
        assert_eq!(code, 42);
    }

    #[test]
    fn echo_program() {
        // Copy input to output until EOF.
        let src = r#"
_start:
.Lloop: ecall 2          # getc -> rv
        blt rv, zero, .Ldone
        mv a0, rv
        ecall 1          # putc
        j .Lloop
.Ldone: li a0, 0
        ecall 0
"#;
        let (code, m) = run(src, b"hello");
        assert_eq!(code, 0);
        assert_eq!(m.output_string(), "hello");
    }

    #[test]
    fn puti_renders_decimal() {
        let (_, m) = run("_start: li a0, -123\n ecall 4\n li a0, 0\n ecall 0", &[]);
        assert_eq!(m.output_string(), "-123");
    }

    #[test]
    fn stats_and_cycles_accumulate() {
        let src = r#"
_start: li t0, 10
.Ll:    addi t0, t0, -1
        bnez t0, .Ll
        li a0, 0
        ecall 0
"#;
        let (_, m) = run(src, &[]);
        // 1 li + 10*(addi+bnez) + li + ecall = 23
        assert_eq!(m.stats.instructions, 23);
        assert_eq!(m.stats.branches, 10);
        assert_eq!(m.stats.taken_branches, 9);
        assert!(m.stats.cycles > m.stats.instructions);
    }

    #[test]
    fn memory_ops_counted() {
        let src = r#"
_start: la t0, buf
        li t1, 7
        sw t1, 0(t0)
        lw t2, 0(t0)
        mv a0, t2
        ecall 0
        .data
buf:    .space 4
"#;
        let (code, m) = run(src, &[]);
        assert_eq!(code, 7);
        assert_eq!(m.stats.loads, 1);
        assert_eq!(m.stats.stores, 1);
    }

    #[test]
    fn getc_eof_returns_minus_one() {
        let (code, _) = run("_start: ecall 2\n mv a0, rv\n ecall 0", &[]);
        assert_eq!(code, -1);
    }

    #[test]
    fn fuel_exhaustion() {
        let img = assemble("_start: j _start").unwrap();
        let mut m = Machine::load_native(&img, &[]);
        assert!(matches!(m.run_native(100), Err(RunError::OutOfFuel { .. })));
    }

    #[test]
    fn miss_trap_is_unexpected_natively() {
        let img = assemble("_start: miss 3").unwrap();
        let mut m = Machine::load_native(&img, &[]);
        assert!(matches!(
            m.run_native(10),
            Err(RunError::UnexpectedTrap(Trap::Miss { idx: 3, .. }))
        ));
    }

    #[test]
    fn fetch_trace_covers_every_instruction() {
        let img = assemble("_start: li t0, 1\n addi t0, t0, 1\n li a0, 0\n ecall 0").unwrap();
        let mut m = Machine::load_native(&img, &[]);
        let mut trace = Vec::new();
        m.run_native_traced(100, |pc| trace.push(pc)).unwrap();
        assert_eq!(trace.len() as u64, m.stats.instructions);
        assert_eq!(trace[0], img.entry);
    }

    const CALL_LOOP: &str = r#"
_start: li s0, 200
.Lloop: jal .Lf
        addi s0, s0, -1
        bnez s0, .Lloop
        mv a0, t0
        ecall 0
.Lf:    addi t0, t0, 1
        ret
"#;

    #[test]
    fn trace_telemetry_balances_and_ic_chains_returns() {
        let (code, m) = run(CALL_LOOP, &[]);
        assert_eq!(code, 200);
        let t = m.trace;
        assert!(t.entries > 0, "superblocks ran");
        // Every walk enters once and ends exactly once: on a chain break,
        // a mid-block code write, or a fault.
        assert_eq!(
            t.entries,
            t.breaks.total() + t.code_write_exits + t.fault_exits,
            "walk entries balance walk exits: {t:?}"
        );
        assert!(
            t.ic_hits >= 190,
            "returns chain via the inline cache: {t:?}"
        );
        assert!(t.breaks.ret <= 3, "rets stop breaking traces: {t:?}");
        assert!(t.ic_fills >= 1, "the first ret fills the IC");
    }

    /// Every service inside loops that chain: `getc`, `putc`,
    /// `cycles` and an unknown code in the read loop, `cycles` again in a
    /// spin loop, then `puti` and `exit`.
    const SERVICES: &str = r#"
_start: li s2, 0
.Lread: ecall 2              # getc -> rv
        blt rv, zero, .Lrest
        mv a0, rv
        ecall 1              # putc
        ecall 3              # cycles -> rv
        add s1, s1, rv
        ecall 9              # an unknown service: rv = 0
        add s2, s2, rv
        addi s0, s0, 1
        j .Lread
.Lrest: mv a0, s1
        ecall 4              # puti
        li t0, 40
.Lspin: addi s3, s3, 3
        ecall 3
        xor s4, s4, rv
        addi t0, t0, -1
        bnez t0, .Lspin
        mv a0, s4
        ecall 4
        mv a0, s0
        ecall 0              # exit with the byte count
"#;

    /// What a run must reproduce: exit code, output, statistics, registers
    /// and pc.
    fn outcome(m: &Machine, code: i32) -> (i32, Vec<u8>, ExecStats, Vec<i32>, u32) {
        let regs = (0..Reg::COUNT as u8)
            .map(|i| m.cpu.get(Reg::new(i)))
            .collect();
        (code, m.env.output.clone(), m.stats, regs, m.cpu.pc)
    }

    /// Drive `m` to its exit, one `step` or one `run_block(budget)` at a
    /// time, and fail a run that has not exited after 10,000 of them.
    fn run_to_exit(m: &mut Machine, budget: Option<u64>) -> i32 {
        for _ in 0..10_000 {
            let step = match budget {
                Some(budget) => m.run_block(budget),
                None => m.step(),
            };
            match step.unwrap() {
                Step::Running => {}
                Step::Exited(code) => return code,
                stop => panic!("unexpected {stop:?}"),
            }
        }
        panic!("no exit after 10,000 calls: {:?}", m.stats)
    }

    #[test]
    fn ecall_services_match_step() {
        let img = assemble(SERVICES).unwrap();
        let input = b"the quick brown fox jumps over the lazy dog";
        // Each machine runs the program twice: the second pass starts at
        // the entry again, with the input used up.
        let mut slow = Machine::load_native(&img, input);
        let want: Vec<_> = (0..2)
            .map(|_| {
                slow.cpu.pc = img.entry;
                let code = run_to_exit(&mut slow, None);
                outcome(&slow, code)
            })
            .collect();
        assert_eq!(want[0].0, input.len() as i32, "one exit per byte read");
        assert!(want[0].1.starts_with(input), "putc echoes the input");
        for budget in (1..=12).chain([Machine::BLOCK_STEPS]) {
            let tag = format!("budget {budget}");
            let mut m = Machine::load_native(&img, input);
            for (pass, want) in want.iter().enumerate() {
                m.cpu.pc = img.entry;
                let entries = m.trace.entries;
                let code = run_to_exit(&mut m, Some(budget));
                assert_eq!(&outcome(&m, code), want, "{tag}, pass {pass}");
                if pass == 1 && budget > 1000 {
                    // Every block is lowered and linked by now, so the
                    // second pass is one threaded chain: its sentinels
                    // service `getc`, `puti` and every `cycles`, and chain
                    // into the exit block, whose sentinel services `exit`
                    // and ends the walk.
                    assert_eq!(m.trace.entries, entries + 1, "{tag}");
                }
            }
            let t = m.trace;
            assert_eq!(
                t.entries,
                t.breaks.total() + t.code_write_exits + t.fault_exits,
                "{tag}: {t:?}"
            );
        }
    }

    #[test]
    fn an_ecall_block_that_fills_the_budget_is_serviced_once() {
        let img = assemble(SERVICES).unwrap();
        let input = b"ab";
        let mut slow = Machine::load_native(&img, input);
        let code = run_to_exit(&mut slow, None);
        let want = outcome(&slow, code);
        let mut m = Machine::load_native(&img, input);
        // The entry block, `li` and the first `getc`, uses up a budget of
        // two: its sentinel services the call, and the walk ends there.
        assert_eq!(m.run_block(2).unwrap(), Step::Running);
        assert_eq!(m.stats.instructions, 2);
        assert_eq!(m.trace.tier_interp_insts, 0, "no cold step");
        assert_eq!(m.trace.breaks.ecall, 1);
        assert_eq!(m.cpu.get(Reg::RV), i32::from(b'a'));
        assert_eq!(m.cpu.pc, img.entry + 8);
        let code = run_to_exit(&mut m, Some(Machine::BLOCK_STEPS));
        assert_eq!(outcome(&m, code), want, "each byte read once");
    }

    #[test]
    fn an_exit_block_with_a_link_still_ends_the_run() {
        // A walk ends the run at every `exit`, so an exit block never
        // links its fall-through leg. Link it by hand to the block after
        // it: the sentinel must service the `exit` and end the walk rather
        // than chain on.
        let img = assemble("_start: li a0, 7\n ecall 0\n addi t0, t0, 1\n j _start").unwrap();
        let mut m = Machine::load_native(&img, &[]);
        assert_eq!(m.run_block(100).unwrap(), Step::Exited(7));
        let exit_block = m.uops.id_at(img.entry).expect("exit block lowered");
        let after = m.block_at(img.entry + 8).expect("block after the exit");
        m.uops.set_link(exit_block, false, after);
        m.cpu.pc = img.entry;
        assert_eq!(m.run_block(100).unwrap(), Step::Exited(7));
        assert_eq!(m.stats.instructions, 4, "two runs of `li` and `exit`");
        assert_eq!(m.cpu.get(Reg::T0), 0, "nothing ran past the exit");
    }

    #[test]
    fn client_load_has_no_text() {
        let img = assemble("_start: halt\n.data\nx: .word 9").unwrap();
        let m = Machine::load_client(&img, &[]);
        assert_eq!(m.mem.read_u32(img.text_base).unwrap(), 0, "text absent");
        assert_eq!(m.mem.read_u32(img.data_base).unwrap(), 9, "data resident");
    }

    #[test]
    fn stack_registers_initialised() {
        let img = assemble("_start: halt").unwrap();
        let m = Machine::load_native(&img, &[]);
        assert_eq!(m.cpu.get(Reg::SP) as u32, STACK_TOP);
        assert_eq!(m.cpu.get(Reg::FP) as u32, FP_SENTINEL);
    }

    fn addi(rd: Reg, imm: i32) -> u32 {
        softcache_isa::encode(Inst::AluImm {
            op: softcache_isa::inst::AluOp::Add,
            rd,
            rs1: rd,
            imm,
        })
    }

    #[test]
    fn code_write_drops_only_the_blocks_that_depend_on_it() {
        // Two blocks in one tcache page: A = two ALU words and a jump to
        // B; B = two ALU words up to a halt.
        let base = TCACHE_BASE;
        let words = [
            addi(Reg::T0, 1),
            addi(Reg::T0, 2),
            softcache_isa::encode(Inst::J { off: 0 }),
            addi(Reg::T1, 1),
            addi(Reg::T1, 2),
            softcache_isa::encode(Inst::Halt),
        ];
        let mut m = Machine::blank(&[]);
        m.mem.write_words(base, &words).unwrap();
        m.cpu.pc = base;
        assert_eq!(m.run_block(1_000).unwrap(), Step::Exited(0));
        let a = m.uops.id_at(base).expect("block A lowered");
        m.uops.id_at(base + 12).expect("block B lowered");
        assert_eq!(m.trace.promotions, 2, "each lowering counts once");
        let demotions = m.trace.demotions;

        m.mem.write_u32(base + 16, addi(Reg::T1, 5)).unwrap();
        m.sync_uops();
        assert_eq!(m.uops.id_at(base), Some(a), "A keeps its arena id");
        assert_eq!(m.uops.lookup(base + 12), uop::Lookup::Unknown, "B dropped");
        assert_eq!(m.trace.demotions, demotions + 1, "exactly B demoted");
    }

    #[test]
    fn fresh_chunk_chains_on_its_first_walk() {
        // A straight-line chunk of four blocks, each an ALU word and a
        // jump to the next. Nothing is lowered before the run: the first
        // walk lowers each block as it takes the leg into it, forms the
        // link and runs the whole chunk as one trace. The chunk ends at a
        // halt, or at a `jr` to one more block, which the same walk
        // lowers to fill the inline cache.
        let blocks = 4u64;
        let base = TCACHE_BASE;
        let halt = softcache_isa::encode(Inst::Halt);
        let mut to_halt = Vec::new();
        for i in 0..blocks as i32 {
            to_halt.push(addi(Reg::T0, i));
            if i + 1 < blocks as i32 {
                to_halt.push(softcache_isa::encode(Inst::J { off: 0 }));
            }
        }
        let mut to_jr = to_halt.clone();
        to_halt.push(halt);
        to_jr.push(softcache_isa::encode(Inst::Jr { rs: Reg::T1 }));
        let tail = base + 4 * to_jr.len() as u32;
        to_jr.extend([addi(Reg::T0, 1), halt]);
        for (words, chained, ic_fills) in [(to_halt, blocks - 1, 0), (to_jr, blocks, 1)] {
            let tag = format!("ic_fills {ic_fills}");
            let mut m = Machine::blank(&[]);
            m.mem.write_words(base, &words).unwrap();
            m.cpu.set(Reg::T1, tail as i32);
            m.cpu.pc = base;
            assert_eq!(m.run_block(1_000).unwrap(), Step::Exited(0), "{tag}");
            assert_eq!(m.trace.entries, 1, "{tag}");
            assert_eq!(m.trace.chained, chained, "{tag}");
            assert_eq!(m.trace.ic_fills, ic_fills, "{tag}");
        }
    }

    #[test]
    fn misaligned_indirect_target_faults_as_in_step() {
        // Block B (`addi t1, 1; halt`) runs once, so the block engine has
        // it lowered. Then `lui`/`ori`/`jr` jump 2 bytes past B's start.
        // The inline-cache fill must not alias that pc to B: both engines
        // fault on the fetch, with the same statistics.
        let b = TCACHE_BASE + 0x40;
        let target = b + 2;
        let enc = softcache_isa::encode;
        let jump = [
            enc(Inst::Lui {
                rd: Reg::T0,
                imm: (target >> 16) as u16,
            }),
            enc(Inst::AluImm {
                op: softcache_isa::inst::AluOp::Or,
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: (target & 0xffff) as i32,
            }),
            enc(Inst::Jr { rs: Reg::T0 }),
        ];
        let run = |block_engine: bool| {
            let mut m = Machine::blank(&[]);
            m.mem.write_words(TCACHE_BASE, &jump).unwrap();
            m.mem
                .write_words(b, &[addi(Reg::T1, 1), enc(Inst::Halt)])
                .unwrap();
            let mut outcomes = Vec::new();
            for pc in [b, TCACHE_BASE] {
                m.cpu.pc = pc;
                outcomes.push(if block_engine {
                    m.run_block(100)
                } else {
                    loop {
                        match m.step() {
                            Ok(Step::Running) => {}
                            stop => break stop,
                        }
                    }
                });
            }
            (outcomes, m.stats, m.cpu.get(Reg::T1))
        };
        let fault = SimError::FetchFault {
            pc: target,
            fault: crate::mem::MemFault::Misaligned {
                addr: target,
                align: 4,
            },
        };
        let want = (vec![Ok(Step::Exited(0)), Err(fault)], 1);
        let (outcomes, stats, t1) = run(false);
        assert_eq!((outcomes, t1), want, "step");
        let (outcomes, block_stats, t1) = run(true);
        assert_eq!((outcomes, t1), want, "run_block");
        assert_eq!(block_stats, stats);
    }

    #[test]
    fn alu_edge_operands_match_step_in_both_forms() {
        // Every ALU operation, in register and immediate form, on edge
        // operands: 0, ±1, the extremes, shift amounts 31–33 and −1,
        // division and remainder by zero and `i32::MIN / -1`, and
        // immediates at both ends of their sign- or zero-extended range.
        // Each result is stored to data memory, so a wrong handler or a
        // miswired operand shows in its own slot.
        use softcache_isa::inst::{AluOp, MemWidth};
        const OPERANDS: [i32; 8] = [0, 1, -1, i32::MIN, i32::MAX, 31, 32, 33];
        const SIGN_EXTENDED: [i32; 8] = [0, 1, -1, 31, 32, 33, -32768, 32767];
        const ZERO_EXTENDED: [i32; 8] = [0, 1, 31, 32, 33, 0x7fff, 0x8000, 0xffff];
        let ops = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Slt,
            AluOp::Sltu,
        ];
        let enc = softcache_isa::encode;
        // `lui` then `ori` (which zero-extends) loads any 32-bit value.
        let li = |rd: Reg, v: i32| {
            let v = v as u32;
            [
                enc(Inst::Lui {
                    rd,
                    imm: (v >> 16) as u16,
                }),
                enc(Inst::AluImm {
                    op: AluOp::Or,
                    rd,
                    rs1: rd,
                    imm: (v & 0xffff) as i32,
                }),
            ]
        };
        for op in ops {
            let imms = if op.imm_zero_extends() {
                ZERO_EXTENDED
            } else {
                SIGN_EXTENDED
            };
            for imm_form in [false, true] {
                let mut words = li(Reg::S0, DATA_BASE as i32).to_vec();
                let mut slots = 0i16;
                for a in OPERANDS {
                    for b in if imm_form { imms } else { OPERANDS } {
                        words.extend(li(Reg::T0, a));
                        if !imm_form {
                            words.extend(li(Reg::T1, b));
                        }
                        words.push(enc(if imm_form {
                            Inst::AluImm {
                                op,
                                rd: Reg::T2,
                                rs1: Reg::T0,
                                imm: b,
                            }
                        } else {
                            Inst::Alu {
                                op,
                                rd: Reg::T2,
                                rs1: Reg::T0,
                                rs2: Reg::T1,
                            }
                        }));
                        words.push(enc(Inst::Store {
                            width: MemWidth::W,
                            src: Reg::T2,
                            base: Reg::S0,
                            off: 4 * slots,
                        }));
                        slots += 1;
                    }
                }
                words.push(enc(Inst::Halt));
                let run = |block_engine: bool| {
                    let mut m = Machine::blank(&[]);
                    m.mem.write_words(TCACHE_BASE, &words).unwrap();
                    m.cpu.pc = TCACHE_BASE;
                    let code = run_to_exit(&mut m, block_engine.then_some(Machine::BLOCK_STEPS));
                    let results: Vec<u32> = (0..slots)
                        .map(|i| m.mem.read_u32(DATA_BASE + 4 * i as u32).unwrap())
                        .collect();
                    (outcome(&m, code), results, m.trace.tier_interp_insts)
                };
                let tag = format!("{op:?}, immediate form {imm_form}");
                let (want, want_results, _) = run(false);
                let (got, got_results, cold) = run(true);
                assert_eq!(got, want, "{tag}");
                assert_eq!(got_results, want_results, "{tag}");
                assert_eq!(cold, 0, "{tag}: every operation ran in a handler");
            }
        }
    }
}
