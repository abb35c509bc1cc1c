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
//! engine: it runs lowered superblocks (the `uop` module) as chained
//! traces, on the match-dispatched tier or the threaded tier. An `ecall`
//! retires as the last instruction of its block, and the walk or the
//! threaded chain services it right after billing the block, through the
//! service routine `step` uses. Every instruction no superblock covers —
//! halts, miss stubs and `jrh`/`jalrh` traps, undecodable and unwatched
//! words, spans pinned to `step`, and the tail of a step budget too short
//! for the next block — runs on `step`, its cold tier. The superblock
//! cache is the only cache of decoded code.

use crate::cost::CostModel;
use crate::cpu::{self, Cpu, Next, SimError, Trap};
use crate::mem::Memory;
use crate::uop::{self, BlockExit, TermKind, UopCache};
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
    /// one service routine: [`Machine::step`], the trace walk and the
    /// threaded tier's `ecall` sentinel all call it.
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
/// (the next PC cannot be lowered, or chaining or the inline caches are
/// off) — or because the step budget could not fit the successor block.
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
    /// Environment call: the walk serviced it, then ended (on `exit`, or
    /// with no successor that fits).
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
/// [`ExecStats`], whose bit-identity across engine configurations the
/// differential tests assert; these counters *differ* by construction
/// between chained and unchained runs.
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
    /// Instructions retired by match-dispatched (warm) superblocks.
    pub tier_super_insts: u64,
    /// Instructions retired by threaded (hot) superblocks.
    pub tier_threaded_insts: u64,
    /// Superblocks promoted to the threaded tier (handler arrays built).
    pub promotions: u64,
    /// Threaded blocks dropped by invalidation or flush — the
    /// generation-barrier demotion path (they re-earn promotion through
    /// heat if relowered).
    pub demotions: u64,
}

/// Default hotness threshold for promoting a superblock to the threaded
/// tier: low enough that steady-state code is threaded within a handful
/// of executions, high enough that one-shot code never pays the handler
/// binding cost. A threshold of 0 threads at lowering time; [`THREADED_NEVER`]
/// disables promotion entirely.
pub const DEFAULT_THREADED_THRESHOLD: u32 = 8;

/// Sentinel promotion threshold: never promote (heat saturates below it).
pub const THREADED_NEVER: u32 = u32::MAX;

/// Walk-entry count per heat epoch (TRRIP-style decay period): every
/// 2^16 trace entries, unpromoted blocks' heat halves per elapsed epoch,
/// so only genuinely re-referenced code accumulates toward promotion.
const HEAT_EPOCH_SHIFT: u32 = 16;

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
    /// Superblock execution toggle (on by default).
    superblocks: bool,
    /// Superblock chaining toggle: follow generation-stamped successor
    /// links so whole traces run with one dispatch and one budget check
    /// per link (on by default, meaningful only with `superblocks`).
    chaining: bool,
    /// Indirect-branch inline-cache toggle: let `jr`/`jalr`/`ret`
    /// terminators chain through their per-site cached target (on by
    /// default, meaningful only with `chaining`).
    indirect_ic: bool,
    /// Threaded-tier toggle: promote hot superblocks to pre-bound
    /// handler arrays (on by default, meaningful only with `superblocks`).
    threaded: bool,
    /// Hotness threshold for threaded promotion (0 = thread at lowering,
    /// [`THREADED_NEVER`] = never).
    threaded_threshold: u32,
    /// Promotion requests collected during a trace walk (blocks whose
    /// heat crossed the threshold mid-walk, where the cache is borrowed
    /// shared); drained after the walk, where `&mut` is available.
    promote: Vec<u32>,
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
            chaining: true,
            indirect_ic: true,
            threaded: true,
            threaded_threshold: DEFAULT_THREADED_THRESHOLD,
            promote: Vec::new(),
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
                self.trace.demotions += self.uops.take_threaded_drops();
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
    /// Off, every instruction runs on the reference [`Machine::step`].
    /// Accounting is bit-identical either way; `check_all_engines` in
    /// `tests/end_to_end.rs` checks each dispatch setting against `step`.
    pub fn set_superblocks_enabled(&mut self, on: bool) {
        self.superblocks = on;
    }

    /// Enable or disable superblock *chaining* (trace formation across
    /// terminators with statically known targets). Only meaningful while
    /// superblocks are enabled. Accounting is bit-identical either way
    /// (`tests/end_to_end.rs::check_all_engines`).
    pub fn set_chaining_enabled(&mut self, on: bool) {
        self.chaining = on;
    }

    /// Enable or disable the indirect-branch inline caches (per-site
    /// cached targets for `jr`/`jalr`/`ret` terminators). Only meaningful
    /// while chaining is enabled. Accounting is bit-identical either way
    /// (`tests/end_to_end.rs::check_all_engines`).
    pub fn set_indirect_ic_enabled(&mut self, on: bool) {
        self.indirect_ic = on;
    }

    /// Enable or disable the threaded (hot) tier: hotness-promoted
    /// superblocks dispatched through pre-bound handler arrays. Only
    /// meaningful while superblocks are enabled. Accounting is
    /// bit-identical either way (`tests/end_to_end.rs::check_all_engines`).
    pub fn set_threaded_enabled(&mut self, on: bool) {
        self.threaded = on;
    }

    /// Set the hotness threshold for threaded promotion: 0 threads every
    /// block at lowering time, [`THREADED_NEVER`] never promotes.
    /// Accounting is bit-identical at any threshold.
    pub fn set_threaded_threshold(&mut self, threshold: u32) {
        self.threaded_threshold = threshold;
    }

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
        self.trace.demotions += self.uops.take_threaded_drops();
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

    /// Lower the superblock starting at `pc` and record the verdict,
    /// returning the new block's arena id. Threshold 0 means "always
    /// threaded": handlers are bound at lowering time. Out of line: it
    /// runs once per block per code write, and [`Machine::block_at`]'s
    /// callers sit on the trace walk.
    #[inline(never)]
    fn lower_at(&mut self, pc: u32) -> Option<u32> {
        let id = self.uops.lower(&self.cost, &self.mem, pc)?;
        if self.threaded && self.threaded_threshold == 0 && self.uops.thread(id) {
            self.trace.promotions += 1;
        }
        Some(id)
    }

    /// Run up to `max_steps` instructions, stopping early on exit or trap.
    /// Returns [`Step::Running`] exactly when the whole budget was
    /// consumed. This is the production engine: at each loop top it looks
    /// up (or lowers) the superblock at the PC and walks a chained trace
    /// from it, one dispatch walk and one cycle add per block, on the
    /// match-dispatched tier or the threaded tier, lowering and linking
    /// each successor the first time the walk takes its leg. An `ecall`
    /// ends its block and retires with it; the call is serviced once,
    /// right after the block is billed, by the threaded chain when it
    /// follows the block's link and otherwise by the walk, which ends the
    /// run on `exit`. Instructions no superblock covers — halts, trap
    /// words, words not worth lowering, pinned spans, and a budget tail
    /// too short for the next whole block — run on [`Machine::step`], the
    /// cold tier. Block instruction and cycle totals accumulate in locals
    /// flushed before each cold step and at the end. Accounting is
    /// bit-identical to driving `step` alone; the differential tests hold
    /// it there.
    pub fn run_block(&mut self, max_steps: u64) -> Result<Step, SimError> {
        self.sync_uops();
        let mut done = 0u64; // steps retired this block
        let mut insts = 0u64; // retired since the last stats flush
        let mut cycles = 0u64;
        let result = 'run: {
            while done < max_steps {
                let pc = self.cpu.pc;
                // Superblock path: execute a whole lowered run with one
                // dispatch walk and one cycle add, then *chain* into the
                // successor block while its generation-stamped link is
                // valid — one budget check and one arena index per link,
                // no loop-top lookup. Falls through to the cold tier at
                // unlowerable slots and when the remaining budget cannot
                // fit the next whole block (so `Step::Running` still means
                // the budget was consumed exactly).
                if self.superblocks {
                    let hit = self.block_at(pc);
                    let mut ran = false;
                    let mut resync = false;
                    let mut fault = None;
                    let mut exited = None;
                    if let Some(first) = hit {
                        // Valid for the whole walk: a code write exits the
                        // trace (BlockExit::CodeWrite) before the stamp
                        // could go stale.
                        let entry_gen = self.mem.code_gen();
                        let mut id = first;
                        // The first block must fit the remaining budget;
                        // the cold tier consumes a too-small tail exactly.
                        if u64::from(self.uops.block(id).len) <= max_steps - done {
                            self.trace.entries += 1;
                            ran = true;
                            let epoch = (self.trace.entries >> HEAT_EPOCH_SHIFT) as u32;
                            let thr = self.threaded_threshold;
                            // Per-tier retired-instruction tallies for this
                            // walk, flushed to the trace ledger at walk end.
                            let mut t_super = 0u64;
                            let mut t_thread = 0u64;
                            loop {
                                // Tier bookkeeping: decay-bump the block's
                                // heat; crossing the threshold queues a
                                // promotion, built after the walk where the
                                // cache is mutably free.
                                let sb = self.uops.block_mut(id);
                                let threaded = self.threaded && sb.is_threaded();
                                if self.threaded
                                    && !threaded
                                    && thr != THREADED_NEVER
                                    && sb.heat_up(epoch) >= thr
                                {
                                    self.promote.push(id);
                                }
                                let exit = if threaded {
                                    // Hot tier: the chain runs (and bills)
                                    // statically linked threaded
                                    // successors itself; it hands back the
                                    // final block for the walk to bill and
                                    // route like any other.
                                    let r = self.uops.execute_trace(
                                        id,
                                        &mut self.cpu,
                                        &mut self.mem,
                                        &mut self.env,
                                        &mut self.stats,
                                        cycles,
                                        self.indirect_ic,
                                        entry_gen,
                                        done,
                                        max_steps,
                                        self.chaining,
                                    );
                                    done = r.done;
                                    insts += r.insts;
                                    cycles += r.cycles;
                                    self.trace.chained += r.chained;
                                    self.trace.ic_hits += r.ic_hits;
                                    t_thread += r.insts;
                                    id = r.cur;
                                    r.exit
                                } else {
                                    self.uops.block(id).execute(
                                        &mut self.cpu,
                                        &mut self.mem,
                                        entry_gen,
                                    )
                                };
                                let sb = self.uops.block(id);
                                match exit {
                                    BlockExit::Done { taken } => {
                                        let len = u64::from(sb.len);
                                        done += len;
                                        insts += len;
                                        cycles += if taken { sb.cycles_tk } else { sb.cycles_nt };
                                        self.stats.loads += u64::from(sb.loads);
                                        self.stats.stores += u64::from(sb.stores);
                                        sb.account_term(&mut self.stats, taken);
                                        if threaded {
                                            t_thread += len;
                                        } else {
                                            t_super += len;
                                        }
                                        let kind = sb.term_kind();
                                        if let Some(code) = sb.ecall() {
                                            // The call retired with its
                                            // block: service it now, after
                                            // billing, as `step` does.
                                            let now = self.stats.cycles + cycles;
                                            if let Step::Exited(status) =
                                                self.env.ecall(code, &mut self.cpu, now)
                                            {
                                                self.trace.breaks.bump(kind);
                                                exited = Some(status);
                                                break;
                                            }
                                        }
                                        let mut next = None;
                                        if self.chaining {
                                            let link = sb.link(taken);
                                            if link.stamp == entry_gen {
                                                next = Some(link.id);
                                            } else if matches!(
                                                kind,
                                                TermKind::Ret
                                                    | TermKind::JumpReg
                                                    | TermKind::CallReg
                                            ) {
                                                // Indirect successor: the inline
                                                // cache, validated against the PC
                                                // the terminator computed, so a
                                                // wrong prediction only costs the
                                                // chain. A miss refills the cache
                                                // in-walk, lowering the target if
                                                // need be, and keeps walking.
                                                if self.indirect_ic {
                                                    let pc = self.cpu.pc;
                                                    let (target, ic) = sb.ic();
                                                    if ic.stamp == entry_gen && target == pc {
                                                        self.trace.ic_hits += 1;
                                                        next = Some(ic.id);
                                                    } else if let Some(nid) = self.block_at(pc) {
                                                        self.uops.set_ic(id, pc, nid);
                                                        self.trace.ic_fills += 1;
                                                        next = Some(nid);
                                                    }
                                                }
                                            } else if let Some(nid) =
                                                sb.leg_target(taken).and_then(|t| self.block_at(t))
                                            {
                                                // Static successor with no valid
                                                // link: form the link in-walk,
                                                // lowering the successor if need
                                                // be. The walk breaks only where
                                                // nothing can be lowered.
                                                self.uops.set_link(id, taken, nid);
                                                next = Some(nid);
                                            }
                                        }
                                        if let Some(nid) = next {
                                            if u64::from(self.uops.block(nid).len)
                                                <= max_steps - done
                                            {
                                                self.trace.chained += 1;
                                                id = nid;
                                                continue;
                                            }
                                            // Valid successor but the
                                            // budget can't fit it: end the
                                            // walk (counted as a break);
                                            // the link survives for the
                                            // next walk to follow.
                                        }
                                        self.trace.breaks.bump(kind);
                                        break;
                                    }
                                    BlockExit::CodeWrite { retired } => {
                                        let p = sb.prefix_stats(retired);
                                        done += u64::from(retired);
                                        insts += u64::from(retired);
                                        cycles += p.cycles;
                                        self.stats.loads += u64::from(p.loads);
                                        self.stats.stores += u64::from(p.stores);
                                        if threaded {
                                            t_thread += u64::from(retired);
                                        } else {
                                            t_super += u64::from(retired);
                                        }
                                        self.trace.code_write_exits += 1;
                                        resync = true;
                                        break;
                                    }
                                    BlockExit::Fault { retired, err } => {
                                        let p = sb.prefix_stats(retired);
                                        done += u64::from(retired);
                                        insts += u64::from(retired);
                                        cycles += p.cycles;
                                        self.stats.loads += u64::from(p.loads);
                                        self.stats.stores += u64::from(p.stores);
                                        if threaded {
                                            t_thread += u64::from(retired);
                                        } else {
                                            t_super += u64::from(retired);
                                        }
                                        self.trace.fault_exits += 1;
                                        fault = Some(err);
                                        break;
                                    }
                                }
                            }
                            self.trace.tier_super_insts += t_super;
                            self.trace.tier_threaded_insts += t_thread;
                            // Build queued threaded forms now the walk has
                            // released its borrows. `thread` is idempotent,
                            // so a block queued on several walks promotes
                            // (and counts) once.
                            if !self.promote.is_empty() {
                                let mut q = std::mem::take(&mut self.promote);
                                for pid in q.drain(..) {
                                    if self.uops.thread(pid) {
                                        self.trace.promotions += 1;
                                    }
                                }
                                self.promote = q;
                            }
                        }
                    }
                    if let Some(err) = fault {
                        break 'run Err(err);
                    }
                    if let Some(status) = exited {
                        break 'run Ok(Step::Exited(status));
                    }
                    if resync {
                        self.sync_uops();
                    }
                    if ran {
                        continue;
                    }
                }
                // Cold tier: the reference interpreter. Flush the block
                // totals first: `step` bills `self.stats` directly, and an
                // `ecall` it runs (in a pinned span or unwatched code) may
                // read the cycle counter.
                self.stats.instructions += std::mem::take(&mut insts);
                self.stats.cycles += std::mem::take(&mut cycles);
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
        self.stats.instructions += insts;
        self.stats.cycles += cycles;
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

    #[test]
    fn ic_knob_does_not_change_architectural_state() {
        let img = assemble(CALL_LOOP).unwrap();
        let mut on = Machine::load_native(&img, &[]);
        on.run_native(1_000_000).unwrap();
        let mut off = Machine::load_native(&img, &[]);
        off.set_indirect_ic_enabled(false);
        off.run_native(1_000_000).unwrap();
        assert_eq!(on.stats, off.stats, "pure dispatch optimisation");
        assert_eq!(on.env.output, off.env.output);
        assert!(
            off.trace.breaks.ret > on.trace.breaks.ret,
            "with the IC off every ret breaks its trace"
        );
        assert_eq!(off.trace.ic_hits, 0);
    }

    /// Every service inside loops hot enough to thread: `getc`, `putc`,
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
    fn ecall_services_match_step_in_every_tier() {
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
        for threshold in [0, DEFAULT_THREADED_THRESHOLD, THREADED_NEVER] {
            for chaining in [true, false] {
                for budget in (1..=12).chain([Machine::BLOCK_STEPS]) {
                    let tag =
                        format!("threshold {threshold}, chaining {chaining}, budget {budget}");
                    let mut m = Machine::load_native(&img, input);
                    m.set_threaded_threshold(threshold);
                    m.set_chaining_enabled(chaining);
                    for (pass, want) in want.iter().enumerate() {
                        m.cpu.pc = img.entry;
                        let entries = m.trace.entries;
                        let code = run_to_exit(&mut m, Some(budget));
                        assert_eq!(&outcome(&m, code), want, "{tag}, pass {pass}");
                        if pass == 1 && threshold == 0 && chaining && budget > 1000 {
                            // Every block is threaded and linked by now, so
                            // the second pass is one threaded chain: its
                            // sentinels service `getc`, `puti` and every
                            // `cycles` in-chain, and chain into the exit
                            // block, whose `exit` the walk services.
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
        }
    }

    #[test]
    fn an_ecall_block_that_fills_the_budget_is_serviced_once() {
        let img = assemble(SERVICES).unwrap();
        let input = b"ab";
        let mut slow = Machine::load_native(&img, input);
        let code = run_to_exit(&mut slow, None);
        let want = outcome(&slow, code);
        for threshold in [0, DEFAULT_THREADED_THRESHOLD, THREADED_NEVER] {
            for chaining in [true, false] {
                let tag = format!("threshold {threshold}, chaining {chaining}");
                let mut m = Machine::load_native(&img, input);
                m.set_threaded_threshold(threshold);
                m.set_chaining_enabled(chaining);
                // The entry block, `li` and the first `getc`, uses up a
                // budget of two: the walk services the call and ends there.
                assert_eq!(m.run_block(2).unwrap(), Step::Running, "{tag}");
                assert_eq!(m.stats.instructions, 2, "{tag}");
                assert_eq!(m.trace.tier_interp_insts, 0, "{tag}: no cold step");
                assert_eq!(m.trace.breaks.ecall, 1, "{tag}");
                assert_eq!(m.cpu.get(Reg::RV), i32::from(b'a'), "{tag}");
                assert_eq!(m.cpu.pc, img.entry + 8, "{tag}");
                let code = run_to_exit(&mut m, Some(Machine::BLOCK_STEPS));
                assert_eq!(outcome(&m, code), want, "{tag}: each byte read once");
            }
        }
    }

    #[test]
    fn an_exit_block_with_a_link_still_ends_the_run() {
        // A walk ends the run at every `exit`, so an exit block never
        // links its fall-through leg. Link it by hand to the threaded
        // block after it: the sentinel must still leave the `exit` to the
        // walk rather than service it and chain on.
        let img = assemble("_start: li a0, 7\n ecall 0\n addi t0, t0, 1\n j _start").unwrap();
        let mut m = Machine::load_native(&img, &[]);
        m.set_threaded_threshold(0);
        assert_eq!(m.run_block(100).unwrap(), Step::Exited(7));
        let exit_block = m.uops.id_at(img.entry).expect("exit block lowered");
        let after = m.block_at(img.entry + 8).expect("block after the exit");
        assert!(m.uops.block(exit_block).is_threaded() && m.uops.block(after).is_threaded());
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
        // Two threaded blocks in one tcache page: A = two ALU words and a
        // jump to B; B = two ALU words up to a halt.
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
        m.set_threaded_threshold(0);
        m.mem.write_words(base, &words).unwrap();
        m.cpu.pc = base;
        assert_eq!(m.run_block(1_000).unwrap(), Step::Exited(0));
        let a = m.uops.id_at(base).expect("block A lowered");
        let b = m.uops.id_at(base + 12).expect("block B lowered");
        assert!(m.uops.block(a).is_threaded() && m.uops.block(b).is_threaded());
        let demotions = m.trace.demotions;

        m.mem.write_u32(base + 16, addi(Reg::T1, 5)).unwrap();
        m.sync_uops();
        assert_eq!(m.uops.id_at(base), Some(a), "A keeps its arena id");
        assert!(m.uops.block(a).is_threaded(), "A keeps its threaded body");
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
            for threshold in [DEFAULT_THREADED_THRESHOLD, 0] {
                let tag = format!("threshold {threshold}, ic_fills {ic_fills}");
                let mut m = Machine::blank(&[]);
                m.set_threaded_threshold(threshold);
                m.mem.write_words(base, &words).unwrap();
                m.cpu.set(Reg::T1, tail as i32);
                m.cpu.pc = base;
                assert_eq!(m.run_block(1_000).unwrap(), Step::Exited(0), "{tag}");
                assert_eq!(m.trace.entries, 1, "{tag}");
                assert_eq!(m.trace.chained, chained, "{tag}");
                assert_eq!(m.trace.ic_fills, ic_fills, "{tag}");
            }
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
}
