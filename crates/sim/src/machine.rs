//! The complete simulated embedded machine: CPU + memory + environment.
//!
//! A [`Machine`] owns everything needed to run an [`Image`] *natively* (no
//! software cache — the paper's "ideal" baseline) and exposes the pieces the
//! softcache cache controller needs to drive execution itself: public
//! [`Cpu`], [`Memory`] and statistics, and the cost model through
//! [`Machine::cost`].

use crate::cost::CostModel;
use crate::cpu::{Cpu, Next, SimError, Trap};
use crate::decode_cache::DecodeCache;
use crate::mem::Memory;
use crate::uop::{self, BlockExit, TermKind, UopCache};
use softcache_isa::cf::rel_target;
use softcache_isa::image::Image;
use softcache_isa::inst::Inst;
use softcache_isa::layout::{
    DATA_BASE, FP_SENTINEL, MEM_SIZE, STACK_FLOOR, STACK_TOP, TCACHE_BASE,
};
use softcache_isa::reg::Reg;
use softcache_isa::INST_BYTES;

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
/// each class of terminator because no valid successor (static link or
/// inline cache) was available — or because the step budget could not fit
/// the successor block.
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
/// hand-offs in between).
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
    /// Instructions retired by the per-instruction path inside
    /// [`Machine::run_block`] (the cold tier). Tier counters cover
    /// `run_block` execution only — `step`/`step_slow` drivers bypass
    /// them.
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

/// A trace walk that broke on a formable successor leaves the fill
/// request here; the very next loop-top lookup — still at the successor
/// PC, nothing has run in between — completes it.
enum PendingFill {
    /// Form the static link for (`id`, `taken`) via `UopCache::set_link`.
    Static { id: u32, taken: bool },
    /// Fill block `id`'s indirect-terminator inline cache with the
    /// current PC (the target the terminator just computed).
    Indirect { id: u32 },
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
    /// Predecoded fast-path instruction cache (invalidated through the
    /// [`Memory`] code-write barrier).
    decode: DecodeCache,
    /// Superblock micro-op cache — straight-line runs lowered to flat
    /// micro-op arrays with precomputed cycle totals (same write barrier;
    /// the machine keeps both caches' generations in lockstep).
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
        // translation cache; only writes there need to invalidate decodes,
        // so the hot data/stack stores skip the generation bump.
        mem.set_code_watch([(0, DATA_BASE), (TCACHE_BASE, STACK_FLOOR)]);
        let cost = CostModel::default();
        Machine {
            cpu,
            mem,
            env: Env::with_input(input),
            cost,
            stats: ExecStats::default(),
            decode: DecodeCache::new(cost),
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

    /// Bring both predecode caches (instruction slots and superblocks) up
    /// to date with `mem`'s code generation. The dirty span is destroyed
    /// on take, so this is the *only* place either cache may consume it —
    /// both invalidate from the same span and adopt the same generation.
    #[inline]
    fn sync_caches(&mut self) {
        let generation = self.mem.code_gen();
        if self.decode.generation() != generation || self.uops.generation() != generation {
            if let Some((lo, hi)) = self.mem.take_dirty_code() {
                self.decode.invalidate_span(lo, hi);
                self.uops.invalidate_span(lo, hi);
                self.trace.demotions += self.uops.take_threaded_drops();
            }
            self.decode.set_generation(generation);
            self.uops.set_generation(generation);
        }
    }

    /// Service an `ecall` trap.
    fn ecall(&mut self, code: u16) -> Step {
        match code {
            syscall::EXIT => {
                let code = self.cpu.get(Reg::A0);
                self.env.exit_code = Some(code);
                return Step::Exited(code);
            }
            syscall::PUTC => self.env.output.push(self.cpu.get(Reg::A0) as u8),
            syscall::GETC => {
                let v = self.env.getc();
                self.cpu.set(Reg::RV, v);
            }
            syscall::CYCLES => self.cpu.set(Reg::RV, self.stats.cycles as i32),
            syscall::PUTI => {
                let v = self.cpu.get(Reg::A0);
                self.env.output.extend_from_slice(v.to_string().as_bytes());
            }
            _ => {
                // Unknown services are ignored (reads yield 0), so images
                // built for richer environments still run.
                self.cpu.set(Reg::RV, 0);
            }
        }
        Step::Running
    }

    /// Execute one instruction through the predecoded fast path,
    /// accounting statistics and servicing `ecall`s. Softcache traps
    /// surface as [`Step::Trapped`].
    #[inline]
    pub fn step(&mut self) -> Result<Step, SimError> {
        self.sync_caches();
        let (inst, cost, cost_taken) = self.decode.fetch(self.cpu.pc, &self.mem)?;
        let (next, taken) = self.cpu.execute(inst, &mut self.mem)?;
        self.stats.account(inst, taken);
        self.stats.cycles += if taken { cost_taken } else { cost };
        self.finish(next)
    }

    /// Execute one instruction through the original fetch+decode slow path.
    /// Kept alive as the reference semantics: differential tests assert the
    /// fast path produces bit-identical cycles, stats and output.
    pub fn step_slow(&mut self) -> Result<Step, SimError> {
        let (inst, next, taken) = self.cpu.step(&mut self.mem)?;
        self.stats.account(inst, taken);
        self.stats.cycles += self.cost.cycles_for(inst, taken);
        self.finish(next)
    }

    #[inline]
    fn finish(&mut self, next: Next) -> Result<Step, SimError> {
        match next {
            Next::Continue => Ok(Step::Running),
            Next::Halted => {
                let code = self.env.exit_code.unwrap_or(0);
                Ok(Step::Exited(code))
            }
            Next::Trap(Trap::Ecall { code }) => Ok(self.ecall(code)),
            Next::Trap(t) => Ok(Step::Trapped(t)),
        }
    }

    /// The decoded instruction at the current PC, via the decode cache,
    /// without executing it. Lets drivers that inspect every instruction
    /// (the software data-cache runtimes) share the fast path.
    #[inline]
    pub fn peek_inst(&mut self) -> Result<Inst, SimError> {
        self.sync_caches();
        self.decode.fetch(self.cpu.pc, &self.mem).map(|(i, _, _)| i)
    }

    /// The cycle cost model, fixed at construction.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Enable or disable superblock execution in [`Machine::run_block`].
    /// Accounting is bit-identical either way; `check_all_engines` in
    /// `tests/end_to_end.rs` checks each dispatch setting against the
    /// slow path.
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

    /// Pin `[lo, hi)` to the per-instruction slow path: superblock
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

    /// Drop the cached decode slots and superblocks that depend on a word
    /// in `[lo, hi)` *without* a code-write generation bump. The cache
    /// controller calls this when it evicts a single chunk: the span's
    /// addresses are about to be recycled, so its host-side lowerings are
    /// garbage, but the rest of the tcache is untouched and survivors keep
    /// their slots, arena ids and threaded bodies. A dropped block's id is
    /// not reused before the generation moves on, so links and inline
    /// caches into it stay safe to follow until the next write into the span —
    /// a fresh install — severs them through the ordinary barrier. This
    /// is hygiene — reclaiming dead lowering state eagerly and keeping the
    /// demotion ledger exact — not a correctness requirement. Host-side
    /// only: simulated results are bit-identical with or without the call.
    pub fn invalidate_code_span(&mut self, lo: u32, hi: u32) {
        // Consume any pending dirty span first so this invalidation cannot
        // race the barrier's own bookkeeping.
        self.sync_caches();
        self.decode.invalidate_span(lo, hi);
        self.uops.invalidate_span(lo, hi);
        self.trace.demotions += self.uops.take_threaded_drops();
    }

    /// Eagerly predecode `[lo, hi)` at block starts: lower the superblock
    /// at `lo`, then the next at each lowered block's `exit_pc`, stepping
    /// one word over words not worth lowering. Each installed word is
    /// decoded once. The cache controller calls this after installing or
    /// backpatching a chunk — it knows the chunk boundaries, so its
    /// straight-line path is lowered once at install time instead of
    /// lazily on first execution; blocks entered mid-chunk (branch
    /// targets) still lower lazily on first entry. Links are not formed
    /// here: the first walk through each leg forms it in-walk, since the
    /// successor is already lowered. Purely an optimisation: lazy fill
    /// behind the generation barrier gives identical results. With the
    /// superblock engine off this is a no-op — eager work on installed
    /// words that may never execute is pure waste there, while the
    /// per-instruction path fills its decode slots lazily at the same cost.
    pub fn predecode_range(&mut self, lo: u32, hi: u32) {
        if !self.superblocks {
            return;
        }
        self.sync_caches();
        let mut pc = lo & !3;
        while pc < hi {
            let id = match self.uops.lookup(pc) {
                uop::Lookup::Id(id) => Some(id),
                uop::Lookup::NotWorth => None,
                uop::Lookup::Unknown => self.lower_at(pc),
            };
            pc = match id {
                Some(id) => self.uops.block(id).exit_pc(),
                None => pc.wrapping_add(INST_BYTES),
            };
        }
    }

    /// Lower the superblock starting at `pc` and record the verdict,
    /// returning the new block's arena id. Threshold 0 means "always
    /// threaded": handlers are bound at lowering time, whether eager or
    /// lazy.
    fn lower_at(&mut self, pc: u32) -> Option<u32> {
        let sb = uop::lower(&mut self.decode, &self.mem, pc);
        let id = self.uops.insert(pc, sb)?;
        if self.threaded && self.threaded_threshold == 0 && self.uops.thread(id) {
            self.trace.promotions += 1;
        }
        Some(id)
    }

    /// Generic tail of a fast-path step for the variants the fused
    /// [`Machine::run_block`] loop does not inline (traps, halts,
    /// environment calls): execute + classify + bill, exactly as
    /// [`Machine::step`] would.
    fn step_rest(&mut self, inst: Inst, cost: u64, cost_taken: u64) -> Result<Step, SimError> {
        let (next, taken) = self.cpu.execute(inst, &mut self.mem)?;
        self.stats.account(inst, taken);
        self.stats.cycles += if taken { cost_taken } else { cost };
        self.finish(next)
    }

    /// Run up to `max_steps` fast-path steps, stopping early on exit or
    /// trap. Returns [`Step::Running`] exactly when the whole budget was
    /// consumed. This is the interpreter's hot loop: the common instruction
    /// variants are executed inline off the predecoded slot with their
    /// statistics bumped in the matching arm, so each retired instruction
    /// dispatches on its opcode once (instead of execute + account + cost
    /// re-matching it), and the instruction/cycle totals accumulate in
    /// locals flushed at block exit. Accounting is bit-identical to
    /// [`Machine::step_slow`] — the differential tests hold it there.
    pub fn run_block(&mut self, max_steps: u64) -> Result<Step, SimError> {
        self.sync_caches();
        let mut done = 0u64; // steps retired this block
        let mut insts = 0u64; // retired since the last stats flush
        let mut cycles = 0u64;
        // A trace that broke on a formable successor (unformed static
        // link, or an indirect terminator whose inline cache missed)
        // leaves the fill request here; the very next loop-top block
        // lookup — still at the successor PC, nothing has run in between
        // — completes it so the next walk through this terminator chains
        // straight across.
        let mut pending: Option<PendingFill> = None;
        // Instructions retired on the per-instruction (interpreter) tier
        // this call; flushed with the stats locals below.
        let mut t_interp = 0u64;
        let result = 'run: {
            while done < max_steps {
                let pc = self.cpu.pc;
                // Superblock fast path: execute a whole lowered run with
                // one dispatch walk and one cycle add, then *chain* into
                // the successor block while its generation-stamped link is
                // valid — one budget check and one arena index per link,
                // no loop-top lookup. Falls through to the per-instruction
                // path at unlowerable slots and when the remaining budget
                // cannot fit the next whole block (so `Step::Running`
                // still means the budget was consumed exactly).
                if self.superblocks && pc & 3 == 0 {
                    // One page walk covers the common "already cached"
                    // case; a miss lowers and dispatches straight into the
                    // fresh block off `insert`'s returned id.
                    let hit = match self.uops.lookup(pc) {
                        uop::Lookup::Id(id) => Some(id),
                        uop::Lookup::NotWorth => None,
                        uop::Lookup::Unknown => self.lower_at(pc),
                    };
                    let mut ran = false;
                    let mut resync = false;
                    let mut fault = None;
                    if let Some(first) = hit {
                        match pending.take() {
                            Some(PendingFill::Static { id, taken }) => {
                                self.uops.set_link(id, taken, first);
                            }
                            Some(PendingFill::Indirect { id }) => {
                                // `pc` is the target the indirect
                                // terminator computed one iteration ago.
                                self.uops.set_ic(id, pc, first);
                                self.trace.ic_fills += 1;
                            }
                            None => {}
                        }
                        // Valid for the whole walk: a code write exits the
                        // trace (BlockExit::CodeWrite) before the stamp
                        // could go stale.
                        let entry_gen = self.mem.code_gen();
                        let mut id = first;
                        // The first block must fit the remaining budget;
                        // the per-instruction path consumes a too-small
                        // tail exactly.
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
                                        &mut self.stats,
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
                                                // chain. A miss whose target is
                                                // already lowered refills the cache
                                                // in-walk and keeps walking.
                                                if self.indirect_ic {
                                                    let pc = self.cpu.pc;
                                                    let (target, ic) = sb.ic();
                                                    if ic.stamp == entry_gen && target == pc {
                                                        self.trace.ic_hits += 1;
                                                        next = Some(ic.id);
                                                    } else if let Some(nid) = self.uops.id_at(pc) {
                                                        self.uops.set_ic(id, pc, nid);
                                                        self.trace.ic_fills += 1;
                                                        next = Some(nid);
                                                    } else {
                                                        pending =
                                                            Some(PendingFill::Indirect { id });
                                                    }
                                                }
                                            } else if let Some(t) = sb.leg_target(taken) {
                                                // Static successor with no valid
                                                // link: form it in-walk when the
                                                // target block already exists;
                                                // otherwise let the next loop-top
                                                // lookup lower it and complete the
                                                // fill.
                                                if let Some(nid) = self.uops.id_at(t) {
                                                    self.uops.set_link(id, taken, nid);
                                                    next = Some(nid);
                                                } else {
                                                    pending =
                                                        Some(PendingFill::Static { id, taken });
                                                }
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
                    if resync {
                        self.sync_caches();
                    }
                    if ran {
                        continue;
                    }
                }
                // Per-instruction path: any fill half-requested above is
                // stale the moment an unchained instruction retires.
                pending = None;
                let (inst, cost, cost_taken) = match self.decode.fetch(pc, &self.mem) {
                    Ok(t) => t,
                    Err(e) => break 'run Err(e),
                };
                let next_pc = pc.wrapping_add(INST_BYTES);
                match inst {
                    Inst::Alu { op, rd, rs1, rs2 } => {
                        let v = op.eval(self.cpu.get(rs1), self.cpu.get(rs2));
                        self.cpu.set(rd, v);
                        self.cpu.pc = next_pc;
                    }
                    Inst::AluImm { op, rd, rs1, imm } => {
                        let v = op.eval(self.cpu.get(rs1), imm);
                        self.cpu.set(rd, v);
                        self.cpu.pc = next_pc;
                    }
                    Inst::Lui { rd, imm } => {
                        self.cpu.set(rd, ((imm as u32) << 16) as i32);
                        self.cpu.pc = next_pc;
                    }
                    Inst::Load {
                        width,
                        signed,
                        rd,
                        base,
                        off,
                    } => {
                        let addr = (self.cpu.get(base) as u32).wrapping_add(off as i32 as u32);
                        match self.mem.load(addr, width, signed) {
                            Ok(v) => {
                                self.cpu.set(rd, v);
                                self.cpu.pc = next_pc;
                                self.stats.loads += 1;
                            }
                            Err(fault) => break 'run Err(SimError::DataFault { pc, fault }),
                        }
                    }
                    Inst::Store {
                        width,
                        src,
                        base,
                        off,
                    } => {
                        let addr = (self.cpu.get(base) as u32).wrapping_add(off as i32 as u32);
                        match self.mem.store(addr, width, self.cpu.get(src)) {
                            Ok(()) => {
                                self.cpu.pc = next_pc;
                                self.stats.stores += 1;
                                // The store may have patched code
                                // (self-modifying programs); one compare
                                // when it did not.
                                if self.decode.stale(&self.mem) {
                                    self.sync_caches();
                                }
                            }
                            Err(fault) => break 'run Err(SimError::DataFault { pc, fault }),
                        }
                    }
                    Inst::Branch {
                        cond,
                        rs1,
                        rs2,
                        off,
                    } => {
                        self.stats.branches += 1;
                        if cond.eval(self.cpu.get(rs1), self.cpu.get(rs2)) {
                            self.stats.taken_branches += 1;
                            self.cpu.pc = rel_target(pc, off as i32);
                            done += 1;
                            insts += 1;
                            t_interp += 1;
                            cycles += cost_taken;
                            continue;
                        }
                        self.cpu.pc = next_pc;
                    }
                    Inst::J { off } => {
                        self.cpu.pc = rel_target(pc, off);
                    }
                    Inst::Jal { off } => {
                        self.cpu.set(Reg::RA, next_pc as i32);
                        self.cpu.pc = rel_target(pc, off);
                        self.stats.calls += 1;
                    }
                    Inst::Jr { rs } => {
                        self.cpu.pc = self.cpu.get(rs) as u32;
                    }
                    Inst::Jalr { rs } => {
                        let target = self.cpu.get(rs) as u32;
                        self.cpu.set(Reg::RA, next_pc as i32);
                        self.cpu.pc = target;
                        self.stats.calls += 1;
                    }
                    Inst::Ret => {
                        self.cpu.pc = self.cpu.get(Reg::RA) as u32;
                        self.stats.returns += 1;
                    }
                    Inst::Nop => {
                        self.cpu.pc = next_pc;
                    }
                    // Rare control — halts, environment calls, softcache
                    // traps — takes the generic path. Flush the local
                    // accumulators first: `step_rest` bills through
                    // `self.stats`, and an `ecall` may read the cycle
                    // counter.
                    other => {
                        self.stats.instructions += insts;
                        self.stats.cycles += cycles;
                        insts = 0;
                        cycles = 0;
                        match self.step_rest(other, cost, cost_taken) {
                            Ok(Step::Running) => {
                                done += 1;
                                t_interp += 1;
                                // The handler may have touched memory.
                                self.sync_caches();
                                continue;
                            }
                            Ok(stop) => break 'run Ok(stop),
                            Err(e) => break 'run Err(e),
                        }
                    }
                }
                done += 1;
                insts += 1;
                t_interp += 1;
                cycles += cost;
            }
            Ok(Step::Running)
        };
        self.stats.instructions += insts;
        self.stats.cycles += cycles;
        self.trace.tier_interp_insts += t_interp;
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
        m.predecode_range(base, base + 24);
        let a = m.uops.id_at(base).expect("block A lowered");
        let b = m.uops.id_at(base + 12).expect("block B lowered");
        assert!(m.uops.block(a).is_threaded() && m.uops.block(b).is_threaded());
        let demotions = m.trace.demotions;

        m.mem.write_u32(base + 16, addi(Reg::T1, 5)).unwrap();
        m.sync_caches();
        assert_eq!(m.uops.id_at(base), Some(a), "A keeps its arena id");
        assert!(m.uops.block(a).is_threaded(), "A keeps its threaded body");
        assert!(
            (0..3).all(|i| m.decode.is_cached(base + 4 * i)),
            "A's decodes kept"
        );
        assert_eq!(m.uops.lookup(base + 12), uop::Lookup::Unknown, "B dropped");
        assert!(
            !m.decode.is_cached(base + 16),
            "the written word's decode dropped"
        );
        assert_eq!(m.trace.demotions, demotions + 1, "exactly B demoted");
    }

    #[test]
    fn predecode_lowers_at_block_starts_only() {
        // A chunk: 8 ALU words, a branch back to its start, 3 miss stubs.
        let base = TCACHE_BASE;
        let mut words: Vec<u32> = (0..8).map(|i| addi(Reg::T0, i)).collect();
        words.push(softcache_isa::encode(Inst::Branch {
            cond: softcache_isa::inst::BranchCond::Ne,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            off: -9,
        }));
        words.extend((0..3).map(|idx| softcache_isa::encode(Inst::Miss { idx })));
        let mut m = Machine::blank(&[]);
        m.mem.write_words(base, &words).unwrap();
        m.predecode_range(base, base + 4 * words.len() as u32);
        let id = m.uops.id_at(base).expect("one block at the chunk start");
        assert_eq!(m.uops.block(id).len, 9);
        for k in 1..=8 {
            let pc = base + 4 * k;
            assert_eq!(m.uops.lookup(pc), uop::Lookup::Unknown, "mid-body word {k}");
        }
        for k in 9..12 {
            let pc = base + 4 * k;
            assert_eq!(m.uops.lookup(pc), uop::Lookup::NotWorth, "stub {k}");
        }
    }

    #[test]
    fn predecoded_chunk_chains_on_its_first_walk() {
        // A straight-line chunk of four blocks, each an ALU word and a
        // jump to the next, the last ending at a halt. Predecode lowers
        // every block; the first walk then runs the whole chunk as one
        // trace, forming each static link as it takes the leg.
        let blocks = 4u64;
        let base = TCACHE_BASE;
        let mut words = Vec::new();
        for i in 0..blocks as i32 {
            words.push(addi(Reg::T0, i));
            if i + 1 < blocks as i32 {
                words.push(softcache_isa::encode(Inst::J { off: 0 }));
            }
        }
        words.push(softcache_isa::encode(Inst::Halt));
        for threshold in [DEFAULT_THREADED_THRESHOLD, 0] {
            let mut m = Machine::blank(&[]);
            m.set_threaded_threshold(threshold);
            m.mem.write_words(base, &words).unwrap();
            m.predecode_range(base, base + 4 * words.len() as u32);
            m.cpu.pc = base;
            assert_eq!(m.run_block(1_000).unwrap(), Step::Exited(0));
            assert_eq!(m.trace.entries, 1, "threshold {threshold}");
            assert_eq!(m.trace.chained, blocks - 1, "threshold {threshold}");
        }
    }
}
