//! Superblock engine — the simulator's cache of decoded code.
//!
//! The reference interpreter ([`crate::Machine::step`]) fetches, decodes,
//! matches on the `Inst` enum and bills a cycle cost for every retired
//! instruction. This module lowers each straight-line run of instructions
//! (a *superblock*, in the Dynamo / Embra sense) straight into a threaded
//! handler array — one pre-bound handler per instruction, with its
//! register indices and immediate pre-extracted, then a block-exit
//! sentinel — with a **precomputed per-block cycle total**, so
//! [`crate::Machine::run_block`] executes a whole superblock with one
//! handler chain and one cycle add. Lowering reads each word from
//! [`Memory`], decodes it, prices it under the machine's [`CostModel`] and
//! binds its handler, once per word per code write; the handler array is
//! the block's only executable form, as the paper's controller runs every
//! chunk it installs as rewritten code from its first execution.
//!
//! A superblock is a body of simple instructions (ALU, load, store, `lui`,
//! `nop`) ended by at most one terminator: a control-flow instruction
//! (branch / jump / call / return) whose targets are resolved to absolute
//! PCs at lowering time, or an environment call (`ecall`), which retires
//! with the block and which the block's exit sentinel services once the
//! block is billed. Halts and the cache controller's traps
//! (`halt`, `miss`, `jrh`/`jalrh`) are never lowered — execution falls
//! back to `Machine::step` there, exactly as it does at words not worth
//! lowering and on the remainder of an almost-exhausted step budget.
//!
//! Correctness under self-modifying code rides on the [`Memory`]
//! code-write generation barrier, whose only consumer this cache is: a
//! dirty span drops exactly the superblocks that depend on a written word
//! — every word from a block's start through its `exit_pc` — and the "not
//! worth lowering" memos of the written words themselves. Blocks
//! elsewhere, in the same page included, keep their arena ids and handler
//! arrays. Stores inside a block re-check the generation and retire only
//! the prefix when they patch code, so CC backpatching and SMC remain
//! bit-identical to the reference interpreter.
//!
//! **Chaining (trace formation).** Each terminator leg with a statically
//! known next PC (fall-through, direct branch taken/not-taken, direct
//! jump/call) carries a [`Link`]: the arena id of the successor superblock
//! stamped with the code-write generation it was formed under. One rule
//! takes every block to its successor. The block's exit sentinel evaluates
//! the terminator, bills the whole block, services its `ecall` (`exit`
//! included), and then follows the link with a *single* compare (`stamp ==
//! entry_gen`) straight into the successor's handler array when the
//! successor fits the step budget. A leg with no valid link goes back to
//! the machine's trace walk, the one place links are formed. Any code
//! write bumps the generation, so every existing link is severed by that
//! same compare; a link re-forms the next time a walk takes its leg, and
//! that walk lowers the successor first if none is cached (the paper
//! likewise rewrites a branch when it is first taken). So a block is
//! lowered when execution first reaches it, at the loop top or in a walk,
//! and never ahead of execution. A dropped block's arena id is reused only
//! after the generation has moved on, so a link stamped with the current
//! generation always names a block whose contents are unchanged.
//!
//! Register-indirect terminators (`jr`, `jalr`, `ret`) have no *static*
//! link — their next PC is data-dependent — but each carries a per-site
//! **inline cache**: the last observed target PC plus its superblock arena
//! id, stamped with the forming generation and validated exactly like a
//! static link (stamp compare, then a target-PC compare against the value
//! the terminator just computed). Monomorphic indirects therefore chain
//! without leaving the trace. A changed target or a code write refills the
//! cache in-walk the next time the terminator runs, lowering the new
//! target if need be — so a `ret` shared by several call sites keeps
//! chaining.

use crate::cost::CostModel;
use crate::cpu::{self, Cpu, SimError};
use crate::machine::{Env, ExecStats, Step, TraceStats};
use crate::mem::{MemFault, Memory};
use softcache_isa::cf::rel_target;
use softcache_isa::inst::{AluOp, BranchCond, Inst, MemWidth};
use softcache_isa::reg::Reg;
use softcache_isa::INST_BYTES;

/// Superblock slots per page: 1024 slots = 4 KiB of code.
const PAGE_SLOTS: usize = 1024;
const PAGE_SHIFT: u32 = 10;

/// Longest superblock body (instructions before the terminator).
pub(crate) const MAX_BODY: usize = 64;

/// Widest span of code any superblock can depend on, in bytes: its words
/// from `start` through `exit_pc`, at most [`MAX_BODY`] + 1 of them. An
/// upper bound only: invalidation scans back by the widest span actually
/// inserted ([`UopCache::invalidate_span`]), which never exceeds this.
const MAX_SPAN_BYTES: u32 = ((MAX_BODY + 1) * INST_BYTES as usize) as u32;

/// Shared state a threaded chain runs against: the machine halves every
/// handler needs, the entry generation for the store-time code-write check,
/// and what the block-exit sentinels need to bill each block, service its
/// call and chain handler-array to handler-array without returning to the
/// machine's trace walk: the arena (shared — all mutation stays in the
/// walk), the step budget, the billing accumulators, and the environment
/// calls are serviced against.
struct Tctx<'a> {
    uops: &'a UopCache,
    env: &'a mut Env,
    /// `ExecStats::cycles` at chain entry; with [`Tctx::cycles`] it is the
    /// counter an in-chain `cycles` call reads.
    cycle_base: u64,
    entry_gen: u64,
    /// Arena id of the block the chain is currently inside. Partial
    /// retires are relative to this block, not the entry block.
    cur: u32,
    /// Steps retired this `run_block` call, including every block this
    /// chain billed: the budget the follow helpers check.
    done: u64,
    max_steps: u64,
    /// Instructions, cycles, loads, stores and terminator outcomes billed
    /// in-chain — accumulated locally and flushed into `ExecStats` once per
    /// trace run, so the hot transition path never chases the stats
    /// pointer.
    insts: u64,
    cycles: u64,
    loads: u64,
    stores: u64,
    branches: u64,
    taken_branches: u64,
    calls: u64,
    returns: u64,
    /// In-chain block transitions, for [`TraceStats::chained`].
    chained: u64,
    /// Inline-cache predictions that matched, for [`TraceStats::ic_hits`]:
    /// counted whether or not the budget let the chain follow them.
    ic_hits: u64,
    /// Fault payload for a [`TExit::Fault`] return (kept out of `TExit`
    /// so the enum stays register-sized; see its doc).
    fault: Option<MemFault>,
    /// Status of the `exit` call that ended the chain with [`TExit::End`].
    exited: Option<i32>,
}

impl Tctx<'_> {
    /// Bill the first `retired` instructions of the current block, all of
    /// it that retired before a code write or a fault cut it short, and
    /// leave `cpu.pc` on the instruction after them.
    #[cold]
    fn bill_prefix(&mut self, cpu: &mut Cpu, retired: u32) {
        let sb = self.uops.block(self.cur);
        let p = sb.prefix_stats(retired);
        self.done += u64::from(retired);
        self.insts += u64::from(retired);
        self.cycles += p.cycles;
        self.loads += u64::from(p.loads);
        self.stores += u64::from(p.stores);
        cpu.pc = sb.start + INST_BYTES * retired;
    }
}

/// How a threaded chain ended. `rem` is the number of slots *remaining*
/// (current included) when the exit fired — the caller recovers the
/// micro-op index as `slots - rem` without the chain threading an index
/// through every call.
///
/// Deliberately register-sized (8 bytes): a bigger enum would be returned
/// through a hidden sret pointer, which defeats LLVM's sibling-call
/// optimisation and gives every handler a stack frame. Keeping the return
/// in registers is what lets the `chain` calls compile to plain `jmp`s —
/// the fault payload travels through [`Tctx::fault`] instead (cold path),
/// the `exit` status through [`Tctx::exited`], and the chain successor
/// through [`Tctx::cur`].
enum TExit {
    /// The block retired, is billed and its call serviced, but its
    /// executed leg has no valid link, or its inline cache did not predict
    /// the target. The walk forms the link or fills the cache.
    Unlinked { taken: bool },
    /// The block retired and is billed, and the chain follows its link:
    /// `Tctx::cur` is already the successor's id.
    Chain,
    /// The block retired and is billed, and the walk ends there: its
    /// successor does not fit the budget, or its call was `exit`.
    End,
    /// A store patched code; the store itself retired.
    CodeWrite { rem: u32 },
    /// The micro-op faulted without retiring; fault in [`Tctx::fault`].
    Fault { rem: u32 },
}

/// A pre-bound micro-op handler: the engine's unit of dispatch, one
/// function per operation and addressing form, bound into the block's
/// slot array at lowering time. `ops[0]` is the handler's own slot; after
/// executing it the handler *itself* calls the next slot's handler on
/// `ops[1..]` (direct threading), so every handler kind owns a distinct
/// indirect-call site — the branch predictor learns per-pair successor
/// targets instead of sharing one megamorphic dispatch site. The chain is
/// bounded by [`MAX_BODY`]` + 1` slots per block (the block-exit sentinel
/// unwinds to [`UopCache::execute_trace`]'s trampoline before entering the
/// next block), so the call depth is small and the returns all come off
/// the return-stack predictor.
type Handler = fn(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit;

/// Fall through to the next slot. `#[inline(always)]` so the indirect
/// call is stamped into each handler (one call site per kind), not shared.
#[inline(always)]
fn chain(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let rest = &ops[1..];
    (rest[0].h)(rest, cpu, mem, ctx)
}

/// The ALU handlers, one per operation in register form and one in
/// immediate form (`imm` already extended by the decoder). Each evaluates
/// through [`AluOp::eval`], the definition [`Cpu::step`] uses, with the
/// operation fixed per handler, so its `match` folds away. Also defines
/// `alu_handler`, the binding [`lower`] uses.
macro_rules! alu_handlers {
    ($($op:ident: $reg:ident, $imm:ident;)*) => {
        $(
            fn $reg(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit {
                let u = &ops[0].u;
                cpu.set(u.rd, AluOp::$op.eval(cpu.get(u.rs1), cpu.get(u.rs2)));
                chain(ops, cpu, mem, ctx)
            }

            fn $imm(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit {
                let u = &ops[0].u;
                cpu.set(u.rd, AluOp::$op.eval(cpu.get(u.rs1), u.imm));
                chain(ops, cpu, mem, ctx)
            }
        )*

        /// The handler for `op` in register form, or immediate form when
        /// `imm` is set.
        fn alu_handler(op: AluOp, imm: bool) -> Handler {
            match (op, imm) {
                $((AluOp::$op, false) => $reg, (AluOp::$op, true) => $imm,)*
            }
        }
    };
}

alu_handlers! {
    Add: h_alu_add, h_imm_add;
    Sub: h_alu_sub, h_imm_sub;
    Mul: h_alu_mul, h_imm_mul;
    Div: h_alu_div, h_imm_div;
    Rem: h_alu_rem, h_imm_rem;
    And: h_alu_and, h_imm_and;
    Or: h_alu_or, h_imm_or;
    Xor: h_alu_xor, h_imm_xor;
    Sll: h_alu_sll, h_imm_sll;
    Srl: h_alu_srl, h_imm_srl;
    Sra: h_alu_sra, h_imm_sra;
    Slt: h_alu_slt, h_imm_slt;
    Sltu: h_alu_sltu, h_imm_sltu;
}

/// A memory micro-op faulted without retiring; the handler has parked
/// the fault in [`Tctx::fault`]. This and [`exit_code_write`] are how a
/// memory handler leaves early: out of line, cold and called in tail
/// position, so every exit of the handler, its `chain` step included,
/// compiles to a `jmp`. Built inline, the early exit's register packing
/// differs from a call result's, and LLVM compiles the `chain` step to a
/// `call`, a repack and a `ret`.
#[cold]
#[inline(never)]
fn exit_fault(ops: &[ThreadedOp]) -> TExit {
    TExit::Fault {
        rem: ops.len() as u32,
    }
}

/// A store patched code; the store itself retired (see [`exit_fault`]).
#[cold]
#[inline(never)]
fn exit_code_write(ops: &[ThreadedOp]) -> TExit {
    TExit::CodeWrite {
        rem: ops.len() as u32,
    }
}

macro_rules! load_handler {
    ($name:ident, $w:expr, $s:expr) => {
        fn $name(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit {
            let u = &ops[0].u;
            let addr = (cpu.get(u.rs1) as u32).wrapping_add(u.imm as u32);
            match mem.load(addr, $w, $s) {
                Ok(v) => {
                    cpu.set(u.rd, v);
                    chain(ops, cpu, mem, ctx)
                }
                Err(f) => {
                    ctx.fault = Some(f);
                    exit_fault(ops)
                }
            }
        }
    };
}

macro_rules! store_handler {
    ($name:ident, $w:expr) => {
        fn $name(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit {
            let u = &ops[0].u;
            let addr = (cpu.get(u.rs1) as u32).wrapping_add(u.imm as u32);
            match mem.store(addr, $w, cpu.get(u.rd)) {
                Ok(()) => {
                    // The store may have patched code: retire it and exit
                    // before the next micro-op, so the next instruction is
                    // read from the written memory, as `step` reads it.
                    if mem.code_gen() != ctx.entry_gen {
                        return exit_code_write(ops);
                    }
                    chain(ops, cpu, mem, ctx)
                }
                Err(f) => {
                    ctx.fault = Some(f);
                    exit_fault(ops)
                }
            }
        }
    };
}

load_handler!(h_load_w, MemWidth::W, false);
load_handler!(h_load_h, MemWidth::H, true);
load_handler!(h_load_hu, MemWidth::H, false);
load_handler!(h_load_b, MemWidth::B, true);
load_handler!(h_load_bu, MemWidth::B, false);
store_handler!(h_store_w, MemWidth::W);
store_handler!(h_store_h, MemWidth::H);
store_handler!(h_store_b, MemWidth::B);

fn h_lui(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let u = &ops[0].u;
    cpu.set(u.rd, u.imm);
    chain(ops, cpu, mem, ctx)
}

fn h_nop(ops: &[ThreadedOp], cpu: &mut Cpu, mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    chain(ops, cpu, mem, ctx)
}

/// Bill block `sb`, which retired whole, into the context: its
/// instructions, its cycles on the executed leg, its loads and stores.
/// Every exit sentinel calls it once its terminator has run, before it
/// services a call or follows a leg; the sentinel counts its terminator's
/// own class (branch, call, return) itself, as it knows it statically.
#[inline(always)]
fn bill(sb: &Superblock, taken: bool, ctx: &mut Tctx) {
    let len = u64::from(sb.len);
    ctx.done += len;
    ctx.insts += len;
    ctx.cycles += if taken { sb.cycles_tk } else { sb.cycles_nt };
    ctx.loads += u64::from(sb.loads);
    ctx.stores += u64::from(sb.stores);
}

/// Chain into block `next` when it fits the budget left after the billed
/// block, the walk's rule for its first block too, so `Step::Running`
/// still means the budget was used exactly; otherwise end the walk.
#[inline(always)]
fn enter(next: u32, ctx: &mut Tctx) -> TExit {
    if u64::from(ctx.uops.block(next).len) > ctx.max_steps - ctx.done {
        return TExit::End;
    }
    ctx.chained += 1;
    ctx.cur = next;
    TExit::Chain
}

/// Follow the executed leg's generation-stamped link when it is valid, so
/// hot traces cycle handler-array to handler-array without a walk
/// round-trip per block; an invalid link goes back to the walk to form.
#[inline(always)]
fn follow_link(sb: &Superblock, taken: bool, ctx: &mut Tctx) -> TExit {
    let link = sb.link(taken);
    if link.stamp != ctx.entry_gen {
        return TExit::Unlinked { taken };
    }
    enter(link.id, ctx)
}

/// Follow block `sb`'s inline cache when it predicts the target the
/// indirect terminator just computed. Indirect terminators never acquire
/// a static link, so this is their only in-chain leg. Fills and refills
/// stay with the walk (they take `&mut` arena state).
#[inline(always)]
fn follow_ic(sb: &Superblock, cpu: &Cpu, ctx: &mut Tctx) -> TExit {
    let (target, ic) = sb.ic();
    if ic.stamp != ctx.entry_gen || target != cpu.pc {
        return TExit::Unlinked { taken: false };
    }
    ctx.ic_hits += 1;
    enter(ic.id, ctx)
}

/// Exit sentinel for direct calls: follow the static callee link.
fn t_exit_call(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    let taken = match sb.term {
        Term::Call { target } => {
            cpu.set(Reg::RA, sb.exit_pc as i32);
            cpu.pc = target;
            false
        }
        _ => sb.finish_term(cpu),
    };
    bill(sb, taken, ctx);
    ctx.calls += 1;
    follow_link(sb, taken, ctx)
}

/// Exit sentinel for returns: the same inline cache as any other
/// register-indirect terminator.
fn t_exit_ret(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    let taken = match sb.term {
        Term::Ret => {
            cpu.pc = cpu.get(Reg::RA) as u32;
            false
        }
        _ => sb.finish_term(cpu),
    };
    bill(sb, taken, ctx);
    ctx.returns += 1;
    follow_ic(sb, cpu, ctx)
}

/// Exit sentinel for register-indirect jumps: follow the inline cache
/// when it already predicts the computed target.
fn t_exit_jumpreg(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    let taken = match sb.term {
        Term::JumpReg { rs } => {
            cpu.pc = cpu.get(rs) as u32;
            false
        }
        _ => sb.finish_term(cpu),
    };
    bill(sb, taken, ctx);
    follow_ic(sb, cpu, ctx)
}

/// Exit sentinel for register-indirect calls: the inline cache, like
/// [`t_exit_jumpreg`].
fn t_exit_callreg(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    let taken = match sb.term {
        Term::CallReg { rs } => {
            let target = cpu.get(rs) as u32;
            cpu.set(Reg::RA, sb.exit_pc as i32);
            cpu.pc = target;
            false
        }
        _ => sb.finish_term(cpu),
    };
    bill(sb, taken, ctx);
    ctx.calls += 1;
    follow_ic(sb, cpu, ctx)
}

/// Exit sentinel for fall-through blocks (`Term::None`): no terminator
/// work beyond the pc update, never a taken leg.
fn t_exit_fall(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    cpu.pc = sb.exit_pc;
    bill(sb, false, ctx);
    follow_link(sb, false, ctx)
}

/// Exit sentinel for direct jumps: pc goes to the static target, the
/// not-taken link is the followed leg. The `finish_term` fallback arm is
/// unreachable by construction (the sentinel is bound by terminator kind)
/// but keeps the dispatch safe without a panic path.
fn t_exit_jump(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    let taken = match sb.term {
        Term::Jump { target } => {
            cpu.pc = target;
            false
        }
        _ => sb.finish_term(cpu),
    };
    bill(sb, taken, ctx);
    follow_link(sb, taken, ctx)
}

/// Exit sentinel for conditional branches: evaluate the condition
/// in-line (the sentinel statically knows the terminator shape, so no
/// second `match` over `Term`) and count the outcome.
fn t_exit_branch(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    let taken = match sb.term {
        Term::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let t = cond.eval(cpu.get(rs1), cpu.get(rs2));
            cpu.pc = if t { target } else { sb.exit_pc };
            t
        }
        _ => sb.finish_term(cpu),
    };
    bill(sb, taken, ctx);
    ctx.branches += 1;
    ctx.taken_branches += u64::from(taken);
    follow_link(sb, taken, ctx)
}

/// Exit sentinel for blocks that end in an `ecall`: the call has retired,
/// so the PC moves past it. The sentinel bills the block and then
/// services the call, as `step` bills before it services, so each call
/// runs once whichever way the walk goes on. `exit` ends the walk, link
/// or no link.
fn t_exit_ecall(_ops: &[ThreadedOp], cpu: &mut Cpu, _mem: &mut Memory, ctx: &mut Tctx) -> TExit {
    let sb = ctx.uops.block(ctx.cur);
    let taken = sb.finish_term(cpu);
    bill(sb, taken, ctx);
    if let Some(code) = sb.ecall() {
        if let Step::Exited(status) = ctx.env.ecall(code, cpu, ctx.cycle_base + ctx.cycles) {
            ctx.exited = Some(status);
            return TExit::End;
        }
    }
    follow_link(sb, taken, ctx)
}

/// One slot of a lowered block: the pre-bound handler next to its
/// operands, so the dispatch streams one array (no tag load, no
/// jump-table indirection between the operand fetch and the dispatch).
#[derive(Clone, Copy)]
struct ThreadedOp {
    h: Handler,
    u: Uop,
}

/// The operands of one lowered instruction: 12 bytes, pre-extracted. `rd`
/// doubles as the *source* register for stores. `cost` is the
/// instruction's cycle count under the cost model captured at lowering
/// time and `access` its memory access; the hot path reads neither (the
/// block totals are precomputed) — they exist for the cold partial-retire
/// paths (fault, mid-block code write).
#[derive(Clone, Copy)]
struct Uop {
    access: Access,
    rd: Reg,
    rs1: Reg,
    rs2: Reg,
    imm: i32,
    cost: u32,
}

impl Uop {
    /// The block-exit sentinel's operands: it reads none.
    const NONE: Uop = Uop {
        access: Access::None,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        imm: 0,
        cost: 0,
    };
}

/// The memory access a lowered instruction makes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    None,
    Load,
    Store,
}

/// Control-flow terminator with targets resolved to absolute PCs.
#[derive(Clone, Copy, Debug)]
enum Term {
    /// Block ends at a non-lowerable instruction (halt, miss stub,
    /// `jrh`/`jalrh`, body-full, unwatched or undecodable word): fall back
    /// to the per-instruction path with `pc` on that instruction.
    None,
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: u32,
    },
    Jump {
        target: u32,
    },
    Call {
        target: u32,
    },
    JumpReg {
        rs: Reg,
    },
    CallReg {
        rs: Reg,
    },
    Ret,
    /// Environment call `ecall code`: it retires as the block's last
    /// instruction, the PC moves to `exit_pc`, and the exit sentinel
    /// services the call once the block is billed
    /// ([`crate::machine::Env::ecall`]).
    Ecall {
        code: u16,
    },
}

/// Cycle/load/store totals for a partially retired block.
struct PrefixStats {
    cycles: u64,
    loads: u32,
    stores: u32,
}

/// How a trace run ended. Everything that retired is billed by then,
/// partial retires included.
pub(crate) enum TraceEnd {
    /// The final block's executed leg has no valid link, or its inline
    /// cache did not predict the target: the walk forms the link or fills
    /// the cache, and walks on if it can.
    Unlinked { taken: bool },
    /// The final block's successor does not fit the budget: the walk ends.
    Break,
    /// The final block's call was `exit`, with this status: the run ends.
    Exited(i32),
    /// A store patched watched code: the prefix through the store retired,
    /// `cpu.pc` is the next instruction, and the caller must resync the
    /// superblock cache before continuing.
    CodeWrite,
    /// A load or store faulted: the prefix before it retired, and `cpu.pc`
    /// is left on the faulting instruction, as on the per-instruction path.
    Fault(SimError),
}

/// Result of one [`UopCache::execute_trace`] run.
pub(crate) struct TraceRun {
    /// Arena id of the block the chain ended in; `end` is relative to it.
    pub(crate) cur: u32,
    /// Updated steps-retired total (the walk's `done` plus every block the
    /// chain billed).
    pub(crate) done: u64,
    pub(crate) end: TraceEnd,
}

/// Generation-stamped successor link for one terminator leg. `id` indexes
/// the [`UopCache`] block arena; the link is followed only when `stamp`
/// equals the current code-write generation, so a single compare both
/// validates the target and severs every link formed before the last
/// backpatch/SMC store.
#[derive(Clone, Copy)]
pub(crate) struct Link {
    pub(crate) id: u32,
    pub(crate) stamp: u64,
}

/// Stamp that matches no reachable generation (generations count up from
/// zero, one per code write): the unlinked state.
pub(crate) const NEVER: u64 = u64::MAX;

impl Link {
    pub(crate) const NONE: Link = Link {
        id: 0,
        stamp: NEVER,
    };
}

/// Terminator classification exposed to the trace walk: which chain-break
/// counter an ended walk bills to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TermKind {
    /// [`Term::None`] — fall-through into a non-lowerable instruction.
    Fallthrough,
    /// Conditional branch (both legs static).
    Branch,
    /// Direct jump.
    Jump,
    /// Direct call (static callee leg).
    Call,
    /// Register-indirect jump (inline cache).
    JumpReg,
    /// Register-indirect call (inline cache).
    CallReg,
    /// Return (inline cache).
    Ret,
    /// Environment call (static fall-through leg, serviced before it is
    /// followed).
    Ecall,
}

/// A lowered straight-line region starting at `start`, plus everything the
/// hot loop needs precomputed: total retired instructions, cycle totals
/// for both terminator outcomes, and memory-op counts.
pub(crate) struct Superblock {
    /// One pre-bound handler slot per body instruction, then the
    /// block-exit sentinel chosen by the terminator kind: the block's one
    /// executable form, built by [`lower`] in one allocation.
    ops: Box<[ThreadedOp]>,
    term: Term,
    start: u32,
    /// PC after the block when the terminator is not taken (for
    /// [`Term::None`]: the PC *of* the first instruction not lowered).
    exit_pc: u32,
    /// Instructions retired by a full execution (body + terminator; the
    /// sentinel is a slot, not an instruction).
    pub(crate) len: u32,
    /// Cycle total when the terminator is not taken.
    cycles_nt: u64,
    /// Cycle total when the terminator (a conditional branch) is taken.
    cycles_tk: u64,
    /// Loads in the body.
    loads: u32,
    /// Stores in the body.
    stores: u32,
    /// Chained successor when the terminator is not taken (also the
    /// fall-through / direct-jump / direct-call leg — `taken` is always
    /// false there).
    link_nt: Link,
    /// Chained successor when the terminator (a conditional branch) is
    /// taken.
    link_tk: Link,
    /// Inline cache for a register-indirect terminator: the last observed
    /// target PC. Meaningful only with [`Superblock::ic_link`].
    ic_target: u32,
    /// Inline cache link to the superblock at `ic_target`, stamped with
    /// the forming generation ([`Link::NONE`] until the first fill).
    ic_link: Link,
}

impl Superblock {
    /// Evaluate the terminator: set the successor PC (and `ra` for calls)
    /// and report a conditional branch's outcome. The exit sentinels'
    /// shared fallback.
    #[inline]
    fn finish_term(&self, cpu: &mut Cpu) -> bool {
        match self.term {
            Term::None | Term::Ecall { .. } => {
                cpu.pc = self.exit_pc;
                false
            }
            Term::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(cpu.get(rs1), cpu.get(rs2)) {
                    cpu.pc = target;
                    true
                } else {
                    cpu.pc = self.exit_pc;
                    false
                }
            }
            Term::Jump { target } => {
                cpu.pc = target;
                false
            }
            Term::Call { target } => {
                cpu.set(Reg::RA, self.exit_pc as i32);
                cpu.pc = target;
                false
            }
            Term::JumpReg { rs } => {
                cpu.pc = cpu.get(rs) as u32;
                false
            }
            Term::CallReg { rs } => {
                let target = cpu.get(rs) as u32;
                cpu.set(Reg::RA, self.exit_pc as i32);
                cpu.pc = target;
                false
            }
            Term::Ret => {
                cpu.pc = cpu.get(Reg::RA) as u32;
                false
            }
        }
    }

    /// Totals for the first `retired` body micro-ops (cold partial-exit
    /// accounting).
    #[cold]
    fn prefix_stats(&self, retired: u32) -> PrefixStats {
        let mut p = PrefixStats {
            cycles: 0,
            loads: 0,
            stores: 0,
        };
        for op in &self.ops[..retired as usize] {
            p.cycles += u64::from(op.u.cost);
            match op.u.access {
                Access::Load => p.loads += 1,
                Access::Store => p.stores += 1,
                Access::None => {}
            }
        }
        p
    }

    /// The successor link for the executed terminator leg.
    #[inline]
    fn link(&self, taken: bool) -> Link {
        if taken {
            self.link_tk
        } else {
            self.link_nt
        }
    }

    /// The inline-cached (target PC, link) pair for a register-indirect
    /// terminator. The chain follows it only when the stamp matches the
    /// entry generation *and* the target equals the PC the terminator just
    /// computed.
    #[inline]
    fn ic(&self) -> (u32, Link) {
        (self.ic_target, self.ic_link)
    }

    /// The terminator's classification for the trace walk's chain-break
    /// telemetry.
    #[inline]
    pub(crate) fn term_kind(&self) -> TermKind {
        match self.term {
            Term::None => TermKind::Fallthrough,
            Term::Branch { .. } => TermKind::Branch,
            Term::Jump { .. } => TermKind::Jump,
            Term::Call { .. } => TermKind::Call,
            Term::JumpReg { .. } => TermKind::JumpReg,
            Term::CallReg { .. } => TermKind::CallReg,
            Term::Ret => TermKind::Ret,
            Term::Ecall { .. } => TermKind::Ecall,
        }
    }

    /// The service code when the block ends in an `ecall`.
    #[inline]
    fn ecall(&self) -> Option<u16> {
        match self.term {
            Term::Ecall { code } => Some(code),
            _ => None,
        }
    }

    /// Does the block depend on a byte in `[lo, hi)`? Lowering read every
    /// word from `start` through `exit_pc`: the body, the terminator, and,
    /// for a block without one, the word that stopped it (rewriting that
    /// word could let the block grow).
    #[inline]
    fn depends_on(&self, lo: u32, hi: u32) -> bool {
        self.start < hi && u64::from(self.exit_pc) + u64::from(INST_BYTES) > u64::from(lo)
    }

    /// Bytes of code the block depends on: `start` through `exit_pc`.
    #[inline]
    fn span_bytes(&self) -> u32 {
        self.exit_pc
            .wrapping_add(INST_BYTES)
            .wrapping_sub(self.start)
    }

    /// The statically known next PC for a terminator leg, when there is
    /// one. `None` for register-indirect terminators (and the vacuous
    /// `taken` leg of non-branches): those legs have no *static* link and
    /// chain through their inline cache instead.
    pub(crate) fn leg_target(&self, taken: bool) -> Option<u32> {
        match self.term {
            Term::Branch { target, .. } => Some(if taken { target } else { self.exit_pc }),
            Term::None | Term::Ecall { .. } => (!taken).then_some(self.exit_pc),
            Term::Jump { target } | Term::Call { target } => (!taken).then_some(target),
            Term::JumpReg { .. } | Term::CallReg { .. } | Term::Ret => None,
        }
    }
}

/// Lower the straight-line region starting at `start` into a superblock,
/// reading each word from `mem`, decoding it, pricing it under `cost` and
/// binding its handler, in `ops` (cleared first; a caller-owned scratch
/// buffer of [`MAX_BODY`]` + 1` slots, so the block's own array is one
/// exact-size allocation). Returns `None` when nothing at `start` is worth
/// lowering (first word unwatched, undecodable, or a trap/halt class
/// instruction) — callers memoise that verdict so the reference
/// interpreter is taken without re-asking.
fn lower(
    cost: &CostModel,
    mem: &Memory,
    start: u32,
    ops: &mut Vec<ThreadedOp>,
) -> Option<Superblock> {
    debug_assert_eq!(start & 3, 0);
    ops.clear();
    let mut cycles = 0u64;
    let mut loads = 0u32;
    let mut stores = 0u32;
    let mut term = Term::None;
    let mut term_cycles = (0u64, 0u64);
    let mut term_len = 0u32;
    let mut pc = start;
    loop {
        // Every covered word must be watched: the generation barrier is the
        // only thing that invalidates us, and it ignores unwatched writes.
        if ops.len() >= MAX_BODY || !mem.is_code_watched(pc) {
            break;
        }
        let Ok(inst) = cpu::fetch(mem, pc) else {
            break;
        };
        let (c, ct) = cost.cycle_pair(inst);
        let Ok(cost) = u32::try_from(c) else {
            break; // cost model too wide for the per-uop slot
        };
        let z = Reg::ZERO;
        let (h, access, rd, rs1, rs2, imm): (Handler, _, _, _, _, _) = match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                (alu_handler(op, false), Access::None, rd, rs1, rs2, 0)
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                (alu_handler(op, true), Access::None, rd, rs1, z, imm)
            }
            Inst::Lui { rd, imm } => (h_lui, Access::None, rd, z, z, ((imm as u32) << 16) as i32),
            Inst::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let h = match (width, signed) {
                    (MemWidth::W, _) => h_load_w,
                    (MemWidth::H, true) => h_load_h,
                    (MemWidth::H, false) => h_load_hu,
                    (MemWidth::B, true) => h_load_b,
                    (MemWidth::B, false) => h_load_bu,
                };
                loads += 1;
                (h, Access::Load, rd, base, z, i32::from(off))
            }
            Inst::Store {
                width,
                src,
                base,
                off,
            } => {
                let h = match width {
                    MemWidth::W => h_store_w,
                    MemWidth::H => h_store_h,
                    MemWidth::B => h_store_b,
                };
                stores += 1;
                (h, Access::Store, src, base, z, i32::from(off))
            }
            Inst::Nop => (h_nop, Access::None, z, z, z, 0),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                term = Term::Branch {
                    cond,
                    rs1,
                    rs2,
                    target: rel_target(pc, off as i32),
                };
                term_cycles = (c, ct);
                term_len = 1;
                break;
            }
            Inst::J { off } => {
                term = Term::Jump {
                    target: rel_target(pc, off),
                };
                term_cycles = (c, ct);
                term_len = 1;
                break;
            }
            Inst::Jal { off } => {
                term = Term::Call {
                    target: rel_target(pc, off),
                };
                term_cycles = (c, ct);
                term_len = 1;
                break;
            }
            Inst::Jr { rs } => {
                term = Term::JumpReg { rs };
                term_cycles = (c, ct);
                term_len = 1;
                break;
            }
            Inst::Jalr { rs } => {
                term = Term::CallReg { rs };
                term_cycles = (c, ct);
                term_len = 1;
                break;
            }
            Inst::Ret => {
                term = Term::Ret;
                term_cycles = (c, ct);
                term_len = 1;
                break;
            }
            // The environment call retires in the block; its caller
            // services it once the block is billed.
            Inst::Ecall { code } => {
                term = Term::Ecall { code };
                term_cycles = (c, ct);
                term_len = 1;
                break;
            }
            // Halts and the cache controller's traps are never lowered.
            Inst::Halt | Inst::Miss { .. } | Inst::Jrh { .. } | Inst::Jalrh { .. } => break,
        };
        let u = Uop {
            access,
            rd,
            rs1,
            rs2,
            imm,
            cost,
        };
        ops.push(ThreadedOp { h, u });
        cycles += c;
        pc = pc.wrapping_add(INST_BYTES);
    }
    if ops.is_empty() && term_len == 0 {
        return None;
    }
    let body = ops.len() as u32;
    let exit_pc = if term_len > 0 {
        pc.wrapping_add(INST_BYTES)
    } else {
        pc
    };
    // The block-exit sentinel: evaluates the terminator, bills the block,
    // services its call, then follows the static link (or, for indirects,
    // the inline cache) when it is valid; an unlinked leg goes back to the
    // walk.
    let exit: Handler = match term {
        Term::None => t_exit_fall,
        Term::Branch { .. } => t_exit_branch,
        Term::Jump { .. } => t_exit_jump,
        Term::Call { .. } => t_exit_call,
        Term::JumpReg { .. } => t_exit_jumpreg,
        Term::CallReg { .. } => t_exit_callreg,
        Term::Ret => t_exit_ret,
        Term::Ecall { .. } => t_exit_ecall,
    };
    ops.push(ThreadedOp {
        h: exit,
        u: Uop::NONE,
    });
    Some(Superblock {
        ops: Box::from(ops.as_slice()),
        term,
        start,
        exit_pc,
        len: body + term_len,
        cycles_nt: cycles + term_cycles.0,
        cycles_tk: cycles + term_cycles.1,
        loads,
        stores,
        link_nt: Link::NONE,
        link_tk: Link::NONE,
        ic_target: 0,
        ic_link: Link::NONE,
    })
}

/// Slot sentinel: lowering never attempted at this PC.
const SLOT_UNKNOWN: u32 = u32::MAX;
/// Slot sentinel: lowering attempted and judged not worth it.
const SLOT_NOT_WORTH: u32 = u32::MAX - 1;

/// Decoded slot state from a single [`UopCache::lookup`] page walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Lookup {
    /// Lowering never attempted here (since the last covering invalidation).
    Unknown,
    /// Lowering attempted and memoised as not worth it.
    NotWorth,
    /// A cached superblock: its arena id for [`UopCache::block`].
    Id(u32),
}

type Page = Box<[u32; PAGE_SLOTS]>;

/// Paged side-array of superblocks indexed by `pc >> 2`, invalidated
/// through the [`Memory`] code-write generation barrier (the owning
/// [`crate::Machine`] hands it each dirty span before it adopts the new
/// generation).
///
/// Blocks live in a flat arena and pages map `pc >> 2` to arena ids, so a
/// chained successor is one bounds-checked index away — no page walk on
/// the trace fast path. Invalidation clears the page slots of the blocks
/// that depend on the written words and retires their ids. A retired
/// block stays intact, and its id is reused only once
/// [`UopCache::set_generation`] moves to a new generation: so a link or
/// inline cache stamped with the current generation can only name a block
/// whose contents are unchanged, and every older stamp is already severed.
pub(crate) struct UopCache {
    pages: Vec<Option<Page>>,
    /// Arena of lowered blocks; slot values and [`Link::id`] index here.
    blocks: Vec<Superblock>,
    /// Arena ids free for reuse: retired under an older generation.
    free: Vec<u32>,
    /// Arena ids dropped under the current generation. Their blocks stay
    /// intact until the generation moves on, then join `free`.
    retired: Vec<u32>,
    /// The [`Memory::code_gen`] value the cached blocks are valid for.
    generation: u64,
    /// Half-open PC spans pinned to the reference interpreter: lookups
    /// inside them answer [`Lookup::NotWorth`], so no superblock is ever
    /// formed or dispatched there (the corruption watchdog's
    /// graceful-degradation hook). Pins survive invalidation and
    /// generation bumps — they are a policy, not a cache.
    pinned: Vec<(u32, u32)>,
    /// Blocks dropped by invalidation since the last
    /// [`UopCache::take_drops`]: the demotion side of the lowering
    /// ledger, drained by the owning machine into its trace telemetry.
    drops: u64,
    /// Widest span of code ([`Superblock::span_bytes`]) of any block ever
    /// inserted: how far below a dirty span a dependent block can start.
    reach: u32,
    /// Scratch buffer [`UopCache::lower`] builds handler slots in.
    scratch: Vec<ThreadedOp>,
}

impl UopCache {
    pub(crate) fn new() -> UopCache {
        UopCache {
            pages: Vec::new(),
            blocks: Vec::new(),
            free: Vec::new(),
            retired: Vec::new(),
            generation: 0,
            pinned: Vec::new(),
            drops: 0,
            reach: 0,
            scratch: Vec::with_capacity(MAX_BODY + 1),
        }
    }

    /// Is `pc` inside a pinned span? One `is_empty` test in the
    /// common (no pins) case keeps this off the hot path's budget.
    #[inline]
    fn is_pinned(&self, pc: u32) -> bool {
        !self.pinned.is_empty() && self.pinned.iter().any(|&(lo, hi)| pc >= lo && pc < hi)
    }

    /// Pin `[lo, hi)` to the reference interpreter and drop any blocks
    /// covering it.
    pub(crate) fn pin_span(&mut self, lo: u32, hi: u32) {
        self.pinned.push((lo, hi));
        self.invalidate_span(lo, hi);
    }

    /// Remove pins lying entirely within `[lo, hi)`.
    pub(crate) fn unpin_span(&mut self, lo: u32, hi: u32) {
        self.pinned.retain(|&(l, h)| !(l >= lo && h <= hi));
    }

    /// Remove every pin.
    pub(crate) fn clear_pins(&mut self) {
        self.pinned.clear();
    }

    /// Drain the drop counter (blocks dropped since the last take).
    pub(crate) fn take_drops(&mut self) -> u64 {
        std::mem::take(&mut self.drops)
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Adopt `generation`. Moving to a new one severs every stamp formed
    /// under the old, so the ids retired under it become reusable.
    pub(crate) fn set_generation(&mut self, generation: u64) {
        if generation != self.generation {
            self.generation = generation;
            self.free.append(&mut self.retired);
        }
    }

    /// Drop every superblock that depends on a byte in `[lo, hi)` — one
    /// with a word from its start through its `exit_pc` in the span — and
    /// every "not worth lowering" memo whose own word is in it. Blocks are
    /// indexed by their *start* PC, so starts are scanned from `reach`
    /// bytes below `lo`, `reach` being the widest span of any block
    /// inserted so far (at most [`MAX_SPAN_BYTES`]). The bound is exact: a
    /// block starting `reach` or more bytes below `lo` ends before it.
    ///
    /// Links need no per-span treatment: a dropped block's id is retired,
    /// not reused, until the generation moves on, so a link stamped with
    /// the current generation still names the same, unchanged block. That
    /// makes this safe without a code write too (interpreter pins): the
    /// block still matches memory until the next write into its span, and
    /// that write severs every link at once.
    pub(crate) fn invalidate_span(&mut self, lo: u32, hi: u32) {
        debug_assert!(self.reach <= MAX_SPAN_BYTES, "reach {}", self.reach);
        let first = (lo.saturating_sub(self.reach) >> 2) as usize;
        let end = ((u64::from(hi) + 3) >> 2) as usize;
        // Starts at or above this word index have their own word written.
        let own = (lo >> 2) as usize;
        let mut idx = first;
        while idx < end {
            let page_no = idx >> PAGE_SHIFT;
            let Some(page) = self.pages.get_mut(page_no) else {
                break;
            };
            let base = page_no << PAGE_SHIFT;
            let stop = end.min(base + PAGE_SLOTS);
            if let Some(slots) = page {
                for i in idx..stop {
                    let slot = &mut slots[i - base];
                    let drop = match *slot {
                        SLOT_UNKNOWN => false,
                        SLOT_NOT_WORTH => i >= own,
                        id => {
                            let hit = self.blocks[id as usize].depends_on(lo, hi);
                            if hit {
                                self.drops += 1;
                                self.retired.push(id);
                            }
                            hit
                        }
                    };
                    if drop {
                        *slot = SLOT_UNKNOWN;
                    }
                }
            }
            idx = stop;
        }
    }

    /// Single-walk slot state at `pc`, which must be word-aligned (the
    /// pages index by `pc >> 2`). The engine's one lookup-or-lower
    /// (`Machine::block_at`) uses this, so the common "block already
    /// cached" case costs one page walk.
    #[inline]
    pub(crate) fn lookup(&self, pc: u32) -> Lookup {
        if self.is_pinned(pc) {
            return Lookup::NotWorth;
        }
        let idx = (pc >> 2) as usize;
        let (page_no, slot_no) = (idx >> PAGE_SHIFT, idx & (PAGE_SLOTS - 1));
        match self.pages.get(page_no) {
            Some(Some(page)) => match page[slot_no] {
                SLOT_UNKNOWN => Lookup::Unknown,
                SLOT_NOT_WORTH => Lookup::NotWorth,
                id => Lookup::Id(id),
            },
            _ => Lookup::Unknown,
        }
    }

    /// Arena id of the superblock starting at `pc`, if one is cached
    /// (tests; the engine goes through [`UopCache::lookup`]).
    #[cfg(test)]
    pub(crate) fn id_at(&self, pc: u32) -> Option<u32> {
        match self.lookup(pc) {
            Lookup::Id(id) => Some(id),
            _ => None,
        }
    }

    /// The arena block with the given id (trace-walk fast path: one
    /// bounds-checked index, no page walk).
    #[inline]
    pub(crate) fn block(&self, id: u32) -> &Superblock {
        &self.blocks[id as usize]
    }

    /// Run block `first` — and keep running: each block-exit sentinel
    /// bills its block, services its call and chains into the linked
    /// successor, so hot traces execute handler-array to handler-array
    /// with no walk round-trip. The trampoline loop here costs one
    /// indirect call per *block* transition and keeps the handler
    /// recursion bounded per block regardless of trace length. Everything
    /// that retired is billed into `stats` (and the chain's transitions
    /// and inline-cache hits into `trace`) before this returns. Exit
    /// semantics, accounting and the store-time generation check match
    /// running the same instructions through `Machine::step` — the
    /// differential tests hold the engine to it.
    ///
    /// `done`/`max_steps` are the walk's budget state; the walk must
    /// already have checked that `first` fits.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_trace(
        &self,
        first: u32,
        cpu: &mut Cpu,
        mem: &mut Memory,
        env: &mut Env,
        stats: &mut ExecStats,
        trace: &mut TraceStats,
        entry_gen: u64,
        done: u64,
        max_steps: u64,
    ) -> TraceRun {
        let mut ops = &*self.block(first).ops;
        debug_assert_eq!(cpu.pc, self.block(first).start);
        let mut ctx = Tctx {
            uops: self,
            env,
            cycle_base: stats.cycles,
            entry_gen,
            cur: first,
            done,
            max_steps,
            insts: 0,
            cycles: 0,
            loads: 0,
            stores: 0,
            branches: 0,
            taken_branches: 0,
            calls: 0,
            returns: 0,
            chained: 0,
            ic_hits: 0,
            fault: None,
            exited: None,
        };
        let end = loop {
            match (ops[0].h)(ops, cpu, mem, &mut ctx) {
                TExit::Chain => ops = &self.block(ctx.cur).ops,
                TExit::Unlinked { taken } => break TraceEnd::Unlinked { taken },
                TExit::End => break ctx.exited.map_or(TraceEnd::Break, TraceEnd::Exited),
                TExit::CodeWrite { rem } => {
                    // The store itself retired.
                    ctx.bill_prefix(cpu, (ops.len() - rem as usize) as u32 + 1);
                    break TraceEnd::CodeWrite;
                }
                TExit::Fault { rem } => {
                    ctx.bill_prefix(cpu, (ops.len() - rem as usize) as u32);
                    let fault = ctx.fault.take().expect("fault exit without payload");
                    break TraceEnd::Fault(SimError::DataFault { pc: cpu.pc, fault });
                }
            }
        };
        // Flush the billing accumulators in one pass.
        stats.instructions += ctx.insts;
        stats.cycles += ctx.cycles;
        stats.loads += ctx.loads;
        stats.stores += ctx.stores;
        stats.branches += ctx.branches;
        stats.taken_branches += ctx.taken_branches;
        stats.calls += ctx.calls;
        stats.returns += ctx.returns;
        trace.chained += ctx.chained;
        trace.ic_hits += ctx.ic_hits;
        TraceRun {
            cur: ctx.cur,
            done: ctx.done,
            end,
        }
    }

    /// The superblock starting at `pc`, if one is cached (tests).
    #[cfg(test)]
    pub(crate) fn get(&self, pc: u32) -> Option<&Superblock> {
        self.id_at(pc).map(|id| self.block(id))
    }

    /// Lower the superblock starting at `pc` (through the cache's scratch
    /// buffer) and record the verdict; returns the new block's arena id.
    pub(crate) fn lower(&mut self, cost: &CostModel, mem: &Memory, pc: u32) -> Option<u32> {
        let sb = lower(cost, mem, pc, &mut self.scratch);
        self.insert(pc, sb)
    }

    /// Record the outcome of a lowering attempt at `pc` (`None` memoises
    /// "not worth lowering"). Returns the arena id when a block was
    /// inserted, so the caller can dispatch into it without re-walking the
    /// page map.
    pub(crate) fn insert(&mut self, pc: u32, sb: Option<Superblock>) -> Option<u32> {
        let idx = (pc >> 2) as usize;
        let (page_no, slot_no) = (idx >> PAGE_SHIFT, idx & (PAGE_SLOTS - 1));
        if page_no >= self.pages.len() {
            self.pages.resize_with(page_no + 1, || None);
        }
        let page = self.pages[page_no].get_or_insert_with(|| Box::new([SLOT_UNKNOWN; PAGE_SLOTS]));
        debug_assert_eq!(page[slot_no], SLOT_UNKNOWN, "insert over a live slot");
        let (slot, id) = match sb {
            Some(sb) => {
                self.reach = self.reach.max(sb.span_bytes());
                let id = match self.free.pop() {
                    Some(id) => {
                        self.blocks[id as usize] = sb;
                        id
                    }
                    None => {
                        let id = self.blocks.len() as u32;
                        debug_assert!(id < SLOT_NOT_WORTH, "uop arena exhausted");
                        self.blocks.push(sb);
                        id
                    }
                };
                (id, Some(id))
            }
            None => (SLOT_NOT_WORTH, None),
        };
        page[slot_no] = slot;
        id
    }

    /// Form the *static* successor link for one terminator leg of block
    /// `id`, stamped with the cache's current generation (which the owning
    /// machine keeps equal to [`Memory::code_gen`]): the next trace
    /// through this leg chains with a single stamp compare. Static legs
    /// only — register-indirect terminators fill their inline cache via
    /// [`UopCache::set_ic`] instead.
    #[inline]
    pub(crate) fn set_link(&mut self, id: u32, taken: bool, next: u32) {
        let link = Link {
            id: next,
            stamp: self.generation,
        };
        let sb = &mut self.blocks[id as usize];
        if taken {
            sb.link_tk = link;
        } else {
            sb.link_nt = link;
        }
    }

    /// Fill the inline cache of block `id`'s register-indirect terminator:
    /// the observed target PC plus the arena id of the block lowered
    /// there, stamped like a static link. The next walk through the
    /// terminator chains when the stamp is current and the computed target
    /// still equals `target`; a polymorphic site simply refills on each
    /// target change.
    #[inline]
    pub(crate) fn set_ic(&mut self, id: u32, target: u32, next: u32) {
        let link = Link {
            id: next,
            stamp: self.generation,
        };
        let sb = &mut self.blocks[id as usize];
        sb.ic_target = target;
        sb.ic_link = link;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_isa::encode;

    fn mem_with(words: &[u32]) -> Memory {
        let mut mem = Memory::new(1 << 16);
        for (i, w) in words.iter().enumerate() {
            mem.write_u32(i as u32 * 4, *w).unwrap();
        }
        mem
    }

    fn lowered(words: &[u32]) -> Option<Superblock> {
        let mem = mem_with(words);
        lower(&CostModel::default(), &mem, 0, &mut Vec::new())
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> u32 {
        encode(Inst::AluImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }

    #[test]
    fn lowers_body_and_branch_terminator() {
        let sb = lowered(&[
            addi(Reg::T0, Reg::T0, 1),
            addi(Reg::T1, Reg::T1, 2),
            encode(Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                off: -3,
            }),
        ])
        .expect("lowerable");
        assert_eq!(sb.len, 3);
        assert_eq!(sb.ops.len(), 3, "two body slots and the exit sentinel");
        assert_eq!(sb.loads, 0);
        let cost = CostModel::default();
        let per = cost.cycles_for(addi_inst(), false);
        assert_eq!(
            sb.cycles_nt,
            2 * per + cost.cycles_for(branch_inst(), false)
        );
        assert_eq!(sb.cycles_tk, 2 * per + cost.cycles_for(branch_inst(), true));
        assert!(matches!(sb.term, Term::Branch { target: 0, .. }));
    }

    fn addi_inst() -> Inst {
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::T0,
            imm: 1,
        }
    }

    fn branch_inst() -> Inst {
        Inst::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            off: -3,
        }
    }

    /// The words lowering refuses: halts, the cache controller's traps and
    /// undecodable words.
    fn trap_class_words() -> [u32; 5] {
        [
            encode(Inst::Halt),
            encode(Inst::Miss { idx: 3 }),
            encode(Inst::Jrh { rs: Reg::T0 }),
            encode(Inst::Jalrh { rs: Reg::T0 }),
            0xffff_ffff,
        ]
    }

    #[test]
    fn trap_class_first_word_is_not_worth_lowering() {
        for word in trap_class_words() {
            assert!(lowered(&[word]).is_none(), "{word:#010x}");
        }
    }

    #[test]
    fn trap_after_body_ends_block_with_term_none() {
        for word in trap_class_words() {
            let sb = lowered(&[addi(Reg::T0, Reg::T0, 1), word]).unwrap();
            assert_eq!(sb.len, 1, "{word:#010x}: only the body retires");
            assert_eq!(sb.ops.len(), 2, "{word:#010x}: body slot and sentinel");
            assert!(matches!(sb.term, Term::None), "{word:#010x}");
            assert_eq!(sb.exit_pc, 4, "{word:#010x}: pc lands on the trap");
        }
    }

    #[test]
    fn ecall_retires_as_its_blocks_terminator() {
        let cost = CostModel::default();
        let ecall = Inst::Ecall { code: 2 };
        let sb = lowered(&[
            addi(Reg::T0, Reg::T0, 1),
            encode(ecall),
            addi(Reg::T0, Reg::T0, 2),
        ])
        .unwrap();
        assert_eq!(sb.len, 2, "body and ecall retire");
        assert!(matches!(sb.term, Term::Ecall { code: 2 }));
        assert_eq!(sb.ecall(), Some(2));
        assert_eq!(sb.exit_pc, 8, "pc lands past the ecall");
        let billed = cost.cycles_for(addi_inst(), false) + cost.cycles_for(ecall, false);
        assert_eq!((sb.cycles_nt, sb.cycles_tk), (billed, billed));
        assert!(
            cost.cycles_for(ecall, false) > cost.base,
            "ecall_extra billed"
        );
        let lone = lowered(&[encode(Inst::Ecall { code: 0 })]).expect("a lone ecall lowers");
        assert_eq!(lone.len, 1);
        assert_eq!(lone.ecall(), Some(0));
        assert_eq!(lone.exit_pc, 4);
        assert_eq!(lowered(&[encode(Inst::Ret)]).unwrap().ecall(), None);
    }

    #[test]
    fn body_caps_at_max() {
        let words: Vec<u32> = (0..MAX_BODY as i32 + 8)
            .map(|i| addi(Reg::T0, Reg::T0, i))
            .collect();
        let sb = lowered(&words).unwrap();
        assert_eq!(sb.len as usize, MAX_BODY);
        assert!(matches!(sb.term, Term::None));
    }

    #[test]
    fn unwatched_code_is_never_lowered() {
        let mut mem = mem_with(&[addi(Reg::T0, Reg::T0, 1), addi(Reg::T0, Reg::T0, 2)]);
        mem.set_code_watch([(0, 4), (0, 0)]); // only the first word watched
        let cost = CostModel::default();
        let mut scratch = Vec::new();
        let sb = lower(&cost, &mem, 0, &mut scratch).unwrap();
        assert_eq!(sb.len, 1, "block stops at the unwatched word");
        let none = lower(&cost, &mem, 4, &mut scratch);
        assert!(none.is_none(), "unwatched start is not lowered");
    }

    #[test]
    fn invalidate_span_widens_low_edge() {
        // A block depends on every word from its start through `exit_pc`:
        // 60 body words, the `ret`, and the word after it.
        let mut words: Vec<u32> = (0..60).map(|i| addi(Reg::T0, Reg::T0, i)).collect();
        words.push(encode(Inst::Ret));
        let fresh = || {
            let mut uc = UopCache::new();
            uc.insert(0, lowered(&words));
            uc
        };
        let exit_pc = fresh().get(0).unwrap().exit_pc;
        assert_eq!(exit_pc, 61 * 4);
        // Any write into that range kills the block, even one more than
        // 200 B past its start; a sub-word write counts for its word.
        for (lo, hi) in [
            (0, 4),
            (236, 240),
            (240, 244),
            (exit_pc, exit_pc + 4),
            (241, 242),
        ] {
            let mut uc = fresh();
            uc.invalidate_span(lo, hi);
            assert_eq!(uc.lookup(0), Lookup::Unknown, "write [{lo}, {hi})");
        }
        // A write one word past `exit_pc` leaves it alone.
        let mut uc = fresh();
        uc.invalidate_span(exit_pc + 4, exit_pc + 8);
        assert!(uc.get(0).is_some());
    }

    #[test]
    fn reach_covers_a_block_inserted_through_a_reused_id() {
        // A narrow block (8 B) frees its id once the generation moves.
        let mut uc = UopCache::new();
        let narrow = uc.insert(0, lowered(&[addi(Reg::T0, Reg::T0, 1), encode(Inst::Ret)]));
        uc.invalidate_span(0, 4);
        uc.set_generation(1);
        // The widest block takes that id instead of growing the arena,
        // and `reach` must still widen to its 248 B span.
        let mut words: Vec<u32> = (0..60).map(|i| addi(Reg::T0, Reg::T0, i)).collect();
        words.push(encode(Inst::Ret));
        let wide = uc.insert(0, lowered(&words));
        assert_eq!(wide, narrow, "the freed id is reused");
        let exit_pc = uc.get(0).unwrap().exit_pc;
        uc.invalidate_span(exit_pc, exit_pc + 4);
        assert_eq!(uc.lookup(0), Lookup::Unknown, "write at exit_pc");
    }

    #[test]
    fn not_worth_memo_dies_only_with_its_own_word() {
        let mut uc = UopCache::new();
        uc.insert(8, None);
        uc.invalidate_span(0, 8);
        uc.invalidate_span(12, 16);
        assert_eq!(uc.lookup(8), Lookup::NotWorth, "neighbours written");
        uc.invalidate_span(8, 9);
        assert_eq!(uc.lookup(8), Lookup::Unknown, "own word written");
    }

    #[test]
    fn prefix_stats_match_cost_model() {
        let cost = CostModel::default();
        let sb = lowered(&[
            addi(Reg::T0, Reg::T0, 1),
            encode(Inst::Load {
                width: MemWidth::W,
                signed: false,
                rd: Reg::T1,
                base: Reg::SP,
                off: 0,
            }),
            encode(Inst::Store {
                width: MemWidth::W,
                src: Reg::T1,
                base: Reg::SP,
                off: 4,
            }),
        ])
        .unwrap();
        let p = sb.prefix_stats(3);
        assert_eq!(p.loads, 1);
        assert_eq!(p.stores, 1);
        let lw = Inst::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::T1,
            base: Reg::SP,
            off: 0,
        };
        let sw = Inst::Store {
            width: MemWidth::W,
            src: Reg::T1,
            base: Reg::SP,
            off: 4,
        };
        assert_eq!(
            p.cycles,
            cost.cycles_for(addi_inst(), false)
                + cost.cycles_for(lw, false)
                + cost.cycles_for(sw, false)
        );
        let p2 = sb.prefix_stats(1);
        assert_eq!(p2.loads, 0);
        assert_eq!(p2.cycles, cost.cycles_for(addi_inst(), false));
    }

    #[test]
    fn leg_targets_static_only() {
        // Branch at pc 0, off +1 → target 8 (rel_target = pc + 4 + off*4).
        let branch = lowered(&[encode(Inst::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            off: 1,
        })])
        .unwrap();
        assert_eq!(branch.leg_target(true), Some(8), "taken leg → target");
        assert_eq!(branch.leg_target(false), Some(4), "fall-through leg");
        let ret = lowered(&[addi(Reg::T0, Reg::T0, 1), encode(Inst::Ret)]).unwrap();
        assert_eq!(ret.leg_target(false), None, "indirects have no static leg");
        assert_eq!(ret.leg_target(true), None);
        let jump = lowered(&[encode(Inst::J { off: 2 })]).unwrap();
        assert_eq!(jump.leg_target(false), Some(12));
        assert_eq!(
            jump.leg_target(true),
            None,
            "non-branches have no taken leg"
        );
        let ecall = lowered(&[addi(Reg::T0, Reg::T0, 1), encode(Inst::Ecall { code: 1 })]).unwrap();
        assert_eq!(ecall.leg_target(false), Some(8), "the word after the ecall");
        assert_eq!(ecall.leg_target(true), None);
    }

    #[test]
    fn links_form_and_generation_stamp_severs() {
        let mut uc = UopCache::new();
        let a = lowered(&[encode(Inst::J { off: 0 })]).unwrap(); // 0 → 4
        let b = lowered(&[addi(Reg::T0, Reg::T0, 1), encode(Inst::Ret)]).unwrap();
        uc.insert(0, Some(a));
        uc.insert(4, Some(b));
        uc.set_generation(7);
        let id_a = uc.id_at(0).unwrap();
        let id_b = uc.id_at(4).unwrap();
        uc.set_link(id_a, false, id_b);
        let l = uc.block(id_a).link(false);
        assert_eq!(l.id, id_b);
        assert_eq!(l.stamp, 7, "link stamped with the forming generation");
        // The validity check the machine performs: one compare. A
        // generation bump (any code write) severs the link.
        assert_ne!(l.stamp, 8);
        assert_eq!(uc.block(id_a).link(true).stamp, NEVER, "unformed leg");
    }

    #[test]
    fn inline_cache_fills_and_generation_stamp_severs() {
        let mut uc = UopCache::new();
        let a = lowered(&[encode(Inst::Ret)]).unwrap();
        let b = lowered(&[addi(Reg::T0, Reg::T0, 1), encode(Inst::Ret)]).unwrap();
        uc.insert(0, Some(a));
        uc.insert(4, Some(b));
        uc.set_generation(3);
        let id_a = uc.id_at(0).unwrap();
        let id_b = uc.id_at(4).unwrap();
        let (_, unfilled) = uc.block(id_a).ic();
        assert_eq!(unfilled.stamp, NEVER, "unfilled inline cache");
        uc.set_ic(id_a, 4, id_b);
        let (target, link) = uc.block(id_a).ic();
        assert_eq!(target, 4, "caches the observed target PC");
        assert_eq!(link.id, id_b);
        assert_eq!(link.stamp, 3, "stamped with the forming generation");
        // The walk's validity check: stamp compare plus target compare.
        // A generation bump (any code write) severs the cached entry.
        assert_ne!(link.stamp, 4);
    }

    #[test]
    fn term_kinds_classify_every_terminator() {
        let ret = lowered(&[encode(Inst::Ret)]).unwrap();
        assert_eq!(ret.term_kind(), TermKind::Ret);
        let call = lowered(&[encode(Inst::Jal { off: 2 })]).unwrap();
        assert_eq!(call.term_kind(), TermKind::Call);
        let callr = lowered(&[encode(Inst::Jalr { rs: Reg::T0 })]).unwrap();
        assert_eq!(callr.term_kind(), TermKind::CallReg);
        let jr = lowered(&[encode(Inst::Jr { rs: Reg::T0 })]).unwrap();
        assert_eq!(jr.term_kind(), TermKind::JumpReg);
        let fall = lowered(&[addi(Reg::T0, Reg::T0, 1), encode(Inst::Halt)]).unwrap();
        assert_eq!(fall.term_kind(), TermKind::Fallthrough);
        let ecall = lowered(&[encode(Inst::Ecall { code: 1 })]).unwrap();
        assert_eq!(ecall.term_kind(), TermKind::Ecall);
    }

    #[test]
    fn arena_ids_reused_only_after_generation_advances() {
        let block = || lowered(&[addi(Reg::T0, Reg::T0, 1), encode(Inst::Ret)]);
        let mut uc = UopCache::new();
        let a = uc.insert(0, block()).unwrap();
        uc.invalidate_span(0, 4);
        uc.set_generation(0);
        // Same generation: a current-stamped link may still name `a`, so
        // its id is not reused and its block stays intact.
        let b = uc.insert(0, block()).unwrap();
        assert_ne!(a, b);
        assert_eq!(uc.block(a).exit_pc, 8);
        uc.invalidate_span(0, 4);
        uc.set_generation(1);
        let c = uc.insert(0, block()).unwrap();
        assert!(
            c == a || c == b,
            "retired ids reused once the generation moved"
        );
        for generation in 2..10_002 {
            uc.invalidate_span(0, 4);
            uc.set_generation(generation);
            uc.insert(0, block());
        }
        assert!(uc.blocks.len() <= 2, "arena grew to {}", uc.blocks.len());
    }
}
