//! The eRISC CPU interpreter core.
//!
//! [`Cpu::step`] executes exactly one instruction against a [`Memory`] and
//! reports how control left it: straight-line continuation, halt, or a trap
//! that the embedding runtime (the simulator's environment or the softcache
//! cache controller) must service. The CPU itself knows nothing about
//! caching — traps are the boundary through which the CC runtime intervenes,
//! mirroring how rewritten SPARC code jumped into miss-handler stubs.

use crate::mem::{MemFault, Memory};
use softcache_isa::cf::rel_target;
use softcache_isa::inst::Inst;
use softcache_isa::reg::Reg;
use softcache_isa::{decode, INST_BYTES};

/// Why the CPU stopped mid-stream and needs runtime service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// `ecall code` — environment service. The PC has already advanced past
    /// the instruction; the handler fills result registers and resumes.
    Ecall {
        /// Service number.
        code: u16,
    },
    /// `miss idx` — a softcache miss stub. The PC still points *at* the
    /// stub; the cache controller translates the target, patches code and
    /// redirects the PC.
    Miss {
        /// The stub's own tcache word index.
        idx: u32,
        /// Address of the stub itself.
        at: u32,
    },
    /// `jrh rs` — hash-translated computed jump. `target` is the
    /// *original-program* address taken from the register.
    HashJump {
        /// Original-program destination.
        target: u32,
        /// Address of the trapping instruction.
        at: u32,
    },
    /// `jalrh rs` — hash-translated indirect call. `ra` has already been
    /// set to the return point before the trap fires.
    HashCall {
        /// Original-program destination.
        target: u32,
        /// Address of the trapping instruction.
        at: u32,
    },
}

/// Simulator error: something the program did that has no defined result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The word at `pc` does not decode to an instruction.
    IllegalInst {
        /// Program counter.
        pc: u32,
        /// Raw word fetched.
        word: u32,
    },
    /// Instruction fetch faulted.
    FetchFault {
        /// Program counter.
        pc: u32,
        /// Underlying fault.
        fault: MemFault,
    },
    /// Data access faulted.
    DataFault {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// Underlying fault.
        fault: MemFault,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::IllegalInst { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#x}")
            }
            SimError::FetchFault { pc, fault } => write!(f, "fetch fault at pc {pc:#x}: {fault}"),
            SimError::DataFault { pc, fault } => {
                write!(f, "data fault at pc {pc:#x}: {fault}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// What happened after one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Keep going.
    Continue,
    /// `halt` executed.
    Halted,
    /// Runtime service required.
    Trap(Trap),
}

/// Fetch and decode the instruction word at `pc` — the one decoder the
/// interpreter ([`Cpu::step`]) and superblock lowering share.
#[inline]
pub(crate) fn fetch(mem: &Memory, pc: u32) -> Result<Inst, SimError> {
    let word = mem
        .read_u32(pc)
        .map_err(|fault| SimError::FetchFault { pc, fault })?;
    decode(word).map_err(|_| SimError::IllegalInst { pc, word })
}

/// Architectural CPU state.
#[derive(Clone)]
pub struct Cpu {
    regs: [i32; Reg::COUNT],
    /// Program counter (byte address of the next instruction to execute).
    pub pc: u32,
}

impl Cpu {
    /// A CPU with zeroed registers starting at `pc`.
    pub fn new(pc: u32) -> Cpu {
        Cpu {
            regs: [0; Reg::COUNT],
            pc,
        }
    }

    /// Read a register (`zero` always reads 0). Every constructible [`Reg`]
    /// is `< 32`, so the mask is a no-op that replaces the bounds check.
    #[inline]
    pub fn get(&self, r: Reg) -> i32 {
        self.regs[r.index() & (Reg::COUNT - 1)]
    }

    /// Write a register (writes to `zero` are discarded).
    #[inline]
    pub fn set(&mut self, r: Reg, v: i32) {
        if r != Reg::ZERO {
            self.regs[r.index() & (Reg::COUNT - 1)] = v;
        }
    }

    /// Execute one instruction. Returns the decoded instruction (so the
    /// caller can account costs), the control outcome, and whether a
    /// conditional branch was taken.
    #[inline]
    pub fn step(&mut self, mem: &mut Memory) -> Result<(Inst, Next, bool), SimError> {
        let inst = fetch(mem, self.pc)?;
        let (next, taken) = self.execute(inst, mem)?;
        Ok((inst, next, taken))
    }

    /// Execute an already-decoded instruction located at the current PC.
    /// The returned flag is true exactly when `inst` is a conditional
    /// branch whose condition held — reported directly rather than inferred
    /// from the PC, so a taken branch targeting its own fall-through is
    /// still counted (and billed) as taken.
    pub fn execute(&mut self, inst: Inst, mem: &mut Memory) -> Result<(Next, bool), SimError> {
        let pc = self.pc;
        let next_pc = pc.wrapping_add(INST_BYTES);
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.get(rs1), self.get(rs2));
                self.set(rd, v);
                self.pc = next_pc;
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.get(rs1), imm);
                self.set(rd, v);
                self.pc = next_pc;
            }
            Inst::Lui { rd, imm } => {
                self.set(rd, ((imm as u32) << 16) as i32);
                self.pc = next_pc;
            }
            Inst::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let addr = (self.get(base) as u32).wrapping_add(off as i32 as u32);
                let v = mem
                    .load(addr, width, signed)
                    .map_err(|fault| SimError::DataFault { pc, fault })?;
                self.set(rd, v);
                self.pc = next_pc;
            }
            Inst::Store {
                width,
                src,
                base,
                off,
            } => {
                let addr = (self.get(base) as u32).wrapping_add(off as i32 as u32);
                mem.store(addr, width, self.get(src))
                    .map_err(|fault| SimError::DataFault { pc, fault })?;
                self.pc = next_pc;
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                if cond.eval(self.get(rs1), self.get(rs2)) {
                    self.pc = rel_target(pc, off as i32);
                    return Ok((Next::Continue, true));
                }
                self.pc = next_pc;
            }
            Inst::J { off } => {
                self.pc = rel_target(pc, off);
            }
            Inst::Jal { off } => {
                self.set(Reg::RA, next_pc as i32);
                self.pc = rel_target(pc, off);
            }
            Inst::Jr { rs } => {
                self.pc = self.get(rs) as u32;
            }
            Inst::Jalr { rs } => {
                let target = self.get(rs) as u32;
                self.set(Reg::RA, next_pc as i32);
                self.pc = target;
            }
            Inst::Ret => {
                self.pc = self.get(Reg::RA) as u32;
            }
            Inst::Ecall { code } => {
                self.pc = next_pc;
                return Ok((Next::Trap(Trap::Ecall { code }), false));
            }
            Inst::Halt => return Ok((Next::Halted, false)),
            Inst::Nop => {
                self.pc = next_pc;
            }
            Inst::Miss { idx } => {
                return Ok((Next::Trap(Trap::Miss { idx, at: pc }), false));
            }
            Inst::Jrh { rs } => {
                let target = self.get(rs) as u32;
                return Ok((Next::Trap(Trap::HashJump { target, at: pc }), false));
            }
            Inst::Jalrh { rs } => {
                let target = self.get(rs) as u32;
                self.set(Reg::RA, next_pc as i32);
                return Ok((Next::Trap(Trap::HashCall { target, at: pc }), false));
            }
        }
        Ok((Next::Continue, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_isa::encode;
    use softcache_isa::inst::{AluOp, BranchCond, MemWidth};

    fn machine_with(words: &[u32]) -> (Cpu, Memory) {
        let mut mem = Memory::new(4096);
        mem.write_words(0, words).unwrap();
        (Cpu::new(0), mem)
    }

    #[test]
    fn zero_register_is_hardwired() {
        let (mut cpu, mut mem) = machine_with(&[encode(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 42,
        })]);
        cpu.step(&mut mem).unwrap();
        assert_eq!(cpu.get(Reg::ZERO), 0);
    }

    #[test]
    fn alu_and_branch_flow() {
        // t0 = 3; loop: t0 -= 1; bnez t0, loop; halt
        let code = [
            encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 3,
            }),
            encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: -1,
            }),
            encode(Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                off: -2,
            }),
            encode(Inst::Halt),
        ];
        let (mut cpu, mut mem) = machine_with(&code);
        let mut steps = 0;
        loop {
            let (_, next, _) = cpu.step(&mut mem).unwrap();
            steps += 1;
            assert!(steps < 100, "runaway loop");
            if next == Next::Halted {
                break;
            }
        }
        assert_eq!(cpu.get(Reg::T0), 0);
        assert_eq!(steps, 1 + 3 * 2 + 1);
    }

    #[test]
    fn call_and_return() {
        // 0: jal +2 (to 12); 4: halt;  12: ret
        let code = [
            encode(Inst::Jal { off: 2 }),
            encode(Inst::Halt),
            encode(Inst::Nop),
            encode(Inst::Ret),
        ];
        let (mut cpu, mut mem) = machine_with(&code);
        cpu.step(&mut mem).unwrap();
        assert_eq!(cpu.pc, 12);
        assert_eq!(cpu.get(Reg::RA), 4);
        cpu.step(&mut mem).unwrap();
        assert_eq!(cpu.pc, 4);
        let (_, n, _) = cpu.step(&mut mem).unwrap();
        assert_eq!(n, Next::Halted);
    }

    #[test]
    fn loads_and_stores() {
        let code = [
            encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 0x100,
            }),
            encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::T1,
                rs1: Reg::ZERO,
                imm: -2,
            }),
            encode(Inst::Store {
                width: MemWidth::W,
                src: Reg::T1,
                base: Reg::T0,
                off: 4,
            }),
            encode(Inst::Load {
                width: MemWidth::H,
                signed: true,
                rd: Reg::T2,
                base: Reg::T0,
                off: 4,
            }),
            encode(Inst::Halt),
        ];
        let (mut cpu, mut mem) = machine_with(&code);
        for _ in 0..4 {
            cpu.step(&mut mem).unwrap();
        }
        assert_eq!(cpu.get(Reg::new(10)), -2, "t2 sign-extended halfword");
        assert_eq!(mem.read_u32(0x104).unwrap(), 0xFFFF_FFFE);
    }

    #[test]
    fn traps_surface() {
        let code = [
            encode(Inst::Ecall { code: 7 }),
            encode(Inst::Miss { idx: 99 }),
        ];
        let (mut cpu, mut mem) = machine_with(&code);
        let (_, n, _) = cpu.step(&mut mem).unwrap();
        assert_eq!(n, Next::Trap(Trap::Ecall { code: 7 }));
        assert_eq!(cpu.pc, 4, "ecall advances pc");
        let (_, n, _) = cpu.step(&mut mem).unwrap();
        assert_eq!(n, Next::Trap(Trap::Miss { idx: 99, at: 4 }));
        assert_eq!(cpu.pc, 4, "miss leaves pc at the stub");
    }

    #[test]
    fn hash_traps_carry_target() {
        let code = [
            encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 0x200,
            }),
            encode(Inst::Jrh { rs: Reg::T0 }),
            encode(Inst::Jalrh { rs: Reg::T0 }),
        ];
        let (mut cpu, mut mem) = machine_with(&code);
        cpu.step(&mut mem).unwrap();
        let (_, n, _) = cpu.step(&mut mem).unwrap();
        assert_eq!(
            n,
            Next::Trap(Trap::HashJump {
                target: 0x200,
                at: 4
            })
        );
        // Manually advance over the jrh to test jalrh.
        cpu.pc = 8;
        let (_, n, _) = cpu.step(&mut mem).unwrap();
        assert_eq!(
            n,
            Next::Trap(Trap::HashCall {
                target: 0x200,
                at: 8
            })
        );
        assert_eq!(cpu.get(Reg::RA), 12, "jalrh links before trapping");
    }

    #[test]
    fn jalrh_through_ra_reads_before_link() {
        let code = [encode(Inst::Jalrh { rs: Reg::RA })];
        let (mut cpu, mut mem) = machine_with(&code);
        cpu.set(Reg::RA, 0x300);
        let (_, n, _) = cpu.step(&mut mem).unwrap();
        assert_eq!(
            n,
            Next::Trap(Trap::HashCall {
                target: 0x300,
                at: 0
            })
        );
    }

    #[test]
    fn errors() {
        let (mut cpu, mut mem) = machine_with(&[0]);
        assert!(matches!(
            cpu.step(&mut mem),
            Err(SimError::IllegalInst { pc: 0, .. })
        ));
        cpu.pc = 1 << 30;
        assert!(matches!(
            cpu.step(&mut mem),
            Err(SimError::FetchFault { .. })
        ));
        let store = encode(Inst::Store {
            width: MemWidth::W,
            src: Reg::T0,
            base: Reg::ZERO,
            off: 2,
        });
        let (mut cpu, mut mem) = machine_with(&[store]);
        assert!(matches!(
            cpu.step(&mut mem),
            Err(SimError::DataFault { pc: 0, .. })
        ));
    }
}
