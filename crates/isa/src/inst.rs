//! The eRISC instruction set.
//!
//! Semantics summary (all arithmetic is wrapping two's-complement on 32-bit
//! values; shifts mask the amount to 5 bits; division by zero yields `-1`
//! quotient and the dividend as remainder, like RISC-V):
//!
//! | Form | Meaning |
//! |---|---|
//! | `Alu`      | `rd = rs1 <op> rs2` |
//! | `AluImm`   | `rd = rs1 <op> imm` (`And/Or/Xor` zero-extend, others sign-extend) |
//! | `Lui`      | `rd = imm << 16` |
//! | `Load`     | `rd = mem[rs1 + off]`, width 1/2/4, optional sign extension |
//! | `Store`    | `mem[rs1 + off] = src` (low `width` bytes) |
//! | `Branch`   | `if cond(rs1, rs2): pc = pc + 4 + off*4` |
//! | `J`        | `pc = pc + 4 + off*4` |
//! | `Jal`      | `ra = pc + 4; pc = pc + 4 + off*4` — the **unique call instruction** |
//! | `Jr`       | `pc = rs` (computed jump, e.g. switch tables) |
//! | `Jalr`     | `ra = pc + 4; pc = rs` (indirect call) |
//! | `Ret`      | `pc = ra` — the **unique return instruction** |
//! | `Ecall`    | environment call (I/O, exit, cycle counter) |
//! | `Halt`     | stop the machine |
//! | `Miss`     | softcache miss stub; traps to the cache controller |
//! | `Jrh`/`Jalrh` | hash-translated indirect jump/call; trap to the CC runtime |

use crate::reg::Reg;
use std::fmt;

/// Register-register and register-immediate ALU operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Signed division (truncating; x/0 = -1).
    Div,
    /// Signed remainder (x%0 = x).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
}

impl AluOp {
    /// Mnemonic suffix used by the assembler/disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }

    /// Apply the operation to two values.
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    -1
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => ((a as u32) << (b as u32 & 31)) as i32,
            AluOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
            AluOp::Sra => a >> (b as u32 & 31),
            AluOp::Slt => (a < b) as i32,
            AluOp::Sltu => ((a as u32) < (b as u32)) as i32,
        }
    }

    /// Does the immediate form zero-extend its 16-bit immediate?
    /// (Bitwise ops do, matching MIPS; arithmetic/compares sign-extend.)
    pub fn imm_zero_extends(self) -> bool {
        matches!(self, AluOp::And | AluOp::Or | AluOp::Xor)
    }
}

/// Branch conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than, signed.
    Lt,
    /// Greater or equal, signed.
    Ge,
    /// Less than, unsigned.
    Ltu,
    /// Greater or equal, unsigned.
    Geu,
}

impl BranchCond {
    /// Mnemonic, e.g. `beq`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }

    /// Evaluate the condition.
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Ltu => (a as u32) < (b as u32),
            BranchCond::Geu => (a as u32) >= (b as u32),
        }
    }
}

/// Memory access width.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MemWidth {
    /// One byte.
    B,
    /// Two bytes (halfword).
    H,
    /// Four bytes (word).
    W,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
        }
    }
}

/// A decoded eRISC instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Inst {
    /// `rd = rs1 <op> rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 <op> imm` (16-bit immediate; extension depends on op).
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Immediate (already extended to 32 bits by the decoder).
        imm: i32,
    },
    /// `rd = imm << 16`.
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper immediate (16 bits, stored unshifted).
        imm: u16,
    },
    /// Load from `rs1 + off`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend sub-word loads?
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        off: i16,
    },
    /// Store `src` to `rs1 + off`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        off: i16,
    },
    /// Conditional PC-relative branch (`off` in words from `pc + 4`).
    Branch {
        /// Condition.
        cond: BranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed word offset from the next instruction.
        off: i16,
    },
    /// Unconditional PC-relative jump (`off` in words from `pc + 4`).
    J {
        /// Signed word offset from the next instruction (26-bit range).
        off: i32,
    },
    /// Call: `ra = pc + 4` then PC-relative jump. The unique call instruction.
    Jal {
        /// Signed word offset from the next instruction (26-bit range).
        off: i32,
    },
    /// Computed jump: `pc = rs`.
    Jr {
        /// Target address register.
        rs: Reg,
    },
    /// Indirect call: `ra = pc + 4; pc = rs`.
    Jalr {
        /// Target address register.
        rs: Reg,
    },
    /// Return: `pc = ra`. The unique return instruction.
    Ret,
    /// Environment call; `code` selects the service.
    Ecall {
        /// Service number (see the simulator's syscall table).
        code: u16,
    },
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,
    /// Softcache miss stub: trap to the cache controller with a 26-bit
    /// index naming the stub's own tcache word. Never produced by the
    /// compiler; materialised by the CC when the MC rewrites an exit whose
    /// target is not yet resident.
    Miss {
        /// The stub's own tcache word: the stub sits at
        /// `TCACHE_BASE + 4 × idx`.
        idx: u32,
    },
    /// Hash-translated computed jump: trap to the CC, which maps the
    /// *original-address* value in `rs` through the tcache map.
    Jrh {
        /// Register holding the original-program target address.
        rs: Reg,
    },
    /// Hash-translated indirect call (`ra = pc + 4` then as [`Inst::Jrh`]).
    Jalrh {
        /// Register holding the original-program target address.
        rs: Reg,
    },
}

impl Inst {
    /// True for instructions that end a basic block (any control transfer).
    pub fn ends_block(self) -> bool {
        matches!(
            self,
            Inst::Branch { .. }
                | Inst::J { .. }
                | Inst::Jal { .. }
                | Inst::Jr { .. }
                | Inst::Jalr { .. }
                | Inst::Ret
                | Inst::Halt
                | Inst::Miss { .. }
                | Inst::Jrh { .. }
                | Inst::Jalrh { .. }
        )
    }

    /// The register written by this instruction, if any.
    pub fn def_reg(self) -> Option<Reg> {
        match self {
            Inst::Alu { rd, .. } | Inst::AluImm { rd, .. } | Inst::Lui { rd, .. } => Some(rd),
            Inst::Load { rd, .. } => Some(rd),
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Jalrh { .. } => Some(Reg::RA),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Inst::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let m = match (width, signed) {
                    (MemWidth::W, _) => "lw",
                    (MemWidth::H, true) => "lh",
                    (MemWidth::H, false) => "lhu",
                    (MemWidth::B, true) => "lb",
                    (MemWidth::B, false) => "lbu",
                };
                write!(f, "{m} {rd}, {off}({base})")
            }
            Inst::Store {
                width,
                src,
                base,
                off,
            } => {
                let m = match width {
                    MemWidth::W => "sw",
                    MemWidth::H => "sh",
                    MemWidth::B => "sb",
                };
                write!(f, "{m} {src}, {off}({base})")
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => write!(f, "{} {rs1}, {rs2}, {off}", cond.mnemonic()),
            Inst::J { off } => write!(f, "j {off}"),
            Inst::Jal { off } => write!(f, "jal {off}"),
            Inst::Jr { rs } => write!(f, "jr {rs}"),
            Inst::Jalr { rs } => write!(f, "jalr {rs}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Ecall { code } => write!(f, "ecall {code}"),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
            Inst::Miss { idx } => write!(f, "miss {idx}"),
            Inst::Jrh { rs } => write!(f, "jrh {rs}"),
            Inst::Jalrh { rs } => write!(f, "jalrh {rs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Add.eval(i32::MAX, 1), i32::MIN);
        assert_eq!(AluOp::Sub.eval(2, 3), -1);
        assert_eq!(AluOp::Mul.eval(1 << 20, 1 << 20), 0);
        assert_eq!(AluOp::Div.eval(7, 2), 3);
        assert_eq!(AluOp::Div.eval(-7, 2), -3);
        assert_eq!(AluOp::Div.eval(5, 0), -1);
        assert_eq!(AluOp::Rem.eval(7, 2), 1);
        assert_eq!(AluOp::Rem.eval(-7, 2), -1);
        assert_eq!(AluOp::Rem.eval(5, 0), 5);
    }

    #[test]
    fn div_overflow_does_not_panic() {
        // i32::MIN / -1 overflows in Rust; wrapping_div defines it as i32::MIN.
        assert_eq!(AluOp::Div.eval(i32::MIN, -1), i32::MIN);
        assert_eq!(AluOp::Rem.eval(i32::MIN, -1), 0);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(AluOp::Sll.eval(1, 33), 2);
        assert_eq!(AluOp::Srl.eval(-1, 31), 1);
        assert_eq!(AluOp::Sra.eval(-8, 2), -2);
    }

    #[test]
    fn compare_ops() {
        assert_eq!(AluOp::Slt.eval(-1, 0), 1);
        assert_eq!(AluOp::Sltu.eval(-1, 0), 0);
        assert!(BranchCond::Lt.eval(-5, 3));
        assert!(!BranchCond::Ltu.eval(-5, 3));
        assert!(BranchCond::Geu.eval(-5, 3));
    }

    #[test]
    fn block_enders() {
        assert!(Inst::Ret.ends_block());
        assert!(Inst::J { off: 0 }.ends_block());
        assert!(Inst::Jal { off: 1 }.ends_block());
        assert!(!Inst::Nop.ends_block());
        assert!(!Inst::Ecall { code: 1 }.ends_block());
        assert!(Inst::Miss { idx: 7 }.ends_block());
    }

    #[test]
    fn def_regs() {
        assert_eq!(
            Inst::Jal { off: 0 }.def_reg(),
            Some(Reg::RA),
            "call defines ra"
        );
        assert_eq!(Inst::Ret.def_reg(), None);
        assert_eq!(
            Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 1
            }
            .def_reg(),
            Some(Reg::T0)
        );
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn every_instruction_formats() {
        let insts = [
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::A0,
                rs2: Reg::A1,
            },
            Inst::AluImm {
                op: AluOp::Xor,
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: 0xff,
            },
            Inst::Lui {
                rd: Reg::S0,
                imm: 0x1234,
            },
            Inst::Load {
                width: MemWidth::H,
                signed: false,
                rd: Reg::T1,
                base: Reg::SP,
                off: -8,
            },
            Inst::Store {
                width: MemWidth::B,
                src: Reg::A0,
                base: Reg::FP,
                off: 12,
            },
            Inst::Branch {
                cond: BranchCond::Geu,
                rs1: Reg::T0,
                rs2: Reg::T1,
                off: -3,
            },
            Inst::J { off: 5 },
            Inst::Jal { off: -1 },
            Inst::Jr { rs: Reg::T2 },
            Inst::Jalr { rs: Reg::T2 },
            Inst::Ret,
            Inst::Ecall { code: 4 },
            Inst::Halt,
            Inst::Nop,
            Inst::Miss { idx: 77 },
            Inst::Jrh { rs: Reg::T0 },
            Inst::Jalrh { rs: Reg::T0 },
        ];
        let expected = [
            "add t0, a0, a1",
            "xori t0, t0, 255",
            "lui s0, 0x1234",
            "lhu t1, -8(sp)",
            "sb a0, 12(fp)",
            "bgeu t0, t1, -3",
            "j 5",
            "jal -1",
            "jr t2",
            "jalr t2",
            "ret",
            "ecall 4",
            "halt",
            "nop",
            "miss 77",
            "jrh t0",
            "jalrh t0",
        ];
        for (inst, want) in insts.iter().zip(expected) {
            assert_eq!(inst.to_string(), want);
        }
    }
}
