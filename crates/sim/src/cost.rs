//! The deterministic cycle cost model.
//!
//! The paper reports *relative* execution times on a 200 MHz-class embedded
//! core; we charge deterministic per-instruction cycle costs so experiments
//! are reproducible and host-noise-free. All knobs live here so the bench
//! harness can sweep them (e.g. the "fallthrough jumps optimized away"
//! ablation zeroes `fallthrough_jump`).

use softcache_isa::inst::{AluOp, Inst};

/// Per-instruction-class cycle costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Base cost of any instruction.
    pub base: u64,
    /// Extra cycles for a load or store (local SRAM access).
    pub mem_extra: u64,
    /// Extra cycles for a multiply.
    pub mul_extra: u64,
    /// Extra cycles for a divide or remainder.
    pub div_extra: u64,
    /// Extra cycles when a branch is taken (pipeline refill).
    pub taken_extra: u64,
    /// Cost charged for an `ecall` (environment transition).
    pub ecall_extra: u64,
    /// Clock frequency in Hz, used to convert cycles to seconds (the ARM
    /// prototype's SA-110 ran at 200 MHz).
    pub clock_hz: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            base: 1,
            mem_extra: 1,
            mul_extra: 2,
            div_extra: 16,
            taken_extra: 1,
            ecall_extra: 5,
            clock_hz: 200_000_000,
        }
    }
}

impl CostModel {
    /// Cycles charged for executing `inst`, given whether a branch was taken.
    #[inline]
    pub fn cycles_for(&self, inst: Inst, taken: bool) -> u64 {
        let mut c = self.base;
        match inst {
            Inst::Load { .. } | Inst::Store { .. } => c += self.mem_extra,
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => c += self.mul_extra,
                AluOp::Div | AluOp::Rem => c += self.div_extra,
                _ => {}
            },
            Inst::Branch { .. } if taken => c += self.taken_extra,
            Inst::J { .. } | Inst::Jal { .. } | Inst::Jr { .. } | Inst::Jalr { .. } | Inst::Ret => {
                c += self.taken_extra
            }
            Inst::Ecall { .. } => c += self.ecall_extra,
            _ => {}
        }
        c
    }

    /// Both cycle charges for `inst` as `(not_taken, taken)` — computed
    /// once per word by superblock lowering, so a block's cycle totals are
    /// known before it runs. The pair differs only for conditional
    /// branches.
    #[inline]
    pub fn cycle_pair(&self, inst: Inst) -> (u64, u64) {
        (self.cycles_for(inst, false), self.cycles_for(inst, true))
    }

    /// Convert a cycle count to seconds at this model's clock.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_isa::reg::Reg;

    #[test]
    fn costs_reflect_class() {
        let m = CostModel::default();
        let nop = Inst::Nop;
        let lw = Inst::Load {
            width: softcache_isa::inst::MemWidth::W,
            signed: true,
            rd: Reg::T0,
            base: Reg::SP,
            off: 0,
        };
        let div = Inst::Alu {
            op: AluOp::Div,
            rd: Reg::T0,
            rs1: Reg::T0,
            rs2: Reg::T1,
        };
        assert_eq!(m.cycles_for(nop, false), m.base);
        assert_eq!(m.cycles_for(lw, false), m.base + m.mem_extra);
        assert_eq!(m.cycles_for(div, false), m.base + m.div_extra);
        let b = Inst::Branch {
            cond: softcache_isa::inst::BranchCond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            off: 0,
        };
        assert_eq!(m.cycles_for(b, false), m.base);
        assert_eq!(m.cycles_for(b, true), m.base + m.taken_extra);
    }

    #[test]
    fn time_conversion() {
        let m = CostModel::default();
        assert!((m.cycles_to_secs(200_000_000) - 1.0).abs() < 1e-12);
    }
}
