//! # softcache-sim: the embedded machine simulator
//!
//! A deterministic, cycle-accounting interpreter for the eRISC ISA. It plays
//! the role of the UltraSPARC / StrongARM hardware in the paper: native runs
//! provide the "ideal" baseline of Figure 5, instruction-fetch traces drive
//! the hardware-cache comparison of Figure 6, and the trap interface
//! ([`cpu::Trap`]) is how the softcache cache controller intervenes in
//! execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod machine;
pub mod mem;
pub mod profile;
mod uop;

pub use cost::CostModel;
pub use cpu::{Cpu, Next, SimError, Trap};
pub use machine::{
    syscall, BreakStats, Env, ExecStats, Machine, RunError, Step, TraceStats,
    DEFAULT_THREADED_THRESHOLD, THREADED_NEVER,
};
pub use mem::{MemFault, Memory};
pub use profile::{Profile, Profiler};
