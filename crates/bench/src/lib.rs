//! # softcache-bench: the paper's experiment harness
//!
//! One function per table/figure of the ICPP 2002 evaluation ([`experiments`]),
//! plus plain-text rendering ([`render`]). The `experiments` binary drives
//! everything:
//!
//! ```sh
//! cargo run --release -p softcache-bench --bin experiments -- all
//! ```
//!
//! The experiments report simulated quantities (cycles, misses, bytes),
//! which are exact and host-independent; only the `fanin` scaling sweep
//! adds host throughput. Host timing of the simulator itself lives in the
//! separate `benchmark/` package, which reports paired medians with their
//! noise bands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod render;
