//! # softcache-core: software caching via dynamic binary rewriting
//!
//! The primary contribution of the reproduced paper: instruction and data
//! caching implemented entirely in software for an embedded client backed
//! by a server.
//!
//! * [`icache`] — the basic-block-granularity software instruction cache
//!   (the SPARC prototype, §2.1–2.2): [`icache::SoftIcacheSystem`].
//! * [`proc`] — the procedure-granularity variant with redirector stubs
//!   and per-procedure TRRIP eviction (the ARM prototype, §2.3–2.4):
//!   [`proc::ProcCacheSystem`].
//! * [`dcache`] / [`scache`] — the software data cache and stack cache of
//!   §3, fully implemented (the paper only sketched them).
//! * [`power`] — the §4 banked-SRAM power model (working-set-driven bank
//!   gating).
//! * [`datarun`] — systems that wire the data caches into execution.
//! * [`integrity`] — CRC-32 seals over installed code, seeded memory
//!   fault injection, and quarantine-based self-healing (robustness
//!   extension).
//! * [`mc`] / [`cc`] — the memory-controller and cache-controller halves.
//! * [`server`] — an MC serving many CC clients from one shared image
//!   ([`server::McServer`]) from one event-driven poll loop.
//! * [`xlate`] — the shared translation cache: translate each chunk
//!   once, serve every tenant ([`xlate::SharedXlate`]).
//! * [`protocol`] / [`endpoint`] — the wire protocol and the fused/remote
//!   deployment shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr_map;
mod arena;
pub mod cc;
pub mod datarun;
pub mod dcache;
pub mod endpoint;
pub mod icache;
pub mod integrity;
pub mod mc;
pub mod power;
pub mod proc;
pub mod protocol;
pub mod scache;
pub mod server;
pub mod xlate;

pub use cc::{CacheError, Cc, IcacheConfig, IcacheStats, TcachePolicy};
pub use datarun::{DataRunOutput, SoftDcacheSystem};
pub use dcache::{Dcache, DcacheConfig, DcacheStats, Prediction, WritePolicy};
pub use endpoint::{serve, serve_bounded, InThreadMc, McEndpoint, RpcOutcome, ServeReport};
pub use icache::{RunOutput, SoftIcacheSystem};
pub use integrity::{IntegrityStats, MemFaultInjector, MemFaultPlan};
pub use mc::{ChunkStrategy, Mc, McStats};
pub use power::{BankConfig, BankModel};
pub use proc::{ProcCacheSystem, ProcConfig, ProcRunOutput, ProcStats};
pub use protocol::{Reply, Request};
pub use scache::{Scache, ScacheConfig, ScacheStats};
pub use server::McServer;
pub use xlate::{SharedXlate, XlateStats};
