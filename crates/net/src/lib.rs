//! # softcache-net: the MC↔CC link
//!
//! In the paper's ARM prototype the memory controller (server) and cache
//! controller (embedded client) are separate Skiff boards on 10 Mbps
//! Ethernet, and each chunk download costs "60 application bytes" of
//! protocol overhead. This crate reproduces that link:
//!
//! * [`frame`] — byte-level message framing (the wire format is plain
//!   little-endian fields, like the prototype's TCP messages);
//! * [`transport`] — duplex transports: in-process queues (the fused SPARC
//!   prototype "jumps back and forth") and crossbeam channels (the
//!   two-board ARM setup, one thread per controller);
//! * [`envelope`] — the session-layer wire envelope (sequence number,
//!   server epoch, CRC-32) that turns corruption into detectable loss and
//!   makes MC restarts observable;
//! * [`fault`] — deterministic seeded fault injection (bit flips, drops,
//!   duplicates, reorders, delays, partition windows);
//! * [`session`] — retry/backoff policy and recovery-event counters;
//! * [`cost`] — the link cost model (latency + bandwidth + per-message
//!   overhead) that converts transfers into embedded-core cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod envelope;
pub mod fault;
pub mod frame;
pub mod session;
pub mod transport;

pub use cost::{LinkModel, LinkStats};
pub use fault::{FaultCounters, FaultPlan, FaultyTransport};
pub use frame::{FrameReader, FrameWriter};
pub use session::{LinkPolicy, SessionCounters};
pub use transport::{
    loopback_pair, policy_pair, thread_pair, NetError, ReadySet, Transport, HEADER_BYTES,
};
