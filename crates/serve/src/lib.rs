//! Concurrent debug service over the online specialization stage.
//!
//! `pfdbg-serve` exposes a compiled design (a shared SCG plus layout
//! and reconfiguration-port model) to many clients at once: a
//! `std::net` TCP server with a nonblocking IO loop, a line-delimited
//! JSON protocol (the flat JSONL schema from `pfdbg-obs`), a sharded
//! session fleet — sessions pin to owner threads by name hash, with
//! bounded per-shard inboxes and `overloaded` shedding under pressure
//! — and an LRU cache of specialized frame-sets keyed by parameter
//! vector. Requests carry deadlines; failures become error replies,
//! never server panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lru;
pub mod protocol;
pub mod server;
pub mod session;
mod shard;
mod telemetry;

pub use protocol::{Reply, Request};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{
    primary_device_of, Counts, DeviceOptions, FleetOptions, SessionManager, TurnOutcome,
};
pub use shard::ShardHold;
