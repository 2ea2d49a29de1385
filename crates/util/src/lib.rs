//! Foundation utilities shared by every crate in the parameterized FPGA
//! debugging suite.
//!
//! This crate deliberately has no dependency on the rest of the workspace.
//! It provides:
//!
//! * [`id`] — zero-cost strongly typed `u32` index newtypes (`define_id!`)
//!   and dense [`id::IdVec`] maps keyed by them,
//! * [`hash`] — an FxHash-style fast hasher plus `FxHashMap`/`FxHashSet`
//!   aliases (hot CAD data structures are keyed by small integers, where
//!   SipHash is needlessly slow),
//! * [`bitvec`] — a compact, fixed-width bit vector used for truth tables,
//!   configuration frames and signal-selection masks,
//! * [`par`] — the fixed work shards the generalized bitstream's BDDs
//!   are built in (every stage of the flow runs serially),
//! * [`stats`] — summary statistics (mean/geomean/percentiles) used by the
//!   benchmark harness,
//! * [`table`] — an aligned plain-text table writer used to regenerate the
//!   paper's tables and figures without external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod hash;
pub mod id;
pub mod par;
pub mod stats;
pub mod table;

pub use bitvec::BitVec;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use id::IdVec;
