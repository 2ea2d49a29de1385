//! Content-addressed on-disk artifact store for offline-flow outputs.
//!
//! The offline generic stage (synthesis → TCONMap → TPaR → generalized
//! bitstream) is the expensive half of the paper's flow; it only needs
//! to run once per design. This crate persists its products — the
//! instrumented netlist, mapping statistics, bitstream layout, BDD
//! manager and generalized bitstream — as a single versioned,
//! checksummed binary artifact keyed by a content fingerprint of the
//! inputs, so that a second compile of the same design is a cache hit
//! that skips the flow entirely.
//!
//! No external serialization dependency (see DESIGN.md §6): the format
//! is a hand-rolled little-endian encoding in the same spirit as the
//! flat JSONL writer in `pfdbg-obs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bytes;
pub mod journal;
pub mod store;

pub use artifact::{Artifact, SerializedPort, FORMAT_VERSION, MAGIC};
pub use journal::{
    read_journal, scan_journal_bytes, JournalAppender, JournalScan, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use store::{ArtifactStore, CacheOutcome};
