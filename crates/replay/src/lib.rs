//! `pfdbg-replay` — session record/replay journals and differential
//! turn-sequence fuzzing.
//!
//! The debug flow of this repository is deterministic by construction:
//! seeded fault and SEU streams, a serial SCG evaluation, and
//! transactional frame commits. Every debugging session — serve's
//! included — runs one [`pfdbg_pconf::Session`]; this crate builds it
//! from a journal's chaos settings ([`ChaosSpec::session`]), records
//! the facts of its operations ([`select_facts`], [`scrub_facts`]), and
//! turns that determinism into three tools:
//!
//! 1. **Recording** ([`Recorder`], [`JournalWriter`]): every turn's
//!    inputs and observable outputs are appended to a checksummed
//!    `PFDJ` journal (framed by [`pfdbg_store::journal`]) that
//!    tolerates torn tails from crashes.
//! 2. **Replay verification** ([`verify_path`], [`verify_records`]):
//!    a journal is re-driven against a freshly rebuilt session and
//!    every reply is diffed bit-for-bit; the first divergent turn is
//!    reported with a structured [`Divergence`]. The serve layer's
//!    crash-consistent restore runs the same loop
//!    ([`verify_with_driver`]) over its own sessions ([`Redrive`]).
//! 3. **Differential fuzzing** ([`fuzz::run_suite`]): seeded random
//!    turn sequences drive pairs of sessions that must agree —
//!    faulty-vs-golden-oracle and scrubbed-vs-unscrubbed at 0% SEU —
//!    and any divergence is shrunk
//!    to a minimal journal for the regression corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod fuzz;
pub mod journal;
pub mod record;
pub mod session;
pub mod verify;

pub use driver::{
    bitstream_crc, build_design, device_crc, session_seed, BuiltDesign, OnlineDriver, Recorder,
};
pub use fuzz::{
    default_pairs, run_case, run_suite, verify_corpus, CaseReport, FuzzOp, PairKind, SuiteReport,
};
pub use journal::{meta_of, read_records, JournalWriter};
pub use record::{
    ChaosSpec, DesignSpec, JournalRecord, ScrubFacts, SelectFacts, SelectOutcome, SessionMeta,
};
pub use session::{scrub_facts, select_facts};
pub use verify::{
    verify_path, verify_records, verify_with_driver, Divergence, Redrive, VerifyReport,
};
