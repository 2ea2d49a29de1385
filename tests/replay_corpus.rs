//! The committed replay corpus must stay bit-identical forever.
//!
//! `tests/corpus/*.pfdj` are self-contained session journals (design
//! generator parameters, chaos seeds, and every turn's observable
//! facts). Re-driving them through the current code and getting the
//! exact recorded counters is the regression net for the whole
//! deterministic stack: offline flow, SCG specialization, retry
//! ladder, SEU injection, and scrubbing. A divergence here means a
//! behavior change that silently invalidates every recorded session.

use std::path::Path;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn committed_corpus_replays_bit_identically() {
    let n = parameterized_fpga_debug::replay::verify_corpus(&corpus_dir()).expect("corpus replay");
    assert!(n >= 3, "expected at least 3 corpus journals, verified {n}");
}
