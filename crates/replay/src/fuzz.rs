//! Differential turn-sequence fuzzing.
//!
//! Each case derives a random small design and a random operation
//! sequence from a seed, then drives it through a *pair* of sessions
//! that must agree — faulty-vs-golden-oracle, scrubbed-vs-unscrubbed
//! under 0% SEU — and diffs every observable
//! fact. Any divergence is shrunk (prefix truncation + greedy op
//! removal) to a minimal reproducing sequence and saved as a journal,
//! turning the failure into a permanent regression-corpus entry.
//!
//! Everything is seeded: the same `(pair, seed)` replays the same
//! case, divergent or not.

use crate::driver::OnlineDriver;
use crate::record::{ChaosSpec, DesignSpec, SelectOutcome, SessionMeta};
use crate::verify::{diff_scrub, diff_select, Divergence};
use pfdbg_emu::{IcapFaultConfig, NondetIcap};
use pfdbg_util::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// One fuzzed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzOp {
    /// A select turn with this parameter vector.
    Select(BitVec),
    /// A scrub pass.
    Scrub,
}

/// Which emulator pair a case drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairKind {
    /// A faulty-ICAP session checked against the stateless golden
    /// oracle: after every committed turn the device readback must
    /// equal the PConf specialization of the applied parameters,
    /// regardless of how many retries/escalations the transport cost.
    FaultyOracle,
    /// Under 0% SEU, a session that scrubs must be observably
    /// identical to one that never does — and its scrub passes must
    /// find nothing.
    ScrubNone,
    /// Test-only: the B side's channel flips one unseeded bit after
    /// this many device ticks ([`NondetIcap`]) — the pair *must*
    /// diverge, proving the harness catches nondeterminism.
    Nondet {
        /// Tick (1-based) on which the rogue flip fires.
        after_ticks: usize,
    },
}

impl PairKind {
    /// Short stable name (corpus file names, logs).
    pub fn name(&self) -> String {
        match self {
            PairKind::FaultyOracle => "faulty-vs-oracle".into(),
            PairKind::ScrubNone => "scrubbed-vs-unscrubbed".into(),
            PairKind::Nondet { after_ticks } => format!("nondet-after{after_ticks}"),
        }
    }
}

/// The production pair matrix (the nondeterminism hook is test-only
/// and deliberately excluded — it always diverges).
pub fn default_pairs() -> Vec<PairKind> {
    vec![PairKind::FaultyOracle, PairKind::ScrubNone]
}

/// What one fuzz case did.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case seed.
    pub seed: u64,
    /// Pair name.
    pub pair: String,
    /// Operations driven.
    pub ops: usize,
    /// The divergence, if the pair disagreed.
    pub divergence: Option<Divergence>,
    /// Length of the shrunk reproducing sequence (divergent cases).
    pub shrunk_ops: Option<usize>,
    /// Where the minimal journal was saved (divergent cases with a
    /// corpus directory).
    pub corpus_path: Option<PathBuf>,
}

/// A whole seeded run.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// Per-case outcomes in run order.
    pub cases: Vec<CaseReport>,
}

impl SuiteReport {
    /// Cases whose pair diverged.
    pub fn divergences(&self) -> usize {
        self.cases.iter().filter(|c| c.divergence.is_some()).count()
    }
}

/// Derive the case's design/chaos meta from its seed. Designs are kept
/// small on purpose: a fuzz case's power comes from sequence and seed
/// diversity, not netlist size.
fn gen_meta(rng: &mut StdRng, pair: &PairKind, seed: u64) -> SessionMeta {
    let design = DesignSpec::Generated {
        n_inputs: rng.gen_range(4..7usize),
        n_outputs: rng.gen_range(3..5usize),
        n_gates: rng.gen_range(12..26usize),
        depth: rng.gen_range(3..5usize),
        n_latches: rng.gen_range(0..3usize),
        seed: rng.gen::<u64>(),
    };
    let mut chaos = ChaosSpec::reliable();
    chaos.jitter_seed = rng.gen::<u64>();
    if matches!(pair, PairKind::FaultyOracle) {
        // Up to ~10% per-write fault probability, seeded per case.
        let rate = 0.02 + rng.gen_range(0..80u32) as f64 / 1000.0;
        chaos.fault = Some(IcapFaultConfig::uniform(rate, rng.gen::<u64>()));
    }
    SessionMeta {
        session: format!("fuzz-{seed}"),
        derive_seeds: false,
        design,
        ports: rng.gen_range(1..3usize),
        coverage: 1,
        k: 4,
        n_params: 0, // filled once the design is built
        chaos,
        threads: 1,
        note: format!("diff_fuzz case: pair={}, seed={seed}", pair.name()),
    }
}

/// Derive the case's operation sequence.
fn gen_ops(rng: &mut StdRng, n_params: usize) -> Vec<FuzzOp> {
    let n_ops = rng.gen_range(3..9usize);
    (0..n_ops)
        .map(|_| {
            if rng.gen_bool(0.2) {
                FuzzOp::Scrub
            } else {
                let mut params = BitVec::zeros(n_params);
                for i in 0..n_params {
                    params.set(i, rng.gen_bool(0.5));
                }
                FuzzOp::Select(params)
            }
        })
        .collect()
}

/// Drive `ops` through the pair once; `Ok(Some(_))` is the first
/// divergence, `Ok(None)` a clean agreement. The record index of a
/// divergence is the op index.
fn execute(
    pair: &PairKind,
    meta: &SessionMeta,
    ops: &[FuzzOp],
) -> Result<Option<Divergence>, String> {
    match pair {
        PairKind::FaultyOracle => {
            let mut a = OnlineDriver::build(meta)?;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    FuzzOp::Select(params) => {
                        let facts = a.select(params);
                        if facts.outcome == SelectOutcome::Committed {
                            let oracle = a.specialize_crc(params)?;
                            if facts.readback_crc != oracle {
                                return Ok(Some(Divergence {
                                    record: i,
                                    turn: i as u64,
                                    field: "readback_vs_oracle".into(),
                                    expected: format!("{oracle:#018x}"),
                                    actual: format!("{:#018x}", facts.readback_crc),
                                }));
                            }
                        }
                    }
                    FuzzOp::Scrub => {
                        a.scrub()?;
                    }
                }
            }
            Ok(None)
        }
        PairKind::ScrubNone => {
            let mut a = OnlineDriver::build(meta)?;
            let mut b = OnlineDriver::build(meta)?;
            // A scrubs where the sequence says so; B never does. Under
            // 0% SEU and a reliable transport, both the select facts
            // and A's scrub reports must show nothing happened.
            for (i, op) in ops.iter().enumerate() {
                match op {
                    FuzzOp::Select(params) => {
                        let fa = a.select(params);
                        let fb = b.select(params);
                        if let Some(d) = diff_select(i, i as u64, &fa, &fb) {
                            return Ok(Some(d));
                        }
                    }
                    FuzzOp::Scrub => {
                        let facts = a.scrub()?;
                        if facts.upset_frames != 0 || facts.repaired_frames != 0 {
                            return Ok(Some(Divergence {
                                record: i,
                                turn: i as u64,
                                field: "scrub_upsets_at_zero_seu".into(),
                                expected: "0".into(),
                                actual: facts.upset_frames.to_string(),
                            }));
                        }
                    }
                }
            }
            Ok(None)
        }
        PairKind::Nondet { after_ticks } => {
            let after = (*after_ticks).max(1);
            let mut a = OnlineDriver::build(meta)?;
            let mut b = OnlineDriver::build_wrapped(meta, |c| Box::new(NondetIcap::new(c, after)))?;
            run_lockstep(&mut a, &mut b, ops)
        }
    }
}

/// Drive both sides through the same ops, diffing every fact.
fn run_lockstep(
    a: &mut OnlineDriver,
    b: &mut OnlineDriver,
    ops: &[FuzzOp],
) -> Result<Option<Divergence>, String> {
    for (i, op) in ops.iter().enumerate() {
        match op {
            FuzzOp::Select(params) => {
                let fa = a.select(params);
                let fb = b.select(params);
                if let Some(d) = diff_select(i, i as u64, &fa, &fb) {
                    return Ok(Some(d));
                }
            }
            FuzzOp::Scrub => {
                let fa = a.scrub()?;
                let fb = b.scrub()?;
                if let Some(d) = diff_scrub(i, i as u64, &fa, &fb) {
                    return Ok(Some(d));
                }
            }
        }
    }
    Ok(None)
}

/// Shrink a diverging sequence: truncate to the divergent op, then
/// greedily drop any op whose removal keeps the pair diverging.
/// Deterministic pairs make this sound — each candidate re-runs the
/// whole pair from scratch.
fn shrink(
    pair: &PairKind,
    meta: &SessionMeta,
    ops: &[FuzzOp],
    first: &Divergence,
) -> Result<(Vec<FuzzOp>, Divergence), String> {
    let mut cur: Vec<FuzzOp> = ops[..(first.record + 1).min(ops.len())].to_vec();
    let mut div = match execute(pair, meta, &cur)? {
        Some(d) => d,
        // Truncation should preserve the divergence (the prefix is
        // unchanged); if a pathological pair disagrees, keep the
        // original sequence rather than "shrinking" to a passing one.
        None => {
            cur = ops.to_vec();
            first.clone()
        }
    };
    loop {
        let mut progressed = false;
        for i in 0..cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if let Some(d) = execute(pair, meta, &cand)? {
                cur = cand;
                div = d;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return Ok((cur, div));
        }
    }
}

/// Record the minimal reproducing sequence as a journal under
/// `corpus_dir`. The journal holds the *reference* side's facts (it
/// verifies clean standalone); the divergence context lives in its
/// meta note.
fn save_corpus(
    pair: &PairKind,
    meta: &SessionMeta,
    ops: &[FuzzOp],
    div: &Divergence,
    seed: u64,
    corpus_dir: &Path,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(corpus_dir)
        .map_err(|e| format!("create corpus dir {}: {e}", corpus_dir.display()))?;
    let path = corpus_dir.join(format!("divergence-{}-{seed}.pfdj", pair.name()));
    let meta = SessionMeta {
        note: format!(
            "shrunk diff_fuzz divergence: pair={}, seed={seed}, field={}, journal={}, other={}",
            pair.name(),
            div.field,
            div.expected,
            div.actual
        ),
        ..meta.clone()
    };
    let mut recorder = crate::driver::Recorder::create(&meta, &path)?;
    for op in ops {
        match op {
            FuzzOp::Select(params) => {
                recorder.select(params)?;
            }
            FuzzOp::Scrub => {
                recorder.scrub()?;
            }
        }
    }
    recorder.finish()?;
    Ok(path)
}

/// Run one seeded case end-to-end: derive, execute, and on divergence
/// shrink and (optionally) save the minimal journal.
pub fn run_case(
    pair: &PairKind,
    seed: u64,
    corpus_dir: Option<&Path>,
) -> Result<CaseReport, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_D1FF_F022_CA5E);
    let mut meta = gen_meta(&mut rng, pair, seed);
    // One probe build resolves the parameter count the op generator
    // needs; the recorded meta then pins it for every later rebuild.
    meta.n_params = crate::driver::build_design(&meta)?.n_params();
    let ops = gen_ops(&mut rng, meta.n_params);
    let mut report = CaseReport {
        seed,
        pair: pair.name(),
        ops: ops.len(),
        divergence: None,
        shrunk_ops: None,
        corpus_path: None,
    };
    let Some(div) = execute(pair, &meta, &ops)? else {
        return Ok(report);
    };
    let (min_ops, min_div) = shrink(pair, &meta, &ops, &div)?;
    report.shrunk_ops = Some(min_ops.len());
    if let Some(dir) = corpus_dir {
        report.corpus_path = Some(save_corpus(pair, &meta, &min_ops, &min_div, seed, dir)?);
    }
    report.divergence = Some(min_div);
    Ok(report)
}

/// Run `cases` seeded cases round-robin across `pairs`, calling
/// `progress` after each. Case `c` uses seed `base_seed + c`.
pub fn run_suite(
    cases: usize,
    base_seed: u64,
    pairs: &[PairKind],
    corpus_dir: Option<&Path>,
    mut progress: impl FnMut(&CaseReport),
) -> Result<SuiteReport, String> {
    if pairs.is_empty() {
        return Err("no fuzz pairs selected".into());
    }
    let mut suite = SuiteReport::default();
    for c in 0..cases {
        let pair = &pairs[c % pairs.len()];
        let report = run_case(pair, base_seed.wrapping_add(c as u64), corpus_dir)?;
        progress(&report);
        suite.cases.push(report);
    }
    Ok(suite)
}

/// Re-verify every journal in a corpus directory (the regression
/// corpus check): each must replay bit-identically. Returns the
/// verified file count.
pub fn verify_corpus(dir: &Path) -> Result<usize, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read corpus dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "pfdj"))
        .collect();
    paths.sort();
    for path in &paths {
        let report = crate::verify::verify_path(path)?;
        if let Some(d) = report.divergence {
            return Err(format!("corpus journal {} diverged: {d}", path.display()));
        }
    }
    Ok(paths.len())
}

#[allow(missing_docs)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_deterministic() {
        let pair = PairKind::ScrubNone;
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let m1 = gen_meta(&mut r1, &pair, 7);
        let m2 = gen_meta(&mut r2, &pair, 7);
        assert_eq!(m1, m2);
        assert_eq!(gen_ops(&mut r1, 6), gen_ops(&mut r2, 6));
    }
}
