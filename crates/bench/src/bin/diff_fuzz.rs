//! Differential turn-sequence fuzzer: seeded random debug sessions
//! driven through emulator pairs that must agree bit-for-bit —
//! faulty-vs-oracle and scrubbed-vs-unscrubbed at zero SEU rate. Any
//! disagreement is shrunk to a minimal reproducing journal and saved to
//! the corpus directory.
//!
//! ```text
//! diff_fuzz [--cases N] [--seed S] [--corpus DIR] [--out f.json]
//! ```
//!
//! Exit status 1 when any pair diverged (the minimal journals tell you
//! where), 0 on a clean sweep. `check.sh` runs a fixed-seed sweep so a
//! determinism regression fails the build with a replayable artifact.

use pfdbg_obs::jsonl::{write_object, JsonValue};
use std::time::Instant;

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1).cloned())
}

fn flag_usize(rest: &[String], name: &str, default: usize) -> usize {
    flag(rest, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("{name} expects a number, got {v:?}"))
    })
}

fn main() {
    let obs = pfdbg_bench::obs_init();
    let rest = obs.rest().to_vec();
    let cases = flag_usize(&rest, "--cases", 64);
    let seed = flag_usize(&rest, "--seed", 0xD1FF) as u64;
    let corpus = flag(&rest, "--corpus");
    let out = flag(&rest, "--out").unwrap_or_else(|| "BENCH_diff_fuzz.json".into());
    if let Some(dir) = &corpus {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{dir}: {e}"));
    }

    let pairs = pfdbg_replay::default_pairs();
    eprintln!("diff_fuzz: {cases} cases from seed {seed:#x} across {} pairs", pairs.len());
    let t0 = Instant::now();
    let mut ops_total = 0usize;
    let report = pfdbg_replay::run_suite(
        cases,
        seed,
        &pairs,
        corpus.as_deref().map(std::path::Path::new),
        |c| {
            ops_total += c.ops;
            match &c.divergence {
                None => eprintln!("case {:#06x} {:24} {} ops: ok", c.seed, c.pair, c.ops),
                Some(d) => {
                    eprintln!(
                        "case {:#06x} {:24} {} ops: DIVERGED at {d} (shrunk to {} ops)",
                        c.seed,
                        c.pair,
                        c.ops,
                        c.shrunk_ops.unwrap_or(c.ops)
                    );
                    if let Some(p) = &c.corpus_path {
                        eprintln!("  minimal journal: {}", p.display());
                    }
                }
            }
        },
    )
    .unwrap_or_else(|e| panic!("diff_fuzz: {e}"));
    let elapsed = t0.elapsed();
    let diverged = report.divergences();

    println!("=== diff_fuzz: {} cases, {} pairs ===", report.cases.len(), pairs.len());
    println!("ops driven:   {ops_total}");
    println!("divergences:  {diverged}");
    println!("elapsed:      {elapsed:.2?}");

    let json = write_object(&[
        ("bench", JsonValue::Str("diff_fuzz".into())),
        ("cases", JsonValue::Num(report.cases.len() as f64)),
        ("base_seed", JsonValue::Num(seed as f64)),
        ("pairs", JsonValue::Num(pairs.len() as f64)),
        ("ops_total", JsonValue::Num(ops_total as f64)),
        ("divergences", JsonValue::Num(diverged as f64)),
        ("elapsed_s", JsonValue::Num(elapsed.as_secs_f64())),
    ]);
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("{out}: {e}"));
    eprintln!("diff_fuzz: wrote {out}");
    obs.finish();
    if diverged > 0 {
        std::process::exit(1);
    }
}
