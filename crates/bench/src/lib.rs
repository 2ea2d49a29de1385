//! Shared machinery for the benchmark harness: runs the paper's
//! experiments over the calibrated suite and renders the tables and
//! figures. Each `src/bin/*.rs` regenerates one artifact:
//!
//! | binary             | artifact |
//! |--------------------|----------|
//! | `table1`           | Table I — area in #LUTs |
//! | `table2`           | Table II — logic depth |
//! | `fig7`             | Fig. 7 — area bar chart |
//! | `fig3`             | Fig. 3 — dedicated vs integrated debug area |
//! | `compile_time`     | §V.C.1 — wires / CLBs / place&route runtime |
//! | `runtime_overhead` | §V.C.2 — specialization vs reconfiguration, amortization |
//! | `debug_cycle`      | Fig. 4 — conventional vs proposed debug-cycle latency |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pfdbg_circuits::{paper_row, PaperRow};
use pfdbg_core::{compare_mappers, InstrumentConfig, MapperComparison, PAPER_K};
use pfdbg_obs::jsonl::{write_object, JsonValue};
use pfdbg_util::stats::geomean;
use std::process::{Command, Stdio};

/// Observability flags shared by the `src/bin` experiment drivers: the
/// same `--profile` / `--trace-out <f.jsonl>` pair the `pfdbg` CLI
/// takes, feeding the same global [`pfdbg_obs`] registry.
pub struct ObsFlags {
    profile: bool,
    trace_out: Option<String>,
    rest: Vec<String>,
}

/// Scan the process arguments for `--profile` and `--trace-out`,
/// enabling the observability layer when either is present. Call
/// [`ObsFlags::finish`] at the end of `main`.
pub fn obs_init() -> ObsFlags {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile = match args.iter().position(|a| a == "--profile") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let trace_out = args.iter().position(|a| a == "--trace-out").map(|i| {
        args.remove(i);
        if i < args.len() {
            args.remove(i)
        } else {
            String::new()
        }
    });
    let trace_out = trace_out.filter(|p| !p.is_empty());
    if profile || trace_out.is_some() {
        pfdbg_obs::set_enabled(true);
    }
    ObsFlags { profile, trace_out, rest: args }
}

impl ObsFlags {
    /// The process arguments with the observability flags removed —
    /// what the experiment driver should parse its positionals from.
    pub fn rest(&self) -> &[String] {
        &self.rest
    }

    /// Emit the span report and/or trace file requested on the command
    /// line (a no-op when neither flag was given).
    pub fn finish(&self) {
        if self.profile {
            eprint!("{}", pfdbg_obs::registry().render_tree());
        }
        if let Some(path) = &self.trace_out {
            match std::fs::write(path, pfdbg_obs::registry().to_jsonl()) {
                Ok(()) => pfdbg_obs::diag(&format!("wrote trace to {path}")),
                Err(e) => pfdbg_obs::diag(&format!("{path}: {e}")),
            }
        }
    }
}

/// Where a report's numbers came from, as a JSON object: git revision
/// and dirty flag (`null` outside a checkout), build profile, the
/// `rustc -V` the binary was built with, and the host's hardware
/// threads.
fn provenance(host_threads: usize) -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git").args(args).stderr(Stdio::null()).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    write_object(&[
        ("git_rev", rev.map_or(JsonValue::Null, JsonValue::Str)),
        ("git_dirty", dirty.map_or(JsonValue::Null, JsonValue::Bool)),
        (
            "profile",
            JsonValue::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("rustc", JsonValue::Str(env!("BENCH_RUSTC").into())),
        ("host_threads", JsonValue::Num(host_threads as f64)),
    ])
}

/// A flat report object with the `provenance` block appended as its
/// last, nested field (`write_object` writes flat objects only).
pub fn with_provenance(fields: &[(&str, JsonValue)], host_threads: usize) -> String {
    let json = write_object(fields);
    format!("{},\"provenance\":{}}}", &json[..json.len() - 1], provenance(host_threads))
}

/// One benchmark's measured and published rows side by side.
pub struct TableRow {
    /// Our measurement.
    pub measured: MapperComparison,
    /// The paper's published numbers.
    pub paper: &'static PaperRow,
}

/// Run the Table I/II measurement over the calibrated suite, in parallel
/// (one thread per benchmark).
pub fn run_suite_comparison() -> Vec<TableRow> {
    let suite = pfdbg_circuits::build_all();
    std::thread::scope(|s| {
        let handles: Vec<_> = suite
            .iter()
            .map(|(name, nw)| {
                s.spawn(move || {
                    let cmp = compare_mappers(name, nw, &InstrumentConfig::paper(), PAPER_K)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    TableRow { measured: cmp, paper: paper_row(name).expect("known") }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("benchmark thread panicked")).collect()
    })
}

/// The aggregate the paper headlines: geometric-mean reduction of the
/// proposed mapping vs the best conventional mapper.
pub fn mean_reduction(rows: &[TableRow]) -> f64 {
    let ratios: Vec<f64> = rows.iter().map(|r| r.measured.reduction_factor()).collect();
    geomean(&ratios).unwrap_or(f64::NAN)
}

/// Same aggregate over the paper's published numbers, for the
/// paper-vs-measured comparison.
pub fn paper_reduction(rows: &[TableRow]) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.paper.sm_luts.min(r.paper.abc_luts) as f64 / r.paper.proposed_luts.max(1) as f64)
        .collect();
    geomean(&ratios).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reduction_matches_published_claim() {
        // Build rows with dummy measurements to exercise the aggregate
        // over the published numbers alone.
        let rows: Vec<TableRow> = pfdbg_circuits::PAPER_ROWS
            .iter()
            .map(|p| TableRow {
                measured: MapperComparison {
                    name: p.name.into(),
                    gates: p.gates,
                    initial_luts: p.initial_luts,
                    sm_luts: p.sm_luts,
                    abc_luts: p.abc_luts,
                    proposed_luts: p.proposed_luts,
                    tluts: p.tluts,
                    tcons: p.tcons,
                    depth_golden: p.depth_golden as u32,
                    depth_sm: p.depth_sm as u32,
                    depth_abc: p.depth_abc as u32,
                    depth_proposed: p.depth_proposed as u32,
                },
                paper: p,
            })
            .collect();
        let r = paper_reduction(&rows);
        assert!((2.8..4.5).contains(&r), "paper geomean reduction {r}");
        // measured == paper here, so both aggregates agree.
        assert!((mean_reduction(&rows) - r).abs() < 1e-12);
    }
}
