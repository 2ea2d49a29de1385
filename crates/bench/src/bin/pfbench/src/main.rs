//! `pfbench` — the repository benchmark: the offline compile and three
//! debug-service traffic mixes, end to end and layer by layer.
//!
//! ```text
//! pfbench [run] --workload W [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE] [--quick]
//! pfbench --all [--seed N] [--seconds S] [--reverse] [--out FILE]
//! pfbench compare BASE.jsonl HEAD.jsonl [--bench-json FILE]
//! pfbench layers TRACE.jsonl
//! ```
//!
//! A run prints one JSON object as its last line of standard output —
//! `correct`, `attempted`, `failed`, and `metrics` (the end-to-end
//! metrics, or with `--trace` the per-layer ones) — appends a fuller
//! record with provenance to `--out` (default
//! `target/pfbench/runs.jsonl`), and exits 1 when a correctness check
//! failed. See README.md next to this file.

mod compare;
mod compile;
mod json;
mod load;
mod pin;
mod probe;
mod report;
mod serve;
mod setup;
mod stream;
mod trace;

use json::Json;
use report::RunOutput;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use stream::Workload;

const USAGE: &str = "usage:
  pfbench [run] --workload W [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE] [--quick]
  pfbench --all [--seed N] [--seconds S] [--reverse] [--out FILE]
  pfbench compare BASE.jsonl HEAD.jsonl [--bench-json FILE]
  pfbench layers TRACE.jsonl
workloads: compile, serve-fresh, serve-hot, serve-repair";

/// Where results, traces and scratch files go, under the working
/// directory.
const RESULTS_DIR: &str = "target/pfbench";

/// One workload run's settings.
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Where a traced run writes its spans; `None` for an untraced run.
    pub trace: Option<PathBuf>,
    /// The test-sized run: the smallest suite design, few sessions,
    /// never recorded.
    pub quick: bool,
    pub results_dir: PathBuf,
    /// The CPU the run is pinned to; `None` when pinning failed.
    pub pin: Option<pin::Pin>,
}

impl RunOpts {
    pub fn design(&self) -> &'static str {
        if self.quick {
            "stereov."
        } else {
            "diffeq1"
        }
    }

    pub fn sessions(&self) -> usize {
        if self.quick {
            16
        } else {
            256
        }
    }

    /// From-source builds of the design in a serve workload's set-up.
    /// Their median is `setup_s`'s build share: with 3, a few seconds of
    /// host noise could slow most of them, and `setup_s` read up to 50%
    /// apart between runs of the same code.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// Requests of the stream a traced run replays through each layer.
    pub fn probe_requests(&self) -> usize {
        if self.quick {
            100
        } else {
            2000
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("layers") => cmd_layers(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        _ => cmd_run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("pfbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Flags and their arguments; anything unknown is an error.
struct Args<'a> {
    rest: &'a [String],
}

impl<'a> Args<'a> {
    fn parse(rest: &'a [String], valued: &[&str], switches: &[&str]) -> Result<Args<'a>, String> {
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i].as_str();
            if valued.contains(&a) {
                if i + 1 >= rest.len() {
                    return Err(format!("{a} expects a value"));
                }
                i += 2;
            } else if switches.contains(&a) || !a.starts_with("--") {
                i += 1;
            } else {
                return Err(format!("unknown flag {a}"));
            }
        }
        Ok(Args { rest })
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        let i = self.rest.iter().position(|a| a == name)?;
        self.rest.get(i + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{name} expects a number, got {v:?}"))
        })
    }

    /// Positional arguments (values of flags excluded).
    fn positional(&self, valued: &[&str]) -> Vec<&'a str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.rest.len() {
            if valued.contains(&self.rest[i].as_str()) {
                i += 2;
                continue;
            }
            if !self.rest[i].starts_with("--") {
                out.push(self.rest[i].as_str());
            }
            i += 1;
        }
        out
    }
}

/// Why this process must not produce a result, if it must not.
fn refusal(quick: bool) -> Option<String> {
    if cfg!(debug_assertions) && !quick {
        return Some("refusing a debug build: numbers must come from `cargo run --release`".into());
    }
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PFDBG_"))
        .collect();
    (!knobs.is_empty()).then(|| {
        format!(
            "refusing to run with program knobs set in the environment ({}): the benchmark \
             measures the program's defaults",
            knobs.join(", ")
        )
    })
}

fn cmd_run(rest: &[String]) -> Result<ExitCode, String> {
    const VALUED: [&str; 5] = ["--workload", "--seed", "--seconds", "--trace", "--out"];
    let args = Args::parse(rest, &VALUED, &["--all", "--reverse", "--quick"])?;
    if let Some(p) = args.positional(&VALUED).first() {
        return Err(format!("unexpected argument {p:?}"));
    }
    let quick = args.has("--quick");
    if let Some(why) = refusal(quick) {
        eprintln!("pfbench: {why}");
        return Ok(ExitCode::from(2));
    }
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", 25.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let results_dir = PathBuf::from(RESULTS_DIR);
    std::fs::create_dir_all(&results_dir).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let out = args.value("--out").map_or_else(|| results_dir.join("runs.jsonl"), PathBuf::from);
    if args.has("--all") {
        return run_all(seed, seconds, args.has("--reverse"), &out);
    }
    let name = args.value("--workload").ok_or("--workload or --all is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => None,
        "1" => Some(results_dir.join(format!("trace-{name}-{seed}.jsonl"))),
        path => Some(PathBuf::from(path)),
    };
    // Before any thread starts, so that every thread inherits the pin.
    let pin = pin::pin_to_one_cpu()
        .map_err(|e| eprintln!("pfbench: running unpinned, so expect noisier numbers: {e}"))
        .ok();
    let o = RunOpts { workload, seed, seconds, trace, quick, results_dir, pin };
    Ok(run_one(&o, &out))
}

/// Run one workload in this process.
pub fn execute(o: &RunOpts) -> Result<(RunOutput, Vec<load::ClientSpan>), String> {
    match o.workload {
        Workload::Compile => compile::run(o).map(|out| (out, Vec::new())),
        _ => serve::run(o),
    }
}

fn run_one(o: &RunOpts, results: &Path) -> ExitCode {
    let traced = o.trace.is_some();
    let (out, spans) = match execute(o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pfbench: {} did not complete: {e}", o.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &o.trace {
        if let Err(e) = trace::write(path, &spans, &out) {
            eprintln!("pfbench: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("pfbench: trace written to {} (read it with `pfbench layers`)", path.display());
    }
    let line = out.result_line(traced);
    for (name, m) in line.get("metrics").map(Json::as_obj).unwrap_or_default() {
        let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        eprintln!("pfbench: {:<13} {name:<30} {v:>14.4} {unit}", o.workload.name());
    }
    let failed_checks = out.failed_checks(traced);
    for check in &failed_checks {
        eprintln!("pfbench: check failed: {check}");
    }
    if !o.quick {
        let mut fields = vec![
            ("workload", Json::str(o.workload.name())),
            ("seed", Json::Num(o.seed as f64)),
            ("seconds", Json::Num(o.seconds)),
            ("traced", Json::Bool(traced)),
        ];
        fields.extend(line.as_obj().iter().map(|(k, v)| (k.as_str(), v.clone())));
        fields.push((
            "failed_checks",
            Json::Arr(failed_checks.iter().map(|c| Json::str(c.clone())).collect()),
        ));
        fields.push(("provenance", provenance(o.pin)));
        fields.extend(out.details.iter().map(|(k, v)| (*k, v.clone())));
        if let Err(e) = append_line(results, &Json::obj(fields).render()) {
            eprintln!("pfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", line.render());
    if out.correct(traced) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Where the numbers came from. The git queries never look above the
/// working directory's parent, so a plain source tree reads `null`.
fn provenance(pin: Option<pin::Pin>) -> Json {
    let git = |args: &[&str]| -> Option<String> {
        let cwd = std::env::current_dir().ok()?;
        let out = Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
            .env("GIT_OPTIONAL_LOCKS", "0")
            .stderr(Stdio::null())
            .output()
            .ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("git_rev", rev.map_or(Json::Null, Json::str)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("rustc", Json::str(env!("PFBENCH_RUSTC"))),
        // The CPUs the run could have used, not the one it was pinned to.
        (
            "host_threads",
            Json::Num(pin.map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |p| p.allowed,
            ) as f64),
        ),
        ("pinned_cpu", pin.map_or(Json::Null, |p| Json::Num(p.cpu as f64))),
        ("unix_time", Json::Num(unix_time as f64)),
    ])
}

/// Every workload, each in a child process of its own so set-up time,
/// peak memory and the metrics hub start clean.
fn run_all(seed: u64, seconds: f64, reverse: bool, results: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut order = Workload::ALL.to_vec();
    if reverse {
        order.reverse();
    }
    let mut all_ok = true;
    for w in order {
        let child = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .arg("--out")
            .arg(results)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        all_ok &= child.status.success();
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or("null");
        println!("{{\"workload\":\"{}\",\"result\":{last}}}", w.name());
    }
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_compare(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &["--bench-json"], &[])?;
    let files = args.positional(&["--bench-json"]);
    let [base, head] = files[..] else {
        return Err("compare takes BASE.jsonl HEAD.jsonl".into());
    };
    let bench_json = args.value("--bench-json").unwrap_or("BENCHMARK.json");
    let (report, regressed) =
        compare::compare(Path::new(base), Path::new(head), Path::new(bench_json))?;
    print!("{report}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn cmd_layers(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &[], &[])?;
    let [path] = args.positional(&[])[..] else {
        return Err("layers takes one TRACE.jsonl".into());
    };
    print!("{}", trace::layers(Path::new(path))?);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One `--quick` run: what it returned, its result line, and (for a
    /// traced run) what `pfbench layers` made of its trace.
    struct Quick {
        workload: Workload,
        traced: bool,
        out: RunOutput,
        line: String,
        layers: Option<String>,
    }

    /// Every workload, untraced and traced, at the quick scale. The runs
    /// share process-global telemetry, so they run once, in sequence,
    /// and every test reads the same results.
    fn quick_runs() -> &'static [Quick] {
        static RUNS: OnceLock<Vec<Quick>> = OnceLock::new();
        RUNS.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("pfbench-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let mut runs = Vec::new();
            for workload in Workload::ALL {
                for traced in [false, true] {
                    let trace = traced.then(|| dir.join(format!("{}.jsonl", workload.name())));
                    let o = RunOpts {
                        workload,
                        seed: 3,
                        // Long enough for one untraced and one traced
                        // half-second slice (`trace.overhead_ratio`).
                        seconds: 1.0,
                        trace,
                        quick: true,
                        results_dir: dir.clone(),
                        pin: None,
                    };
                    let t0 = std::time::Instant::now();
                    let (out, spans) =
                        execute(&o).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                    eprintln!("quick {} traced={traced}: {:.2?}", workload.name(), t0.elapsed());
                    let layers = o.trace.as_ref().map(|p| {
                        trace::write(p, &spans, &out).unwrap();
                        trace::layers(p).unwrap()
                    });
                    let line = out.result_line(traced).render();
                    runs.push(Quick { workload, traced, out, line, layers });
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
            runs
        })
    }

    #[test]
    fn quick_runs_of_every_workload_pass_their_checks() {
        for q in quick_runs() {
            assert!(
                q.out.correct(q.traced),
                "{} traced={}: failed={} checks={:?}",
                q.workload.name(),
                q.traced,
                q.out.failed,
                q.out.failed_checks(q.traced)
            );
        }
    }

    #[test]
    fn result_line_is_strict_json_and_writes_null_never_nan() {
        for q in quick_runs() {
            let v = Json::parse(&q.line).unwrap_or_else(|e| panic!("{e}: {}", q.line));
            let keys: Vec<&str> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(!q.line.contains("NaN") && !q.line.contains("inf"), "{}", q.line);
        }
        let mut out = RunOutput::default();
        out.set("throughput_rps", f64::NAN);
        let line = out.result_line(false).render();
        let v = Json::parse(&line).unwrap();
        let m = v.get("metrics").and_then(|m| m.get("throughput_rps")).unwrap();
        assert_eq!(m.get("value"), Some(&Json::Null));
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)), "a missing metric is a failed run");
    }

    #[test]
    fn request_ledger_balances_on_every_serve_run() {
        for q in quick_runs().iter().filter(|q| q.workload != Workload::Compile) {
            let load = q.out.details.iter().find(|(k, _)| *k == "load").map(|(_, v)| v).unwrap();
            let n = |k: &str| load.get(k).and_then(Json::as_f64).unwrap();
            assert!(n("issued") > 0.0);
            assert_eq!(n("issued"), n("ok") + n("overloaded") + n("migrating") + n("failures"));
        }
    }

    #[test]
    fn injected_upsets_imply_an_upset_rate_read_back_from_the_server() {
        for q in quick_runs().iter().filter(|q| q.workload != Workload::Compile) {
            let server =
                q.out.details.iter().find(|(k, _)| *k == "server").map(|(_, v)| v).unwrap();
            let injected = server.get("seu_bits_injected").and_then(Json::as_f64).unwrap();
            let rate = server.get("seu_rate").and_then(Json::as_f64);
            if injected > 0.0 {
                assert!(
                    rate.is_some_and(|r| r > 0.0),
                    "{}: {injected} bits, rate {rate:?}",
                    q.workload.name()
                );
            }
            if q.workload == Workload::ServeRepair {
                assert!(injected > 0.0, "serve-repair must inject upsets");
            }
        }
    }

    #[test]
    fn every_benchmark_json_metric_is_reported_with_its_unit() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for (key, table, traced) in [
            ("end_to_end", &report::END_TO_END[..], false),
            ("per_layer", &report::PER_LAYER[..], true),
        ] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .map(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, table, "{key} in BENCHMARK.json");
            for q in quick_runs().iter().filter(|q| q.traced == traced) {
                let metrics = Json::parse(&q.line).unwrap().get("metrics").cloned().unwrap();
                for (name, unit) in &declared {
                    let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn layers_reconciles_the_turn_of_every_traced_serve_run() {
        for q in quick_runs().iter().filter(|q| q.traced && q.workload != Workload::Compile) {
            let layers = q.layers.as_deref().unwrap();
            assert!(layers.contains("reconcile turn:"), "{}:\n{layers}", q.workload.name());
            assert!(layers.contains("client.request"), "{}:\n{layers}", q.workload.name());
        }
    }
}
