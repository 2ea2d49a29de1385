//! Regenerate the **§V.C.1 compile-time** experiment: place & route the
//! instrumented design on (a) the parameterized architecture — mux
//! network in tunable routing, alternatives sharing wires — and (b) a
//! normal LUT architecture — mux network paying LUTs and ordinary
//! wires. Reports wires ("cables"), CLBs and place&route runtime.
//!
//! Paper's findings on small designs: ~3x fewer cables (5316 vs 15699),
//! up to 4x fewer CLBs, and up to 3x faster place & route.
//!
//! On top of the paper experiment, this driver times the whole offline
//! flow `--runs` times, and the per-stage medians (mapping, packing,
//! placement, routing, generalized-bitstream construction) land in
//! `BENCH_compile.json` together with the paper experiment's wires,
//! CLBs and place&route times, and a provenance block (git revision
//! and dirty flag, build profile, `rustc -V`, host threads).
//!
//! ```text
//! compile_time [design] [--runs N] [--out f.json]
//! ```

use pfdbg_core::{offline, prepare_instrumented, InstrumentConfig, OfflineConfig, PAPER_K};
use pfdbg_map::{map, MapperKind};
use pfdbg_obs::jsonl::JsonValue;
use pfdbg_obs::SpanRecord;
use pfdbg_pr::{tpar, TparConfig};
use pfdbg_synth::synthesize;
use pfdbg_util::stats::percentile;
use pfdbg_util::table::Table;
use std::time::Instant;

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1).cloned())
}

fn flag_usize(rest: &[String], name: &str, default: usize) -> usize {
    flag(rest, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("{name} expects a number, got {v:?}"))
    })
}

/// The benchmark stages, named by the spans the offline flow emits.
const STAGES: [(&str, &[&str]); 6] = [
    ("map", &["offline.tconmap"]),
    ("pack", &["tpar.pack"]),
    ("place", &["tpar.place"]),
    ("route", &["tpar.route"]),
    ("genbits", &["offline.lut_bits", "offline.switch_bits", "offline.build_gbs"]),
    ("total", &["offline"]),
];

/// Sum the closed durations of every span whose name is in `names`.
fn stage_ms(spans: &[SpanRecord], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .filter_map(|s| s.dur)
        .map(|d| d.as_secs_f64() * 1e3)
        .sum()
}

/// Run the offline flow `runs` times; per stage, the median wall-clock
/// milliseconds across runs.
fn time_offline(inst: &pfdbg_core::Instrumented, runs: usize) -> Vec<(&'static str, f64)> {
    let mut per_stage: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); STAGES.len()];
    for run in 0..runs {
        pfdbg_obs::reset();
        offline(inst, &OfflineConfig { k: PAPER_K, ..Default::default() })
            .unwrap_or_else(|e| panic!("offline (run {run}): {e}"));
        let spans = pfdbg_obs::registry().spans();
        for (slot, (_, names)) in per_stage.iter_mut().zip(STAGES.iter()) {
            slot.push(stage_ms(&spans, names));
        }
    }
    STAGES
        .iter()
        .zip(per_stage)
        .map(|(&(name, _), times)| (name, percentile(&times, 50.0).unwrap_or(f64::NAN)))
        .collect()
}

fn main() {
    let obs = pfdbg_bench::obs_init();
    let rest = obs.rest().to_vec();
    // A small design, as in the paper's early experiments; pass a
    // benchmark name (e.g. `clma`) to run one of the suite instead.
    // `diffeq1` is the default: the largest suite member whose offline
    // flow finishes in about a second per run, so the multi-run stage
    // timing stays cheap everywhere.
    let arg = rest.first().filter(|a| !a.starts_with("--")).cloned();
    let runs = flag_usize(&rest, "--runs", 5).max(1);
    let out = flag(&rest, "--out").unwrap_or_else(|| "BENCH_compile.json".into());
    let (name, design) = match arg {
        Some(n) => {
            let nw = pfdbg_circuits::build(&n).unwrap_or_else(|| {
                eprintln!("unknown benchmark {n}");
                std::process::exit(1);
            });
            (n, nw)
        }
        None => ("diffeq1".to_string(), pfdbg_circuits::build("diffeq1").expect("suite member")),
    };
    eprintln!("compile-time experiment on {name}...");

    let icfg = InstrumentConfig::paper();
    let (_, _, inst) = prepare_instrumented(&design, &icfg, PAPER_K).expect("prepare");

    // (a) Parameterized resources: the offline flow (TCONMap + TPaR with
    // tunable-net sharing).
    let t0 = Instant::now();
    let off = offline(&inst, &OfflineConfig { k: PAPER_K, ..Default::default() })
        .expect("parameterized flow");
    let param_time = t0.elapsed();
    let param_stats = off.tpar.as_ref().expect("pr ran").stats;

    // (b) Normal LUT architecture: selects as plain inputs, muxes as
    // LUTs, every net exclusive.
    let mut conventional = inst.network.clone();
    let params: Vec<_> = conventional.params().collect();
    for p in params {
        conventional.set_param(p, false);
    }
    let aig = synthesize(&conventional).expect("synthesis");
    let mapping = map(&aig, PAPER_K, MapperKind::PriorityCuts);
    let (mapped, kinds) = mapping.to_network(&aig);
    let t1 = Instant::now();
    let conv = tpar(&mapped, &kinds, &TparConfig::default()).expect("conventional flow");
    let conv_time = t1.elapsed();

    let mut t = Table::new(["metric", "parameterized", "normal LUT arch", "ratio"]);
    let ratio = |a: f64, b: f64| format!("{:.2}x", b / a.max(1e-9));
    t.row([
        "wires used (cables)".to_string(),
        param_stats.wires_used.to_string(),
        conv.stats.wires_used.to_string(),
        ratio(param_stats.wires_used as f64, conv.stats.wires_used as f64),
    ]);
    t.row([
        "CLBs".to_string(),
        param_stats.n_clbs.to_string(),
        conv.stats.n_clbs.to_string(),
        ratio(param_stats.n_clbs as f64, conv.stats.n_clbs as f64),
    ]);
    t.row([
        "routed nets".to_string(),
        param_stats.n_nets.to_string(),
        conv.stats.n_nets.to_string(),
        ratio(param_stats.n_nets as f64, conv.stats.n_nets as f64),
    ]);
    t.row([
        "switches on".to_string(),
        param_stats.n_switches.to_string(),
        conv.stats.n_switches.to_string(),
        ratio(param_stats.n_switches as f64, conv.stats.n_switches as f64),
    ]);
    t.row([
        "place&route time".to_string(),
        format!("{:.2?}", param_stats.runtime),
        format!("{:.2?}", conv_time),
        ratio(param_stats.runtime.as_secs_f64(), conv_time.as_secs_f64()),
    ]);
    println!("=== §V.C.1 compile-time overhead, {name} ===");
    print!("{}", t.render());
    println!("\n(whole parameterized offline stage incl. bitstream generation: {param_time:.2?})");
    println!(
        "paper reference points (small designs): 5316 vs 15699 cables (~3x), \
         up to 4x fewer CLBs, up to 3x faster place & route"
    );

    // Per-stage timing of the offline flow. Spans carry it, so the
    // observability layer must be on for the measured runs regardless
    // of --profile.
    let was_enabled = pfdbg_obs::enabled();
    pfdbg_obs::set_enabled(true);
    eprintln!("timing offline flow: {runs} runs...");
    let stages = time_offline(&inst, runs);
    pfdbg_obs::reset();
    pfdbg_obs::set_enabled(was_enabled);

    let mut pt = Table::new(["stage", "median ms"]);
    let mut stage_fields: Vec<(String, f64)> = Vec::new();
    for (stage, ms) in &stages {
        pt.row([stage.to_string(), format!("{ms:.2}")]);
        stage_fields.push((format!("{stage}_ms"), *ms));
    }
    println!("\n=== offline flow by stage ({runs}-run medians) ===");
    print!("{}", pt.render());

    let ms = |d: std::time::Duration| JsonValue::Num(d.as_secs_f64() * 1e3);
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("bench", JsonValue::Str("compile_time".into())),
        ("design", JsonValue::Str(name.clone())),
        ("runs", JsonValue::Num(runs as f64)),
        ("param_wires", JsonValue::Num(param_stats.wires_used as f64)),
        ("conv_wires", JsonValue::Num(conv.stats.wires_used as f64)),
        ("param_clbs", JsonValue::Num(param_stats.n_clbs as f64)),
        ("conv_clbs", JsonValue::Num(conv.stats.n_clbs as f64)),
        ("param_pr_ms", ms(param_stats.runtime)),
        ("conv_pr_ms", ms(conv_time)),
    ];
    for (k, v) in &stage_fields {
        fields.push((k.as_str(), JsonValue::Num(*v)));
    }
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = pfdbg_bench::with_provenance(&fields, host_threads);
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("{out}: {e}"));
    eprintln!("compile_time: wrote {out}");
    obs.finish();
}
