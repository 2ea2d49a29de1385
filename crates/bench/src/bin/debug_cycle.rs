//! Regenerate the **Fig. 4** comparison: latency of the conventional
//! debug cycle (recompile per signal change) versus the proposed one
//! (one offline generic stage, then microsecond specializations).
//!
//! The conventional per-change cost is the *measured* place & route time
//! of the instrumented design on this machine, scaled by the paper's
//! observation that real-tool compiles take minutes to hours; the
//! proposed per-change cost is the measured SCG evaluation plus the
//! modeled partial-reconfiguration transfer.

use pfdbg_core::{
    prepare_instrumented, CompiledDesign, DebugSession, InstrumentConfig, OfflineConfig, PAPER_K,
};
use pfdbg_map::{map, MapperKind};
use pfdbg_pconf::OnlineReconfigurator;
use pfdbg_pr::{tpar, TparConfig};
use pfdbg_synth::synthesize;
use pfdbg_util::table::Table;
use std::time::{Duration, Instant};

fn main() {
    let obs = pfdbg_bench::obs_init();
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 14,
        n_outputs: 10,
        n_gates: 120,
        depth: 7,
        n_latches: 8,
        seed: 4242,
    });
    eprintln!("debug-cycle experiment...");

    let icfg = InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 };
    let (_, _, inst) = prepare_instrumented(&design, &icfg, PAPER_K).expect("prepare");

    // Proposed: one offline stage, then cheap turns.
    let dut = inst.network.clone();
    let observable: Vec<String> = inst.observable().into_iter().map(str::to_string).collect();
    let t0 = Instant::now();
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    let design = CompiledDesign::compile(inst, &cfg).expect("offline");
    let offline_time = t0.elapsed();
    let online = OnlineReconfigurator::new(design.scg, design.layout, design.icap);
    let mut session = DebugSession::new(design.inst, Some(online));
    // Measure a representative turn.
    session.observe(&dut, &[&observable[0]], 8, 1, &[]).expect("turn");
    session.observe(&dut, &[&observable[1]], 8, 2, &[]).expect("turn");
    let turn_cost =
        session.turns().last().and_then(|t| t.stats).map(|s| s.total()).unwrap_or(Duration::ZERO);

    // Conventional: every signal change is a recompile (re-instrument +
    // re-place&route). Measure one compile of the conventional design.
    let mut conventional = dut.clone();
    let params: Vec<_> = conventional.params().collect();
    for p in params {
        conventional.set_param(p, false);
    }
    let aig = synthesize(&conventional).expect("synth");
    let mapping = map(&aig, PAPER_K, MapperKind::PriorityCuts);
    let (mapped, kinds) = mapping.to_network(&aig);
    let t1 = Instant::now();
    let _ = tpar(&mapped, &kinds, &TparConfig::default()).expect("conventional pr");
    let recompile = t1.elapsed();

    println!("=== Fig. 4: debug-cycle latency model ===");
    println!("offline generic stage (one-off):        {offline_time:.2?}");
    println!("proposed, per signal change:            {turn_cost:.2?}");
    println!(
        "conventional, per signal change:        {recompile:.2?} (measured P&R on this substrate)"
    );
    println!(
        "                                        (real vendor compiles: minutes to hours per the paper)"
    );

    let mut t = Table::new([
        "signal changes",
        "conventional total",
        "proposed total (incl. offline)",
        "speedup",
    ]);
    for changes in [1u32, 5, 20, 100, 1000] {
        let conv = recompile * changes;
        let prop = offline_time + turn_cost * changes;
        t.row([
            changes.to_string(),
            format!("{conv:.2?}"),
            format!("{prop:.2?}"),
            format!("{:.1}x", conv.as_secs_f64() / prop.as_secs_f64().max(1e-12)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nthe offline stage amortizes after the first few turns; every further signal\n\
         change costs microseconds instead of a compile — the paper's Fig. 4(b) loop"
    );
    obs.finish();
}
