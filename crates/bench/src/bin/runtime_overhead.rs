//! Regenerate the **§V.C.2 run-time** experiment: per-debugging-turn
//! cost of the online stage.
//!
//! The paper's numbers: PConf evaluation ≤ 50 µs; each parameterized
//! specialization ~3 orders of magnitude faster than a full
//! reconfiguration (176 ms on a Virtex-5); at 400 MHz with a 4-tick
//! debug loop, 50 µs ≙ 5000 debugging turns, so the overhead amortizes
//! once significantly more turns run between signal changes.

use pfdbg_arch::icap::turns_equivalent;
use pfdbg_core::{
    prepare_instrumented, CompiledDesign, DebugSession, InstrumentConfig, OfflineConfig, PAPER_K,
};
use pfdbg_pconf::OnlineReconfigurator;
use pfdbg_util::stats::Accumulator;
use pfdbg_util::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn main() {
    let obs = pfdbg_bench::obs_init();
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 14,
        n_outputs: 10,
        n_gates: 120,
        depth: 7,
        n_latches: 8,
        seed: 99,
    });
    eprintln!("runtime-overhead experiment (offline stage first)...");
    let icfg = InstrumentConfig { n_ports: 4, max_signals: None, coverage: 1 };
    let (_, _, inst) = prepare_instrumented(&design, &icfg, PAPER_K).expect("prepare");
    let observable: Vec<String> = inst.observable().into_iter().map(str::to_string).collect();
    let dut = inst.network.clone();
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    let design = CompiledDesign::compile(inst, &cfg).expect("offline stage");
    let full_reconfig =
        design.icap.full_reconfig(pfdbg_arch::VIRTEX5_CONFIG_BITS, design.layout.frame_bits);
    let online = OnlineReconfigurator::new(design.scg, design.layout, design.icap);
    let mut session = DebugSession::new(design.inst, Some(online));

    // Run 50 debugging turns with random signal selections; measure the
    // real SCG evaluation time and the modeled DPR transfer.
    let mut rng = StdRng::seed_from_u64(7);
    let mut eval = Accumulator::new();
    let mut transfer = Accumulator::new();
    let mut bits = Accumulator::new();
    let mut frames = Accumulator::new();
    let turns = 50;
    for t in 0..turns {
        let sig = &observable[rng.gen_range(0..observable.len())];
        match session.observe(&dut, &[sig], 16, t as u64, &[]) {
            Ok(_) => {}
            Err(e) => {
                eprintln!("turn {t}: {e}");
                continue;
            }
        }
        let stats = session.turns().last().and_then(|r| r.stats).expect("stats");
        eval.add(stats.eval_time.as_secs_f64() * 1e6);
        transfer.add(stats.transfer_time.as_secs_f64() * 1e6);
        bits.add(stats.bits_changed as f64);
        frames.add(stats.frames_changed as f64);
    }

    let mut t = Table::new(["quantity", "min", "mean", "max", "paper"]);
    let fmt = |a: &Accumulator| {
        (
            format!("{:.1}", a.min().unwrap_or(0.0)),
            format!("{:.1}", a.mean().unwrap_or(0.0)),
            format!("{:.1}", a.max().unwrap_or(0.0)),
        )
    };
    let (lo, me, hi) = fmt(&eval);
    t.row(["SCG evaluation (us)".to_string(), lo, me, hi, "<= 50 us".to_string()]);
    let (lo, me, hi) = fmt(&transfer);
    t.row(["DPR transfer (us, modeled)".to_string(), lo, me, hi, "~us-scale".to_string()]);
    let (lo, me, hi) = fmt(&bits);
    t.row(["config bits changed".to_string(), lo, me, hi, "-".to_string()]);
    let (lo, me, hi) = fmt(&frames);
    t.row(["frames rewritten".to_string(), lo, me, hi, "-".to_string()]);
    println!("=== §V.C.2 run-time overhead over {turns} debugging turns ===");
    print!("{}", t.render());

    let spec_us = eval.mean().unwrap_or(0.0) + transfer.mean().unwrap_or(0.0);
    let full_us = full_reconfig.as_secs_f64() * 1e6;
    println!(
        "\nfull reconfiguration (modeled, calibrated to the paper's Virtex-5): {:.1} ms",
        full_us / 1e3
    );
    println!(
        "specialization vs full reconfiguration: {:.0}x faster (paper: ~3 orders of magnitude)",
        full_us / spec_us.max(1e-9)
    );

    // Amortization: how many debugging turns does one specialization
    // cost, at the paper's 400 MHz / 4 ticks-per-turn operating point?
    let spec = Duration::from_secs_f64(spec_us / 1e6);
    let equiv = turns_equivalent(spec, 400.0, 4);
    println!("\namortization at 400 MHz, 4-tick debug loop: one specialization ≙ {equiv:.0} turns");
    println!(
        "(paper: 50 us ≙ 5000 turns; overhead amortized beyond that many turns per signal set)"
    );
    let mut amort = Table::new(["turns between signal changes", "specialization overhead"]);
    for turns_between in [100u64, 1_000, 5_000, 50_000, 500_000] {
        let run_time = turns_between as f64 * 4.0 / 400.0e6; // seconds of emulation
        let overhead = spec.as_secs_f64() / (run_time + spec.as_secs_f64()) * 100.0;
        amort.row([turns_between.to_string(), format!("{overhead:.1}% of wall time")]);
    }
    print!("{}", amort.render());
    obs.finish();
}
