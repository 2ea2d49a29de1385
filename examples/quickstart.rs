//! Quickstart: the whole parameterized-debugging flow on a small design.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Steps: build a design → run the offline generic stage (signal
//! parameterization, TCON mapping, place & route, generalized bitstream)
//! → open a debug session → observe two different signal sets with
//! microsecond specializations instead of recompiles.

use parameterized_fpga_debug::core::{
    offline, prepare_instrumented, CompiledDesign, DebugSession, InstrumentConfig, OfflineConfig,
    PAPER_K,
};
use parameterized_fpga_debug::netlist::truth::gates;
use parameterized_fpga_debug::netlist::Network;
use parameterized_fpga_debug::pconf::OnlineReconfigurator;

fn main() {
    // 1. A small design: a 4-bit ripple adder with a registered output.
    let design = build_adder(4);
    println!(
        "design: {} gates, {} inputs, {} outputs",
        design.n_tables(),
        design.n_inputs(),
        design.n_outputs()
    );

    // 2. Offline generic stage — run ONCE. All internal signals become
    //    observable through parameterized multiplexers.
    let icfg = InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 };
    let (initial, _, inst) =
        prepare_instrumented(&design, &icfg, PAPER_K).expect("instrumentation");
    println!(
        "instrumented: {} observable signals over {} trace ports, {} parameters",
        inst.observable().len(),
        inst.ports.len(),
        inst.n_params()
    );
    let off =
        offline(&inst, &OfflineConfig { k: PAPER_K, ..Default::default() }).expect("offline stage");
    println!(
        "mapping: {} LUTs + {} TLUTs + {} TCONs (initial design: {} LUTs — debugging is ~free)",
        off.map_stats.luts,
        off.map_stats.tluts,
        off.map_stats.tcons,
        initial.n_tables()
    );
    let dut = inst.network.clone();
    let observable: Vec<String> = inst.observable().iter().map(|s| s.to_string()).collect();
    let design = CompiledDesign::from_offline(inst, off);
    println!(
        "generalized bitstream: {} bits, {} parameterized",
        design.scg.generalized().base.len(),
        design.scg.generalized().n_tunable()
    );

    // 3. Online stage — per debugging turn: pick signals, specialize,
    //    capture. No recompilation, ever.
    let online = OnlineReconfigurator::new(design.scg, design.layout, design.icap);
    let mut session = DebugSession::new(design.inst, Some(online));

    for (turn, sig) in observable.iter().take(3).enumerate() {
        let wf = session.observe(&dut, &[sig], 16, 42 + turn as u64, &[]).expect("debugging turn");
        let stats = session.turns().last().and_then(|t| t.stats).expect("stats");
        println!(
            "\nturn {turn}: observing {sig:12} | {} bits / {} frames changed | eval {:?} + transfer {:?}",
            stats.bits_changed, stats.frames_changed, stats.eval_time, stats.transfer_time
        );
        print!("{}", wf.render_ascii());
    }
    println!(
        "\ntotal reconfiguration time across all turns: {:?} (a single recompile would take minutes)",
        session.total_reconfig_time()
    );
}

fn build_adder(bits: usize) -> Network {
    let mut nw = Network::new("adder");
    let a: Vec<_> = (0..bits).map(|i| nw.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..bits).map(|i| nw.add_input(format!("b{i}"))).collect();
    let mut carry = None;
    for i in 0..bits {
        let axb = nw.add_table(format!("axb{i}"), vec![a[i], b[i]], gates::xor2());
        let (sum, cout) = match carry {
            None => {
                let cout = nw.add_table(format!("c{i}"), vec![a[i], b[i]], gates::and2());
                (axb, cout)
            }
            Some(c) => {
                let sum = nw.add_table(format!("s{i}"), vec![axb, c], gates::xor2());
                let g = nw.add_table(format!("g{i}"), vec![a[i], b[i]], gates::and2());
                let p = nw.add_table(format!("p{i}"), vec![axb, c], gates::and2());
                let cout = nw.add_table(format!("c{i}"), vec![g, p], gates::or2());
                (sum, cout)
            }
        };
        let q = nw.add_latch(format!("sum{i}"), sum, false);
        nw.add_output(format!("o{i}"), q);
        carry = Some(cout);
    }
    nw.add_output("cout", carry.expect("at least one bit"));
    nw
}
