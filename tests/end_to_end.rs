//! Cross-crate integration tests: the complete offline + online flow on
//! real (generated) designs, exercised through the public API exactly
//! like the examples do.

use parameterized_fpga_debug::circuits::{generate, GenParams};
use parameterized_fpga_debug::core::{
    instrument, localize, offline, prepare_instrumented, CompiledDesign, DebugSession,
    InstrumentConfig, OfflineConfig, PAPER_K,
};
use parameterized_fpga_debug::emu::{apply_static, golden_waveform, lockstep, Fault};
use parameterized_fpga_debug::netlist::truth::gates;
use parameterized_fpga_debug::netlist::{blif, sim};
use parameterized_fpga_debug::pconf::OnlineReconfigurator;

fn design(seed: u64, gates: usize) -> parameterized_fpga_debug::netlist::Network {
    generate(&GenParams {
        n_inputs: 10,
        n_outputs: 6,
        n_gates: gates,
        depth: 6,
        n_latches: 4,
        seed,
    })
}

#[test]
fn offline_online_full_cycle() {
    let d = design(11, 60);
    let (_, _, inst) = prepare_instrumented(
        &d,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        PAPER_K,
    )
    .unwrap();
    let dut = inst.network.clone();
    let observable: Vec<String> = inst.observable().iter().map(|s| s.to_string()).collect();
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    let design = CompiledDesign::compile(inst, &cfg).unwrap();
    assert!(design.scg.generalized().n_tunable() > 0);
    let online = OnlineReconfigurator::new(design.scg, design.layout, design.icap);
    let mut session = DebugSession::new(design.inst, Some(online));

    // Three turns over different signals; each capture must equal the
    // golden software simulation of the same signal.
    for (i, sig) in observable.iter().take(3).enumerate() {
        let wf = session.observe(&dut, &[sig], 32, 100 + i as u64, &[]).unwrap();
        let gold = golden_waveform(&dut, &[sig], 32, 100 + i as u64).unwrap();
        assert_eq!(wf.series(sig), gold.series(sig), "turn {i} signal {sig}");
        let stats = session.turns().last().unwrap().stats.unwrap();
        assert!(
            stats.eval_time.as_micros() < 10_000,
            "SCG evaluation unexpectedly slow: {:?}",
            stats.eval_time
        );
    }
    assert_eq!(session.turns().len(), 3);
}

#[test]
fn instrumented_design_keeps_original_behavior() {
    let d = design(21, 80);
    let inst = instrument(&d, &InstrumentConfig { n_ports: 4, max_signals: None, coverage: 2 });
    // Lockstep on the original outputs only: zero divergence.
    let report = lockstep(&d, &inst.network, 128, 5).unwrap();
    assert!(
        report.first_divergence.is_none(),
        "instrumentation changed the user circuit: {:?}",
        report.first_divergence
    );
}

#[test]
fn bug_localization_via_the_whole_stack() {
    let d = design(31, 50);
    let inst = instrument(&d, &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 });
    let clean = inst.network.clone();

    // Inject a bug at a combinational gate in the middle of the design.
    let victims = parameterized_fpga_debug::emu::injectable_nets(&clean);
    let victim = clean.node(victims[victims.len() / 3]).name.clone();
    let buggy =
        apply_static(&clean, &Fault::WrongGate { net: victim.clone(), table: gates::xnor2() })
            .unwrap();

    let report = lockstep(&clean, &buggy, 512, 3).unwrap();
    // Hunt from a *user* output (trace ports also appear in the lockstep
    // interface, but they are the instrument, not the failure).
    let Some((_, failing)) =
        report.mismatches.iter().find(|(_, name)| !name.starts_with('$')).cloned()
    else {
        // Some random faults are not excited; that's a property of the
        // stimulus, not a flow bug.
        return;
    };
    let mut session = DebugSession::new(inst, None);
    let loc = localize(&mut session, &clean, &buggy, &failing, 512, 3).unwrap();
    // The suspect must lie in the transitive fan-in cone of the bug (for
    // pure combinational defects it is the bug itself).
    assert!(
        loc.suspect == victim || !loc.observations.is_empty(),
        "suspect {} for bug {}",
        loc.suspect,
        victim
    );
    assert!(loc.turns_used >= 1);
}

#[test]
fn blif_round_trip_through_instrumentation() {
    let d = design(41, 40);
    let inst = instrument(&d, &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 });
    let text = blif::write(&inst.network);
    let back = blif::parse(&text).unwrap();
    back.validate().unwrap();
    assert!(sim::comb_equivalent(&inst.network, &back, 48, 77).unwrap());
    // .par file round trip too.
    let par = inst.annotations.write();
    let ann = parameterized_fpga_debug::netlist::ParamAnnotations::parse(&par).unwrap();
    assert_eq!(ann, inst.annotations);
}

#[test]
fn specializations_accumulate_cheaply() {
    let d = design(51, 40);
    let (_, _, inst) = prepare_instrumented(
        &d,
        &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 },
        PAPER_K,
    )
    .unwrap();
    let dut = inst.network.clone();
    let observable: Vec<String> = inst.observable().iter().map(|s| s.to_string()).collect();
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    let design = CompiledDesign::compile(inst, &cfg).unwrap();
    let online = OnlineReconfigurator::new(design.scg, design.layout, design.icap);
    let full = online.full_reconfig_time();
    let mut session = DebugSession::new(design.inst, Some(online));
    let mut distinct = observable.clone();
    distinct.dedup();
    for (i, sig) in distinct.iter().take(5).enumerate() {
        session.observe(&dut, &[sig], 8, i as u64, &[]).unwrap();
    }
    // The paper's comparison is per signal change: a partial (DPR)
    // rewrite of the changed frames vs reloading the whole device. Check
    // model against model — every turn's transfer beats a full
    // reconfiguration, and the five turns together beat the conventional
    // alternative of five full reconfigurations. (`total_reconfig_time`
    // also includes *measured* host-side SCG evaluation wall time, which
    // scales with the machine running this test, not with the device, so
    // it is kept out of the modeled comparison.)
    for t in session.turns() {
        let s = t.stats.expect("online model attached");
        assert!(
            s.transfer_time < full,
            "turn {} transfer ({:?}) should cost less than one full reconfig ({full:?})",
            t.turn,
            s.transfer_time
        );
    }
    let transfer = session.total_transfer_time();
    let n = session.turns().len() as u32;
    assert!(
        transfer < full * n,
        "{n} turns of transfer ({transfer:?}) should beat {n} full reconfigs ({:?})",
        full * n
    );
    // The measured evaluation side stays sane too — each turn is
    // microseconds-scale work, far below one conservative 100 ms bound.
    let total = session.total_reconfig_time();
    assert!(
        total < std::time::Duration::from_millis(100),
        "{n} turns incl. host eval took {total:?}"
    );
}

/// The deepest correctness check in the repo: after specialization, walk
/// the *configured routing fabric* — following only switches whose
/// configuration bit is ON in the specialized bitstream — and verify a
/// physical path exists from the selected signal's output pin to the
/// trace-buffer pad. This validates signal parameterization, TCONMap,
/// TPaR, the generalized bitstream and the SCG against each other with
/// no shared code path.
#[test]
fn specialized_bitstream_physically_routes_the_selected_signal() {
    use parameterized_fpga_debug::pr::Block;

    let d = design(61, 50);
    let (_, _, inst) = prepare_instrumented(
        &d,
        &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 },
        PAPER_K,
    )
    .unwrap();
    let mut off = offline(&inst, &OfflineConfig { k: PAPER_K, ..Default::default() }).unwrap();
    let tpar = off.tpar.take().unwrap();
    let mapped = off.mapped.clone();
    let design = CompiledDesign::from_offline(inst, off);
    let (inst, scg, layout) = (&design.inst, &design.scg, &design.layout);

    let port = &inst.ports[0];
    // Try the first few *distinct* selectable signals.
    let mut tried = 0;
    for (value, signal) in port.signals.iter().enumerate() {
        if port.signals[..value].contains(signal) {
            continue; // padding duplicate
        }
        if tried >= 4 {
            break;
        }
        tried += 1;

        // Parameter assignment observing `signal`.
        let session = DebugSession::new(inst.clone(), None);
        let plan = session.plan(&[signal]).unwrap();
        let bs = scg.try_specialize(&plan.params).unwrap();

        // Source opin: the packed source of the (unique) tunable net whose
        // alternative is this signal.
        let sig_node = mapped.find(signal).expect("signal survives mapping");
        let (net_idx, alt_idx) = tpar
            .packed
            .nets
            .iter()
            .enumerate()
            .find_map(|(ni, n)| n.source_nodes.iter().position(|&s| s == sig_node).map(|k| (ni, k)))
            .expect("signal feeds a routed net");
        let src_ref = tpar.packed.nets[net_idx].sources[alt_idx];
        let src_loc = tpar.placement.locs[src_ref.block];
        let pin_idx = match tpar.packed.blocks[src_ref.block] {
            Block::Clb(_) => src_ref.ble,
            _ => src_loc.sub as usize,
        };
        let src_pin =
            tpar.rrg.opin(src_loc.x as usize, src_loc.y as usize, pin_idx).expect("source opin");

        // Destination ipin: the trace pad.
        let pad_block = tpar
            .packed
            .blocks
            .iter()
            .position(|b| matches!(b, Block::OutPad(n) if *n == port.name))
            .expect("trace pad exists");
        let pad_loc = tpar.placement.locs[pad_block];
        let dst_pin = tpar
            .rrg
            .ipin(pad_loc.x as usize, pad_loc.y as usize, pad_loc.sub as usize)
            .expect("pad ipin");

        // BFS over switches that are ON in the specialized bitstream.
        let mut seen = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::new();
        seen.insert(src_pin);
        queue.push_back(src_pin);
        let mut reached = false;
        while let Some(n) = queue.pop_front() {
            if n == dst_pin {
                reached = true;
                break;
            }
            for (e, t) in tpar.rrg.out_edges(n) {
                if bs.get(layout.switch_bit(e)) && seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        assert!(
            reached,
            "select {value} ({signal}): no configured path from {src_pin:?} to {dst_pin:?}"
        );
    }
    assert!(tried >= 2, "test needs at least two selectable signals");
}

/// The shipped sample designs parse, validate, and run through the whole
/// comparison flow.
#[test]
fn sample_designs_work() {
    // Verilog FSM.
    let v = std::fs::read_to_string("designs/traffic_light.v").unwrap();
    let fsm = parameterized_fpga_debug::netlist::verilog::parse(&v).unwrap();
    fsm.validate().unwrap();
    assert_eq!(fsm.n_latches(), 2);
    // The FSM resets to green (output ports are driven by the decoded
    // state nets).
    let wf = golden_waveform(&fsm, &["in_green", "in_walk"], 3, 1).unwrap();
    assert_eq!(wf.value("in_green", 0), Some(true), "resets to green");

    // BLIF counter.
    let b = std::fs::read_to_string("designs/gray_counter3.blif").unwrap();
    let counter = blif::parse(&b).unwrap();
    counter.validate().unwrap();
    assert_eq!(counter.n_latches(), 4);

    // Both run through the mapper comparison.
    for nw in [&fsm, &counter] {
        let cmp = parameterized_fpga_debug::core::compare_mappers(
            &nw.name,
            nw,
            &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 },
            PAPER_K,
        )
        .unwrap();
        assert!(cmp.tcons > 0, "{}: {cmp:?}", nw.name);
    }
}

/// TLUT configuration bits: when parameter logic is *not* pure routing,
/// its truth-table bits become Boolean functions of the parameters; the
/// specialized bitstream must contain the residual table for the chosen
/// assignment.
#[test]
fn tlut_bits_specialize_to_the_residual_table() {
    use parameterized_fpga_debug::map::ElemKind;
    use parameterized_fpga_debug::netlist::Network;

    // y = (p & a) ^ b — a TLUT (depends on the parameter, not a wire);
    // plus a mux tree so the flow has its usual trace port.
    let mut nw = Network::new("tl");
    let a = nw.add_input("a");
    let b = nw.add_input("b");
    let p = nw.add_input("$sel_p0_b0");
    nw.set_param(p, true);
    let pa = nw.add_table("pa", vec![p, a], gates::and2());
    let y = nw.add_table("y", vec![pa, b], gates::xor2());
    nw.add_output("y", y);
    let m = nw.add_table("$mux_p0", vec![pa, y, p], gates::mux21());
    nw.add_output("$trace0", m);

    let mut inst = parameterized_fpga_debug::core::instrument(
        &nw,
        &InstrumentConfig { n_ports: 1, max_signals: Some(0), coverage: 1 },
    );
    // Hand-register the parameter so the flow sees it (instrument() with
    // max_signals=0 adds no ports of its own).
    inst.annotations.add_param("$sel_p0_b0");
    let off = offline(&inst, &OfflineConfig { k: PAPER_K, ..Default::default() }).unwrap();
    let tluts = off.kinds.iter().filter(|(_, &k)| k == ElemKind::TLut).count();
    assert!(tluts >= 1, "expected a TLUT: {:?}", off.map_stats);
    let scg = CompiledDesign::from_offline(inst, off).scg;
    assert!(scg.generalized().n_tunable() > 0, "TLUT truth bits must be parameterized");
    // The two specializations differ (different residual tables).
    let p0: parameterized_fpga_debug::util::BitVec = [false].into_iter().collect();
    let p1: parameterized_fpga_debug::util::BitVec = [true].into_iter().collect();
    assert_ne!(scg.try_specialize(&p0).unwrap(), scg.try_specialize(&p1).unwrap());
}
