//! Chaos suite: debugging turns under an ICAP that fails.
//!
//! The invariant under test is the paper's implicit trust assumption
//! made explicit: after every turn the device's configuration memory
//! either equals the fault-free golden specialization of the selected
//! parameters (the commit verified), or the turn rolled back cleanly —
//! session parameters, the loaded bitstream, and the turn log exactly
//! as before, with only `needs_resync` armed for the recovery rewrite.
//!
//! The injected fault rate defaults to sweeping up to 10% and can be
//! overridden through `PFDBG_ICAP_FAULT_RATE` (the `check.sh` chaos
//! pass sets 0.05 across this whole suite).

use pfdbg_core::{offline, prepare_instrumented, DebugSession, OfflineConfig, OfflineResult};
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_pconf::{CommitPolicy, OnlineReconfigurator};
use pfdbg_util::BitVec;

fn compiled() -> (pfdbg_core::Instrumented, OfflineResult) {
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 8,
        n_outputs: 6,
        n_gates: 40,
        depth: 5,
        n_latches: 2,
        seed: 33,
    });
    let (_, _, inst) = prepare_instrumented(
        &design,
        &pfdbg_core::InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        6,
    )
    .unwrap();
    let off = offline(&inst, &OfflineConfig::default()).unwrap();
    (inst, off)
}

/// A walk through parameter space: repeated, fresh, and returning
/// selections so turns exercise empty diffs, small diffs, and resyncs.
fn param_walk(n: usize, turns: usize) -> Vec<BitVec> {
    (0..turns)
        .map(|t| {
            let mut p = BitVec::zeros(n);
            if t % 4 != 0 {
                p.set(t % n.max(1), true);
                p.set((t * 3 + 1) % n.max(1), t % 2 == 0);
            }
            p
        })
        .collect()
}

/// Drive `turns` selections against a chaos reconfigurator and check
/// the commit-or-rollback invariant after every one of them.
fn drive_and_check(online: &mut OnlineReconfigurator, walk: &[BitVec]) -> (usize, usize) {
    let (mut committed, mut rolled_back) = (0, 0);
    for params in walk {
        let before = online.current();
        match online.try_apply(params) {
            Ok(_) => {
                committed += 1;
                let golden = online.scg().try_specialize(params).unwrap();
                assert_eq!(
                    online.readback(),
                    golden,
                    "committed turn's readback must be bit-identical to the golden run"
                );
                assert_eq!(online.current(), golden, "belief and golden diverged");
                assert!(!online.needs_resync(), "a verified commit clears resync");
            }
            Err(msg) => {
                rolled_back += 1;
                assert!(msg.contains("rolled back"), "unexpected failure: {msg}");
                assert_eq!(online.current(), before, "rollback must not move the belief");
                assert!(online.needs_resync(), "rollback must arm resync");
            }
        }
    }
    (committed, rolled_back)
}

#[test]
fn turns_under_injected_faults_match_golden_up_to_ten_percent() {
    let mut rates = vec![0.02, 0.05, 0.10];
    if let Some(env) = IcapFaultConfig::from_env() {
        rates.push(env.total_rate());
    }
    for rate in rates {
        let (inst, off) = compiled();
        let n = inst.annotations.len();
        let mut online = off
            .into_online_with(
                Some(IcapFaultConfig::uniform(rate, 0xC0FFEE)),
                CommitPolicy::default(),
                None,
            )
            .expect("offline flow built an SCG");
        let (committed, rolled_back) = drive_and_check(&mut online, &param_walk(n, 10));
        assert!(
            committed > 0,
            "rate {rate}: retries and escalation should land most turns (rolled back {rolled_back})"
        );
    }
}

#[test]
fn rollback_then_resync_recovers_the_device() {
    let (inst, off) = compiled();
    let n = inst.annotations.len();
    // Writes fail outright half the time and no retries are allowed:
    // rollbacks become common, and every recovery must come from the
    // full resync rewrite of the following successful turn.
    let cfg = IcapFaultConfig { write_error_rate: 0.5, seed: 7, ..IcapFaultConfig::default() };
    let policy = CommitPolicy { max_retries: 0, ..CommitPolicy::default() };
    let mut online = off.into_online_with(Some(cfg), policy, None).expect("scg");
    let (committed, rolled_back) = drive_and_check(&mut online, &param_walk(n, 16));
    assert!(rolled_back > 0, "a 50% write-error rate with zero retries must roll back");
    assert!(committed > 0, "some turns must still land and resync the device");
}

#[test]
fn dead_port_rolls_back_every_turn() {
    let (inst, off) = compiled();
    let n = inst.annotations.len();
    let cfg = IcapFaultConfig { write_error_rate: 1.0, seed: 1, ..IcapFaultConfig::default() };
    let policy = CommitPolicy { max_retries: 0, ..CommitPolicy::default() };
    let mut online = off.into_online_with(Some(cfg), policy, None).expect("scg");
    let base = online.current();
    let mut p = BitVec::zeros(n);
    p.set(0, true);
    for _ in 0..3 {
        assert!(online.try_apply(&p).is_err(), "a dead port cannot commit");
        assert_eq!(online.current(), base);
        assert!(online.needs_resync());
    }
}

#[test]
fn debug_session_observe_is_transactional() {
    // A dead ICAP: observe() must fail without advancing the session.
    let (inst, off) = compiled();
    let cfg = IcapFaultConfig { write_error_rate: 1.0, seed: 2, ..IcapFaultConfig::default() };
    let policy = CommitPolicy { max_retries: 0, ..CommitPolicy::default() };
    let online = off.into_online_with(Some(cfg), policy, None).expect("scg");
    let dut = inst.network.clone();
    // The first signal of a port selects with value 0 — an empty diff
    // that commits without touching the port. Pick a later signal so
    // the turn actually has frames to write (and fail).
    let signal = inst.ports[0].signals.last().cloned().expect("port has signals");
    let n = inst.annotations.len();
    let mut session = DebugSession::new(inst, Some(online));
    let err = session.observe(&dut, &[&signal], 8, 1, &[]);
    assert!(err.is_err(), "the turn cannot commit over a dead port");
    assert_eq!(session.turns().len(), 0, "a failed turn must not be logged");
    assert_eq!(session.params(), &BitVec::zeros(n), "a failed turn must not move params");

    // The same selection over a fault-free transport goes through, and
    // the committed device state matches the golden specialization.
    let (inst2, off2) = compiled();
    let online2 = off2.into_online_with(None, CommitPolicy::default(), None).expect("scg");
    let dut2 = inst2.network.clone();
    let signal2 = inst2.ports[0].signals.last().cloned().expect("port has signals");
    let mut session2 = DebugSession::new(inst2, Some(online2));
    session2.observe(&dut2, &[&signal2], 8, 1, &[]).expect("reliable turn");
    assert_eq!(session2.turns().len(), 1);
}

#[test]
fn combined_write_faults_and_seus_keep_trace_windows_golden() {
    // Both adversaries at once: transport faults harass commit writes
    // while SEUs corrupt configuration memory between turns. Defaults
    // sweep a modest combined rate; PFDBG_ICAP_FAULT_RATE and
    // PFDBG_SEU_RATE (the check.sh combined-chaos pass) override.
    let fault =
        IcapFaultConfig::from_env().unwrap_or_else(|| IcapFaultConfig::uniform(0.05, 0xFA11));
    let seu = SeuConfig::from_env().unwrap_or(SeuConfig { rate: 0.02, burst: 2, seed: 0x5E0D });
    let (inst, off) = compiled();
    let online =
        off.into_online_with(Some(fault), CommitPolicy::default(), Some(seu)).expect("scg");
    let dut = inst.network.clone();
    let signals: Vec<String> =
        inst.ports.iter().flat_map(|p| p.signals.iter().rev().take(2).cloned()).collect();
    let mut session = DebugSession::new(inst, Some(online));

    let mut observed = 0usize;
    for (i, sig) in signals.iter().enumerate() {
        // Time passes between turns: the fabric takes its upsets first.
        session.online_mut().expect("online").tick();
        match session.observe(&dut, &[sig.as_str()], 12, 40 + i as u64, &[]) {
            Ok(wf) => {
                observed += 1;
                // Every served trace window must match the fault-free
                // golden emulator bit for bit.
                let gold = pfdbg_emu::golden_waveform(&dut, &[sig.as_str()], 12, 40 + i as u64)
                    .expect("golden sim");
                assert_eq!(wf.series(sig), gold.series(sig), "turn {i}: trace diverged");
            }
            Err(msg) => assert!(msg.contains("rolled back"), "unexpected failure: {msg}"),
        }
        // A scrub pass between turns repairs whatever the upsets broke
        // (transport faults can make a repair fail — that is what the
        // fail streak and the next pass are for).
        let online = session.online_mut().expect("online");
        let _ = online.scrub().expect("scrub evaluates golden frames");
    }
    assert!(observed > 0, "no turn ever committed under combined chaos");

    // Converge the scrubber (a few percent of repair writes fail per
    // pass), then nothing may diverge from the golden oracle without
    // being quarantined — and nothing should be quarantined.
    let online = session.online_mut().expect("online");
    for _ in 0..8 {
        let r = online.scrub().expect("scrub");
        if r.failed_frames == 0 && r.quarantined_frames == 0 {
            break;
        }
    }
    assert!(online.scrubber().quarantined().is_empty(), "light chaos must not quarantine");
    assert_eq!(
        online.undetected_divergence().unwrap(),
        Vec::<usize>::new(),
        "no injected upset may survive undetected"
    );
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let run = |seed: u64| -> Vec<Result<(), String>> {
        let (inst, off) = compiled();
        let n = inst.annotations.len();
        let mut online = off
            .into_online_with(
                Some(IcapFaultConfig::uniform(0.3, seed)),
                CommitPolicy::default(),
                None,
            )
            .expect("scg");
        param_walk(n, 8).iter().map(|p| online.try_apply(p).map(|_| ())).collect()
    };
    let outcomes =
        |v: &[Result<(), String>]| -> Vec<bool> { v.iter().map(|r| r.is_ok()).collect() };
    assert_eq!(outcomes(&run(11)), outcomes(&run(11)), "same seed, same turn outcomes");
}
