//! The online **specialization stage** (§IV.B) and multi-turn debug
//! sessions.
//!
//! Per debugging turn the engineer picks up to one signal per trace
//! port; the session translates the selection into a parameter
//! assignment, has the SCG evaluate the generalized bitstream and the
//! (modeled) ICAP swap the changed frames, then emulates the specialized
//! design and reads the capture back under the *original signal names*.
//! No recompilation happens anywhere in the loop.

use crate::param::{Instrumented, SelectionPlan};
use pfdbg_emu::{Emulator, Fault};
use pfdbg_netlist::Network;
use pfdbg_obs::{LazyCounter, LazyHistogram};
use pfdbg_pconf::{OnlineReconfigurator, TurnStats};
use pfdbg_trace::Waveform;
use pfdbg_util::BitVec;

// Always-on session telemetry (single-process `DebugSession` turns, as
// opposed to the `serve.*` fleet counters): one histogram of end-to-end
// turn wall time plus the turn count, live without profiling.
static TURNS: LazyCounter = LazyCounter::new("session.turns");
static TURN_US: LazyHistogram = LazyHistogram::new("session.turn_us");

/// One debugging turn's record.
#[derive(Debug)]
pub struct TurnRecord {
    /// Turn number (0-based).
    pub turn: usize,
    /// Signals observed this turn (port order).
    pub signals: Vec<String>,
    /// Reconfiguration cost (present when a hardware model is attached).
    pub stats: Option<TurnStats>,
}

/// A multi-turn debugging session over an instrumented design.
pub struct DebugSession {
    inst: Instrumented,
    online: Option<OnlineReconfigurator>,
    params: BitVec,
    turns: Vec<TurnRecord>,
}

impl DebugSession {
    /// Start a session. Attach the `OnlineReconfigurator` from the
    /// offline stage to account reconfiguration costs; without it the
    /// session still works functionally (netlist-level specialization).
    pub fn new(inst: Instrumented, online: Option<OnlineReconfigurator>) -> Self {
        let n = inst.annotations.len();
        DebugSession { inst, online, params: BitVec::zeros(n), turns: Vec::new() }
    }

    /// The instrumented design.
    pub fn instrumented(&self) -> &Instrumented {
        &self.inst
    }

    /// Completed turns.
    pub fn turns(&self) -> &[TurnRecord] {
        &self.turns
    }

    /// Current parameter assignment.
    pub fn params(&self) -> &BitVec {
        &self.params
    }

    /// Mutable access to the reconfigurator — how a caller ticks
    /// modeled time between turns or runs scrub passes against the
    /// session's device (see `pfdbg_pconf::scrub`).
    pub fn online_mut(&mut self) -> Option<&mut OnlineReconfigurator> {
        self.online.as_mut()
    }

    /// Plan a selection against the session's current parameters — see
    /// [`Instrumented::plan`].
    pub fn plan(&self, signals: &[&str]) -> Result<SelectionPlan, String> {
        self.inst.plan(&self.params, signals)
    }

    /// Execute one debugging turn: specialize for the selection, emulate
    /// `dut` (the instrumented design, possibly with injected faults) for
    /// `cycles` with seeded stimulus, and return the capture with signals
    /// renamed from trace ports back to the selected net names.
    ///
    /// `dut` must structurally be the instrumented network (same trace
    /// ports and parameters); a faulty variant produced by
    /// [`pfdbg_emu::apply_static`] on it qualifies.
    pub fn observe(
        &mut self,
        dut: &Network,
        signals: &[&str],
        cycles: usize,
        seed: u64,
        runtime_faults: &[Fault],
    ) -> Result<Waveform, String> {
        let _turn_span = pfdbg_obs::span("session.turn");
        let turn_t0 = std::time::Instant::now();
        let plan = self.plan(signals)?;
        // Transactional turn: the reconfiguration commits (with retries
        // and escalation) *before* any session state advances. A failed
        // commit rolls the reconfigurator back and leaves `params` and
        // the turn log exactly as they were.
        let stats = match self.online.as_mut() {
            Some(o) => Some(o.try_apply(&plan.params)?),
            None => None,
        };

        // Emulate the specialized design: trace ports observed, select
        // parameters held at the planned values. Trace ports are output
        // *ports*; observe their driver nets.
        let port_names: Vec<&str> = plan
            .assignments
            .iter()
            .map(|(p, _, _)| {
                let pname = self.inst.ports[*p].name.as_str();
                dut.outputs()
                    .iter()
                    .find(|o| o.name == pname)
                    .map(|o| dut.node(o.driver).name.as_str())
                    .ok_or_else(|| format!("dut lacks trace port {pname}"))
            })
            .collect::<Result<_, String>>()?;
        let mut emu = Emulator::new(dut, &port_names, cycles.max(1))?;
        for (i, pname) in self.inst.annotations.params.iter().enumerate() {
            emu.set_sticky_by_name(pname, plan.params.get(i))?;
        }
        for f in runtime_faults {
            emu.add_runtime_fault(f)?;
        }
        emu.run_random(cycles, seed);
        let captured = emu.waveform();

        // Rename trace ports to the observed signal names.
        let mut wf = Waveform::new(plan.assignments.iter().map(|(_, _, s)| s.clone()).collect());
        for t in 0..captured.n_samples() {
            let row: BitVec = plan
                .assignments
                .iter()
                .enumerate()
                .map(|(k, _)| captured.value(port_names[k], t).expect("port captured"))
                .collect();
            wf.push_sample(&row);
        }

        self.params = plan.params;
        self.turns.push(TurnRecord {
            turn: self.turns.len(),
            signals: signals.iter().map(|s| s.to_string()).collect(),
            stats,
        });
        TURNS.add(1);
        TURN_US.record_duration(turn_t0.elapsed());
        Ok(wf)
    }

    /// Total modeled reconfiguration time spent across all turns.
    pub fn total_reconfig_time(&self) -> std::time::Duration {
        self.turns.iter().filter_map(|t| t.stats.map(|s| s.total())).sum()
    }

    /// Total *modeled ICAP transfer* time across all turns — the
    /// apples-to-apples quantity to compare against a modeled full
    /// reconfiguration (it excludes the measured host-side SCG
    /// evaluation wall time, which scales with the machine running the
    /// model rather than with the device).
    pub fn total_transfer_time(&self) -> std::time::Duration {
        self.turns.iter().filter_map(|t| t.stats.map(|s| s.transfer_time)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{instrument, InstrumentConfig};
    use pfdbg_emu::{apply_static, golden_waveform};
    use pfdbg_netlist::truth::gates;

    fn design() -> Network {
        let mut nw = Network::new("d");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let c = nw.add_input("c");
        let g1 = nw.add_table("g1", vec![a, b], gates::and2());
        let g2 = nw.add_table("g2", vec![g1, c], gates::xor2());
        let g3 = nw.add_table("g3", vec![g2, b], gates::or2());
        let q = nw.add_latch("q", g3, false);
        nw.add_output("y", q);
        nw
    }

    #[test]
    fn plan_assigns_distinct_ports() {
        let inst =
            instrument(&design(), &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 });
        let session = DebugSession::new(inst, None);
        // Find two signals living on different ports.
        let ports = &session.instrumented().ports;
        let s0 = ports[0].signals[0].clone();
        let s1 = ports[1].signals[0].clone();
        let plan = session.plan(&[&s0, &s1]).unwrap();
        assert_eq!(plan.assignments.len(), 2);
        assert_ne!(plan.assignments[0].0, plan.assignments[1].0);
    }

    #[test]
    fn plan_rejects_overcommitted_turn() {
        let inst =
            instrument(&design(), &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 });
        let port0 = inst.ports[0].signals.clone();
        let session = DebugSession::new(inst, None);
        if port0.len() >= 2 {
            let err = session.plan(&[&port0[0], &port0[1]]);
            assert!(err.is_err(), "two signals on the same single port must not fit");
        }
    }

    #[test]
    fn observe_matches_direct_simulation() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 });
        let inst_nw = inst.network.clone();
        let mut session = DebugSession::new(inst, None);
        // Observe g2 through the mux network; compare against the golden
        // waveform of the same signal in the same (instrumented) network
        // with the same stimulus.
        let wf = session.observe(&inst_nw, &["g2"], 24, 99, &[]).unwrap();
        let golden = golden_waveform(&inst_nw, &["g2"], 24, 99).unwrap();
        assert_eq!(wf.series("g2"), golden.series("g2"), "mux network corrupted the signal");
    }

    #[test]
    fn turns_accumulate_without_recompilation() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 });
        let inst_nw = inst.network.clone();
        let signals: Vec<String> = inst.ports[0].signals.clone();
        let mut session = DebugSession::new(inst, None);
        let mut distinct = signals.clone();
        distinct.dedup();
        for s in distinct.iter().take(3) {
            session.observe(&inst_nw, &[s], 8, 1, &[]).unwrap();
        }
        assert_eq!(session.turns().len(), 3.min(distinct.len()));
    }

    #[test]
    fn faulty_dut_shows_divergence_through_trace() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 });
        let inst_nw = inst.network.clone();
        let faulty = apply_static(
            &inst_nw,
            &pfdbg_emu::Fault::WrongGate { net: "g1".into(), table: gates::or2() },
        )
        .unwrap();
        let mut session = DebugSession::new(inst, None);
        let wf_bad = session.observe(&faulty, &["g1"], 32, 5, &[]).unwrap();
        let wf_good = golden_waveform(&inst_nw, &["g1"], 32, 5).unwrap();
        assert_ne!(
            wf_bad.series("g1"),
            wf_good.series("g1"),
            "the injected bug must be visible on the traced signal"
        );
    }
}
