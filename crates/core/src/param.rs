//! Signal parameterization: the added step in the CAD flow (§IV.A.2).
//!
//! Every observable internal net is connected to a trace-buffer port
//! through a multiplexer tree whose select inputs are fresh *parameter*
//! inputs. The instrumented description stays synthesizable; the mux
//! select nets are annotated in a `.par` file so the TCON mapper knows
//! which signals the PConf applies to. Because the selects are
//! parameters, the whole tree later dissolves into tunable connections —
//! no LUTs, no dedicated area, no recompilation to change the observed
//! set.

use pfdbg_netlist::truth::gates;
use pfdbg_netlist::{Network, NodeId, ParamAnnotations};
use pfdbg_util::BitVec;

/// Instrumentation settings.
#[derive(Debug, Clone)]
pub struct InstrumentConfig {
    /// Trace-buffer ports (signals observable *simultaneously*).
    pub n_ports: usize,
    /// Cap on the observable signal count (critical-signal selection,
    /// the paper's §VI future work — `None` observes every internal
    /// net).
    pub max_signals: Option<usize>,
    /// How many different ports can reach each signal (>= 2 lets nearby
    /// signals be watched together at the cost of a proportionally
    /// larger mux network).
    pub coverage: usize,
}

impl Default for InstrumentConfig {
    fn default() -> Self {
        InstrumentConfig { n_ports: 4, max_signals: None, coverage: 1 }
    }
}

impl InstrumentConfig {
    /// The configuration used to regenerate the paper's tables: four
    /// trace ports, full observability, each signal reachable from two
    /// ports (matching the paper's TCON-per-signal density), paired with
    /// K=4 LUTs ([`PAPER_K`]).
    pub fn paper() -> Self {
        InstrumentConfig { n_ports: 4, max_signals: None, coverage: 2 }
    }
}

/// The LUT size of the paper's experimental study (the VTR-era academic
/// flows it builds on map to 4-LUT architectures; the conventional-mapper
/// blow-up factors of Table I only arise when a 2:1 mux costs about one
/// LUT).
pub const PAPER_K: usize = 4;

/// One trace port's wiring.
#[derive(Debug, Clone)]
pub struct PortInfo {
    /// The trace output net name (`$trace<p>`).
    pub name: String,
    /// Select parameter names, LSB first.
    pub sel_params: Vec<String>,
    /// `signals[v]` = net observed when the select bus equals `v`
    /// (padding repeats the first signal).
    pub signals: Vec<String>,
}

impl PortInfo {
    /// The select value observing `signal`, if this port can reach it.
    pub fn select_for(&self, signal: &str) -> Option<usize> {
        self.signals.iter().position(|s| s == signal)
    }
}

/// A selection mapped onto ports.
#[derive(Debug, Clone)]
pub struct SelectionPlan {
    /// `(port index, select value, signal name)` per requested signal.
    pub assignments: Vec<(usize, usize, String)>,
    /// The resulting parameter values.
    pub params: BitVec,
}

/// The instrumented design.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The design with mux trees, parameter inputs and trace outputs.
    pub network: Network,
    /// `.par` annotations (parameter names + per-port groups).
    pub annotations: ParamAnnotations,
    /// Per-port wiring metadata.
    pub ports: Vec<PortInfo>,
}

impl Instrumented {
    /// Total number of select parameters.
    pub fn n_params(&self) -> usize {
        self.annotations.len()
    }

    /// All observable signal names (deduplicated across ports).
    pub fn observable(&self) -> Vec<&str> {
        let mut v: Vec<&str> =
            self.ports.iter().flat_map(|p| p.signals.iter().map(String::as_str)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Find which port can observe `signal` and the select value:
    /// `(port index, select value)`.
    pub fn locate(&self, signal: &str) -> Option<(usize, usize)> {
        self.ports.iter().enumerate().find_map(|(i, p)| p.select_for(signal).map(|v| (i, v)))
    }

    /// Plan a selection against the parameters `current`: each
    /// requested signal claims one free port able to observe it, and
    /// that port's select bits take its value; unrelated ports keep
    /// their selection. Fails if a signal is not observable or more
    /// signals are requested than ports exist (that would need
    /// *another turn*, which is exactly the paper's point — turns are
    /// cheap).
    pub fn plan<S: AsRef<str>>(
        &self,
        current: &BitVec,
        signals: &[S],
    ) -> Result<SelectionPlan, String> {
        let mut used_ports = vec![false; self.ports.len()];
        let mut assignments = Vec::with_capacity(signals.len());
        let mut params = current.clone();
        for sig in signals {
            let sig = sig.as_ref();
            let found = self.ports.iter().enumerate().find_map(|(p, port)| {
                if used_ports[p] {
                    return None;
                }
                port.select_for(sig).map(|v| (p, v))
            });
            let (p, v) =
                found.ok_or_else(|| format!("no free trace port can observe {sig} this turn"))?;
            used_ports[p] = true;
            for (bit, name) in self.ports[p].sel_params.iter().enumerate() {
                let idx = self
                    .annotations
                    .params
                    .iter()
                    .position(|q| q == name)
                    .ok_or_else(|| format!("select parameter {name} not annotated"))?;
                params.set(idx, (v >> bit) & 1 == 1);
            }
            assignments.push((p, v, sig.to_string()));
        }
        Ok(SelectionPlan { assignments, params })
    }
}

/// The nets worth observing: internal table and latch outputs. Mapped
/// LUT outputs (`$lut…`, `$inv…`) are physical wires and observable;
/// instrumentation artifacts (mux nodes, select parameters, trace
/// outputs) are not.
pub fn observable_signals(nw: &Network) -> Vec<NodeId> {
    nw.nodes()
        .filter(|(_, n)| {
            (n.is_table() || n.is_latch())
                && !n.name.starts_with("$mux")
                && !n.name.starts_with("$sel_")
                && !n.name.starts_with("$trace")
        })
        .map(|(id, _)| id)
        .collect()
}

/// Instrument a design: add parameterized mux trees from (all or
/// selected) internal signals to trace-buffer ports.
pub fn instrument(design: &Network, cfg: &InstrumentConfig) -> Instrumented {
    assert!(cfg.n_ports >= 1, "need at least one trace port");
    let mut nw = design.clone();
    let mut annotations = ParamAnnotations::default();

    let mut signals = observable_signals(&nw);
    if let Some(cap) = cfg.max_signals {
        signals.truncate(cap);
    }

    // Round-robin signals over ports so simultaneous observation of
    // nearby nets is usually possible; with coverage > 1 each signal is
    // reachable from several ports.
    let coverage = cfg.coverage.clamp(1, cfg.n_ports.max(1));
    let mut per_port: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.n_ports];
    for (i, s) in signals.iter().enumerate() {
        for c in 0..coverage {
            per_port[(i * coverage + c) % cfg.n_ports].push(*s);
        }
    }

    let mut ports = Vec::with_capacity(cfg.n_ports);
    for (p, mut sigs) in per_port.into_iter().enumerate() {
        if sigs.is_empty() {
            // A port with nothing to observe still exists but stays
            // unconnected; skip it entirely.
            continue;
        }
        // Pad to a power of two by repeating the first signal.
        let n_bits = (sigs.len().max(2) as f64).log2().ceil() as usize;
        let padded = 1usize << n_bits;
        while sigs.len() < padded {
            sigs.push(sigs[0]);
        }

        // Select parameter inputs, LSB first.
        let mut sel_nodes = Vec::with_capacity(n_bits);
        let mut sel_names = Vec::with_capacity(n_bits);
        for b in 0..n_bits {
            let name = nw.fresh_name(&format!("$sel_p{p}_b{b}"));
            let id = nw.add_input(name.clone());
            nw.set_param(id, true);
            sel_nodes.push(id);
            sel_names.push(name);
        }

        // Balanced mux tree; bit `level` selects between the halves whose
        // indices differ in that bit (recursion from the top bit).
        let mux_prefix = format!("$mux_p{p}");
        let root = build_mux_tree(&mut nw, &sigs, &sel_nodes, n_bits, &mux_prefix, &mut 0);

        let port_name = nw.fresh_name(&format!("$trace{p}"));
        nw.add_output(port_name.clone(), root);
        annotations.add_group(format!("port{p}_sel"), sel_names.clone());
        ports.push(PortInfo {
            name: port_name,
            sel_params: sel_names,
            signals: sigs.iter().map(|&s| nw.node(s).name.clone()).collect(),
        });
    }

    Instrumented { network: nw, annotations, ports }
}

/// Build the mux tree over `sigs` (a power-of-two slice) using select
/// bits `sel[..n_bits]`; returns the root node. Bit `n_bits-1` is the
/// root selector. Mux nets are named under `prefix`, each name's search
/// resuming at `*next` where the previous one stopped.
fn build_mux_tree(
    nw: &mut Network,
    sigs: &[NodeId],
    sel: &[NodeId],
    n_bits: usize,
    prefix: &str,
    next: &mut usize,
) -> NodeId {
    if n_bits == 0 {
        return sigs[0];
    }
    let half = sigs.len() / 2;
    let lo = build_mux_tree(nw, &sigs[..half], sel, n_bits - 1, prefix, next);
    let hi = build_mux_tree(nw, &sigs[half..], sel, n_bits - 1, prefix, next);
    if lo == hi {
        return lo; // padding collapses
    }
    let name = nw.fresh_name_after(prefix, next);
    // mux21 input order (d0, d1, s): output = s ? d1 : d0.
    nw.add_table(name, vec![lo, hi, sel[n_bits - 1]], gates::mux21())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_netlist::sim::Simulator;
    use pfdbg_netlist::truth::gates as g;
    use std::collections::HashMap;

    fn design() -> Network {
        let mut nw = Network::new("d");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let c = nw.add_input("c");
        let g1 = nw.add_table("g1", vec![a, b], g::and2());
        let g2 = nw.add_table("g2", vec![g1, c], g::xor2());
        let g3 = nw.add_table("g3", vec![g2, a], g::or2());
        let q = nw.add_latch("q", g3, false);
        nw.add_output("y", q);
        nw
    }

    #[test]
    fn instruments_all_internal_signals() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 });
        inst.network.validate().unwrap();
        // g1, g2, g3, q observable.
        let obs = inst.observable();
        for s in ["g1", "g2", "g3", "q"] {
            assert!(obs.contains(&s), "missing {s}");
        }
        // Two trace outputs exist.
        assert_eq!(inst.ports.len(), 2);
        assert!(inst.network.outputs().iter().any(|p| p.name == inst.ports[0].name));
    }

    #[test]
    fn original_function_untouched() {
        let nw = design();
        let inst = instrument(&nw, &InstrumentConfig::default());
        // The instrumented network, restricted to the original interface,
        // is unchanged: simulate and compare output y.
        let mut sim_o = Simulator::new(&nw).unwrap();
        let mut sim_i = Simulator::new(&inst.network).unwrap();
        let stim = |nw: &Network| -> HashMap<NodeId, u64> {
            nw.inputs()
                .filter(|&i| !nw.node(i).is_param)
                .enumerate()
                .map(|(k, i)| (i, 0xA5A5_5A5A_DEAD_BEEFu64.rotate_left(k as u32)))
                .collect()
        };
        for _ in 0..8 {
            sim_o.step(&stim(&nw));
            sim_i.step(&stim(&inst.network));
        }
        let yo = nw.outputs().iter().find(|p| p.name == "y").unwrap().driver;
        let yi = inst.network.outputs().iter().find(|p| p.name == "y").unwrap().driver;
        assert_eq!(sim_o.value(yo), sim_i.value(yi));
    }

    #[test]
    fn mux_tree_routes_selected_signal() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 });
        let port = &inst.ports[0];
        let trace_driver =
            inst.network.outputs().iter().find(|p| p.name == port.name).unwrap().driver;

        let mut sim = Simulator::new(&inst.network).unwrap();
        for (v, sig_name) in port.signals.iter().enumerate() {
            let mut inputs: HashMap<NodeId, u64> = HashMap::new();
            for id in inst.network.inputs() {
                let node = inst.network.node(id);
                if node.is_param {
                    // Drive the select bus with value v.
                    let bit = port
                        .sel_params
                        .iter()
                        .position(|s| *s == node.name)
                        .map(|b| (v >> b) & 1 == 1)
                        .unwrap_or(false);
                    inputs.insert(id, if bit { !0 } else { 0 });
                } else {
                    inputs.insert(id, 0x1234_5678_9ABC_DEF0 ^ (id.0 as u64) << 7);
                }
            }
            sim.settle(&inputs);
            let observed = sim.value(trace_driver);
            let target = inst.network.find(sig_name).unwrap();
            assert_eq!(observed, sim.value(target), "select {v} should observe {sig_name}");
        }
    }

    #[test]
    fn annotations_group_per_port() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 });
        assert_eq!(inst.annotations.groups.len(), 2);
        for port in &inst.ports {
            for p in &port.sel_params {
                assert!(inst.annotations.is_param(p));
                let id = inst.network.find(p).unwrap();
                assert!(inst.network.node(id).is_param);
            }
        }
        // Round-trip the .par file.
        let text = inst.annotations.write();
        let back = ParamAnnotations::parse(&text).unwrap();
        assert_eq!(back, inst.annotations);
    }

    #[test]
    fn max_signals_caps_observability() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 1, max_signals: Some(2), coverage: 1 });
        assert_eq!(inst.observable().len(), 2);
        // Fewer signals -> fewer select parameters.
        assert_eq!(inst.n_params(), 1);
    }

    #[test]
    fn locate_finds_port_and_value() {
        let nw = design();
        let inst =
            instrument(&nw, &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 });
        for s in ["g1", "g2", "g3", "q"] {
            let (p, v) = inst.locate(s).unwrap_or_else(|| panic!("{s} unlocatable"));
            assert_eq!(inst.ports[p].signals[v], s);
        }
        assert!(inst.locate("nope").is_none());
    }

    #[test]
    fn plan_names_a_select_parameter_missing_from_the_annotations() {
        let mut inst =
            instrument(&design(), &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 });
        let signal = inst.ports[0].signals[0].clone();
        let missing = inst.ports[0].sel_params[0].clone();
        inst.annotations.params.retain(|p| *p != missing);
        let current = BitVec::zeros(inst.n_params());
        let err = inst.plan(&current, &[signal]).unwrap_err();
        assert_eq!(err, format!("select parameter {missing} not annotated"));
    }
}
