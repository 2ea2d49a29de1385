//! Network-level parameterized mapping — the production TCONMap entry
//! point.
//!
//! The tool flow instruments the *mapped* netlist: every LUT/latch
//! output is multiplexed toward the trace buffers by mux nodes whose
//! selects are parameters (annotated in the `.par` file). This mapper:
//!
//! 1. identifies the parameterized selector nodes (node-level functional
//!    check: for every select-parameter assignment the node degenerates
//!    to one data input) whose outputs feed only other selectors or
//!    primary outputs — those become **TCONs**, implemented in routing;
//! 2. re-synthesizes and maps the remaining logic with the
//!    parameter-aware cut mapper (parameter logic that is *not* pure
//!    routing becomes **TLUTs**), keeping every selector data input
//!    alive as a mapping root so the observed signals still exist as
//!    physical wires;
//! 3. stitches the selector nodes back on top of the mapped logic.

use crate::mapper::{ElemKind, MapperKind};
use pfdbg_netlist::truth::TruthTable;
use pfdbg_netlist::{Network, NodeId, NodeKind};
use pfdbg_synth::synthesize;
use pfdbg_util::{FxHashMap, FxHashSet};

/// Statistics of a network-level parameterized mapping.
#[derive(Debug, Clone, Copy)]
pub struct NetMapStats {
    /// Plain LUTs.
    pub luts: usize,
    /// Tunable LUTs.
    pub tluts: usize,
    /// Tunable connections.
    pub tcons: usize,
    /// Logic depth in LUT levels (TCONs and parameters add none).
    pub depth: u32,
}

/// The result: the generalized network plus element kinds.
pub struct MappedParam {
    /// The mapped network (LUTs, latches, TCON selector tables).
    pub network: Network,
    /// Element kind per table node.
    pub kinds: FxHashMap<NodeId, ElemKind>,
    /// Summary statistics.
    pub stats: NetMapStats,
}

/// Is this table node a pure parameterized selector? (For every
/// assignment of its parameter fanins the function reduces to one
/// *positive* data fanin or a constant.)
fn is_selector(nw: &Network, id: NodeId) -> bool {
    let node = nw.node(id);
    let Some(table) = node.table() else { return false };
    let param_pos: Vec<usize> = node
        .fanins
        .iter()
        .enumerate()
        .filter(|(_, &f)| nw.node(f).is_param)
        .map(|(i, _)| i)
        .collect();
    if param_pos.is_empty() || !param_pos.iter().any(|&p| table.depends_on(p)) {
        return false;
    }
    for a in 0..(1usize << param_pos.len()) {
        let mut residual = table.clone();
        for (bit, &p) in param_pos.iter().enumerate().rev() {
            residual = residual.restrict(p, (a >> bit) & 1 == 1);
        }
        if residual.is_const0() || residual.is_const1() {
            continue;
        }
        let n = residual.nvars();
        if !(0..n).any(|v| residual == TruthTable::var(n, v)) {
            return false;
        }
    }
    true
}

/// Map an instrumented network, honoring its parameter annotations.
pub fn map_parameterized_network(nw: &Network, k: usize) -> Result<MappedParam, String> {
    nw.validate()?;

    // --- Pass 1: TCON candidates — selector nodes consumed only by other
    // selectors or primary outputs (a selector feeding real logic cannot
    // live purely in routing, so it falls through to the TLUT path).
    let mut selector: FxHashSet<NodeId> = nw.node_ids().filter(|&id| is_selector(nw, id)).collect();
    loop {
        let mut demote: Vec<NodeId> = Vec::new();
        for (id, node) in nw.nodes() {
            let consumer_is_selector = selector.contains(&id);
            for &f in &node.fanins {
                if selector.contains(&f) && !consumer_is_selector {
                    demote.push(f);
                }
            }
        }
        if demote.is_empty() {
            break;
        }
        for d in demote {
            selector.remove(&d);
        }
    }

    // Data fanins of TCONs that are internal logic must survive mapping.
    let mut keep_alive: FxHashSet<NodeId> = FxHashSet::default();
    for &s in &selector {
        for &f in &nw.node(s).fanins {
            let fnode = nw.node(f);
            if !fnode.is_param && !selector.contains(&f) && (fnode.is_table() || fnode.is_latch()) {
                keep_alive.insert(f);
            }
        }
    }

    // --- Pass 2: the "rest" network (everything except TCON nodes and
    // the outputs they drive), with keep-alive pseudo-outputs.
    let mut rest = Network::new(nw.name.clone());
    let mut rest_id: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let order = nw.topo_order().map_err(|n| format!("cycle at {n:?}"))?;
    for (id, node) in nw.nodes() {
        match &node.kind {
            NodeKind::Input => {
                let r = rest.add_input(node.name.clone());
                rest.set_param(r, node.is_param);
                rest_id.insert(id, r);
            }
            NodeKind::Const(v) => {
                let r = rest.add_const(node.name.clone(), *v);
                rest_id.insert(id, r);
            }
            NodeKind::Latch { init } => {
                // Placeholder data (a throwaway constant), rewired once
                // the table nodes exist.
                let ph = rest.add_const(rest.fresh_name("$ph"), false);
                let r = rest.add_latch(node.name.clone(), ph, *init);
                rest_id.insert(id, r);
            }
            NodeKind::Table(_) => {}
        }
    }
    for &id in &order {
        let node = nw.node(id);
        if node.is_table() && !selector.contains(&id) {
            let fanins: Vec<NodeId> = node
                .fanins
                .iter()
                .map(|f| {
                    rest_id.get(f).copied().ok_or_else(|| {
                        format!(
                            "fanin {} of {} is a TCON feeding logic",
                            nw.node(*f).name,
                            node.name
                        )
                    })
                })
                .collect::<Result<_, String>>()?;
            let r = rest.add_table(node.name.clone(), fanins, node.table().expect("table").clone());
            rest_id.insert(id, r);
        }
    }
    // Latch data (latches fed by TCONs are rejected for the same reason).
    for (id, node) in nw.nodes() {
        if node.is_latch() {
            let data = node.fanins[0];
            let rd = rest_id
                .get(&data)
                .copied()
                .ok_or_else(|| format!("latch {} fed by a TCON", node.name))?;
            rest.set_latch_data(rest_id[&id], rd);
        }
    }
    for port in nw.outputs() {
        if !selector.contains(&port.driver) {
            rest.add_output(port.name.clone(), rest_id[&port.driver]);
        }
    }
    for &ka in &keep_alive {
        let name = format!("$keep_{}", nw.node(ka).name);
        rest.add_output(name, rest_id[&ka]);
    }

    // --- Pass 3: map the rest. When it is already a K-feasible LUT
    // network (the production case: instrumentation runs on the mapped
    // netlist), adopt it 1:1 — re-mapping would only perturb the very
    // areas the paper keeps untouched. Otherwise synthesize and run the
    // parameter-aware cut mapper.
    let already_mapped = rest.nodes().all(|(_, n)| {
        n.table().is_none_or(|t| {
            let real = n.fanins.iter().filter(|&&f| !rest.node(f).is_param).count();
            real <= k && t.nvars() <= pfdbg_netlist::truth::MAX_VARS
        })
    });
    let (mapped, mut kinds) = if already_mapped {
        let mut kinds: FxHashMap<NodeId, ElemKind> = FxHashMap::default();
        for (id, node) in rest.nodes() {
            if node.is_table() {
                let param_dep = node.fanins.iter().enumerate().any(|(i, &f)| {
                    rest.node(f).is_param && node.table().expect("table").depends_on(i)
                });
                kinds.insert(id, if param_dep { ElemKind::TLut } else { ElemKind::Lut });
            }
        }
        (rest.clone(), kinds)
    } else {
        let aig = synthesize(&rest)?;
        let mapping = crate::mapper::map(&aig, k, MapperKind::TconMap);
        mapping.to_network(&aig)
    };

    // Resolve keep-alive drivers, then strip the pseudo-outputs.
    let mut alive_driver: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    for &ka in &keep_alive {
        let pname = format!("$keep_{}", nw.node(ka).name);
        let driver = mapped
            .outputs()
            .iter()
            .find(|p| p.name == pname)
            .map(|p| p.driver)
            .ok_or_else(|| format!("keep-alive output {pname} lost in mapping"))?;
        alive_driver.insert(ka, driver);
    }
    let mapped_outputs: Vec<(String, NodeId)> = mapped
        .outputs()
        .iter()
        .filter(|p| !p.name.starts_with("$keep_"))
        .map(|p| (p.name.clone(), p.driver))
        .collect();

    // --- Pass 4: stitch the TCON selectors back on top.
    // Rebuild `mapped` without the pseudo-outputs: Network outputs are
    // append-only, so reconstruct the output list via a fresh network
    // view. (Cheaper: keep the network and simply rebuild outputs.)
    let mut final_nw = Network::new(mapped.name.clone());
    let mut final_id: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let morder = mapped.topo_order().map_err(|n| format!("cycle at {n:?}"))?;
    for (id, node) in mapped.nodes() {
        match &node.kind {
            NodeKind::Input => {
                let f = final_nw.add_input(node.name.clone());
                final_nw.set_param(f, node.is_param);
                final_id.insert(id, f);
            }
            NodeKind::Const(v) => {
                final_id.insert(id, final_nw.add_const(node.name.clone(), *v));
            }
            NodeKind::Latch { init } => {
                let ph = final_nw.add_const(final_nw.fresh_name("$lph"), false);
                final_id.insert(id, final_nw.add_latch(node.name.clone(), ph, *init));
            }
            NodeKind::Table(_) => {}
        }
    }
    let mut final_kinds: FxHashMap<NodeId, ElemKind> = FxHashMap::default();
    for &id in &morder {
        let node = mapped.node(id);
        if node.is_table() {
            let fanins: Vec<NodeId> = node.fanins.iter().map(|f| final_id[f]).collect();
            let f = final_nw.add_table(node.name.clone(), fanins, node.table().expect("t").clone());
            final_id.insert(id, f);
            final_kinds.insert(f, kinds.remove(&id).unwrap_or(ElemKind::Lut));
        }
    }
    for (id, node) in mapped.nodes() {
        if node.is_latch() {
            final_nw.set_latch_data(final_id[&id], final_id[&node.fanins[0]]);
        }
    }

    // TCON nodes, in original topological order.
    let mut tcon_id: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let mut n_tcons = 0usize;
    for &id in &order {
        if !selector.contains(&id) {
            continue;
        }
        let node = nw.node(id);
        let fanins: Vec<NodeId> = node
            .fanins
            .iter()
            .map(|f| {
                let fnode = nw.node(*f);
                if let Some(&t) = tcon_id.get(f) {
                    return Ok(t);
                }
                if let Some(&d) = alive_driver.get(f) {
                    return Ok(final_id[&d]);
                }
                // Inputs, params, constants: match by name in the final
                // network.
                final_nw
                    .find(&fnode.name)
                    .ok_or_else(|| format!("TCON fanin {} missing after mapping", fnode.name))
            })
            .collect::<Result<_, String>>()?;
        let name = final_nw.fresh_name(&node.name);
        let t = final_nw.add_table(name, fanins, node.table().expect("table").clone());
        final_kinds.insert(t, ElemKind::TCon);
        tcon_id.insert(id, t);
        n_tcons += 1;
    }

    // Original outputs: logic-driven ones from the mapped view,
    // TCON-driven ones from the stitched selectors.
    for port in nw.outputs() {
        if let Some(&t) = tcon_id.get(&port.driver) {
            final_nw.add_output(port.name.clone(), t);
        }
    }
    for (name, driver) in mapped_outputs {
        final_nw.add_output(name, final_id[&driver]);
    }

    // Drop dangling placeholders, remapping the kind table.
    let (_, remap) = final_nw.sweep_dead();
    let final_kinds: FxHashMap<NodeId, ElemKind> =
        final_kinds.into_iter().filter_map(|(id, kind)| remap[id].map(|nid| (nid, kind))).collect();

    final_nw.validate()?;
    let luts = final_kinds.values().filter(|&&k| k == ElemKind::Lut).count();
    let tluts = final_kinds.values().filter(|&&k| k == ElemKind::TLut).count();
    let depth = depth_with_kinds(&final_nw, &final_kinds)?;
    Ok(MappedParam {
        network: final_nw,
        kinds: final_kinds,
        stats: NetMapStats { luts, tluts, tcons: n_tcons, depth },
    })
}

/// Logic depth of a mapped network where TCON nodes add no level and
/// parameter inputs are configuration (depth 0, never on a path).
pub fn depth_with_kinds(nw: &Network, kinds: &FxHashMap<NodeId, ElemKind>) -> Result<u32, String> {
    let order = nw.topo_order().map_err(|n| format!("cycle at {n:?}"))?;
    let mut depth: FxHashMap<NodeId, u32> = FxHashMap::default();
    for id in order {
        let node = nw.node(id);
        if node.is_table() {
            let cost = match kinds.get(&id) {
                Some(ElemKind::TCon) => 0,
                _ => 1,
            };
            let base = node
                .fanins
                .iter()
                .filter(|&&f| !nw.node(f).is_param)
                .map(|f| depth.get(f).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            depth.insert(id, base + cost);
        }
    }
    let mut out = 0;
    for port in nw.outputs() {
        out = out.max(depth.get(&port.driver).copied().unwrap_or(0));
    }
    for (_, node) in nw.nodes() {
        if node.is_latch() {
            out = out.max(depth.get(&node.fanins[0]).copied().unwrap_or(0));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_netlist::sim::comb_equivalent;
    use pfdbg_netlist::truth::gates;

    /// A LUT-ish network instrumented with a parameterized 4:1 mux tree.
    fn instrumented() -> Network {
        let mut nw = Network::new("i");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let c = nw.add_input("c");
        let g1 = nw.add_table("g1", vec![a, b], gates::and2());
        let g2 = nw.add_table("g2", vec![g1, c], gates::xor2());
        let g3 = nw.add_table("g3", vec![g2, a], gates::or2());
        let g4 = nw.add_table("g4", vec![g3, b], gates::nand2());
        nw.add_output("y", g4);
        // Mux tree observing g1..g4.
        let s0 = nw.add_input("s0");
        let s1 = nw.add_input("s1");
        nw.set_param(s0, true);
        nw.set_param(s1, true);
        let m0 = nw.add_table("$mux0", vec![g1, g2, s0], gates::mux21());
        let m1 = nw.add_table("$mux1", vec![g3, g4, s0], gates::mux21());
        let m2 = nw.add_table("$mux2", vec![m0, m1, s1], gates::mux21());
        nw.add_output("$trace0", m2);
        nw
    }

    #[test]
    fn selectors_become_tcons() {
        let nw = instrumented();
        let mp = map_parameterized_network(&nw, 6).unwrap();
        assert_eq!(mp.stats.tcons, 3, "{:?}", mp.stats);
        assert_eq!(mp.stats.tluts, 0);
        // User logic: 4 observed gates must remain as (at most 4) LUTs.
        assert!(mp.stats.luts <= 4, "{:?}", mp.stats);
        assert!(mp.stats.luts >= 3, "observed signals must survive: {:?}", mp.stats);
    }

    #[test]
    fn function_preserved_including_trace_port() {
        let nw = instrumented();
        let mp = map_parameterized_network(&nw, 6).unwrap();
        assert!(comb_equivalent(&nw, &mp.network, 64, 9).unwrap());
    }

    #[test]
    fn selector_feeding_logic_is_not_a_tcon() {
        let mut nw = Network::new("sl");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let s = nw.add_input("s");
        nw.set_param(s, true);
        let m = nw.add_table("m", vec![a, b, s], gates::mux21());
        // The mux output feeds real logic: cannot be routing-only.
        let g = nw.add_table("g", vec![m, a], gates::and2());
        nw.add_output("y", g);
        let mp = map_parameterized_network(&nw, 6).unwrap();
        assert_eq!(mp.stats.tcons, 0);
        // It becomes a TLUT instead (folded into the consumer LUT).
        assert!(mp.stats.tluts >= 1, "{:?}", mp.stats);
        assert!(comb_equivalent(&nw, &mp.network, 64, 4).unwrap());
    }

    #[test]
    fn depth_ignores_tcons() {
        // Full observability pins every gate as a physical wire, so the
        // logic keeps its own 4-level depth — but the two-level mux tree
        // on top must contribute *zero* additional levels.
        let nw = instrumented();
        let logic_depth = nw_depth_without_trace();
        let mp = map_parameterized_network(&nw, 6).unwrap();
        assert_eq!(mp.stats.depth, logic_depth, "trace network changed the depth: {:?}", mp.stats);
    }

    fn nw_depth_without_trace() -> u32 {
        let mut plain = Network::new("p");
        let a = plain.add_input("a");
        let b = plain.add_input("b");
        let c = plain.add_input("c");
        let g1 = plain.add_table("g1", vec![a, b], gates::and2());
        let g2 = plain.add_table("g2", vec![g1, c], gates::xor2());
        let g3 = plain.add_table("g3", vec![g2, a], gates::or2());
        let g4 = plain.add_table("g4", vec![g3, b], gates::nand2());
        plain.add_output("y", g4);
        plain.depth().unwrap()
    }

    #[test]
    fn latches_survive_with_observation() {
        let mut nw = Network::new("lat");
        let a = nw.add_input("a");
        let g = nw.add_table("g", vec![a, a], gates::and2());
        let q = nw.add_latch("q", g, true);
        let s = nw.add_input("s");
        nw.set_param(s, true);
        let m = nw.add_table("$mux", vec![g, q, s], gates::mux21());
        nw.add_output("$trace0", m);
        nw.add_output("y", q);
        let mp = map_parameterized_network(&nw, 6).unwrap();
        assert_eq!(mp.network.n_latches(), 1);
        assert_eq!(mp.stats.tcons, 1);
        assert!(comb_equivalent(&nw, &mp.network, 32, 6).unwrap());
    }
}
