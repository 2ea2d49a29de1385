//! TPack: clustering of the mapped netlist into CLBs (VPack-style greedy
//! packing), with parameterization awareness.
//!
//! The input is a mapped LUT network plus the element-kind map from the
//! technology mapper. LUTs and latches are packed into BLEs (a K-LUT with
//! an optional output flip-flop), and BLEs into clusters of `n_ble` with
//! at most `clb_inputs` distinct external input signals. **TCON elements
//! are not packed** — they are pure routing and are resolved into
//! *tunable nets*: a sink whose driver is a TCON tree can receive any of
//! the tree's alternative sources, selected at specialization time; the
//! alternatives of one tunable net may share routing resources because at
//! most one is active at a time.

use pfdbg_map::ElemKind;
use pfdbg_netlist::{Network, NodeId, NodeKind};
use pfdbg_util::{FxHashMap, FxHashSet, IdVec};

/// A block placeable on the device grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// A logic cluster (index into [`PackedDesign::clusters`]).
    Clb(usize),
    /// An input pad driving the named primary input.
    InPad(String),
    /// An output pad sinking the named primary output (trace-buffer ports
    /// included — the paper's buffers sit at the fabric edge in our
    /// model).
    OutPad(String),
}

/// A basic logic element: one LUT and/or one latch.
#[derive(Debug, Clone, Default)]
pub struct Ble {
    /// The LUT node, if any.
    pub lut: Option<NodeId>,
    /// The latch node registered on the LUT output (or standing alone).
    pub latch: Option<NodeId>,
}

/// One CLB's contents.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    /// The packed BLEs (≤ `n_ble`).
    pub bles: Vec<Ble>,
    /// Distinct external input signals (driver node ids).
    pub inputs: FxHashSet<NodeId>,
}

/// A signal endpoint: which block and, for sources, which BLE produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceRef {
    /// Driving block index.
    pub block: usize,
    /// BLE index within the CLB (0 for pads).
    pub ble: usize,
}

/// A routable net.
#[derive(Debug, Clone)]
pub struct PRNet {
    /// Net name (driver node name or TCON-tree root name).
    pub name: String,
    /// Alternative sources. Exactly one for ordinary nets; one per
    /// selectable signal for tunable nets.
    pub sources: Vec<SourceRef>,
    /// The netlist node driving each alternative (parallel to
    /// `sources`) — lets the PConf builder compute per-alternative
    /// selection conditions.
    pub source_nodes: Vec<NodeId>,
    /// The netlist node keyed by this net: the driver itself, or the
    /// TCON-tree root for tunable nets.
    pub driver: NodeId,
    /// Sink blocks (each needs one input pin).
    pub sinks: Vec<usize>,
    /// Whether this is a tunable (TCON) net.
    pub tunable: bool,
}

/// The packed design: blocks, clusters and nets, ready for place & route.
#[derive(Debug, Clone)]
pub struct PackedDesign {
    /// All placeable blocks.
    pub blocks: Vec<Block>,
    /// CLB contents (referenced by [`Block::Clb`]).
    pub clusters: Vec<Cluster>,
    /// Inter-block nets.
    pub nets: Vec<PRNet>,
    /// Count of TCON elements resolved into tunable nets.
    pub n_tcons: usize,
}

impl PackedDesign {
    /// Number of CLBs used.
    pub fn n_clbs(&self) -> usize {
        self.clusters.len()
    }

    /// Number of I/O pads used.
    pub fn n_pads(&self) -> usize {
        self.blocks.iter().filter(|b| !matches!(b, Block::Clb(_))).count()
    }

    /// Number of tunable nets.
    pub fn n_tunable_nets(&self) -> usize {
        self.nets.iter().filter(|n| n.tunable).count()
    }
}

/// Packing limits (from the architecture spec).
#[derive(Debug, Clone, Copy)]
pub struct PackConfig {
    /// BLEs per cluster.
    pub n_ble: usize,
    /// Max distinct external inputs per cluster.
    pub clb_inputs: usize,
}

/// Pack a mapped network. `kinds` marks TLUT/TCON nodes (absent = plain
/// LUT). Fails if the network contains combinational cycles.
pub fn pack(
    nw: &Network,
    kinds: &FxHashMap<NodeId, ElemKind>,
    cfg: PackConfig,
) -> Result<PackedDesign, String> {
    nw.topo_order().map_err(|n| format!("cycle at {n:?}"))?;

    let kind_of = |id: NodeId| kinds.get(&id).copied().unwrap_or(ElemKind::Lut);
    let is_tcon = |id: NodeId| nw.node(id).is_table() && kind_of(id) == ElemKind::TCon;

    // --- Step 1: form BLEs. A latch merges with its driving LUT when that
    // LUT feeds only the latch (and is not a TCON).
    let fanouts = nw.fanout_counts();
    let mut ble_of_node: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut bles: Vec<Ble> = Vec::new();
    for (id, node) in nw.nodes() {
        match node.kind {
            NodeKind::Table(_) if !is_tcon(id) => {
                ble_of_node.entry(id).or_insert_with(|| {
                    let b = bles.len();
                    bles.push(Ble { lut: Some(id), latch: None });
                    b
                });
            }
            NodeKind::Latch { .. } => {
                let data = node.fanins[0];
                let mergeable = nw.node(data).is_table() && !is_tcon(data) && fanouts[data] == 1;
                if mergeable {
                    let b = *ble_of_node.entry(data).or_insert_with(|| {
                        bles.push(Ble { lut: Some(data), latch: None });
                        bles.len() - 1
                    });
                    if bles[b].latch.is_none() {
                        bles[b].latch = Some(id);
                        ble_of_node.insert(id, b);
                        continue;
                    }
                }
                let b = bles.len();
                bles.push(Ble { lut: None, latch: Some(id) });
                ble_of_node.insert(id, b);
            }
            _ => {}
        }
    }

    // --- Step 2: resolve every signal through TCON trees to alternative
    // real sources. `resolve(id)` = the set of non-TCON nodes whose value
    // can appear on `id`'s wire.
    let mut resolve_memo: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    fn resolve(
        nw: &Network,
        id: NodeId,
        is_tcon: &dyn Fn(NodeId) -> bool,
        memo: &mut FxHashMap<NodeId, Vec<NodeId>>,
    ) -> Vec<NodeId> {
        if let Some(v) = memo.get(&id) {
            return v.clone();
        }
        let out = if is_tcon(id) {
            let mut set: Vec<NodeId> = Vec::new();
            for &f in &nw.node(id).fanins {
                if nw.node(f).is_param {
                    continue; // parameters are config, not data
                }
                if matches!(nw.node(f).kind, NodeKind::Const(_)) {
                    continue; // rail ties need no routing
                }
                for s in resolve(nw, f, is_tcon, memo) {
                    if !set.contains(&s) {
                        set.push(s);
                    }
                }
            }
            set
        } else {
            vec![id]
        };
        memo.insert(id, out.clone());
        out
    }

    // --- Step 3: greedy clustering of BLEs.
    // External inputs of a BLE: LUT fanins (resolved through TCONs they
    // are *not* — LUT fanins may be TCON outputs; the cluster pin carries
    // the TCON wire, one pin per TCON tree) plus latch data if standalone.
    let ble_inputs: Vec<Vec<NodeId>> = bles
        .iter()
        .map(|b| {
            let mut ins: Vec<NodeId> = Vec::new();
            if let Some(lut) = b.lut {
                for &f in &nw.node(lut).fanins {
                    if nw.node(f).is_param || matches!(nw.node(f).kind, NodeKind::Const(_)) {
                        continue;
                    }
                    if !ins.contains(&f) {
                        ins.push(f);
                    }
                }
            } else if let Some(latch) = b.latch {
                let f = nw.node(latch).fanins[0];
                if !matches!(nw.node(f).kind, NodeKind::Const(_)) {
                    ins.push(f);
                }
            }
            ins
        })
        .collect();
    let outputs = |b: &Ble| [b.lut, b.latch].into_iter().flatten();

    let n_bles = bles.len();
    let mut clustered = vec![false; n_bles];
    let mut clusters: Vec<Cluster> = Vec::new();
    // Which cluster, by index, has each node among its inputs or
    // produces it; only the open cluster's stamps are read.
    let mut input_of: IdVec<NodeId, u32> = IdVec::filled(u32::MAX, nw.n_nodes());
    let mut produced_by: IdVec<NodeId, u32> = IdVec::filled(u32::MAX, nw.n_nodes());

    // Attraction: BLEs sharing signals with the open cluster.
    // Simple VPack: seed = unclustered BLE with most inputs; then add the
    // BLE maximizing shared signals while pin-feasible.
    loop {
        let seed = (0..n_bles).filter(|&i| !clustered[i]).max_by_key(|&i| ble_inputs[i].len());
        let Some(seed) = seed else { break };
        let c = clusters.len() as u32;
        let mut cluster = Cluster::default();
        // Inputs not produced locally: locally produced signals do not
        // consume input pins.
        let mut external = 0usize;
        let mut next = Some(seed);
        while let Some(i) = next {
            clustered[i] = true;
            for out in outputs(&bles[i]) {
                produced_by[out] = c;
                external -= (input_of[out] == c) as usize;
            }
            for &f in &ble_inputs[i] {
                if input_of[f] != c {
                    input_of[f] = c;
                    cluster.inputs.insert(f);
                    external += (produced_by[f] != c) as usize;
                }
            }
            cluster.bles.push(bles[i].clone());
            if cluster.bles.len() >= cfg.n_ble {
                break;
            }
            let mut best: Option<(usize, usize)> = None; // (gain, ble)
            for i in 0..n_bles {
                if clustered[i] {
                    continue;
                }
                // Feasibility: the external input count with BLE `i`
                // added — its outputs stop being external inputs, and its
                // inputs new to the cluster start being ones unless it
                // produces them itself.
                let mut ext = external;
                for out in outputs(&bles[i]) {
                    ext -= (input_of[out] == c) as usize;
                }
                // Gain: shared signals (inputs already present or produced
                // locally).
                let mut shared = 0;
                for &f in &ble_inputs[i] {
                    if input_of[f] == c || produced_by[f] == c {
                        shared += 1;
                    } else if !outputs(&bles[i]).any(|out| out == f) {
                        ext += 1;
                    }
                }
                if ext > cfg.clb_inputs {
                    continue;
                }
                let gain = shared + 1; // +1 so isolated BLEs can still join
                match best {
                    Some((g, _)) if g >= gain => {}
                    _ => best = Some((gain, i)),
                }
            }
            next = best.map(|(_, pick)| pick);
        }
        clusters.push(cluster);
    }

    // --- Step 4: blocks and nets.
    let mut blocks: Vec<Block> = Vec::new();
    let mut block_of_node: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut ble_index_of: FxHashMap<NodeId, usize> = FxHashMap::default();

    for (ci, cluster) in clusters.iter().enumerate() {
        let bi = blocks.len();
        blocks.push(Block::Clb(ci));
        for (k, ble) in cluster.bles.iter().enumerate() {
            if let Some(l) = ble.lut {
                block_of_node.insert(l, bi);
                ble_index_of.insert(l, k);
            }
            if let Some(l) = ble.latch {
                block_of_node.insert(l, bi);
                ble_index_of.insert(l, k);
            }
        }
    }
    for id in nw.inputs() {
        if nw.node(id).is_param {
            continue; // parameters configure; they are not routed signals
        }
        let bi = blocks.len();
        blocks.push(Block::InPad(nw.node(id).name.clone()));
        block_of_node.insert(id, bi);
        ble_index_of.insert(id, 0);
    }
    let mut outpad_of: Vec<(usize, NodeId)> = Vec::new();
    for port in nw.outputs() {
        let bi = blocks.len();
        blocks.push(Block::OutPad(port.name.clone()));
        outpad_of.push((bi, port.driver));
    }

    // Net construction: group sinks by resolved signal key.
    // Key: for an ordinary driver, the driver node; for a TCON-driven
    // wire, the TCON tree root (the immediate TCON node feeding the sink).
    #[derive(Default)]
    struct NetAccum {
        sources: Vec<SourceRef>,
        source_nodes: Vec<NodeId>,
        sinks: Vec<usize>,
        tunable: bool,
        name: String,
    }
    let mut nets: FxHashMap<NodeId, NetAccum> = FxHashMap::default();
    let mut note_sink = |nets: &mut FxHashMap<NodeId, NetAccum>,
                         driver: NodeId,
                         sink_block: usize,
                         same_cluster_free: bool|
     -> Result<(), String> {
        let tcon = is_tcon(driver);
        let entry = nets.entry(driver).or_default();
        if entry.sources.is_empty() {
            entry.name = nw.node(driver).name.clone();
            entry.tunable = tcon;
            let alts =
                if tcon { resolve(nw, driver, &is_tcon, &mut resolve_memo) } else { vec![driver] };
            for a in alts {
                let &ab = block_of_node
                    .get(&a)
                    .ok_or_else(|| format!("source {} not packed", nw.node(a).name))?;
                entry.sources.push(SourceRef { block: ab, ble: ble_index_of[&a] });
                entry.source_nodes.push(a);
            }
        }
        // Intra-cluster connections use the local crossbar — free — but
        // tunable nets always traverse the fabric (the selecting switches
        // *are* routing).
        if !tcon && same_cluster_free {
            return Ok(());
        }
        if !entry.sinks.contains(&sink_block) {
            entry.sinks.push(sink_block);
        }
        Ok(())
    };

    for (id, node) in nw.nodes() {
        if nw.node(id).is_param {
            continue;
        }
        match &node.kind {
            NodeKind::Table(_) if !is_tcon(id) => {
                let my_block = block_of_node[&id];
                for &f in &node.fanins {
                    if nw.node(f).is_param || matches!(nw.node(f).kind, NodeKind::Const(_)) {
                        continue;
                    }
                    let same = !is_tcon(f) && block_of_node.get(&f) == Some(&my_block);
                    note_sink(&mut nets, f, my_block, same)?;
                }
            }
            NodeKind::Latch { .. } => {
                let my_block = block_of_node[&id];
                let f = node.fanins[0];
                if matches!(nw.node(f).kind, NodeKind::Const(_)) {
                    continue;
                }
                // Latch packed with its driver LUT: free.
                let same = !is_tcon(f)
                    && block_of_node.get(&f) == Some(&my_block)
                    && ble_index_of.get(&f) == ble_index_of.get(&id);
                note_sink(&mut nets, f, my_block, same)?;
            }
            _ => {}
        }
    }
    for &(pad_block, driver) in &outpad_of {
        if matches!(nw.node(driver).kind, NodeKind::Const(_)) {
            continue;
        }
        note_sink(&mut nets, driver, pad_block, false)?;
    }

    let mut net_list: Vec<PRNet> = nets
        .into_iter()
        .filter(|(_, n)| !n.sinks.is_empty())
        .map(|(driver, n)| PRNet {
            name: n.name,
            sources: n.sources,
            source_nodes: n.source_nodes,
            driver,
            sinks: n.sinks,
            tunable: n.tunable,
        })
        .collect();
    net_list.sort_by(|a, b| a.name.cmp(&b.name));

    let n_tcons = nw.node_ids().filter(|&id| is_tcon(id)).count();

    Ok(PackedDesign { blocks, clusters, nets: net_list, n_tcons })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_netlist::truth::gates;

    fn cfg() -> PackConfig {
        PackConfig { n_ble: 4, clb_inputs: 15 }
    }

    /// A small combinational network: 6 LUTs, 4 inputs, 1 output.
    fn sample() -> Network {
        let mut nw = Network::new("s");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let c = nw.add_input("c");
        let d = nw.add_input("d");
        let g1 = nw.add_table("g1", vec![a, b], gates::and2());
        let g2 = nw.add_table("g2", vec![c, d], gates::or2());
        let g3 = nw.add_table("g3", vec![g1, g2], gates::xor2());
        let g4 = nw.add_table("g4", vec![g3, a], gates::and2());
        let g5 = nw.add_table("g5", vec![g4, b], gates::or2());
        let g6 = nw.add_table("g6", vec![g5, g1], gates::xor2());
        nw.add_output("y", g6);
        nw
    }

    #[test]
    fn packs_into_few_clusters() {
        let nw = sample();
        let p = pack(&nw, &FxHashMap::default(), cfg()).unwrap();
        // 6 LUTs at 4 BLEs/cluster -> 2 clusters.
        assert_eq!(p.n_clbs(), 2);
        assert_eq!(p.n_pads(), 5); // 4 in + 1 out
        let total_bles: usize = p.clusters.iter().map(|c| c.bles.len()).sum();
        assert_eq!(total_bles, 6);
    }

    #[test]
    fn latch_merges_with_driver_lut() {
        let mut nw = Network::new("l");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let g = nw.add_table("g", vec![a, b], gates::and2());
        let q = nw.add_latch("q", g, false);
        nw.add_output("y", q);
        let p = pack(&nw, &FxHashMap::default(), cfg()).unwrap();
        assert_eq!(p.n_clbs(), 1);
        assert_eq!(p.clusters[0].bles.len(), 1, "LUT and latch share a BLE");
        let ble = &p.clusters[0].bles[0];
        assert!(ble.lut.is_some() && ble.latch.is_some());
    }

    #[test]
    fn shared_lut_does_not_merge_with_latch() {
        let mut nw = Network::new("l2");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let g = nw.add_table("g", vec![a, b], gates::and2());
        let q = nw.add_latch("q", g, false);
        nw.add_output("y", q);
        nw.add_output("comb", g); // g has fanout 2 -> cannot merge
        let p = pack(&nw, &FxHashMap::default(), cfg()).unwrap();
        let total_bles: usize = p.clusters.iter().map(|c| c.bles.len()).sum();
        assert_eq!(total_bles, 2);
    }

    #[test]
    fn pin_limit_respected() {
        // 8 LUTs with entirely disjoint input pairs: 16 external signals.
        let mut nw = Network::new("pins");
        let mut luts = Vec::new();
        for i in 0..8 {
            let x = nw.add_input(format!("x{i}"));
            let y = nw.add_input(format!("y{i}"));
            luts.push(nw.add_table(format!("g{i}"), vec![x, y], gates::and2()));
        }
        for (i, &l) in luts.iter().enumerate() {
            nw.add_output(format!("o{i}"), l);
        }
        let tight = PackConfig { n_ble: 8, clb_inputs: 6 };
        let p = pack(&nw, &FxHashMap::default(), tight).unwrap();
        for c in &p.clusters {
            // Count external inputs (none produced locally here).
            assert!(c.inputs.len() <= 6, "cluster exceeds pins: {}", c.inputs.len());
            assert!(c.bles.len() <= 8);
        }
        assert!(p.n_clbs() >= 3);
    }

    #[test]
    fn tcon_nodes_become_tunable_nets_not_bles() {
        // d0/d1 muxed by a param select feeding a LUT.
        let mut nw = Network::new("t");
        let d0 = nw.add_input("d0");
        let d1 = nw.add_input("d1");
        let e = nw.add_input("e");
        let s = nw.add_input("s");
        nw.set_param(s, true);
        // mux table over (d0, d1, s)
        let m = nw.add_table("m", vec![d0, d1, s], gates::mux21());
        let g = nw.add_table("g", vec![m, e], gates::and2());
        nw.add_output("y", g);
        let mut kinds = FxHashMap::default();
        kinds.insert(m, ElemKind::TCon);
        let p = pack(&nw, &kinds, cfg()).unwrap();
        assert_eq!(p.n_tcons, 1);
        assert_eq!(p.n_tunable_nets(), 1);
        // Only g occupies a BLE.
        let total_bles: usize = p.clusters.iter().map(|c| c.bles.len()).sum();
        assert_eq!(total_bles, 1);
        let tn = p.nets.iter().find(|n| n.tunable).unwrap();
        assert_eq!(tn.sources.len(), 2, "two selectable sources");
        assert_eq!(tn.sinks.len(), 1);
    }

    #[test]
    fn tcon_chains_resolve_to_all_leaves() {
        // Two-level TCON tree selecting among 4 inputs.
        let mut nw = Network::new("t4");
        let d: Vec<NodeId> = (0..4).map(|i| nw.add_input(format!("d{i}"))).collect();
        let s0 = nw.add_input("s0");
        let s1 = nw.add_input("s1");
        nw.set_param(s0, true);
        nw.set_param(s1, true);
        let m0 = nw.add_table("m0", vec![d[0], d[1], s0], gates::mux21());
        let m1 = nw.add_table("m1", vec![d[2], d[3], s0], gates::mux21());
        let m2 = nw.add_table("m2", vec![m0, m1, s1], gates::mux21());
        nw.add_output("y", m2);
        let mut kinds = FxHashMap::default();
        for m in [m0, m1, m2] {
            kinds.insert(m, ElemKind::TCon);
        }
        let p = pack(&nw, &kinds, cfg()).unwrap();
        let tn = p.nets.iter().find(|n| n.tunable).unwrap();
        assert_eq!(tn.sources.len(), 4, "all four leaves selectable");
        assert_eq!(p.n_tcons, 3);
        assert_eq!(p.n_clbs(), 0, "pure routing consumes no CLB");
    }

    #[test]
    fn params_are_not_routed() {
        let mut nw = Network::new("p");
        let a = nw.add_input("a");
        let s = nw.add_input("s");
        nw.set_param(s, true);
        let g = nw.add_table("g", vec![a, s], gates::and2());
        nw.add_output("y", g);
        let p = pack(&nw, &FxHashMap::default(), cfg()).unwrap();
        // No pad for the parameter, no net from it.
        assert!(p.blocks.iter().all(|b| !matches!(b, Block::InPad(n) if n == "s")));
        assert!(p.nets.iter().all(|n| n.name != "s"));
    }

    #[test]
    fn intra_cluster_nets_skipped() {
        let nw = sample();
        let p = pack(&nw, &FxHashMap::default(), cfg()).unwrap();
        // g5 -> g6 and similar chains land in the same cluster; their nets
        // must not appear with that sink. At minimum, total sink count is
        // below the total fanin count.
        let total_sinks: usize = p.nets.iter().map(|n| n.sinks.len()).sum();
        assert!(total_sinks < 12, "no intra-cluster savings: {total_sinks}");
    }
}
