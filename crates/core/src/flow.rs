//! The offline **generic stage** (§IV.A): synthesis → signal
//! parameterization (done beforehand by [`crate::param`]) → TCON
//! technology mapping → TPaR place & route → generalized bitstream.
//!
//! Run once per design. Its product — a [`pfdbg_pconf::Scg`] over a
//! generalized bitstream whose instrumentation bits are Boolean
//! functions of the select parameters — is what makes every subsequent
//! debugging turn a microsecond-scale specialization instead of an
//! hours-scale recompilation.

use crate::param::Instrumented;
use pfdbg_arch::{BitstreamLayout, IcapModel, RRNode, VIRTEX5_FRAME_BITS};
use pfdbg_emu::{channel_stack, IcapFaultConfig, SeuConfig};
use pfdbg_map::{map_parameterized_network, ElemKind};
use pfdbg_netlist::truth::TruthTable;
use pfdbg_netlist::{Network, Node, NodeId};
use pfdbg_obs::LazyHistogram;
use pfdbg_pconf::{
    Bdd, BddManager, CommitPolicy, GeneralizedBuilder, OnlineReconfigurator, Scg, ScrubPolicy,
    Session,
};
use pfdbg_pr::{tpar, TparConfig, TparResult};
use pfdbg_util::FxHashMap;
use std::sync::Arc;

// Always-on compile telemetry: wall time per offline run, so a fleet
// serving many designs sees compile latency without enabling profiling.
static OFFLINE_US: LazyHistogram = LazyHistogram::new("flow.offline_us");

/// Offline-stage settings.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// LUT input count.
    pub k: usize,
    /// Place & route settings.
    pub tpar: TparConfig,
    /// Configuration frame size in bits.
    pub frame_bits: usize,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig { k: 6, tpar: TparConfig::default(), frame_bits: VIRTEX5_FRAME_BITS }
    }
}

/// Mapping-level statistics of the generic stage.
#[derive(Debug, Clone, Copy)]
pub struct MapStats {
    /// Plain LUTs.
    pub luts: usize,
    /// Tunable LUTs.
    pub tluts: usize,
    /// Tunable connections.
    pub tcons: usize,
    /// Logic depth in LUT levels.
    pub depth: u32,
}

/// Everything the offline stage produces.
pub struct OfflineResult {
    /// The mapped (generalized) network with element kinds.
    pub mapped: Network,
    /// Element kind per mapped node.
    pub kinds: FxHashMap<NodeId, ElemKind>,
    /// Mapping statistics.
    pub map_stats: MapStats,
    /// Place & route result. Always `Some`: the `Option` goes with the
    /// next change to the benchmark, which unwraps it.
    pub tpar: Option<TparResult>,
    /// The SCG over the generalized bitstream. Always `Some`, as `tpar`.
    pub scg: Option<Scg>,
    /// The bitstream layout. Always `Some`, as `tpar`.
    pub layout: Option<BitstreamLayout>,
    /// Reconfiguration-port model calibrated to this device (full
    /// reconfiguration = the paper's 176 ms).
    pub icap: IcapModel,
}

impl OfflineResult {
    /// The SCG, layout and port model, taken out of their `Option`s:
    /// the one place that unwraps them.
    fn into_products(self) -> (Scg, BitstreamLayout, IcapModel) {
        let scg = self.scg.expect("the offline stage always builds the SCG");
        let layout = self.layout.expect("the offline stage always builds the layout");
        (scg, layout, self.icap)
    }

    /// Consume the offline products into an [`OnlineReconfigurator`]
    /// over a reliable in-memory channel. Always `Some`: the `Option`
    /// goes with the next change to the benchmark, which unwraps it.
    pub fn into_online(self) -> Option<OnlineReconfigurator> {
        self.into_online_with(None, CommitPolicy::default(), None)
    }

    /// [`OfflineResult::into_online`] with transport faults on the write
    /// path (`fault`, None = reliable) *and* single-event upsets
    /// striking configuration memory between turns (`seu`, None =
    /// inert). SEUs wrap the reliable device model directly and
    /// transport faults wrap outside, so upset injection always lands
    /// while repair writes still suffer — the two injectors stay
    /// independent and separately seeded. Turns and scrub repairs
    /// commit under `policy`.
    pub fn into_online_with(
        self,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
        seu: Option<SeuConfig>,
    ) -> Option<OnlineReconfigurator> {
        let (scg, layout, icap) = self.into_products();
        let image = Arc::new(scg.generalized().base.clone());
        let channel = channel_stack(image, layout.frame_bits, seu, fault);
        let attempts = ScrubPolicy::default().max_repair_attempts;
        let session = Session::new(&scg, channel, policy, attempts);
        Some(OnlineReconfigurator::with_session(scg, layout, icap, session))
    }
}

/// What the offline generic stage hands the online stage: the
/// instrumented design, the SCG over its generalized bitstream, the
/// bitstream layout and the reconfiguration-port model. Every turn —
/// standalone, served, recorded or replayed — runs against one, whether
/// the offline flow just built it or the artifact store loaded it.
pub struct CompiledDesign {
    /// The instrumented design (network, `.par` annotations, trace-port
    /// wiring): how a signal selection becomes a parameter vector.
    pub inst: Instrumented,
    /// The SCG over the generalized bitstream.
    pub scg: Scg,
    /// The bitstream layout (frame geometry, bit addresses).
    pub layout: BitstreamLayout,
    /// The reconfiguration-port model.
    pub icap: IcapModel,
}

impl CompiledDesign {
    /// Bundle the products of an offline run over `inst`.
    pub fn new(inst: Instrumented, scg: Scg, layout: BitstreamLayout, icap: IcapModel) -> Self {
        CompiledDesign { inst, scg, layout, icap }
    }

    /// Run the offline generic stage on `inst` and keep what the online
    /// stage needs.
    pub fn compile(inst: Instrumented, cfg: &OfflineConfig) -> Result<CompiledDesign, String> {
        let off = offline(&inst, cfg)?;
        Ok(Self::from_offline(inst, off))
    }

    /// The compiled design of `off`, an offline run over `inst`. Callers
    /// that also report the mapping or place & route read those from
    /// `off` first.
    pub fn from_offline(inst: Instrumented, off: OfflineResult) -> CompiledDesign {
        let (scg, layout, icap) = off.into_products();
        CompiledDesign::new(inst, scg, layout, icap)
    }

    /// Number of PConf parameters.
    pub fn n_params(&self) -> usize {
        self.inst.annotations.len()
    }
}

/// Run the offline generic stage on an instrumented design (built over
/// the initial mapped netlist — see
/// [`crate::baseline::prepare_instrumented`]).
pub fn offline(inst: &Instrumented, cfg: &OfflineConfig) -> Result<OfflineResult, String> {
    let _offline_span = pfdbg_obs::span("offline");
    let offline_t0 = std::time::Instant::now();
    let result = offline_inner(inst, cfg);
    OFFLINE_US.record_duration(offline_t0.elapsed());
    result
}

fn offline_inner(inst: &Instrumented, cfg: &OfflineConfig) -> Result<OfflineResult, String> {
    // TCON technology mapping: selectors to routing, the rest through
    // synthesis + parameter-aware cut mapping.
    let mp = {
        let _s = pfdbg_obs::span("offline.tconmap");
        map_parameterized_network(&inst.network, cfg.k)?
    };
    let map_stats = MapStats {
        luts: mp.stats.luts,
        tluts: mp.stats.tluts,
        tcons: mp.stats.tcons,
        depth: mp.stats.depth,
    };
    record_map_stats(&map_stats);
    let (mapped, kinds) = (mp.network, mp.kinds);
    {
        let _s = pfdbg_obs::span("offline.validate");
        mapped.validate()?;
    }

    // TPaR place & route.
    let result = tpar(&mapped, &kinds, &cfg.tpar)?;

    // Generalized bitstream.
    let layout = {
        let _s = pfdbg_obs::span("offline.layout");
        BitstreamLayout::new(&result.device, &result.rrg, cfg.frame_bits)
    };
    let mut manager = BddManager::new();
    let param_var = param_var_map(&mapped, &inst.annotations);
    let mut builder = GeneralizedBuilder::new(&layout, inst.annotations.len());

    {
        let _s = pfdbg_obs::span("offline.lut_bits");
        write_lut_bits(
            &mapped,
            &kinds,
            &param_var,
            &result,
            &layout,
            cfg.k,
            &mut manager,
            &mut builder,
        )?;
    }
    {
        let _s = pfdbg_obs::span("offline.switch_bits");
        write_switch_bits(
            &mapped,
            &kinds,
            &param_var,
            &result,
            &layout,
            &mut manager,
            &mut builder,
        )?;
    }

    let gbs = {
        let _s = pfdbg_obs::span("offline.build_gbs");
        builder.build()?
    };
    if pfdbg_obs::enabled() {
        pfdbg_obs::gauge_set("bdd.nodes", manager.n_nodes() as f64);
        pfdbg_obs::gauge_set("gbs.frames", layout.n_frames() as f64);
    }
    let icap = IcapModel::paper();
    let scg = Scg::new(manager, gbs);

    Ok(OfflineResult {
        mapped,
        kinds,
        map_stats,
        tpar: Some(result),
        scg: Some(scg),
        layout: Some(layout),
        icap,
    })
}

/// Fold the mapping summary into the observability registry.
fn record_map_stats(stats: &MapStats) {
    if !pfdbg_obs::enabled() {
        return;
    }
    pfdbg_obs::gauge_set("map.luts", stats.luts as f64);
    pfdbg_obs::gauge_set("map.tluts", stats.tluts as f64);
    pfdbg_obs::gauge_set("map.tcons", stats.tcons as f64);
    pfdbg_obs::gauge_set("map.depth", stats.depth as f64);
}

/// Map each parameter *node* in the mapped network to its BDD variable
/// (declaration order of the `.par` annotations).
fn param_var_map(
    mapped: &Network,
    ann: &pfdbg_netlist::ParamAnnotations,
) -> FxHashMap<NodeId, u32> {
    let index = ann.index_map();
    let mut out = FxHashMap::default();
    for (id, node) in mapped.nodes() {
        if node.is_param {
            if let Some(&v) = index.get(node.name.as_str()) {
                out.insert(id, v as u32);
            }
        }
    }
    out
}

/// Every assignment of `node`'s parameter fanins, in counting order (bit
/// `i` of the assignment drives the `i`-th parameter fanin): the node's
/// truth table with the parameters restricted away, over its remaining
/// (real) fanins in order, and the assignment's minterm over the
/// parameters' BDD variables.
fn param_assignments(
    node: &Node,
    param_var: &FxHashMap<NodeId, u32>,
    manager: &mut BddManager,
) -> Vec<(TruthTable, Bdd)> {
    let table = node.table().expect("parameterized element is a table");
    let param_positions: Vec<(usize, u32)> = node
        .fanins
        .iter()
        .enumerate()
        .filter_map(|(i, f)| param_var.get(f).map(|&v| (i, v)))
        .collect();
    (0..1usize << param_positions.len())
        .map(|a| {
            let mut residual = table.clone();
            for (bit, &(pos, _)) in param_positions.iter().enumerate().rev() {
                residual = residual.restrict(pos, (a >> bit) & 1 == 1);
            }
            let mut mt = Bdd::TRUE;
            for (bit, &(_, var)) in param_positions.iter().enumerate() {
                let lit = manager.var(var);
                let lit = if (a >> bit) & 1 == 1 { lit } else { manager.not(lit) };
                mt = manager.and(mt, lit);
            }
            (residual, mt)
        })
        .collect()
}

/// The selection conditions of the TCON tree rooted at `root`: entry `i`
/// is the Boolean function of the select parameters under which the
/// tree forwards `sources[i]`, [`Bdd::FALSE`] for a source no
/// assignment selects.
///
/// One top-down walk serves every source: each root-to-leaf path's
/// conjunction of per-element assignment minterms is ORed into the leaf
/// it reaches. By distributivity that is the same function as expanding
/// one source's condition element by element from the root, so each
/// result is the same canonical BDD, at the cost of one walk per tree
/// instead of one per source.
pub fn tcon_conditions(
    nw: &Network,
    kinds: &FxHashMap<NodeId, ElemKind>,
    param_var: &FxHashMap<NodeId, u32>,
    manager: &mut BddManager,
    root: NodeId,
    sources: &[NodeId],
) -> Vec<Bdd> {
    let mut conds = vec![Bdd::FALSE; sources.len()];
    // (element, condition of the path from the root to it).
    let mut stack = vec![(root, Bdd::TRUE)];
    while let Some((id, path)) = stack.pop() {
        let node = nw.node(id);
        if !node.is_table() || kinds.get(&id) != Some(&ElemKind::TCon) {
            for (cond, _) in conds.iter_mut().zip(sources).filter(|&(_, &s)| s == id) {
                *cond = manager.or(*cond, path);
            }
            continue;
        }
        let real_fanins: Vec<NodeId> =
            node.fanins.iter().copied().filter(|f| !param_var.contains_key(f)).collect();
        for (residual, mt) in param_assignments(node, param_var, manager) {
            // The real fanin this assignment forwards, if any.
            let n = residual.nvars();
            let Some(v) = (0..n).find(|&v| residual == TruthTable::var(n, v)) else {
                continue;
            };
            let term = manager.and(path, mt);
            if term != Bdd::FALSE {
                stack.push((real_fanins[v], term));
            }
        }
    }
    conds
}

/// Build the per-row parameter functions of one tunable LUT: each
/// physical truth-table row (over the real fanins) is the OR of the
/// minterms of parameter assignments under which that row reads 1.
fn tlut_row_funcs(
    mapped: &Network,
    param_var: &FxHashMap<NodeId, u32>,
    lut: NodeId,
    manager: &mut BddManager,
) -> Vec<Bdd> {
    let assignments = param_assignments(mapped.node(lut), param_var, manager);
    let real_n = assignments[0].0.nvars();
    let mut row_funcs: Vec<Bdd> = vec![Bdd::FALSE; 1 << real_n];
    for (residual, mt) in assignments {
        for (row, func) in row_funcs.iter_mut().enumerate() {
            if residual.bit(row) {
                *func = manager.or(*func, mt);
            }
        }
    }
    row_funcs
}

/// Write every BLE's bits: the FF bypass, a plain LUT's constant truth
/// table, or a tunable LUT's per-row parameter functions, built in
/// cluster/BLE order.
#[allow(clippy::too_many_arguments)]
fn write_lut_bits(
    mapped: &Network,
    kinds: &FxHashMap<NodeId, ElemKind>,
    param_var: &FxHashMap<NodeId, u32>,
    result: &TparResult,
    layout: &BitstreamLayout,
    k: usize,
    manager: &mut BddManager,
    builder: &mut GeneralizedBuilder,
) -> Result<(), String> {
    for (ci, cluster) in result.packed.clusters.iter().enumerate() {
        let block = result
            .packed
            .blocks
            .iter()
            .position(|b| matches!(b, pfdbg_pr::Block::Clb(c) if *c == ci))
            .ok_or("cluster without block")?;
        let loc = result.placement.locs[block];
        let (x, y) = (loc.x as usize, loc.y as usize);
        for (ble_idx, ble) in cluster.bles.iter().enumerate() {
            // FF bypass: 1 = registered output.
            builder.set_const(layout.ff_bypass_bit(x, y, ble_idx, k), ble.latch.is_some());
            let Some(lut) = ble.lut else { continue };
            if kinds.get(&lut) == Some(&ElemKind::TLut) {
                // Parameter fanins fold into the configuration.
                let rows = tlut_row_funcs(mapped, param_var, lut, manager);
                for (row, f) in rows.into_iter().enumerate() {
                    builder.set_func(manager, layout.lut_bit(x, y, ble_idx, row, k), f);
                }
                continue;
            }
            // Plain LUT: constant truth bits (rows beyond the logical
            // arity replicate, as the physical LUT ignores unused pins).
            let table = mapped.node(lut).table().expect("BLE LUT is a table");
            let phys = table.extend_to(k.max(table.nvars()));
            for row in 0..(1usize << k.min(phys.nvars())) {
                builder.set_const(layout.lut_bit(x, y, ble_idx, row, k), phys.bit(row));
            }
        }
    }
    Ok(())
}

/// Write every routed switch: its condition is the OR, in net order, of
/// the selection conditions of the alternatives whose branches use it
/// (`TRUE` for a constant net's edges). Writes go out in edge-id order,
/// so the builder's insertion order is canonical.
fn write_switch_bits(
    mapped: &Network,
    kinds: &FxHashMap<NodeId, ElemKind>,
    param_var: &FxHashMap<NodeId, u32>,
    result: &TparResult,
    layout: &BitstreamLayout,
    manager: &mut BddManager,
    builder: &mut GeneralizedBuilder,
) -> Result<(), String> {
    // Edge lookup: (from, to) -> edge id.
    let edge_id = |from: RRNode, to: RRNode| -> Option<u32> {
        result.rrg.out_edges(from).find(|&(_, t)| t == to).map(|(e, _)| e)
    };
    let mut funcs: FxHashMap<u32, Bdd> = FxHashMap::default();
    for nr in &result.routed.routes {
        let net = &result.packed.nets[nr.net];
        // Every alternative's condition from one walk of the net's TCON
        // tree.
        let conds = if net.tunable {
            tcon_conditions(mapped, kinds, param_var, manager, net.driver, &net.source_nodes)
        } else {
            Vec::new()
        };
        for branch in &nr.branches {
            let cond = if net.tunable { conds[branch.alternative] } else { Bdd::TRUE };
            for &(from, to) in &branch.edges {
                let e = edge_id(from, to)
                    .ok_or_else(|| format!("routed edge {from:?}->{to:?} not in RRG"))?;
                let f = funcs.entry(e).or_insert(Bdd::FALSE);
                *f = manager.or(*f, cond);
            }
        }
    }
    let mut funcs: Vec<(u32, Bdd)> = funcs.into_iter().collect();
    funcs.sort_unstable_by_key(|&(e, _)| e);
    for (e, f) in funcs {
        builder.set_func(manager, layout.switch_bit(e), f);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::InstrumentConfig;
    use pfdbg_netlist::truth::gates;
    use pfdbg_util::BitVec;

    fn small_design() -> Network {
        // Large enough that the initial mapping keeps several LUTs (a
        // single-output cone would collapse into one LUT, leaving nothing
        // to multiplex).
        pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
            n_inputs: 8,
            n_outputs: 6,
            n_gates: 40,
            depth: 5,
            n_latches: 2,
            seed: 33,
        })
    }

    #[test]
    fn offline_produces_tcons_and_small_lut_area() {
        let design = small_design();
        let (initial, _, inst) = crate::baseline::prepare_instrumented(
            &design,
            &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
            6,
        )
        .unwrap();
        let off = offline(&inst, &OfflineConfig::default()).unwrap();
        assert!(off.map_stats.tcons > 0, "mux trees must become TCONs: {:?}", off.map_stats);
        // The instrumented LUT area stays close to the initial mapping.
        assert!(
            off.map_stats.luts + off.map_stats.tluts <= initial.n_tables() + 2,
            "instrumentation leaked into LUTs: {:?} vs {}",
            off.map_stats,
            initial.n_tables()
        );
    }

    #[test]
    fn offline_with_pr_builds_generalized_bitstream() {
        let design = small_design();
        let (_, _, inst) = crate::baseline::prepare_instrumented(
            &design,
            &InstrumentConfig { n_ports: 1, max_signals: None, coverage: 1 },
            6,
        )
        .unwrap();
        let design = CompiledDesign::compile(inst, &OfflineConfig::default()).unwrap();
        let scg = &design.scg;
        assert!(scg.generalized().n_tunable() > 0, "no parameterized bits");
        // Specialize for two different selections; bitstreams must differ
        // (different signals route to the trace port).
        let n = design.n_params();
        let mut p0 = BitVec::zeros(n);
        let p1 = {
            let mut v = BitVec::zeros(n);
            v.set(0, true);
            v
        };
        let b0 = scg.try_specialize(&p0).unwrap();
        let _ = &mut p0;
        let b1 = scg.try_specialize(&p1).unwrap();
        assert_ne!(b0, b1, "different selections must differ in routing bits");
        let _ = &mut p0;
    }

    #[test]
    fn tcon_conditions_match_mux_semantics() {
        // Build a 2:1 parameterized mux directly in a mapped-style
        // network and check both selection conditions.
        let mut nw = Network::new("m");
        let d0 = nw.add_input("d0");
        let d1 = nw.add_input("d1");
        let s = nw.add_input("s");
        nw.set_param(s, true);
        let m = nw.add_table("m", vec![d0, d1, s], gates::mux21());
        nw.add_output("y", m);
        let mut kinds = FxHashMap::default();
        kinds.insert(m, ElemKind::TCon);
        let mut param_var = FxHashMap::default();
        param_var.insert(s, 0u32);
        let mut mgr = BddManager::new();
        let conds = tcon_conditions(&nw, &kinds, &param_var, &mut mgr, m, &[d0, d1]);
        let (c0, c1) = (conds[0], conds[1]);
        let zero: BitVec = [false].into_iter().collect();
        let one: BitVec = [true].into_iter().collect();
        assert!(mgr.eval(c0, &zero) && !mgr.eval(c0, &one));
        assert!(!mgr.eval(c1, &zero) && mgr.eval(c1, &one));
        // Conditions are mutually exclusive and exhaustive.
        let both = mgr.and(c0, c1);
        assert_eq!(both, Bdd::FALSE);
        let either = mgr.or(c0, c1);
        assert_eq!(either, Bdd::TRUE);
    }

    #[test]
    fn tcon_conditions_compose_through_trees() {
        // 4:1 tree: m2 selects between m0 (d0/d1 by s0) and m1 (d2/d3 by
        // s0) using s1.
        let mut nw = Network::new("t");
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
        let mut param_var = FxHashMap::default();
        param_var.insert(s0, 0u32);
        param_var.insert(s1, 1u32);
        let mut mgr = BddManager::new();
        let conds = tcon_conditions(&nw, &kinds, &param_var, &mut mgr, m2, &d);
        for (i, &c) in conds.iter().enumerate() {
            for v in 0..4usize {
                let asg: BitVec = [(v & 1) == 1, (v & 2) == 2].into_iter().collect();
                assert_eq!(mgr.eval(c, &asg), v == i, "source d{i}, select {v}");
            }
        }
    }

    /// A random TCON tree over `n_data` data inputs and `n_params`
    /// parameters, built from `n_muxes` 2:1 and 4:1 selectors whose
    /// fanins sit in random positions. Operands are drawn with
    /// replacement from the data inputs and the selectors built so far,
    /// so leaves (and whole subtrees) are reachable along several paths;
    /// parameters are reused across levels, so some paths contradict
    /// themselves; and some data inputs are never reached at all.
    /// Returns the network, the element kinds, the parameter variables,
    /// the root, and the data inputs.
    #[allow(clippy::type_complexity)]
    fn random_tcon_tree(
        n_data: usize,
        n_params: usize,
        n_muxes: usize,
        seed: u64,
    ) -> (Network, FxHashMap<NodeId, ElemKind>, FxHashMap<NodeId, u32>, NodeId, Vec<NodeId>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nw = Network::new("tree");
        let data: Vec<NodeId> = (0..n_data).map(|i| nw.add_input(format!("d{i}"))).collect();
        let params: Vec<NodeId> = (0..n_params).map(|i| nw.add_input(format!("s{i}"))).collect();
        let mut param_var = FxHashMap::default();
        for (v, &p) in params.iter().enumerate() {
            nw.set_param(p, true);
            param_var.insert(p, v as u32);
        }
        let mut kinds = FxHashMap::default();
        let mut operands = data.clone();
        let mut root = data[0];
        for m in 0..n_muxes {
            let n_sel = if n_params >= 2 && rng.gen_bool(0.5) { 2 } else { 1 };
            // Distinct select parameters within one selector.
            let mut sels: Vec<NodeId> = Vec::new();
            while sels.len() < n_sel {
                let p = params[rng.gen_range(0..n_params)];
                if !sels.contains(&p) {
                    sels.push(p);
                }
            }
            let ins: Vec<NodeId> =
                (0..1 << n_sel).map(|_| operands[rng.gen_range(0..operands.len())]).collect();
            // Role of each fanin position: `Ok(i)` data input i, `Err(j)`
            // select bit j; shuffled (Fisher-Yates) into random positions.
            let mut roles: Vec<Result<usize, usize>> =
                (0..ins.len()).map(Ok).chain((0..n_sel).map(Err)).collect();
            for i in (1..roles.len()).rev() {
                roles.swap(i, rng.gen_range(0..=i));
            }
            let nvars = roles.len();
            let bits: Vec<bool> = (0..1usize << nvars)
                .map(|row| {
                    let at = |role| roles.iter().position(|&r| r == role).unwrap();
                    let sel: usize = (0..n_sel).map(|j| ((row >> at(Err(j))) & 1) << j).sum();
                    (row >> at(Ok(sel))) & 1 == 1
                })
                .collect();
            let fanins = roles
                .iter()
                .map(|r| match *r {
                    Ok(i) => ins[i],
                    Err(j) => sels[j],
                })
                .collect();
            root = nw.add_table(format!("m{m}"), fanins, TruthTable::from_bits(nvars, &bits));
            kinds.insert(root, ElemKind::TCon);
            operands.push(root);
        }
        nw.add_output("y", root);
        (nw, kinds, param_var, root, data)
    }

    /// The leaf the tree forwards under `asg`, found by evaluating each
    /// selector's truth table: with the select fanins driven by `asg`,
    /// the output follows exactly one data fanin, the one whose
    /// one-hot probe reads 1.
    fn forwarded_leaf(
        nw: &Network,
        kinds: &FxHashMap<NodeId, ElemKind>,
        param_var: &FxHashMap<NodeId, u32>,
        root: NodeId,
        asg: &BitVec,
    ) -> NodeId {
        let mut id = root;
        while kinds.get(&id) == Some(&ElemKind::TCon) {
            let node = nw.node(id);
            let table = node.table().unwrap();
            let probe = |hot: Option<usize>| -> Vec<bool> {
                let value = |(i, f): (usize, &NodeId)| match param_var.get(f) {
                    Some(&v) => asg.get(v as usize),
                    None => hot == Some(i),
                };
                node.fanins.iter().enumerate().map(value).collect()
            };
            assert!(!table.eval(&probe(None)), "selector {id:?} is not a mux");
            let selected: Vec<usize> = (0..node.fanins.len())
                .filter(|i| !param_var.contains_key(&node.fanins[*i]))
                .filter(|&i| table.eval(&probe(Some(i))))
                .collect();
            assert_eq!(selected.len(), 1, "selector {id:?} forwards one data fanin");
            id = node.fanins[selected[0]];
        }
        id
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Semantic oracle: under every parameter assignment, the leaf
        /// the tree forwards is the one source whose condition holds,
        /// and a source no assignment reaches gets `FALSE`.
        #[test]
        fn tcon_conditions_select_exactly_the_forwarded_leaf(
            n_data in 1usize..7,
            n_params in 1usize..5,
            n_muxes in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (nw, kinds, param_var, root, data) =
                random_tcon_tree(n_data, n_params, n_muxes, seed);
            let mut mgr = BddManager::new();
            let conds = tcon_conditions(&nw, &kinds, &param_var, &mut mgr, root, &data);
            proptest::prop_assert_eq!(conds.len(), data.len());
            let mut reached = vec![false; data.len()];
            for a in 0..1usize << n_params {
                let asg: BitVec = (0..n_params).map(|v| (a >> v) & 1 == 1).collect();
                let leaf = forwarded_leaf(&nw, &kinds, &param_var, root, &asg);
                for (i, (&c, &d)) in conds.iter().zip(&data).enumerate() {
                    proptest::prop_assert_eq!(
                        mgr.eval(c, &asg),
                        d == leaf,
                        "source d{} under assignment {:#b}",
                        i,
                        a
                    );
                    reached[i] |= d == leaf;
                }
            }
            for (i, &c) in conds.iter().enumerate() {
                if !reached[i] {
                    proptest::prop_assert_eq!(c, Bdd::FALSE, "unreachable source d{}", i);
                }
            }
        }
    }
}
