//! TRoute: PathFinder negotiated-congestion routing with
//! parameterization-aware resource sharing.
//!
//! PathFinder: node costs grow with present congestion and accumulated
//! history until no resource is overused. The first iteration routes
//! every net; each later one rips up and re-routes only the *branches*
//! that hold an overused node or missed a sink, and every other branch
//! stays routed. The parameterization twist (the paper's §IV.A.4): a
//! *tunable net* has several alternative sources, of which exactly one is
//! active per specialization — so the alternatives may overlap each other
//! freely (their union is charged to the net once), and all alternatives
//! must converge on the same chosen input pin of every sink. A branch is
//! one alternative's tree (an ordinary net's only tree): ripping up some
//! branches of a net keeps the nodes its other branches still use, and
//! its sink pins, so the re-routed alternatives share with the kept ones.

use crate::pack::PackedDesign;
use crate::place::Placement;
use pfdbg_arch::{Device, RRGraph, RRKind, RRNode, RRNodeData};
use pfdbg_util::id::EntityId;
use pfdbg_util::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Router parameters.
#[derive(Debug, Clone, Copy)]
pub struct RouteConfig {
    /// Maximum PathFinder iterations before giving up.
    pub max_iterations: usize,
    /// Initial present-congestion factor.
    pub pres_fac: f32,
    /// Multiplier applied to `pres_fac` each iteration.
    pub pres_mult: f32,
    /// History cost increment per overused node per iteration.
    pub hist_fac: f32,
    /// A* weight on the Manhattan-distance heuristic (1.0 = admissible).
    pub astar: f32,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig { max_iterations: 40, pres_fac: 0.5, pres_mult: 1.8, hist_fac: 0.4, astar: 1.0 }
    }
}

/// The routed tree of one alternative source of one net.
#[derive(Debug, Clone)]
pub struct BranchRoute {
    /// Alternative index (into `PRNet::sources`).
    pub alternative: usize,
    /// Directed wiring: `(from, to)` RRG node pairs, one per switch that
    /// must be turned on when this alternative is selected.
    pub edges: Vec<(RRNode, RRNode)>,
}

impl BranchRoute {
    /// The branch's nodes, each once, given its source pin: every path
    /// starts in the tree and steps only onto nodes outside it, so the
    /// edges' targets are exactly the nodes the tree grew by.
    fn nodes(&self, src: RRNode) -> impl Iterator<Item = RRNode> + '_ {
        std::iter::once(src).chain(self.edges.iter().map(|&(_, to)| to))
    }
}

/// One net's routing.
#[derive(Debug, Clone)]
pub struct NetRoute {
    /// Net index into `PackedDesign::nets`.
    pub net: usize,
    /// One routed tree per alternative source.
    pub branches: Vec<BranchRoute>,
    /// Chosen input pin per sink block (keyed by sink block index).
    pub sink_pins: FxHashMap<usize, RRNode>,
}

/// The complete routing result.
#[derive(Debug)]
pub struct RoutedDesign {
    /// Per-net routes (same order as `PackedDesign::nets`).
    pub routes: Vec<NetRoute>,
    /// PathFinder iterations used.
    pub iterations: usize,
    /// Distinct wire (channel) nodes used, summed over nets (a net's
    /// internal sharing counts once — the paper's "cables" metric).
    pub wires_used: usize,
    /// Whether routing converged without overuse.
    pub success: bool,
}

impl RoutedDesign {
    /// Total number of switch configurations (directed edges) across all
    /// nets and alternatives.
    pub fn total_switches(&self) -> usize {
        self.routes.iter().map(|r| r.branches.iter().map(|b| b.edges.len()).sum::<usize>()).sum()
    }
}

/// An A* heap key: the priority's order-preserving bits above the node
/// id, so one integer compare yields the search order — lowest priority
/// first, ties to the lowest node id — and `Reverse` makes the max-heap
/// pop it first.
fn heap_key(priority: f32, node: RRNode) -> Reverse<u64> {
    assert!(!priority.is_nan(), "finite costs");
    // Adding +0.0 folds -0.0 into +0.0, which compares equal to it.
    let bits = (priority + 0.0).to_bits();
    // Flip negatives entirely and set the sign bit of the rest: the
    // unsigned order of the result is the numeric order.
    let ordered = if bits >> 31 == 1 { !bits } else { bits | 1 << 31 };
    Reverse((ordered as u64) << 32 | node.0 as u64)
}

/// A node's routing-graph data and search state, kept together so an
/// edge relaxation reads one entry instead of one array per field.
#[derive(Clone, Copy)]
struct NodeState {
    /// Copy of the node's [`RRGraph::node`] entry.
    node: RRNodeData,
    cost_to: f32,
    /// `epoch == cur_epoch` iff `cost_to` (and the node's parent) belong
    /// to the current search.
    epoch: u32,
    /// `goal == cur_epoch` iff the node is a goal pin of the current
    /// search.
    goal: u32,
    /// `mark >= net_stamp` iff the node is in the current net's union of
    /// trees; `mark == tree_stamp` iff it is in the current
    /// alternative's tree.
    mark: u32,
    /// The cost of stepping onto the node, valid while
    /// `step_net == net_stamp`: it depends only on the congestion state,
    /// which is fixed for one net, and on whether the node is in the
    /// net, so the node joining the net invalidates it.
    step: f32,
    step_net: u32,
}

/// Search scratch reused across every net and PathFinder iteration.
/// Node sets are epoch-stamped, so starting a new search, tree or net is
/// a counter bump.
struct NetScratch {
    state: Vec<NodeState>,
    parent: Vec<RRNode>,
    cur_epoch: u32,
    /// Counter behind the net and tree stamps [`NodeState::mark`] is
    /// compared with: bumped at the start of every net and alternative.
    mark_stamp: u32,
    heap: BinaryHeap<Reverse<u64>>,
    /// The current alternative's tree, in insertion order.
    tree: Vec<RRNode>,
    goals: Vec<RRNode>,
    path: Vec<RRNode>,
    sinks: Vec<usize>,
}

impl NetScratch {
    fn new(rrg: &RRGraph) -> NetScratch {
        let n_nodes = rrg.n_nodes();
        let fresh = |i: usize| NodeState {
            node: *rrg.node(RRNode(i as u32)),
            cost_to: f32::INFINITY,
            epoch: 0,
            goal: 0,
            mark: 0,
            step: 0.0,
            step_net: 0,
        };
        NetScratch {
            state: (0..n_nodes).map(fresh).collect(),
            parent: vec![RRNode(u32::MAX); n_nodes],
            cur_epoch: 0,
            mark_stamp: 0,
            heap: BinaryHeap::new(),
            tree: Vec::new(),
            goals: Vec::new(),
            path: Vec::new(),
            sinks: Vec::new(),
        }
    }
}

/// One net's routing, kept across PathFinder iterations.
#[derive(Clone)]
struct NetState {
    /// Branches indexed by alternative.
    route: NetRoute,
    /// Union of the branches' nodes, each once.
    used: Vec<RRNode>,
    /// Per alternative: its tree missed a sink.
    missed: Vec<bool>,
}

impl NetState {
    /// Net `ni` with `n_alts` alternatives, none routed yet.
    fn new(ni: usize, n_alts: usize) -> NetState {
        let branches =
            (0..n_alts).map(|alternative| BranchRoute { alternative, edges: Vec::new() }).collect();
        NetState {
            route: NetRoute { net: ni, branches, sink_pins: FxHashMap::default() },
            used: Vec::new(),
            missed: vec![false; n_alts],
        }
    }

    /// Whether alternative `alt`'s tree holds a node another net also
    /// uses, or missed a sink. Source pins are exempt from occupancy, so
    /// the edges' targets are the nodes to check.
    fn congested(&self, alt: usize, occ: &[u16]) -> bool {
        self.missed[alt]
            || self.route.branches[alt].edges.iter().any(|&(_, to)| occ[to.index()] > 1)
    }
}

/// Rip up the branches `alts` (ascending) of `net`, whose source pins are
/// `src_pins`: the net keeps every node its other branches still use —
/// stamped with `stamp` in `kept` — and releases the rest from `occ`. It
/// keeps its sink pins unless every branch goes, since the kept branches
/// end on them.
fn rip_up(
    net: &mut NetState,
    alts: &[usize],
    src_pins: &[RRNode],
    is_opin: &[bool],
    occ: &mut [u16],
    kept: &mut [u32],
    stamp: u32,
) {
    for (alt, branch) in net.route.branches.iter().enumerate() {
        if alts.binary_search(&alt).is_err() {
            for n in branch.nodes(src_pins[alt]) {
                kept[n.index()] = stamp;
            }
        }
    }
    net.used.retain(|&n| {
        let keep = kept[n.index()] == stamp;
        if !keep && !is_opin[n.index()] {
            occ[n.index()] -= 1;
        }
        keep
    });
    if alts.len() == net.route.branches.len() {
        net.route.sink_pins.clear();
    }
}

fn base_cost(kind: RRKind) -> f32 {
    match kind {
        RRKind::ChanX(_) | RRKind::ChanY(_) => 1.0,
        RRKind::IPin(_) => 0.95,
        RRKind::OPin(_) => 1.0,
    }
}

/// Route the alternatives `alts` (ascending) of `net` against the
/// congestion state `occ`/`hist`, touching no shared state: occupancy
/// updates are the caller's job. The searches treat the nodes the net
/// keeps (`net.used`) as its own, free of present congestion, and aim at
/// its kept sink pins; each new tree replaces its branch in `net.route`,
/// and the nodes it adds to the net are appended to `net.used`. Heap ties
/// break on node id, so the result is fully deterministic given (`occ`,
/// `hist`, `pres_fac`) and the kept state.
#[allow(clippy::too_many_arguments)]
fn route_one_net(
    design: &PackedDesign,
    placement: &Placement,
    rrg: &RRGraph,
    cfg: &RouteConfig,
    src_pins: &[RRNode],
    occ: &[u16],
    hist: &[f32],
    pres_fac: f32,
    alts: &[usize],
    net: &mut NetState,
    scratch: &mut NetScratch,
) -> Result<(), String> {
    let NetScratch { state, parent, cur_epoch, mark_stamp, heap, tree, goals, path, sinks } =
        scratch;
    let NetState { route, used, missed } = net;
    *mark_stamp += 1;
    let net_stamp = *mark_stamp;
    for &n in used.iter() {
        state[n.index()].mark = net_stamp;
    }

    for &alt in alts {
        // The tree of this alternative starts at its opin.
        let src = src_pins[alt];
        *mark_stamp += 1;
        let tree_stamp = *mark_stamp;
        // Add a node to this alternative's tree and the net's union.
        let grow =
            |n: RRNode, state: &mut [NodeState], tree: &mut Vec<RRNode>, used: &mut Vec<RRNode>| {
                let st = &mut state[n.index()];
                if st.mark != tree_stamp {
                    if st.mark < net_stamp {
                        used.push(n);
                        st.step_net = 0;
                    }
                    st.mark = tree_stamp;
                    tree.push(n);
                }
            };
        tree.clear();
        grow(src, state, tree, used);
        let edges = &mut route.branches[alt].edges;
        edges.clear();
        missed[alt] = false;

        // Sinks, nearest first.
        sinks.clear();
        sinks.extend_from_slice(&design.nets[route.net].sinks);
        let src_data = rrg.node(src);
        sinks.sort_by_key(|&b| {
            let l = placement.locs[b];
            (l.x as i32 - src_data.x as i32).abs() + (l.y as i32 - src_data.y as i32).abs()
        });

        for &sink_block in sinks.iter() {
            let loc = placement.locs[sink_block];
            let (sx, sy) = (loc.x as usize, loc.y as usize);
            // Goal pins: the already chosen pin for this sink, or
            // any input pin of the tile (pads use their sub pin).
            goals.clear();
            if let Some(&p) = route.sink_pins.get(&sink_block) {
                goals.push(p);
            } else {
                match design.blocks[sink_block] {
                    crate::pack::Block::Clb(_) => {
                        goals.extend((0..rrg.n_ipins(sx, sy)).filter_map(|p| rrg.ipin(sx, sy, p)))
                    }
                    _ => goals.extend(rrg.ipin(sx, sy, loc.sub as usize)),
                }
            }
            if goals.is_empty() {
                return Err(format!("sink block {sink_block} has no input pins"));
            }

            // Dijkstra/A* from the whole current tree.
            *cur_epoch += 1;
            let cur_epoch = *cur_epoch;
            for &g in goals.iter() {
                state[g.index()].goal = cur_epoch;
            }
            let target = state[goals[0].index()].node;
            let heuristic = |nd: &RRNodeData| {
                cfg.astar * (nd.x.abs_diff(target.x) as u32 + nd.y.abs_diff(target.y) as u32) as f32
            };
            heap.clear();
            for &t in tree.iter() {
                let st = &mut state[t.index()];
                st.cost_to = 0.0;
                st.epoch = cur_epoch;
                parent[t.index()] = t;
                heap.push(heap_key(heuristic(&st.node), t));
            }
            let mut found: Option<RRNode> = None;
            while let Some(Reverse(key)) = heap.pop() {
                let node = RRNode(key as u32);
                // Every heap entry belongs to this search, and a node's
                // entries are pushed at strictly falling costs, so their
                // keys never rise: the entry of its current cost pops no
                // later than the stale ones. Expanding a stale entry at
                // the same `cost_to` again improves no neighbor, so no
                // stale check is needed.
                let st = &state[node.index()];
                let cost = st.cost_to;
                if st.goal == cur_epoch {
                    found = Some(node);
                    break;
                }
                for (_, next) in rrg.out_edges(node) {
                    let idx = next.index();
                    let st = &mut state[idx];
                    match st.node.kind {
                        // IPins other than goals are dead ends for this
                        // connection; skip cheaply.
                        RRKind::IPin(_) if st.goal != cur_epoch => continue,
                        // Cannot route *through* an opin.
                        RRKind::OPin(_) => continue,
                        _ => {}
                    }
                    if st.step_net != net_stamp {
                        // Present congestion: the net's own nodes are free
                        // (sharing within the net); capacity is 1.
                        let over = if st.mark >= net_stamp { 0.0 } else { occ[idx] as f32 };
                        st.step =
                            base_cost(st.node.kind) * (1.0 + hist[idx]) * (1.0 + pres_fac * over);
                        st.step_net = net_stamp;
                    }
                    let c = cost + st.step;
                    if st.epoch != cur_epoch || c < st.cost_to {
                        st.epoch = cur_epoch;
                        st.cost_to = c;
                        parent[idx] = node;
                        heap.push(heap_key(c + heuristic(&st.node), next));
                    }
                }
            }
            let Some(hit) = found else {
                missed[alt] = true;
                continue;
            };
            // Backtrace into the tree.
            path.clear();
            let mut cur = hit;
            path.push(cur);
            while parent[cur.index()] != cur {
                cur = parent[cur.index()];
                path.push(cur);
            }
            path.reverse();
            for w in path.windows(2) {
                edges.push((w[0], w[1]));
            }
            for &n in path.iter() {
                grow(n, state, tree, used);
            }
            route.sink_pins.insert(sink_block, hit);
        }
    }
    Ok(())
}

/// Source opin per (net, alternative).
fn source_pins(
    design: &PackedDesign,
    placement: &Placement,
    rrg: &RRGraph,
) -> Result<Vec<Vec<RRNode>>, String> {
    design
        .nets
        .iter()
        .map(|net| {
            net.sources
                .iter()
                .map(|s| {
                    let loc = placement.locs[s.block];
                    let pin_idx = match design.blocks[s.block] {
                        crate::pack::Block::Clb(_) => s.ble,
                        _ => loc.sub as usize,
                    };
                    rrg.opin(loc.x as usize, loc.y as usize, pin_idx)
                        .ok_or_else(|| format!("no opin {pin_idx} at ({},{})", loc.x, loc.y))
                })
                .collect()
        })
        .collect()
}

/// Which nodes are output pins. They are exempt from occupancy: the
/// router never routes *through* an output pin, so the only way two nets
/// meet at one opin is when they carry the same physical signal (an
/// observed net tapped by both its ordinary fanout net and a tunable
/// trace net) — legitimate sharing, not a conflict.
fn opin_mask(rrg: &RRGraph) -> Vec<bool> {
    (0..rrg.n_nodes()).map(|i| matches!(rrg.node(RRNode(i as u32)).kind, RRKind::OPin(_))).collect()
}

/// Nets using each node, counted afresh from their branches: what `occ`
/// must equal between PathFinder iterations.
fn recount(nets: &[NetState], src_pins: &[Vec<RRNode>], is_opin: &[bool]) -> Vec<u16> {
    let mut occ = vec![0u16; is_opin.len()];
    let mut seen = vec![usize::MAX; is_opin.len()];
    for (ni, net) in nets.iter().enumerate() {
        for (branch, &src) in net.route.branches.iter().zip(&src_pins[ni]) {
            for n in branch.nodes(src) {
                if seen[n.index()] != ni && !is_opin[n.index()] {
                    occ[n.index()] += 1;
                }
                seen[n.index()] = ni;
            }
        }
    }
    occ
}

/// Route a placed design. Pin assignment: the driver uses the output pin
/// of its BLE (or pad); each sink may use any input pin of its tile, the
/// router picks one under congestion.
///
/// The first PathFinder iteration routes every net, largest fanout
/// first. Each later one walks the nets in the same order and rips up
/// and re-routes only the branches that, at that net's turn, hold a node
/// another net also uses or missed a sink; the rest of the net stays
/// routed, counted in the occupancy the other nets route against.
pub fn route(
    design: &PackedDesign,
    placement: &Placement,
    _dev: &Device,
    rrg: &RRGraph,
    cfg: &RouteConfig,
) -> Result<RoutedDesign, String> {
    let n_nodes = rrg.n_nodes();
    let source_pins = source_pins(design, placement, rrg)?;

    // Congestion state.
    let is_opin = opin_mask(rrg);
    let mut occ = vec![0u16; n_nodes]; // nets using each node
    let mut hist = vec![0f32; n_nodes];
    let mut pres_fac = cfg.pres_fac;

    let mut nets: Vec<NetState> =
        design.nets.iter().enumerate().map(|(ni, n)| NetState::new(ni, n.sources.len())).collect();
    let mut scratch = NetScratch::new(rrg);
    // Stamps of the nodes a net being ripped up keeps.
    let mut kept = vec![0u32; n_nodes];
    let mut kept_stamp = 0u32;
    let mut alts: Vec<usize> = Vec::new();

    // Largest fanout first (harder nets earlier).
    let mut order: Vec<usize> = (0..design.nets.len()).collect();
    order.sort_by_key(|&ni| Reverse(design.nets[ni].sinks.len() * design.nets[ni].sources.len()));

    let mut converged = false;
    let mut iterations = 0;
    for iter in 0..cfg.max_iterations {
        iterations = iter + 1;
        let mut all_ok = true;
        let mut branches_routed = 0usize;
        for &ni in &order {
            let net = &mut nets[ni];
            alts.clear();
            alts.extend((0..net.missed.len()).filter(|&alt| iter == 0 || net.congested(alt, &occ)));
            if alts.is_empty() {
                continue;
            }
            kept_stamp += 1;
            rip_up(net, &alts, &source_pins[ni], &is_opin, &mut occ, &mut kept, kept_stamp);
            let before = net.used.len();
            route_one_net(
                design,
                placement,
                rrg,
                cfg,
                &source_pins[ni],
                &occ,
                &hist,
                pres_fac,
                &alts,
                net,
                &mut scratch,
            )?;
            for &n in &net.used[before..] {
                if !is_opin[n.index()] {
                    occ[n.index()] += 1;
                }
            }
            all_ok &= alts.iter().all(|&alt| !net.missed[alt]);
            branches_routed += alts.len();
        }
        debug_assert!(
            occ == recount(&nets, &source_pins, &is_opin),
            "occupancy differs from the nets' branch unions after iteration {iterations}"
        );

        // Check for overuse.
        let mut overused = 0usize;
        for idx in 0..n_nodes {
            if occ[idx] > 1 {
                overused += 1;
                hist[idx] += cfg.hist_fac * (occ[idx] - 1) as f32;
            }
        }
        // Per-iteration congestion telemetry: total overflow events and
        // re-routed branches across all iterations plus the latest
        // iteration's residue.
        pfdbg_obs::counter_add("route.iterations", 1);
        pfdbg_obs::counter_add("route.branches_routed", branches_routed as u64);
        pfdbg_obs::counter_add("route.overflow", overused as u64);
        pfdbg_obs::gauge_set("route.overused_last", overused as f64);
        if overused == 0 && all_ok {
            converged = true;
            break;
        }
        pres_fac *= cfg.pres_mult;
    }

    let wires_used: usize = nets
        .iter()
        .map(|net| {
            net.used
                .iter()
                .filter(|&&n| matches!(rrg.node(n).kind, RRKind::ChanX(_) | RRKind::ChanY(_)))
                .count()
        })
        .sum();

    let routes: Vec<NetRoute> = nets.into_iter().map(|net| net.route).collect();
    Ok(RoutedDesign { routes, iterations, wires_used, success: converged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{Block, PRNet, PackedDesign, SourceRef};
    use crate::place::{place, PlaceConfig};
    use pfdbg_arch::{build_rrg, ArchSpec, Device};
    use pfdbg_util::FxHashSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    fn route_design(design: &PackedDesign, clb_side: usize) -> (RoutedDesign, Device) {
        let dev =
            Device::new(ArchSpec { channel_width: 10, ..Default::default() }, clb_side, clb_side);
        let rrg = build_rrg(&dev);
        let placement = place(design, &dev, &PlaceConfig::default()).unwrap();
        let routed = route(design, &placement, &dev, &rrg, &RouteConfig::default()).unwrap();
        (routed, dev)
    }

    fn simple_design(n_clb: usize, nets: Vec<PRNet>) -> PackedDesign {
        let mut blocks = Vec::new();
        let mut clusters = Vec::new();
        for i in 0..n_clb {
            blocks.push(Block::Clb(i));
            clusters.push(Default::default());
        }
        PackedDesign { blocks, clusters, nets, n_tcons: 0 }
    }

    #[test]
    fn routes_point_to_point() {
        let d = simple_design(
            2,
            vec![PRNet {
                name: "n".into(),
                sources: vec![SourceRef { block: 0, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![1],
                tunable: false,
            }],
        );
        let (r, _) = route_design(&d, 3);
        assert!(r.success, "routing failed after {} iterations", r.iterations);
        assert_eq!(r.routes.len(), 1);
        let br = &r.routes[0].branches[0];
        assert!(!br.edges.is_empty());
        // Path is connected: consecutive edges chain.
        for w in br.edges.windows(2) {
            // edges form a tree built from paths; consecutive pairs within
            // one path chain, so at least the first edge starts at an opin.
            let _ = w;
        }
        assert!(r.wires_used > 0);
    }

    #[test]
    fn multi_sink_net_builds_tree() {
        let d = simple_design(
            4,
            vec![PRNet {
                name: "fanout".into(),
                sources: vec![SourceRef { block: 0, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![1, 2, 3],
                tunable: false,
            }],
        );
        let (r, _) = route_design(&d, 3);
        assert!(r.success);
        assert_eq!(r.routes[0].sink_pins.len(), 3);
    }

    #[test]
    fn many_nets_negotiate_congestion() {
        // All-to-all-ish traffic on a small device forces negotiation.
        let mut nets = Vec::new();
        for i in 0..8usize {
            nets.push(PRNet {
                name: format!("n{i}"),
                sources: vec![SourceRef { block: i, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![(i + 3) % 8, (i + 5) % 8],
                tunable: false,
            });
        }
        let d = simple_design(8, nets);
        let (r, _) = route_design(&d, 3);
        assert!(r.success, "congestion never resolved");
        // No wire used by two different nets (checked via per-net sets
        // having disjoint union sizes vs occupancy — recompute here).
        let mut seen: FxHashMap<RRNode, usize> = FxHashMap::default();
        for nr in &r.routes {
            let mut mine: FxHashSet<RRNode> = FxHashSet::default();
            for b in &nr.branches {
                for &(a, bb) in &b.edges {
                    mine.insert(a);
                    mine.insert(bb);
                }
            }
            for n in mine {
                if let Some(&other) = seen.get(&n) {
                    panic!("node {n:?} shared by nets {other} and {}", nr.net);
                }
                seen.insert(n, nr.net);
            }
        }
    }

    #[test]
    fn tunable_net_alternatives_share_and_converge() {
        let d = PackedDesign {
            blocks: vec![Block::Clb(0), Block::Clb(1), Block::Clb(2)],
            clusters: vec![Default::default(), Default::default(), Default::default()],
            nets: vec![PRNet {
                name: "tn".into(),
                sources: vec![SourceRef { block: 0, ble: 0 }, SourceRef { block: 1, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![2],
                tunable: true,
            }],
            n_tcons: 1,
        };
        let (r, _) = route_design(&d, 3);
        assert!(r.success);
        let nr = &r.routes[0];
        assert_eq!(nr.branches.len(), 2, "one tree per alternative");
        // Both alternatives terminate on the same sink pin.
        let pin = nr.sink_pins[&2];
        for b in &nr.branches {
            let last_targets: FxHashSet<RRNode> = b.edges.iter().map(|&(_, t)| t).collect();
            assert!(last_targets.contains(&pin), "alternative misses shared pin");
        }
    }

    #[test]
    fn unroutable_design_reports_failure() {
        // Two distinct nets into one output pad: a pad has a single input
        // pin, which only one net can hold, so no routing converges.
        let dev = Device::new(ArchSpec::default(), 2, 2);
        let rrg = build_rrg(&dev);
        let blocks = vec![Block::Clb(0), Block::Clb(1), Block::OutPad("o".into())];
        let nets = (0..2)
            .map(|i| PRNet {
                name: format!("n{i}"),
                sources: vec![SourceRef { block: i, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![2],
                tunable: false,
            })
            .collect();
        let clusters = vec![Default::default(), Default::default()];
        let d = PackedDesign { blocks, clusters, nets, n_tcons: 0 };
        let placement = place(&d, &dev, &PlaceConfig::default()).unwrap();
        let cfg = RouteConfig { max_iterations: 6, ..Default::default() };
        let r = route(&d, &placement, &dev, &rrg, &cfg).unwrap();
        assert!(!r.success, "two nets share one pad pin, yet routing converged");
        assert_eq!(r.iterations, cfg.max_iterations);
    }

    #[test]
    fn ripping_up_one_branch_keeps_the_nets_shared_nodes_and_sink_pins() {
        let d = simple_design(
            8,
            vec![PRNet {
                name: "tn".into(),
                sources: (0..4).map(|b| SourceRef { block: b, ble: 1 }).collect(),
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![5, 6, 7],
                tunable: true,
            }],
        );
        let dev = Device::new(ArchSpec { channel_width: 6, ..Default::default() }, 3, 3);
        let rrg = build_rrg(&dev);
        let placement = place(&d, &dev, &PlaceConfig::default()).unwrap();
        let pins = source_pins(&d, &placement, &rrg).unwrap();
        let n = rrg.n_nodes();
        let is_opin = opin_mask(&rrg);
        let cfg = RouteConfig::default();
        let (free, hist) = (vec![0u16; n], vec![0f32; n]);
        let mut scratch = NetScratch::new(&rrg);
        let mut reroute = |net: &mut NetState, alts: &[usize]| {
            route_one_net(
                &d,
                &placement,
                &rrg,
                &cfg,
                &pins[0],
                &free,
                &hist,
                cfg.pres_fac,
                alts,
                net,
                &mut scratch,
            )
            .unwrap()
        };
        let mut net = NetState::new(0, 4);
        reroute(&mut net, &[0, 1, 2, 3]);
        let mut occ = recount(std::slice::from_ref(&net), &pins, &is_opin);
        let trees: Vec<FxHashSet<RRNode>> =
            net.route.branches.iter().zip(&pins[0]).map(|(b, &s)| b.nodes(s).collect()).collect();
        let others = |r: usize| -> FxHashSet<RRNode> {
            trees.iter().enumerate().filter(|&(a, _)| a != r).flat_map(|(_, t)| t.clone()).collect()
        };
        // Rip up the alternative that shares the most nodes with the rest.
        let r = (0..4).max_by_key(|&a| trees[a].intersection(&others(a)).count()).unwrap();
        let kept = others(r);
        let shared: Vec<RRNode> = trees[r].intersection(&kept).copied().collect();
        assert!(
            shared.iter().any(|&s| matches!(rrg.node(s).kind, RRKind::ChanX(_) | RRKind::ChanY(_))),
            "alternative {r} shares no wire with the others: nothing to keep"
        );
        let sink_pins = net.route.sink_pins.clone();
        let mut stamps = vec![0u32; n];

        rip_up(&mut net, &[r], &pins[0], &is_opin, &mut occ, &mut stamps, 1);
        assert_eq!(net.route.sink_pins, sink_pins, "a partly ripped net keeps its sink pins");
        assert_eq!(net.used.iter().copied().collect::<FxHashSet<_>>(), kept);
        assert_eq!(net.used.len(), kept.len());
        for s in &shared {
            assert_eq!(occ[s.index()], u16::from(!is_opin[s.index()]), "shared {s:?} released");
        }
        for g in trees[r].difference(&kept) {
            assert_eq!(occ[g.index()], 0, "{g:?}, used by the ripped branch only, still counted");
        }

        // Re-routed, the alternative ends on the kept pins again.
        reroute(&mut net, &[r]);
        assert!(!net.missed[r]);
        assert_eq!(net.route.sink_pins, sink_pins);
        let ends: FxHashSet<RRNode> = net.route.branches[r].edges.iter().map(|&(_, t)| t).collect();
        assert!(sink_pins.values().all(|p| ends.contains(p)), "re-routed branch misses a pin");

        // Ripping up every branch releases the whole net, pins included.
        let mut occ = recount(std::slice::from_ref(&net), &pins, &is_opin);
        rip_up(&mut net, &[0, 1, 2, 3], &pins[0], &is_opin, &mut occ, &mut stamps, 2);
        assert!(net.used.is_empty() && net.route.sink_pins.is_empty());
        assert!(occ.iter().all(|&o| o == 0));
    }

    /// A textbook A* heap entry: ordered by priority, ties to the lower
    /// node id, carrying its own cost.
    struct Entry {
        priority: f32,
        cost: f32,
        node: RRNode,
    }

    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.priority.total_cmp(&self.priority).then_with(|| other.node.0.cmp(&self.node.0))
        }
    }

    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }

    impl Eq for Entry {}

    /// The per-net search written plainly — hash sets for the net, the
    /// tree and the goals, stale heap entries told by their own cost, no
    /// caches — as an oracle for [`route_one_net`]: re-route alternatives
    /// `alts` of net `ni` from the kept node set `net_used` and sink pins
    /// `pins`, giving `(edges per re-routed branch, sink pins, nodes
    /// used, all sinks reached)`.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn textbook_route(
        design: &PackedDesign,
        placement: &Placement,
        rrg: &RRGraph,
        cfg: &RouteConfig,
        src_pins: &[RRNode],
        occ: &[u16],
        hist: &[f32],
        pres_fac: f32,
        ni: usize,
        alts: &[usize],
        mut net_used: FxHashSet<RRNode>,
        mut pins: FxHashMap<usize, RRNode>,
    ) -> (Vec<Vec<(RRNode, RRNode)>>, FxHashMap<usize, RRNode>, FxHashSet<RRNode>, bool) {
        let net = &design.nets[ni];
        let (mut branches, mut ok) = (Vec::new(), true);
        for &alt in alts {
            let src = src_pins[alt];
            let mut tree: FxHashSet<RRNode> = [src].into_iter().collect();
            net_used.insert(src);
            let mut edges = Vec::new();
            let mut sinks = net.sinks.clone();
            let s = rrg.node(src);
            sinks.sort_by_key(|&b| {
                let l = placement.locs[b];
                (l.x as i32 - s.x as i32).abs() + (l.y as i32 - s.y as i32).abs()
            });
            for sink in sinks {
                let loc = placement.locs[sink];
                let (x, y) = (loc.x as usize, loc.y as usize);
                let goals: Vec<RRNode> = match (pins.get(&sink), &design.blocks[sink]) {
                    (Some(&p), _) => vec![p],
                    (None, Block::Clb(_)) => {
                        (0..rrg.n_ipins(x, y)).filter_map(|p| rrg.ipin(x, y, p)).collect()
                    }
                    (None, _) => rrg.ipin(x, y, loc.sub as usize).into_iter().collect(),
                };
                let h = |n: RRNode| cfg.astar * rrg.distance(n, goals[0]) as f32;
                let mut best: FxHashMap<RRNode, (f32, RRNode)> = FxHashMap::default();
                let mut heap = BinaryHeap::new();
                for &t in &tree {
                    best.insert(t, (0.0, t));
                    heap.push(Entry { priority: h(t), cost: 0.0, node: t });
                }
                let mut found = None;
                while let Some(Entry { cost, node, .. }) = heap.pop() {
                    if cost > best[&node].0 {
                        continue;
                    }
                    if goals.contains(&node) {
                        found = Some(node);
                        break;
                    }
                    for (_, next) in rrg.out_edges(node) {
                        let kind = rrg.node(next).kind;
                        match kind {
                            RRKind::IPin(_) if !goals.contains(&next) => continue,
                            RRKind::OPin(_) => continue,
                            _ => {}
                        }
                        let over =
                            if net_used.contains(&next) { 0.0 } else { occ[next.index()] as f32 };
                        let c = cost
                            + base_cost(kind)
                                * (1.0 + hist[next.index()])
                                * (1.0 + pres_fac * over);
                        if best.get(&next).is_none_or(|&(b, _)| c < b) {
                            best.insert(next, (c, node));
                            heap.push(Entry { priority: c + h(next), cost: c, node: next });
                        }
                    }
                }
                let Some(hit) = found else {
                    ok = false;
                    continue;
                };
                let mut path = vec![hit];
                while best[path.last().unwrap()].1 != *path.last().unwrap() {
                    path.push(best[path.last().unwrap()].1);
                }
                path.reverse();
                edges.extend(path.windows(2).map(|w| (w[0], w[1])));
                tree.extend(path.iter().copied());
                net_used.extend(path.iter().copied());
                pins.insert(sink, hit);
            }
            branches.push(edges);
        }
        (branches, pins, net_used, ok)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Stamps left behind by earlier nets, alternatives, searches and
        /// iterations never leak, and the caches change nothing: one
        /// scratch reused across random nets, congestion states and kept
        /// states (a net routed, then a random set of its branches ripped
        /// up) re-routes exactly like a fresh one each time, and both
        /// route exactly like the textbook search from the same kept
        /// nodes and sink pins.
        #[test]
        fn reused_scratch_routes_like_a_fresh_one(seed in any::<u64>()) {
            let mut nets: Vec<PRNet> = (0..8usize)
                .map(|i| PRNet {
                    name: format!("n{i}"),
                    sources: vec![SourceRef { block: i, ble: i % 4 }],
                    source_nodes: vec![],
                    driver: pfdbg_netlist::NodeId(0),
                    sinks: vec![(i + 3) % 8, (i + 5) % 8],
                    tunable: false,
                })
                .collect();
            nets.push(PRNet {
                name: "tn".into(),
                sources: (0..4).map(|b| SourceRef { block: b, ble: 1 }).collect(),
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![5, 6, 7],
                tunable: true,
            });
            let d = simple_design(8, nets);
            let dev = Device::new(ArchSpec { channel_width: 6, ..Default::default() }, 3, 3);
            let rrg = build_rrg(&dev);
            let placement = place(&d, &dev, &PlaceConfig { seed, effort: 0.2 }).unwrap();
            let pins = source_pins(&d, &placement, &rrg).unwrap();
            let cfg = RouteConfig::default();
            let n = rrg.n_nodes();
            let is_opin = opin_mask(&rrg);
            let mut rng = StdRng::seed_from_u64(seed);
            let congestion = |rng: &mut StdRng| {
                let occ: Vec<u16> = (0..n).map(|_| rng.gen_range(0..3u16)).collect();
                let hist: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..2.0f32)).collect();
                (occ, hist, rng.gen_range(0.5..8.0f32))
            };
            let mut reused = NetScratch::new(&rrg);
            let mut stamps = vec![0u32; n];
            for round in 0..24u32 {
                let ni = rng.gen_range(0..d.nets.len());
                let n_alts = d.nets[ni].sources.len();
                // The kept state: the net routed under one congestion
                // state, then a random non-empty set of branches ripped up.
                let (occ, hist, pres_fac) = congestion(&mut rng);
                let all: Vec<usize> = (0..n_alts).collect();
                let mut start = NetState::new(ni, n_alts);
                route_one_net(
                    &d, &placement, &rrg, &cfg, &pins[ni], &occ, &hist, pres_fac, &all,
                    &mut start, &mut reused,
                )
                .unwrap();
                let mut alts: Vec<usize> = all.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
                if alts.is_empty() {
                    alts.push(rng.gen_range(0..n_alts));
                }
                let mut start_occ = recount(std::slice::from_ref(&start), &pins[ni..=ni], &is_opin);
                rip_up(&mut start, &alts, &pins[ni], &is_opin, &mut start_occ, &mut stamps, round + 1);

                let (occ, hist, pres_fac) = congestion(&mut rng);
                let run = |sc: &mut NetScratch| {
                    let mut net = start.clone();
                    route_one_net(
                        &d, &placement, &rrg, &cfg, &pins[ni], &occ, &hist, pres_fac, &alts,
                        &mut net, sc,
                    )
                    .unwrap();
                    net
                };
                let a = run(&mut reused);
                let b = run(&mut NetScratch::new(&rrg));
                prop_assert_eq!(&a.missed, &b.missed);
                prop_assert_eq!(&a.used, &b.used);
                prop_assert_eq!(&a.route.sink_pins, &b.route.sink_pins);
                for (x, y) in a.route.branches.iter().zip(&b.route.branches) {
                    prop_assert_eq!(x.alternative, y.alternative);
                    prop_assert_eq!(&x.edges, &y.edges);
                }
                let (edges, pins, used, ok) = textbook_route(
                    &d, &placement, &rrg, &cfg, &pins[ni], &occ, &hist, pres_fac, ni, &alts,
                    start.used.iter().copied().collect(), start.route.sink_pins.clone(),
                );
                prop_assert_eq!(alts.iter().all(|&alt| !a.missed[alt]), ok);
                prop_assert_eq!(&a.route.sink_pins, &pins);
                prop_assert_eq!(a.used.iter().copied().collect::<FxHashSet<_>>(), used);
                prop_assert_eq!(a.used.len(), a.used.iter().copied().collect::<FxHashSet<_>>().len());
                for (&alt, e) in alts.iter().zip(&edges) {
                    prop_assert_eq!(&a.route.branches[alt].edges, e);
                }
            }
        }
    }
}
