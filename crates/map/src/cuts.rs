//! K-feasible cut enumeration with priority cuts.
//!
//! A *cut* of an AIG node is a set of nodes ("leaves") such that every
//! path from the inputs to the node passes through a leaf; a cut with at
//! most K leaves can be implemented by one K-input LUT. Enumerating all
//! cuts is exponential, so we keep only the `priority` best cuts per node
//! (Mishchenko et al., "Combinational and sequential mapping with
//! priority cuts", ICCAD'07) — the same scheme ABC's `if` mapper uses.
//!
//! For the parameter-aware TCON mapper, leaves that are PConf *parameter*
//! inputs do not count against K: a TLUT folds parameters into its
//! configuration bits, so only real signals occupy LUT pins. A separate
//! cap bounds parameter leaves so truth tables stay within
//! [`pfdbg_netlist::truth::MAX_VARS`].

use pfdbg_synth::{Aig, AigKind, AigNode};
use pfdbg_util::IdVec;

/// One cut: sorted leaf nodes plus cached costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// Sorted leaf node ids.
    pub leaves: Vec<AigNode>,
    /// 64-bit Bloom signature of the leaf set (for fast dominance tests).
    pub signature: u64,
    /// Number of leaves that are parameter inputs.
    pub n_params: usize,
    /// Depth of the mapping rooted here if this cut is chosen:
    /// `1 + max(best depth of non-param leaves)` (parameters are config
    /// bits, not signal pins, so they do not add levels).
    pub depth: u32,
    /// Area flow: estimated LUT area amortized over fanout (lower is
    /// better).
    pub area_flow: f32,
}

impl Cut {
    fn trivial(node: AigNode, is_param: bool) -> Cut {
        Cut {
            leaves: vec![node],
            signature: sig_of(node),
            n_params: usize::from(is_param),
            depth: 0,
            area_flow: 0.0,
        }
    }

    /// Number of non-parameter leaves (the ones that occupy LUT pins).
    pub fn n_real_leaves(&self) -> usize {
        self.leaves.len() - self.n_params
    }

    /// True if `self`'s leaves are a subset of `other`'s.
    fn dominates(&self, other: &Cut) -> bool {
        if self.leaves.len() > other.leaves.len() || self.signature & !other.signature != 0 {
            return false;
        }
        // Both sorted: subset check by merge walk.
        let mut it = other.leaves.iter();
        'outer: for l in &self.leaves {
            for o in it.by_ref() {
                match o.cmp(l) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

#[inline]
fn sig_of(node: AigNode) -> u64 {
    1u64 << (node.0 % 64)
}

/// Cut enumeration limits and cost mode.
#[derive(Debug, Clone, Copy)]
pub struct CutConfig {
    /// LUT input count (K).
    pub k: usize,
    /// Priority cuts kept per node.
    pub priority: usize,
    /// Parameter leaves are free (TCON/TLUT mapping) when true.
    pub param_aware: bool,
    /// Cap on parameter leaves per cut (so `real + params <= MAX_VARS`).
    pub max_params: usize,
    /// Primary cost: minimize depth (true) or area flow (false).
    pub depth_oriented: bool,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig { k: 6, priority: 8, param_aware: false, max_params: 0, depth_oriented: true }
    }
}

/// The cut database: the retained cuts and the chosen best cut per node.
pub struct CutDb {
    /// Retained cuts per node (best first). Sources hold just the trivial
    /// cut.
    pub cuts: IdVec<AigNode, Vec<Cut>>,
    /// Best mapping depth per node.
    pub best_depth: IdVec<AigNode, u32>,
    /// Estimated fanout (references) per node used for area flow.
    pub est_refs: IdVec<AigNode, f32>,
}

/// Enumerate priority cuts for every node of `aig`, in one
/// topological sweep: a node's cuts depend only on its fanins' cuts.
pub fn enumerate(aig: &Aig, cfg: &CutConfig) -> CutDb {
    assert!(cfg.k >= 2 && cfg.k <= 8, "unsupported LUT size {}", cfg.k);
    assert!(
        cfg.k + cfg.max_params <= pfdbg_netlist::truth::MAX_VARS,
        "k + max_params exceeds truth-table width"
    );
    let n = aig.n_nodes();
    let mut cuts: IdVec<AigNode, Vec<Cut>> = IdVec::filled(Vec::new(), n);
    let mut best_depth: IdVec<AigNode, u32> = IdVec::filled(0, n);
    let fanouts = aig.fanout_counts();
    let est_refs: IdVec<AigNode, f32> =
        IdVec::from_vec(fanouts.values().map(|&f| (f as f32).max(1.0)).collect());
    for (id, _) in aig.iter() {
        let (node_cuts, depth) = compute_node(aig, id, cfg, &cuts, &best_depth, &est_refs);
        cuts[id] = node_cuts;
        best_depth[id] = depth;
    }
    CutDb { cuts, best_depth, est_refs }
}

/// The cuts and best depth of one node, reading only fanin state.
fn compute_node(
    aig: &Aig,
    id: AigNode,
    cfg: &CutConfig,
    cuts: &IdVec<AigNode, Vec<Cut>>,
    best_depth: &IdVec<AigNode, u32>,
    est_refs: &IdVec<AigNode, f32>,
) -> (Vec<Cut>, u32) {
    match aig.node(id).kind {
        AigKind::Const0 | AigKind::Input { .. } | AigKind::Latch { .. } => {
            (vec![Cut::trivial(id, aig.is_param(id))], 0)
        }
        AigKind::And(a, b) => {
            let mut merged: Vec<Cut> = Vec::with_capacity(cfg.priority * cfg.priority);
            // The trivial cut is always available (keeps mapping
            // derivable even if all merges exceed K).
            for ca in &cuts[a.node()] {
                for cb in &cuts[b.node()] {
                    if let Some(c) = merge(aig, ca, cb, cfg, best_depth, est_refs) {
                        merged.push(c);
                    }
                }
            }
            sort_cuts(&mut merged, cfg);
            filter_dominated(&mut merged);
            merged.truncate(cfg.priority);
            // Record best depth before appending the trivial cut
            // (the trivial cut has no meaningful depth of its own).
            let depth = merged.first().map_or(u32::MAX, |c| c.depth);
            merged.push(Cut::trivial(id, false));
            (merged, depth)
        }
    }
}

/// Merge two fanin cuts into a candidate cut of the parent, enforcing the
/// leaf limits. Returns `None` if infeasible.
fn merge(
    aig: &Aig,
    ca: &Cut,
    cb: &Cut,
    cfg: &CutConfig,
    best_depth: &IdVec<AigNode, u32>,
    est_refs: &IdVec<AigNode, f32>,
) -> Option<Cut> {
    // Quick reject on the Bloom signature: the union cannot be feasible if
    // it already has more distinct bits than permitted leaves.
    let union_sig = ca.signature | cb.signature;
    let limit = cfg.k + if cfg.param_aware { cfg.max_params } else { 0 };
    if (union_sig.count_ones() as usize) > limit {
        return None;
    }
    // Merge sorted leaf lists.
    let mut leaves = Vec::with_capacity(ca.leaves.len() + cb.leaves.len());
    let (mut i, mut j) = (0, 0);
    while i < ca.leaves.len() || j < cb.leaves.len() {
        let next = match (ca.leaves.get(i), cb.leaves.get(j)) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    i += 1;
                    x
                } else if y < x {
                    j += 1;
                    y
                } else {
                    i += 1;
                    j += 1;
                    x
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        leaves.push(next);
        if leaves.len() > limit {
            return None;
        }
    }

    let n_params =
        if cfg.param_aware { leaves.iter().filter(|&&l| aig.is_param(l)).count() } else { 0 };
    let n_real = leaves.len() - n_params;
    if n_real > cfg.k || n_params > cfg.max_params {
        return None;
    }

    // Costs: depth over non-param leaves; area flow sums leaf flows.
    let mut depth = 0u32;
    let mut flow = 1.0f32; // this LUT
    for &l in &leaves {
        let leaf_param = cfg.param_aware && aig.is_param(l);
        if !leaf_param {
            depth = depth.max(best_depth[l].saturating_add(1));
        }
        // Leaf area flow: sources are free; internal nodes amortize their
        // own best flow over their fanout.
        if let Some(best) = leaf_flow(aig, l) {
            flow += best / est_refs[l];
        }
    }
    if depth == 0 {
        depth = 1; // an AND always adds a level over sources
    }
    Some(Cut { leaves, signature: union_sig, n_params, depth, area_flow: flow })
}

/// A leaf's contribution to area flow: 0 for sources, 1 (its own LUT) for
/// internal AND nodes. A full area-flow iteration would use the leaf's
/// best cut flow; one level is enough to steer the greedy choice and
/// keeps enumeration single-pass.
fn leaf_flow(aig: &Aig, l: AigNode) -> Option<f32> {
    match aig.node(l).kind {
        AigKind::And(..) => Some(1.0),
        _ => None,
    }
}

fn sort_cuts(cuts: &mut [Cut], cfg: &CutConfig) {
    if cfg.depth_oriented {
        cuts.sort_by(|x, y| {
            x.depth
                .cmp(&y.depth)
                .then(x.area_flow.partial_cmp(&y.area_flow).expect("finite flow"))
                .then(x.leaves.len().cmp(&y.leaves.len()))
        });
    } else {
        cuts.sort_by(|x, y| {
            x.area_flow
                .partial_cmp(&y.area_flow)
                .expect("finite flow")
                .then(x.depth.cmp(&y.depth))
                .then(x.leaves.len().cmp(&y.leaves.len()))
        });
    }
}

/// Remove cuts dominated by an earlier (better-ranked) cut.
fn filter_dominated(cuts: &mut Vec<Cut>) {
    let mut kept: Vec<Cut> = Vec::with_capacity(cuts.len());
    'outer: for c in cuts.drain(..) {
        for k in &kept {
            if k.dominates(&c) {
                continue 'outer;
            }
        }
        kept.push(c);
    }
    *cuts = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_synth::Lit;

    fn simple_aig() -> (Aig, Lit, Lit, Lit, Lit) {
        // y = (a & b) & (c & d)
        let mut aig = Aig::new("t");
        let a = aig.add_input("a", false);
        let b = aig.add_input("b", false);
        let c = aig.add_input("c", false);
        let d = aig.add_input("d", false);
        let ab = aig.and(a, b);
        let cd = aig.and(c, d);
        let y = aig.and(ab, cd);
        aig.add_output("y", y);
        (aig, a, b, c, d)
    }

    #[test]
    fn enumerates_the_four_input_cut() {
        let (aig, a, b, c, d) = simple_aig();
        let cfg = CutConfig { k: 4, ..Default::default() };
        let db = enumerate(&aig, &cfg);
        let y = aig.outputs[0].1.node();
        let full: Vec<AigNode> = {
            let mut v = vec![a.node(), b.node(), c.node(), d.node()];
            v.sort();
            v
        };
        assert!(
            db.cuts[y].iter().any(|cut| cut.leaves == full),
            "expected the 4-leaf cut among {:?}",
            db.cuts[y]
        );
        // Depth 1 achievable with K=4.
        assert_eq!(db.best_depth[y], 1);
    }

    #[test]
    fn k2_forces_two_levels() {
        let (aig, ..) = simple_aig();
        let cfg = CutConfig { k: 2, ..Default::default() };
        let db = enumerate(&aig, &cfg);
        let y = aig.outputs[0].1.node();
        assert_eq!(db.best_depth[y], 2);
        // No cut of y may have more than 2 leaves.
        assert!(db.cuts[y].iter().all(|c| c.leaves.len() <= 2));
    }

    #[test]
    fn trivial_cut_always_present() {
        let (aig, ..) = simple_aig();
        let db = enumerate(&aig, &CutConfig::default());
        for (id, entry) in aig.iter() {
            if matches!(entry.kind, AigKind::And(..)) {
                assert!(
                    db.cuts[id].iter().any(|c| c.leaves == vec![id]),
                    "node {id:?} lacks its trivial cut"
                );
            }
        }
    }

    #[test]
    fn dominated_cuts_filtered() {
        let mut cuts = vec![
            Cut {
                leaves: vec![AigNode(1), AigNode(2)],
                signature: sig_of(AigNode(1)) | sig_of(AigNode(2)),
                n_params: 0,
                depth: 1,
                area_flow: 1.0,
            },
            Cut {
                leaves: vec![AigNode(1), AigNode(2), AigNode(3)],
                signature: sig_of(AigNode(1)) | sig_of(AigNode(2)) | sig_of(AigNode(3)),
                n_params: 0,
                depth: 1,
                area_flow: 2.0,
            },
        ];
        filter_dominated(&mut cuts);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].leaves.len(), 2);
    }

    #[test]
    fn param_leaves_do_not_count_against_k() {
        // mux: y = p ? a : b with p a parameter. With k=2 and param_aware,
        // the 3-leaf cut {a, b, p} must exist (only 2 real leaves).
        let mut aig = Aig::new("m");
        let a = aig.add_input("a", false);
        let b = aig.add_input("b", false);
        let p = aig.add_input("p", true);
        let y = aig.mux(p, a, b);
        aig.add_output("y", y);

        let cfg = CutConfig { k: 2, param_aware: true, max_params: 4, ..Default::default() };
        let db = enumerate(&aig, &cfg);
        let yn = y.node();
        let found = db.cuts[yn]
            .iter()
            .any(|c| c.leaves.len() == 3 && c.n_params == 1 && c.n_real_leaves() == 2);
        assert!(found, "param-extended cut missing: {:?}", db.cuts[yn]);
        // And its depth is 1 (params add no levels).
        let best =
            db.cuts[yn].iter().filter(|c| c.leaves.len() == 3).map(|c| c.depth).min().expect("cut");
        assert_eq!(best, 1);

        // Without param awareness the same cut is infeasible under k=2.
        let cfg2 = CutConfig { k: 2, ..Default::default() };
        let db2 = enumerate(&aig, &cfg2);
        assert!(db2.cuts[yn].iter().all(|c| c.leaves.len() <= 2 || c.leaves == vec![yn]));
    }

    #[test]
    fn area_mode_prefers_fewer_luts() {
        // With area-oriented sorting the first cut should not have worse
        // flow than any other of the same node.
        let (aig, ..) = simple_aig();
        let cfg = CutConfig { k: 4, depth_oriented: false, ..Default::default() };
        let db = enumerate(&aig, &cfg);
        let y = aig.outputs[0].1.node();
        let cuts = &db.cuts[y];
        // Skip the appended trivial cut at the end.
        for c in &cuts[1..cuts.len() - 1] {
            assert!(cuts[0].area_flow <= c.area_flow + 1e-6);
        }
    }
}
