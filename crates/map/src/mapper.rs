//! Cut-based technology mapping: cover an AIG with K-LUTs (and, in
//! parameter-aware mode, TLUTs and TCONs).
//!
//! Three mappers share this engine:
//!
//! * **"ABC"** (`MapperKind::PriorityCuts`) — depth-oriented priority-cuts
//!   mapping, the role ABC's `if -K` plays in the VTR flow,
//! * **SimpleMap** (`MapperKind::Simple`, see [`crate::simple`]) — a naive
//!   structural mapper,
//! * **TCONMap** (`MapperKind::TconMap`) — the paper's parameter-aware
//!   mapper: parameter inputs do not occupy LUT pins (they fold into
//!   configuration bits), and mapped elements that are *pure routing*
//!   under every parameter assignment become TCONs implemented in the
//!   FPGA's reconfigurable routing instead of LUTs.

use crate::cone::cone_table;
use crate::cuts::{enumerate, Cut, CutConfig};
use pfdbg_netlist::truth::{gates, TruthTable};
use pfdbg_netlist::{Network, NodeId};
use pfdbg_synth::{Aig, AigKind, AigNode, Lit};
use pfdbg_util::{FxHashMap, IdVec};

/// What a mapped element is implemented in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// A plain K-LUT.
    Lut,
    /// A tunable LUT: its truth table is a Boolean function of PConf
    /// parameters, resolved by the Specialized Configuration Generator.
    TLut,
    /// A tunable connection: for every parameter assignment the element
    /// degenerates to a wire (or constant), so it is implemented in the
    /// routing fabric and consumes no LUT.
    TCon,
}

/// One mapped element (a LUT/TLUT/TCON rooted at an AIG node).
#[derive(Debug, Clone)]
pub struct MappedElement {
    /// AIG node whose (uncomplemented) function this element produces.
    pub root: AigNode,
    /// Implementation resource.
    pub kind: ElemKind,
    /// Cut leaves (sorted AIG node ids); truth-table variable `i` is
    /// `leaves[i]`.
    pub leaves: Vec<AigNode>,
    /// The element's function over its leaves.
    pub table: TruthTable,
    /// How many leaves are parameter inputs.
    pub n_params: usize,
}

/// A complete mapping of an AIG.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// LUT input count used.
    pub k: usize,
    /// The chosen elements, in topological (root id) order.
    pub elements: Vec<MappedElement>,
    pub(crate) index: FxHashMap<AigNode, usize>,
    /// Roots whose element produces the *complement* of the AIG node's
    /// function (phase assignment: an inverted pure-routing element is
    /// flipped so it really is a wire, and all consumers are adjusted).
    pub(crate) flipped: pfdbg_util::FxHashSet<AigNode>,
}

/// Which mapping algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperKind {
    /// Depth-oriented priority-cuts mapping (the ABC baseline).
    PriorityCuts,
    /// Naive structural mapping (the SimpleMap baseline).
    Simple,
    /// The paper's parameter-aware TLUT/TCON mapper.
    TconMap,
}

/// Map an AIG into K-LUTs with the selected algorithm.
pub fn map(aig: &Aig, k: usize, kind: MapperKind) -> Mapping {
    match kind {
        MapperKind::Simple => crate::simple::simple_map(aig, k),
        MapperKind::PriorityCuts => {
            let cfg = CutConfig { k, priority: 8, ..Default::default() };
            let db = enumerate(aig, &cfg);
            derive(aig, k, |node| best_cut(&db.cuts[node]), false)
        }
        MapperKind::TconMap => {
            let max_params = pfdbg_netlist::truth::MAX_VARS - k;
            let cfg = CutConfig {
                k,
                priority: 8,
                param_aware: true,
                max_params,
                // Depth-oriented like the baseline: the paper's Table II
                // shows the proposed flow preserving (or improving) logic
                // depth; its area win comes from muxes dissolving into
                // TCONs, not from trading depth for area.
                depth_oriented: true,
            };
            let db = enumerate(aig, &cfg);
            derive(aig, k, |node| best_cut(&db.cuts[node]), true)
        }
    }
}

fn best_cut(cuts: &[Cut]) -> &Cut {
    // The trivial self-cut is always last; it is only a fallback for
    // sources and must not be chosen for an AND node.
    cuts.first().expect("cut list never empty")
}

/// Derive the cover: start from outputs and latch next-states, choose the
/// best cut per required node, recurse into its leaves.
pub(crate) fn derive<'a, F>(aig: &Aig, k: usize, mut choose: F, param_aware: bool) -> Mapping
where
    F: FnMut(AigNode) -> &'a Cut,
{
    let mut required: Vec<AigNode> = Vec::new();
    let mut seen: IdVec<AigNode, bool> = IdVec::filled(false, aig.n_nodes());
    let push = |n: AigNode, seen: &mut IdVec<AigNode, bool>, req: &mut Vec<AigNode>| {
        if !seen[n] && matches!(aig.node(n).kind, AigKind::And(..)) {
            seen[n] = true;
            req.push(n);
        }
    };
    for (_, lit) in &aig.outputs {
        push(lit.node(), &mut seen, &mut required);
    }
    for latch in aig.latch_ids() {
        push(aig.latch_next(latch).node(), &mut seen, &mut required);
    }

    let mut chosen: Vec<(AigNode, Vec<AigNode>, usize)> = Vec::new();
    let mut i = 0;
    while i < required.len() {
        let node = required[i];
        i += 1;
        let cut = choose(node);
        debug_assert!(cut.leaves != [node], "trivial cut chosen for AND node");
        for &leaf in &cut.leaves {
            if !seen[leaf] && matches!(aig.node(leaf).kind, AigKind::And(..)) {
                seen[leaf] = true;
                required.push(leaf);
            }
        }
        chosen.push((node, cut.leaves.clone(), cut.n_params));
    }
    build_mapping(aig, k, chosen, param_aware)
}

/// Assemble a [`Mapping`] from chosen `(root, leaves, n_params)` covers
/// (shared by the cut-based mappers and SimpleMap).
pub(crate) fn build_mapping(
    aig: &Aig,
    k: usize,
    mut chosen: Vec<(AigNode, Vec<AigNode>, usize)>,
    param_aware: bool,
) -> Mapping {
    // Build elements in topological (root id) order.
    chosen.sort_by_key(|(root, _, _)| *root);
    let mut elements = Vec::with_capacity(chosen.len());
    let mut index = FxHashMap::default();
    let mut flipped: pfdbg_util::FxHashSet<AigNode> = Default::default();

    // Phase assignment: count positive/negative endpoint references
    // (outputs and latch next-states) per node. A LUT whose endpoint
    // uses are all negative is built inverted, saving the explicit
    // inverter (element-to-element leaf references adjust via flip_var).
    let mut pos_refs: FxHashMap<AigNode, u32> = FxHashMap::default();
    let mut neg_refs: FxHashMap<AigNode, u32> = FxHashMap::default();
    {
        let note =
            |lit: Lit, pos: &mut FxHashMap<AigNode, u32>, neg: &mut FxHashMap<AigNode, u32>| {
                if lit.is_const() {
                    return;
                }
                if lit.complemented() {
                    *neg.entry(lit.node()).or_insert(0) += 1;
                } else {
                    *pos.entry(lit.node()).or_insert(0) += 1;
                }
            };
        for (_, lit) in &aig.outputs {
            note(*lit, &mut pos_refs, &mut neg_refs);
        }
        for latch in aig.latch_ids() {
            note(aig.latch_next(latch), &mut pos_refs, &mut neg_refs);
        }
    }

    for (root, leaves, n_params) in chosen {
        // Cone matching: the element's truth table over its cut leaves.
        let mut table = cone_table(aig, root, &leaves);
        // Account for leaves whose producing element was phase-flipped:
        // the physical wire carries the complement, so the consuming
        // table reads the inverted variable.
        for (i, l) in leaves.iter().enumerate() {
            if flipped.contains(l) {
                table = table.flip_var(i);
            }
        }
        let classified = if param_aware { classify(aig, &table, &leaves) } else { Classified::Lut };
        let kind = match classified {
            Classified::Lut | Classified::TLut => {
                // Phase rule: build inverted when every endpoint use is
                // negative.
                let p = pos_refs.get(&root).copied().unwrap_or(0);
                let n = neg_refs.get(&root).copied().unwrap_or(0);
                if n > 0 && p == 0 {
                    table = table.not();
                    flipped.insert(root);
                }
                if matches!(classified, Classified::TLut) {
                    ElemKind::TLut
                } else {
                    ElemKind::Lut
                }
            }
            Classified::TConPos => ElemKind::TCon,
            Classified::TConNeg => {
                // An inverted selector: flip the element so the physical
                // resource is a true wire (routing cannot invert);
                // consumers compensate.
                table = table.not();
                flipped.insert(root);
                ElemKind::TCon
            }
        };
        index.insert(root, elements.len());
        elements.push(MappedElement { root, kind, leaves, table, n_params });
    }
    let mut mapping = Mapping { k, elements, index, flipped };
    add_output_inverters(aig, &mut mapping);
    mapping
}

enum Classified {
    Lut,
    TLut,
    /// Pure routing: every parameter assignment yields a positive literal
    /// or a constant.
    TConPos,
    /// Inverted routing: every parameter assignment yields a *negative*
    /// literal (or a constant) — implementable as a wire after flipping
    /// the element's phase.
    TConNeg,
}

/// Classify a parameter-aware element: TCON if for *every* assignment of
/// its parameter leaves the function degenerates to one real leaf
/// (uniformly positive or uniformly negative) or a constant — routing can
/// select and tie to rails, but not invert; TLUT if it depends on
/// parameters otherwise; plain LUT if it does not depend on parameters.
fn classify(aig: &Aig, table: &TruthTable, leaves: &[AigNode]) -> Classified {
    let param_vars: Vec<usize> =
        leaves.iter().enumerate().filter(|(_, &l)| aig.is_param(l)).map(|(i, _)| i).collect();
    if param_vars.is_empty() || !param_vars.iter().any(|&v| table.depends_on(v)) {
        return Classified::Lut;
    }
    // Enumerate parameter assignments (bounded by max_params <= 10).
    let n_assignments = 1usize << param_vars.len();
    let mut pos_ok = true;
    let mut neg_ok = true;
    for a in 0..n_assignments {
        // Restrict highest-index first so positions stay valid.
        let mut residual = table.clone();
        for (bit, &v) in param_vars.iter().enumerate().rev() {
            residual = residual.restrict(v, (a >> bit) & 1 == 1);
        }
        if residual.is_const0() || residual.is_const1() {
            continue; // a rail tie satisfies both polarities
        }
        let n = residual.nvars();
        let is_pos = (0..n).any(|v| residual == TruthTable::var(n, v));
        let is_neg = !is_pos && (0..n).any(|v| residual == TruthTable::var(n, v).not());
        pos_ok &= is_pos;
        neg_ok &= is_neg;
        if !pos_ok && !neg_ok {
            return Classified::TLut;
        }
    }
    if pos_ok {
        Classified::TConPos
    } else {
        Classified::TConNeg
    }
}

/// Primary outputs / latch next-states referenced through complemented
/// literals need an explicit inverter LUT unless their driver element can
/// absorb the complement (single complemented use). We take the simple,
/// uniform route: add one shared inverter element per complemented node
/// (all mappers pay the same cost, keeping comparisons fair).
fn add_output_inverters(aig: &Aig, mapping: &mut Mapping) {
    let mut inverted: FxHashMap<AigNode, ()> = FxHashMap::default();
    let mut need: Vec<Lit> = Vec::new();
    // The effective polarity accounts for phase-flipped elements.
    let effective_compl = |lit: Lit| lit.complemented() ^ mapping.flipped.contains(&lit.node());
    for (_, lit) in &aig.outputs {
        if effective_compl(*lit) && !lit.is_const() {
            need.push(*lit);
        }
    }
    for latch in aig.latch_ids() {
        let next = aig.latch_next(latch);
        if effective_compl(next) && !next.is_const() {
            need.push(next);
        }
    }
    for lit in need {
        let node = lit.node();
        if inverted.contains_key(&node) {
            continue;
        }
        inverted.insert(node, ());
        // Note: the inverter is an element *rooted at the same AIG node*
        // but computing the complement; consumers resolve it by name (see
        // `to_network`). We model it as a distinct pseudo-element.
        mapping.elements.push(MappedElement {
            root: node,
            kind: ElemKind::Lut,
            leaves: vec![node],
            table: gates::not1(),
            n_params: 0,
        });
    }
}

impl Mapping {
    /// Number of plain LUTs (inverter LUTs included).
    pub fn n_luts(&self) -> usize {
        self.elements.iter().filter(|e| e.kind == ElemKind::Lut).count()
    }

    /// Number of tunable LUTs.
    pub fn n_tluts(&self) -> usize {
        self.elements.iter().filter(|e| e.kind == ElemKind::TLut).count()
    }

    /// Number of tunable connections.
    pub fn n_tcons(&self) -> usize {
        self.elements.iter().filter(|e| e.kind == ElemKind::TCon).count()
    }

    /// Total LUT-resource usage: LUTs + TLUTs (TCONs live in routing).
    pub fn lut_area(&self) -> usize {
        self.n_luts() + self.n_tluts()
    }

    /// The element producing `root`'s function, if mapped.
    pub fn element_of(&self, root: AigNode) -> Option<&MappedElement> {
        self.index.get(&root).map(|&i| &self.elements[i])
    }

    /// Logic depth in LUT levels. TCONs contribute no level (they are
    /// routing); parameter leaves contribute no level either.
    pub fn depth(&self, aig: &Aig) -> u32 {
        let mut level: IdVec<AigNode, u32> = IdVec::filled(0, aig.n_nodes());
        // Elements are in root order = topological order.
        for e in &self.elements {
            if e.leaves == [e.root] {
                continue; // output inverter pseudo-element
            }
            let cost = match e.kind {
                ElemKind::TCon => 0,
                ElemKind::Lut | ElemKind::TLut => 1,
            };
            let base = e
                .leaves
                .iter()
                .filter(|&&l| !aig.is_param(l))
                .map(|&l| level[l])
                .max()
                .unwrap_or(0);
            level[e.root] = base + cost;
        }
        let mut depth = 0;
        for (_, lit) in &aig.outputs {
            depth = depth.max(level[lit.node()]);
        }
        for latch in aig.latch_ids() {
            depth = depth.max(level[aig.latch_next(latch).node()]);
        }
        depth
    }

    /// Export the mapping as a LUT-level [`Network`] (TCON elements become
    /// mux tables marked by the returned kind map — place & route and the
    /// PConf generator treat them as routing configuration).
    ///
    /// Returns the network and the element kind of each created table
    /// node.
    pub fn to_network(&self, aig: &Aig) -> (Network, FxHashMap<NodeId, ElemKind>) {
        let mut nw = Network::new(aig.name.clone());
        let mut kinds: FxHashMap<NodeId, ElemKind> = FxHashMap::default();
        let mut id_of: IdVec<AigNode, Option<NodeId>> = IdVec::filled(None, aig.n_nodes());
        let mut const0: Option<NodeId> = None;

        for (id, entry) in aig.iter() {
            match entry.kind {
                AigKind::Input { is_param } => {
                    let n = nw.add_input(entry.name.clone());
                    nw.set_param(n, is_param);
                    id_of[id] = Some(n);
                }
                AigKind::Latch { init } => {
                    if const0.is_none() {
                        const0 = Some(nw.add_const("$const0", false));
                    }
                    let ph = const0.expect("just set");
                    id_of[id] = Some(nw.add_latch(entry.name.clone(), ph, init));
                }
                _ => {}
            }
        }

        // Inverter pseudo-elements (leaves == [root]) are materialized on
        // demand afterwards; regular elements first, in topological order.
        let mut inverters: Vec<&MappedElement> = Vec::new();
        for e in &self.elements {
            if e.leaves == [e.root] {
                inverters.push(e);
                continue;
            }
            let fanins: Vec<NodeId> = e
                .leaves
                .iter()
                .map(|&l| {
                    id_of[l].unwrap_or_else(|| {
                        if l == AigNode(0) {
                            *const0.get_or_insert_with(|| nw.add_const("$const0", false))
                        } else {
                            panic!("leaf {l:?} not materialized before use")
                        }
                    })
                })
                .collect();
            let base = match aig.node(e.root).name.as_str() {
                "" => format!("$lut{}", e.root.0),
                s => s.to_string(),
            };
            let name = nw.fresh_name(&base);
            let id = nw.add_table(name, fanins, e.table.clone());
            kinds.insert(id, e.kind);
            id_of[e.root] = Some(id);
        }

        let mut inv_of: FxHashMap<AigNode, NodeId> = FxHashMap::default();
        for e in inverters {
            let src = id_of[e.root].expect("inverter source mapped");
            let name = nw.fresh_name(&format!("$inv{}", e.root.0));
            let id = nw.add_table(name, vec![src], gates::not1());
            kinds.insert(id, ElemKind::Lut);
            inv_of.insert(e.root, id);
        }

        let resolve = |lit: Lit, nw: &mut Network, const0: &mut Option<NodeId>| -> NodeId {
            if lit.is_const() {
                let c0 = *const0.get_or_insert_with(|| nw.add_const("$const0", false));
                if lit == Lit::TRUE {
                    let name = nw.fresh_name("$const1");
                    return nw.add_const(name, true);
                }
                return c0;
            }
            // Phase-flipped elements physically carry the complement.
            let compl = lit.complemented() ^ self.flipped.contains(&lit.node());
            if compl {
                inv_of[&lit.node()]
            } else {
                id_of[lit.node()].expect("driver mapped")
            }
        };

        for (name, lit) in &aig.outputs {
            let driver = resolve(*lit, &mut nw, &mut const0);
            nw.add_output(name.clone(), driver);
        }
        for latch in aig.latch_ids() {
            let next = resolve(aig.latch_next(latch), &mut nw, &mut const0);
            let q = id_of[latch].expect("latch created");
            nw.set_latch_data(q, next);
        }
        nw.sweep_dead();
        (nw, kinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_netlist::sim::comb_equivalent;
    use pfdbg_synth::to_network as aig_to_network;

    fn adder_aig(bits: usize) -> Aig {
        // Ripple-carry adder: a[i], b[i] -> s[i], with carry chain.
        let mut aig = Aig::new("adder");
        let a: Vec<Lit> = (0..bits).map(|i| aig.add_input(format!("a{i}"), false)).collect();
        let b: Vec<Lit> = (0..bits).map(|i| aig.add_input(format!("b{i}"), false)).collect();
        let mut carry = Lit::FALSE;
        for i in 0..bits {
            let axb = aig.xor(a[i], b[i]);
            let s = aig.xor(axb, carry);
            let ab = aig.and(a[i], b[i]);
            let ac = aig.and(axb, carry);
            carry = aig.or(ab, ac);
            aig.add_output(format!("s{i}"), s);
        }
        aig.add_output("cout", carry);
        aig
    }

    #[test]
    fn priority_cuts_mapping_is_equivalent() {
        let aig = adder_aig(8);
        let mapping = map(&aig, 6, MapperKind::PriorityCuts);
        assert!(mapping.n_luts() > 0);
        assert_eq!(mapping.n_tluts(), 0);
        assert_eq!(mapping.n_tcons(), 0);
        let (nw, _) = mapping.to_network(&aig);
        nw.validate().unwrap();
        let golden = aig_to_network(&aig);
        assert!(comb_equivalent(&golden, &nw, 64, 21).unwrap());
    }

    #[test]
    fn mapping_respects_k() {
        let aig = adder_aig(6);
        for k in [3usize, 4, 6] {
            let mapping = map(&aig, k, MapperKind::PriorityCuts);
            for e in &mapping.elements {
                assert!(e.leaves.len() <= k, "element exceeds K={k}");
            }
        }
    }

    #[test]
    fn fewer_luts_with_bigger_k() {
        let aig = adder_aig(16);
        let m3 = map(&aig, 3, MapperKind::PriorityCuts);
        let m6 = map(&aig, 6, MapperKind::PriorityCuts);
        assert!(
            m6.lut_area() < m3.lut_area(),
            "K=6 ({}) should beat K=3 ({})",
            m6.lut_area(),
            m3.lut_area()
        );
    }

    #[test]
    fn mapped_depth_not_worse_than_aig_depth() {
        let aig = adder_aig(8);
        let mapping = map(&aig, 6, MapperKind::PriorityCuts);
        assert!(mapping.depth(&aig) <= aig.depth());
    }

    #[test]
    fn param_mux_becomes_tcon() {
        // A 4:1 mux tree with parameter selects: pure routing under
        // parameters.
        let mut aig = Aig::new("mux4");
        let d: Vec<Lit> = (0..4).map(|i| aig.add_input(format!("d{i}"), false)).collect();
        let s0 = aig.add_input("s0", true);
        let s1 = aig.add_input("s1", true);
        let m0 = aig.mux(s0, d[1], d[0]);
        let m1 = aig.mux(s0, d[3], d[2]);
        let y = aig.mux(s1, m1, m0);
        aig.add_output("y", y);

        let mapping = map(&aig, 6, MapperKind::TconMap);
        assert!(mapping.n_tcons() >= 1, "mux tree should map to TCON(s): {mapping:?}");
        assert_eq!(mapping.lut_area(), 0, "no LUTs needed for pure routing");
        // Depth over LUT levels is 0: the whole path is routing.
        assert_eq!(mapping.depth(&aig), 0);
        // Function must be preserved (the mux network still computes the
        // selection in the exported generalized network).
        let (nw, kinds) = mapping.to_network(&aig);
        nw.validate().unwrap();
        assert!(kinds.values().any(|&k| k == ElemKind::TCon));
        let golden = aig_to_network(&aig);
        assert!(comb_equivalent(&golden, &nw, 64, 33).unwrap());
    }

    #[test]
    fn param_logic_becomes_tlut() {
        // y = (p & a) ^ b: depends on the parameter but is not a wire for
        // p=1 (residual is a^b over two leaves).
        let mut aig = Aig::new("pl");
        let a = aig.add_input("a", false);
        let b = aig.add_input("b", false);
        let p = aig.add_input("p", true);
        let pa = aig.and(p, a);
        let y = aig.xor(pa, b);
        aig.add_output("y", y);
        let mapping = map(&aig, 6, MapperKind::TconMap);
        assert_eq!(mapping.n_tluts(), 1, "{mapping:?}");
        assert_eq!(mapping.n_tcons(), 0);
        let (nw, _) = mapping.to_network(&aig);
        let golden = aig_to_network(&aig);
        assert!(comb_equivalent(&golden, &nw, 64, 5).unwrap());
    }

    #[test]
    fn no_params_means_plain_luts_even_in_tconmap() {
        let aig = adder_aig(4);
        let mapping = map(&aig, 6, MapperKind::TconMap);
        assert_eq!(mapping.n_tluts(), 0);
        assert_eq!(mapping.n_tcons(), 0);
        assert!(mapping.n_luts() > 0);
    }

    #[test]
    fn complemented_outputs_get_inverters() {
        let mut aig = Aig::new("inv");
        let a = aig.add_input("a", false);
        let b = aig.add_input("b", false);
        let y = aig.and(a, b);
        aig.add_output("nand", y.not());
        aig.add_output("and", y);
        let mapping = map(&aig, 6, MapperKind::PriorityCuts);
        let (nw, _) = mapping.to_network(&aig);
        let golden = aig_to_network(&aig);
        assert!(comb_equivalent(&golden, &nw, 32, 2).unwrap());
    }

    #[test]
    fn sequential_mapping_equivalence() {
        // 4-bit LFSR-ish circuit.
        let mut aig = Aig::new("lfsr");
        let en = aig.add_input("en", false);
        let q: Vec<Lit> = (0..4).map(|i| aig.add_latch(format!("q{i}"), i == 0)).collect();
        let fb = aig.xor(q[3], q[2]);
        let n0 = aig.mux(en, fb, q[0]);
        aig.set_latch_next(q[0], n0);
        for i in 1..4 {
            let ni = aig.mux(en, q[i - 1], q[i]);
            aig.set_latch_next(q[i], ni);
        }
        aig.add_output("out", q[3]);
        let mapping = map(&aig, 4, MapperKind::PriorityCuts);
        let (nw, _) = mapping.to_network(&aig);
        nw.validate().unwrap();
        let golden = aig_to_network(&aig);
        assert!(comb_equivalent(&golden, &nw, 64, 77).unwrap());
    }
}
