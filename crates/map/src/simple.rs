//! SimpleMap: a naive structural technology mapper, used as the first
//! conventional baseline in the paper's Table I/II.
//!
//! The algorithm greedily absorbs single-fanout fanin cones into a LUT
//! until the leaf budget K is exhausted — no cut enumeration, no cost
//! function, no reconvergence exploitation. This matches the behaviour of
//! the "SimpleMAP" structural mapper of the TLUT tool flow the paper
//! builds on: fast, but noticeably worse in area and depth than a
//! cut-based mapper.

use crate::mapper::{build_mapping, Mapping};
use pfdbg_synth::{Aig, AigKind, AigNode};
use pfdbg_util::IdVec;

/// Run SimpleMap with K-input LUTs.
pub fn simple_map(aig: &Aig, k: usize) -> Mapping {
    assert!(k >= 2, "K must be at least 2");
    let fanouts = aig.fanout_counts();

    // For every AND node, greedily grow a leaf set: start from the two
    // fanins; while a leaf is a single-fanout AND node and expanding it
    // keeps the set within K, expand it (deepest-first).
    let mut leaves_of: IdVec<AigNode, Vec<AigNode>> = IdVec::filled(Vec::new(), aig.n_nodes());
    let levels = aig.levels();

    for (id, entry) in aig.iter() {
        if let AigKind::And(a, b) = entry.kind {
            let mut leaves = vec![a.node(), b.node()];
            leaves.sort();
            leaves.dedup();
            loop {
                // Candidate to expand: the deepest single-fanout AND leaf.
                let cand = leaves
                    .iter()
                    .copied()
                    .filter(|&l| matches!(aig.node(l).kind, AigKind::And(..)) && fanouts[l] == 1)
                    .max_by_key(|&l| levels[l]);
                let Some(c) = cand else { break };
                let (ca, cb) = match aig.node(c).kind {
                    AigKind::And(x, y) => (x.node(), y.node()),
                    _ => unreachable!("filtered to ANDs"),
                };
                let mut expanded = leaves.clone();
                expanded.retain(|&l| l != c);
                for n in [ca, cb] {
                    if !expanded.contains(&n) {
                        expanded.push(n);
                    }
                }
                if expanded.len() > k {
                    // Try the other candidates before giving up: mark this
                    // one unexpandable by breaking (greedy single-candidate
                    // policy keeps SimpleMap simple — and weak, as
                    // intended).
                    break;
                }
                expanded.sort();
                leaves = expanded;
            }
            leaves_of[id] = leaves;
        }
    }

    // Derive the cover from outputs / latch next-states.
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
        let leaves = leaves_of[node].clone();
        for &leaf in &leaves {
            if !seen[leaf] && matches!(aig.node(leaf).kind, AigKind::And(..)) {
                seen[leaf] = true;
                required.push(leaf);
            }
        }
        chosen.push((node, leaves, 0));
    }

    build_mapping(aig, k, chosen, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map, MapperKind};
    use pfdbg_netlist::sim::comb_equivalent;
    use pfdbg_synth::{to_network as aig_to_network, Lit};

    fn random_logic(seed: u64, n_inputs: usize, n_ands: usize) -> Aig {
        // Deterministic pseudo-random AIG.
        let mut aig = Aig::new("rand");
        let mut lits: Vec<Lit> =
            (0..n_inputs).map(|i| aig.add_input(format!("i{i}"), false)).collect();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..n_ands {
            let a = lits[(next() as usize) % lits.len()];
            let b = lits[(next() as usize) % lits.len()];
            let a = if next() % 2 == 0 { a } else { a.not() };
            let b = if next() % 2 == 0 { b } else { b.not() };
            let y = aig.and(a, b);
            lits.push(y);
        }
        // Expose the last few as outputs.
        for (i, l) in lits.iter().rev().take(4).enumerate() {
            aig.add_output(format!("o{i}"), *l);
        }
        aig
    }

    #[test]
    fn simple_map_is_functionally_correct() {
        for seed in [3u64, 17, 99] {
            let aig = random_logic(seed, 8, 60);
            let mapping = simple_map(&aig, 4);
            let (nw, _) = mapping.to_network(&aig);
            nw.validate().unwrap();
            let golden = aig_to_network(&aig);
            assert!(comb_equivalent(&golden, &nw, 64, seed).unwrap(), "seed {seed} mismatch");
        }
    }

    #[test]
    fn simple_map_respects_k() {
        let aig = random_logic(5, 10, 120);
        for k in [2usize, 4, 6] {
            let mapping = simple_map(&aig, k);
            for e in &mapping.elements {
                assert!(e.leaves.len() <= k);
            }
        }
    }

    #[test]
    fn priority_cuts_not_worse_than_simple() {
        // The whole point of the baselines: ABC-style mapping should need
        // at most as many LUTs on sizeable circuits.
        let mut worse = 0;
        for seed in [1u64, 2, 3, 4, 5] {
            let aig = random_logic(seed, 12, 300);
            let simple = simple_map(&aig, 6);
            let abc = map(&aig, 6, MapperKind::PriorityCuts);
            if abc.lut_area() > simple.lut_area() {
                worse += 1;
            }
        }
        assert!(worse <= 1, "priority cuts lost to SimpleMap {worse}/5 times");
    }
}
