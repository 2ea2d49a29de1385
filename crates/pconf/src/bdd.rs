//! Reduced ordered binary decision diagrams over PConf parameters.
//!
//! A parameterized configuration expresses some bitstream bits as Boolean
//! functions of *parameters*. Those functions are stored as BDDs in a
//! shared manager: construction is hash-consed (canonical), so equality
//! is pointer equality, and evaluation — the operation the online
//! Specialized Configuration Generator performs per debugging turn — is
//! a short walk from the root to a terminal, independent of how the
//! function was built.

use pfdbg_util::{BitVec, FxHashMap};

/// A BDD reference (index into the manager's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant true function.
    pub const TRUE: Bdd = Bdd(1);

    /// Is this a terminal?
    pub fn is_const(self) -> bool {
        self.0 < 2
    }

    /// The node-table index backing this reference (for serialization —
    /// only meaningful together with the manager that produced it).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuild a reference from a node-table index previously obtained
    /// via [`Bdd::index`]. The caller is responsible for pairing it with
    /// a manager in which that index exists (deserializers validate
    /// this via [`BddManager::n_nodes`]).
    pub fn from_index(index: u32) -> Bdd {
        Bdd(index)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

/// The shared BDD manager. Variable order is the natural order of the
/// parameter indices (selector buses are allocated contiguously, which
/// keeps the mux-select functions linear in size).
#[derive(Debug, Default)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, Bdd, Bdd), Bdd>,
    and_cache: FxHashMap<(Bdd, Bdd), Bdd>,
    not_cache: FxHashMap<Bdd, Bdd>,
}

impl BddManager {
    /// A manager containing just the terminals.
    pub fn new() -> Self {
        let mut m = BddManager::default();
        // Terminals occupy slots 0 and 1 with a sentinel var.
        m.nodes.push(Node { var: u32::MAX, lo: Bdd::FALSE, hi: Bdd::FALSE });
        m.nodes.push(Node { var: u32::MAX, lo: Bdd::TRUE, hi: Bdd::TRUE });
        m
    }

    /// Number of live nodes (terminals included).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Export every decision node as `(var, lo, hi)` index triples,
    /// skipping the two terminals (slots 0 and 1). Together with
    /// [`Bdd::index`] this is the whole persistent state of a manager.
    pub fn export_nodes(&self) -> Vec<(u32, u32, u32)> {
        self.nodes.iter().skip(2).map(|n| (n.var, n.lo.0, n.hi.0)).collect()
    }

    /// Rebuild a manager from [`BddManager::export_nodes`] output.
    /// Validates the structural invariants a well-formed table obeys
    /// (children precede parents, no redundant or duplicate nodes), so a
    /// corrupted serialization cannot produce a manager that walks out
    /// of bounds or breaks canonicity.
    pub fn from_exported(nodes: &[(u32, u32, u32)]) -> Result<Self, String> {
        let mut m = BddManager::new();
        for (i, &(var, lo, hi)) in nodes.iter().enumerate() {
            let id = (i + 2) as u32;
            if var == u32::MAX {
                return Err(format!("BDD node {id} uses the terminal sentinel variable"));
            }
            if lo >= id || hi >= id {
                return Err(format!("BDD node {id} references a later node"));
            }
            if lo == hi {
                return Err(format!("BDD node {id} is redundant (lo == hi)"));
            }
            for child in [lo, hi] {
                if child >= 2 {
                    let cvar = m.nodes[child as usize].var;
                    if cvar <= var {
                        return Err(format!("BDD node {id} breaks variable order"));
                    }
                }
            }
            let (lo, hi) = (Bdd(lo), Bdd(hi));
            if m.unique.insert((var, lo, hi), Bdd(id)).is_some() {
                return Err(format!("BDD node {id} duplicates an earlier node"));
            }
            m.nodes.push(Node { var, lo, hi });
        }
        Ok(m)
    }

    /// A manager holding only the nodes reachable from `roots`, kept in
    /// their original relative order (so the table stays topological),
    /// and the roots remapped into it; terminal roots map to themselves.
    /// Construction leaves every intermediate (De Morgan negations,
    /// shard-merge products) in the table, and
    /// [`BddManager::eval_all_into`] sweeps the whole table, so a
    /// manager that only serves evaluation should hold just its live
    /// cone.
    pub(crate) fn compact(&self, roots: &[Bdd]) -> (BddManager, Vec<Bdd>) {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<Bdd> = roots.to_vec();
        while let Some(b) = stack.pop() {
            if b.is_const() || live[b.0 as usize] {
                continue;
            }
            live[b.0 as usize] = true;
            let n = self.node(b);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        let mut remap: Vec<u32> = (0..self.nodes.len() as u32).collect();
        let mut kept = Vec::new();
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            if live[i] {
                remap[i] = kept.len() as u32 + 2;
                kept.push((n.var, remap[n.lo.0 as usize], remap[n.hi.0 as usize]));
            }
        }
        let m = BddManager::from_exported(&kept)
            .expect("the live cone of a well-formed table is well-formed");
        (m, roots.iter().map(|r| Bdd(remap[r.0 as usize])).collect())
    }

    /// Merge another manager's exported node table
    /// ([`BddManager::export_nodes`]) into this one, hash-consing along
    /// the way. Returns the translation table: entry `i` is the [`Bdd`]
    /// in `self` for index `i` in the source manager (terminals at 0
    /// and 1), so any root exported as [`Bdd::index`] can be remapped
    /// with `trans[idx as usize]`.
    ///
    /// Because `mk` dedupes against the unique table, importing shards
    /// whose node sets union to a serial manager's node set — in the
    /// same shard order at every thread count — reproduces the serial
    /// manager's node table exactly.
    pub fn import_nodes(&mut self, nodes: &[(u32, u32, u32)]) -> Vec<Bdd> {
        let mut trans = Vec::with_capacity(nodes.len() + 2);
        trans.push(Bdd::FALSE);
        trans.push(Bdd::TRUE);
        for &(var, lo, hi) in nodes {
            let (lo, hi) = (trans[lo as usize], trans[hi as usize]);
            trans.push(self.mk(var, lo, hi));
        }
        trans
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        if let Some(&n) = self.unique.get(&(var, lo, hi)) {
            return n;
        }
        let id = Bdd(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    /// The single-variable function `p_var`.
    pub fn var(&mut self, var: u32) -> Bdd {
        self.mk(var, Bdd::FALSE, Bdd::TRUE)
    }

    /// Constant.
    pub fn constant(&self, v: bool) -> Bdd {
        if v {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    fn node(&self, b: Bdd) -> Node {
        self.nodes[b.0 as usize]
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        if f == Bdd::FALSE {
            return Bdd::TRUE;
        }
        if f == Bdd::TRUE {
            return Bdd::FALSE;
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let n = self.node(f);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(f, r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == Bdd::FALSE || g == Bdd::FALSE {
            return Bdd::FALSE;
        }
        if f == Bdd::TRUE {
            return g;
        }
        if g == Bdd::TRUE || f == g {
            return f;
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = self.and_cache.get(&key) {
            return r;
        }
        let nf = self.node(f);
        let ng = self.node(g);
        let var = nf.var.min(ng.var);
        let (f0, f1) = if nf.var == var { (nf.lo, nf.hi) } else { (f, f) };
        let (g0, g1) = if ng.var == var { (ng.lo, ng.hi) } else { (g, g) };
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = self.mk(var, lo, hi);
        self.and_cache.insert(key, r);
        r
    }

    /// Disjunction (De Morgan).
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let nf = self.not(f);
        let ng = self.not(g);
        let a = self.and(nf, ng);
        self.not(a)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        let nf = self.not(f);
        let a = self.and(f, ng);
        let b = self.and(nf, g);
        self.or(a, b)
    }

    /// If-then-else.
    pub fn ite(&mut self, c: Bdd, t: Bdd, e: Bdd) -> Bdd {
        let nc = self.not(c);
        let a = self.and(c, t);
        let b = self.and(nc, e);
        self.or(a, b)
    }

    /// The conjunction of literals selecting exactly `value` on the
    /// variable bus `vars` (a minterm — the workhorse for mux selects:
    /// "this switch is on iff the selector equals k").
    pub fn minterm(&mut self, vars: &[u32], value: usize) -> Bdd {
        let mut acc = Bdd::TRUE;
        // Build bottom-up in reverse variable order for linear size.
        for (i, &v) in vars.iter().enumerate().rev() {
            let lit = self.var(v);
            let lit = if (value >> i) & 1 == 1 { lit } else { self.not(lit) };
            acc = self.and(lit, acc);
        }
        acc
    }

    /// Evaluate under a parameter assignment (`assignment.get(var)`).
    /// This is the SCG's inner loop: a root-to-terminal walk.
    #[inline]
    pub fn eval(&self, f: Bdd, assignment: &BitVec) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            cur = if assignment.get(n.var as usize) { n.hi } else { n.lo };
        }
        cur == Bdd::TRUE
    }

    /// Evaluate **every** node in the table under one assignment in a
    /// single linear sweep, writing node `i`'s value (0 or 1) to
    /// `values[i]`.
    ///
    /// The node table is topological by construction (`mk` pushes a node
    /// only after both children exist, and `from_exported` rejects
    /// forward references), so one pass in index order visits children
    /// before parents. For a fixed parameter vector this costs each
    /// shared node exactly once, versus [`BddManager::eval`] re-walking
    /// the DAG from every root — the memoized batch evaluator the
    /// per-turn SCG hot path uses. After the sweep, any root's value is
    /// `values[f.index()]` (see [`BddManager::value_of`]).
    ///
    /// Each node is a mask select, `values[i] = values[if p[var] { hi }
    /// else { lo }]`, with the child picked by masking rather than by a
    /// branch: a parameter bit is as likely 0 as 1, so a branch per node
    /// would mispredict about half the time. A byte per node keeps the
    /// store a plain write instead of a read-modify-write of a packed
    /// word. `values` keeps its length between sweeps of one manager, so
    /// a reused buffer is never reallocated or cleared.
    ///
    /// The sweep visits every node in the table, reachable or not, which
    /// is why [`crate::Scg::new`] compacts its manager to the live cone
    /// of the tunable functions first: on diffeq1 at paper
    /// instrumentation that is 4,231 nodes (terminals included) out of
    /// the 26,222 the offline flow builds.
    pub fn eval_all_into(&self, assignment: &BitVec, values: &mut Vec<u8>) {
        let params = assignment.words();
        values.resize(self.nodes.len(), 0);
        values[Bdd::FALSE.0 as usize] = 0;
        values[Bdd::TRUE.0 as usize] = 1;
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            let bit = (params[n.var as usize / 64] >> (n.var % 64)) as u32 & 1;
            let child = n.lo.0 ^ ((n.lo.0 ^ n.hi.0) & bit.wrapping_neg());
            values[i] = values[child as usize];
        }
    }

    /// Look up a root's value in a buffer filled by
    /// [`BddManager::eval_all_into`] for the same assignment.
    #[inline]
    pub fn value_of(&self, f: Bdd, values: &[u8]) -> bool {
        values[f.0 as usize] != 0
    }

    /// Number of decision nodes reachable from `f` (size of the function).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen: std::collections::HashSet<Bdd> = Default::default();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b) {
                continue;
            }
            count += 1;
            let n = self.node(b);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assignment(bits: &[bool]) -> BitVec {
        bits.iter().copied().collect()
    }

    #[test]
    fn terminals_and_vars() {
        let mut m = BddManager::new();
        let p0 = m.var(0);
        assert!(!m.eval(p0, &assignment(&[false])));
        assert!(m.eval(p0, &assignment(&[true])));
        assert!(m.eval(Bdd::TRUE, &assignment(&[false])));
        assert!(!m.eval(Bdd::FALSE, &assignment(&[false])));
    }

    #[test]
    fn hash_consing_canonicalizes() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab1 = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab1, ba);
        let n_before = m.n_nodes();
        let _again = m.and(a, b);
        assert_eq!(m.n_nodes(), n_before, "no new nodes for a cached op");
    }

    #[test]
    fn boolean_algebra() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let na = m.not(a);
        assert_eq!(m.and(a, na), Bdd::FALSE);
        assert_eq!(m.or(a, na), Bdd::TRUE);
        assert_eq!(m.xor(a, a), Bdd::FALSE);
        let orab = m.or(a, b);
        let not_orab = m.not(orab);
        let nb = m.not(b);
        let demorgan = m.and(na, nb);
        assert_eq!(not_orab, demorgan);
        // Double negation.
        assert_eq!(m.not(na), a);
    }

    #[test]
    fn ite_matches_mux() {
        let mut m = BddManager::new();
        let c = m.var(0);
        let t = m.var(1);
        let e = m.var(2);
        let f = m.ite(c, t, e);
        for bits in 0..8u32 {
            let asg = assignment(&[bits & 1 == 1, bits & 2 == 2, bits & 4 == 4]);
            let expect = if bits & 1 == 1 { bits & 2 == 2 } else { bits & 4 == 4 };
            assert_eq!(m.eval(f, &asg), expect, "bits={bits:03b}");
        }
    }

    #[test]
    fn minterm_selects_exact_value() {
        let mut m = BddManager::new();
        let bus = [0u32, 1, 2];
        let f = m.minterm(&bus, 5); // 0b101: p0=1, p1=0, p2=1
        for v in 0..8usize {
            let asg = assignment(&[v & 1 == 1, v & 2 == 2, v & 4 == 4]);
            assert_eq!(m.eval(f, &asg), v == 5, "v={v}");
        }
        // Linear size.
        assert_eq!(m.size(f), 3);
    }

    #[test]
    fn export_import_preserves_functions() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.ite(ab, c, b);
        let back = BddManager::from_exported(&m.export_nodes()).unwrap();
        assert_eq!(back.n_nodes(), m.n_nodes());
        for bits in 0..8u32 {
            let asg = assignment(&[bits & 1 == 1, bits & 2 == 2, bits & 4 == 4]);
            assert_eq!(back.eval(f, &asg), m.eval(f, &asg), "bits={bits:03b}");
        }
        // The rebuilt unique table keeps hash-consing canonical: the
        // same construction lands on the same indices.
        let mut back = back;
        let a2 = back.var(0);
        let b2 = back.var(1);
        assert_eq!(back.and(a2, b2), ab);
    }

    #[test]
    fn import_nodes_merges_and_dedupes() {
        // Two shard managers build overlapping functions; importing both
        // into one manager dedupes shared structure and preserves
        // semantics through the translation tables.
        let mut s1 = BddManager::new();
        let a1 = s1.var(0);
        let b1 = s1.var(1);
        let f1 = s1.and(a1, b1);
        let mut s2 = BddManager::new();
        let a2 = s2.var(0);
        let b2 = s2.var(1);
        let g2 = s2.or(a2, b2);
        let h2 = s2.and(a2, b2); // same function as shard 1's f1

        let mut merged = BddManager::new();
        let t1 = merged.import_nodes(&s1.export_nodes());
        let t2 = merged.import_nodes(&s2.export_nodes());
        let f = t1[f1.index() as usize];
        let g = t2[g2.index() as usize];
        let h = t2[h2.index() as usize];
        assert_eq!(f, h, "identical functions from different shards must unify");
        for bits in 0..4u32 {
            let asg = assignment(&[bits & 1 == 1, bits & 2 == 2]);
            assert_eq!(merged.eval(f, &asg), s1.eval(f1, &asg));
            assert_eq!(merged.eval(g, &asg), s2.eval(g2, &asg));
        }
        // Merging into a fresh manager in the same order reproduces the
        // same node table (canonical internal ids).
        let mut merged2 = BddManager::new();
        merged2.import_nodes(&s1.export_nodes());
        merged2.import_nodes(&s2.export_nodes());
        assert_eq!(merged2.export_nodes(), merged.export_nodes());
    }

    #[test]
    fn from_exported_rejects_corruption() {
        // Forward reference.
        assert!(BddManager::from_exported(&[(0, 1, 5)]).is_err());
        // Redundant node.
        assert!(BddManager::from_exported(&[(0, 1, 1)]).is_err());
        // Variable order violation: parent var not above child var.
        assert!(BddManager::from_exported(&[(3, 0, 1), (3, 0, 2)]).is_err());
        // Duplicate node.
        assert!(BddManager::from_exported(&[(0, 0, 1), (0, 0, 1)]).is_err());
        // Terminal sentinel as a variable.
        assert!(BddManager::from_exported(&[(u32::MAX, 0, 1)]).is_err());
    }

    #[test]
    fn eval_all_matches_eval_exhaustively() {
        // A manager holding a mix of shared functions over 4 variables;
        // the batch sweep must agree with the root-to-terminal walk for
        // every node (not just roots) under every assignment.
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|v| m.var(v)).collect();
        let ab = m.and(vars[0], vars[1]);
        let cd = m.or(vars[2], vars[3]);
        let x = m.xor(ab, cd);
        let _ = m.ite(x, ab, cd);
        let _ = m.minterm(&[0, 1, 2, 3], 11);
        let mut values = Vec::new();
        for bits in 0..16u32 {
            let asg = assignment(&[bits & 1 == 1, bits & 2 == 2, bits & 4 == 4, bits & 8 == 8]);
            m.eval_all_into(&asg, &mut values);
            for i in 0..m.n_nodes() as u32 {
                let f = Bdd::from_index(i);
                assert_eq!(
                    m.value_of(f, &values),
                    m.eval(f, &asg),
                    "node {i} under bits={bits:04b}"
                );
            }
        }
    }

    /// Random functions over variables `0..n_vars` (and/or/xor/not
    /// steps); the even ones are the roots, next to both terminals. Each
    /// odd one is conjoined with variable `n_vars`, which no root
    /// depends on, so the table is padded with nodes no root reaches,
    /// interleaved with the live ones.
    fn padded_roots(n_vars: u32, n_funcs: usize, seed: u64) -> (BddManager, Vec<Bdd>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut m = BddManager::new();
        let mut roots = vec![Bdd::TRUE, Bdd::FALSE];
        for i in 0..n_funcs {
            let mut f = m.var((next() % n_vars as u64) as u32);
            for _ in 0..next() % 5 {
                let v = m.var((next() % n_vars as u64) as u32);
                f = match next() % 4 {
                    0 => m.and(f, v),
                    1 => m.or(f, v),
                    2 => m.xor(f, v),
                    _ => m.not(f),
                };
            }
            if i % 2 == 0 {
                roots.push(f);
            } else {
                let pad = m.var(n_vars);
                m.and(f, pad);
            }
        }
        (m, roots)
    }

    /// Decision nodes reachable from `roots`.
    fn reachable(m: &BddManager, roots: &[Bdd]) -> std::collections::BTreeSet<Bdd> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = roots.to_vec();
        while let Some(b) = stack.pop() {
            if !b.is_const() && seen.insert(b) {
                let n = m.node(b);
                stack.extend([n.lo, n.hi]);
            }
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn compact_keeps_exactly_the_live_cone(
            n_vars in 1u32..6,
            n_funcs in 2usize..24,
            seed in any::<u64>(),
        ) {
            let (m, roots) = padded_roots(n_vars, n_funcs, seed);
            let live = reachable(&m, &roots);
            let (c, croots) = m.compact(&roots);
            prop_assert!(m.n_nodes() > c.n_nodes(), "padding must be dropped");
            prop_assert_eq!(c.n_nodes(), live.len() + 2);
            // Kept in their original relative order (`live` is sorted by
            // index).
            let vars: Vec<u32> = c.export_nodes().iter().map(|&(var, _, _)| var).collect();
            prop_assert_eq!(vars, live.iter().map(|&b| m.node(b).var).collect::<Vec<_>>());
            prop_assert!(BddManager::from_exported(&c.export_nodes()).is_ok());
            prop_assert_eq!(croots[0], Bdd::TRUE);
            prop_assert_eq!(croots[1], Bdd::FALSE);
            let mut values = Vec::new();
            for bits in 0..1u32 << (n_vars + 1) {
                let asg: BitVec = (0..=n_vars).map(|v| (bits >> v) & 1 == 1).collect();
                c.eval_all_into(&asg, &mut values);
                for (&r, &cr) in roots.iter().zip(&croots) {
                    let want = m.eval(r, &asg);
                    prop_assert_eq!(c.eval(cr, &asg), want, "eval of {:?} at {:b}", r, bits);
                    prop_assert_eq!(c.value_of(cr, &values), want, "sweep of {:?} at {:b}", r, bits);
                }
            }
            let (again, again_roots) = c.compact(&croots);
            prop_assert_eq!(again.export_nodes(), c.export_nodes());
            prop_assert_eq!(again_roots, croots);
        }
    }

    #[test]
    fn exhaustive_equivalence_small() {
        // (a & b) | (!a & c) via two different constructions.
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f1 = m.ite(a, b, c);
        let ab = m.and(a, b);
        let na = m.not(a);
        let nac = m.and(na, c);
        let f2 = m.or(ab, nac);
        assert_eq!(f1, f2, "canonical forms must coincide");
    }
}
