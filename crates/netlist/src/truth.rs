//! Truth tables for logic functions of up to [`MAX_VARS`] variables.
//!
//! A truth table over `n` variables stores `2^n` output bits, packed into
//! `u64` words exactly as ABC does: bit `i` of the table is the function
//! value on the input assignment whose binary encoding is `i` (variable 0
//! is the least significant input). For `n <= 6` everything fits in one
//! word, which is the hot path for K-LUT mapping.

use std::fmt;

/// Maximum supported number of variables (64 Ki rows — plenty for K-LUT
/// mapping and for the mux primitives used by the debug instrumentation).
pub const MAX_VARS: usize = 16;

/// Precomputed single-variable patterns within a 64-bit word for vars 0..6.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A complete truth table over a fixed number of variables.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    nvars: u8,
    /// `max(1, 2^nvars / 64)` words; rows beyond `2^nvars` are kept zero
    /// in the sub-word case by masking.
    words: Vec<u64>,
}

impl TruthTable {
    fn n_words(nvars: usize) -> usize {
        if nvars <= 6 {
            1
        } else {
            1 << (nvars - 6)
        }
    }

    /// Mask selecting the valid rows of a sub-word table.
    fn word_mask(nvars: usize) -> u64 {
        if nvars >= 6 {
            !0
        } else {
            (1u64 << (1 << nvars)) - 1
        }
    }

    /// The constant-0 function of `nvars` variables.
    pub fn const0(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "truth table too wide: {nvars}");
        TruthTable { nvars: nvars as u8, words: vec![0; Self::n_words(nvars)] }
    }

    /// The constant-1 function of `nvars` variables.
    pub fn const1(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "truth table too wide: {nvars}");
        let mut words = vec![!0u64; Self::n_words(nvars)];
        words[0] &= Self::word_mask(nvars);
        if nvars < 6 {
            // only one word; mask applied above
        }
        TruthTable { nvars: nvars as u8, words }
    }

    /// The projection function `x_i` over `nvars` variables.
    pub fn var(nvars: usize, i: usize) -> Self {
        assert!(nvars <= MAX_VARS, "truth table too wide: {nvars}");
        assert!(i < nvars, "variable {i} out of range for {nvars} vars");
        let mut t = Self::const0(nvars);
        if i < 6 {
            let pat = VAR_MASKS[i] & Self::word_mask(nvars);
            for w in &mut t.words {
                *w = pat;
            }
            if nvars < 6 {
                t.words[0] = VAR_MASKS[i] & Self::word_mask(nvars);
            }
        } else {
            // Variable selects whole words: word w corresponds to row base
            // w*64; bit (i) of the row index lives in bit (i-6) of w.
            for (w, word) in t.words.iter_mut().enumerate() {
                if (w >> (i - 6)) & 1 == 1 {
                    *word = !0;
                }
            }
        }
        t
    }

    /// Build from explicit row values, LSB row first. `bits.len()` must be
    /// `2^nvars`.
    pub fn from_bits(nvars: usize, bits: &[bool]) -> Self {
        assert!(nvars <= MAX_VARS);
        assert_eq!(bits.len(), 1usize << nvars, "row count mismatch");
        let mut t = Self::const0(nvars);
        for (row, &b) in bits.iter().enumerate() {
            if b {
                t.words[row / 64] |= 1 << (row % 64);
            }
        }
        t
    }

    /// Set every row of a cube to `value`. The cube holds one literal
    /// per variable: `Some(true)`, `Some(false)` or don't care. Literals
    /// of variables 0..6 select rows within a word, the rest select
    /// whole words, so no table is built for the cube.
    pub(crate) fn assign_cube(&mut self, cube: &[Option<bool>], value: bool) {
        assert_eq!(cube.len(), self.nvars(), "cube arity mismatch");
        // Rows of a word the cube holds, and the word-index bits its
        // literals of variables 6.. fix.
        let mut rows = Self::word_mask(self.nvars());
        let (mut fixed_bits, mut fixed) = (0usize, 0usize);
        for (i, lit) in cube.iter().enumerate() {
            match (*lit, i) {
                (None, _) => {}
                (Some(v), 0..=5) => rows &= if v { VAR_MASKS[i] } else { !VAR_MASKS[i] },
                (Some(v), _) => {
                    fixed_bits |= 1 << (i - 6);
                    fixed |= (v as usize) << (i - 6);
                }
            }
        }
        // Every word whose index agrees with `fixed`: each subset of the
        // free index bits, in increasing order.
        let free = (self.words.len() - 1) & !fixed_bits;
        let mut subset = 0usize;
        loop {
            let word = &mut self.words[fixed | subset];
            if value {
                *word |= rows;
            } else {
                *word &= !rows;
            }
            if subset == free {
                break;
            }
            subset = subset.wrapping_sub(free) & free;
        }
    }

    /// Build a `<=6`-variable table directly from a packed word.
    pub fn from_word(nvars: usize, word: u64) -> Self {
        assert!(nvars <= 6, "from_word only supports <=6 vars");
        TruthTable { nvars: nvars as u8, words: vec![word & Self::word_mask(nvars)] }
    }

    /// Number of variables.
    #[inline]
    pub fn nvars(&self) -> usize {
        self.nvars as usize
    }

    /// Number of rows (`2^nvars`).
    #[inline]
    pub fn n_rows(&self) -> usize {
        1usize << self.nvars
    }

    /// The function value on the row whose binary encoding is `row`.
    #[inline]
    pub fn bit(&self, row: usize) -> bool {
        debug_assert!(row < self.n_rows());
        (self.words[row / 64] >> (row % 64)) & 1 == 1
    }

    /// Evaluate on an input assignment given LSB-first.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.nvars(), "input arity mismatch");
        let mut row = 0usize;
        for (i, &b) in inputs.iter().enumerate() {
            if b {
                row |= 1 << i;
            }
        }
        self.bit(row)
    }

    /// Is this the constant-0 function?
    pub fn is_const0(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Is this the constant-1 function?
    pub fn is_const1(&self) -> bool {
        let mask = Self::word_mask(self.nvars());
        self.words[0] & mask == mask && self.words[1..].iter().all(|&w| w == !0)
    }

    /// Number of rows on which the function is 1.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Complement, in place.
    pub fn not_inplace(&mut self) {
        let mask = Self::word_mask(self.nvars());
        self.words[0] = !self.words[0] & mask;
        for w in &mut self.words[1..] {
            *w = !*w;
        }
    }

    /// Complement.
    pub fn not(&self) -> Self {
        let mut t = self.clone();
        t.not_inplace();
        t
    }

    fn binary(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.nvars, other.nvars, "arity mismatch in binary op");
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect::<Vec<_>>();
        let mut t = TruthTable { nvars: self.nvars, words };
        t.words[0] &= Self::word_mask(self.nvars());
        t
    }

    /// Conjunction.
    pub fn and(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a & b)
    }

    /// Disjunction.
    pub fn or(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a | b)
    }

    /// Exclusive or.
    pub fn xor(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a ^ b)
    }

    /// 2:1 multiplexer `sel ? t1 : t0` (all three over the same variables).
    pub fn mux(sel: &Self, t1: &Self, t0: &Self) -> Self {
        sel.and(t1).or(&sel.not().and(t0))
    }

    /// Positive cofactor with respect to variable `i` (`x_i := 1`),
    /// keeping the same arity (the result no longer depends on `x_i`).
    pub fn cofactor1(&self, i: usize) -> Self {
        assert!(i < self.nvars());
        let mut t = self.clone();
        if i < 6 {
            let shift = 1usize << i;
            for w in &mut t.words {
                let hi = *w & VAR_MASKS[i];
                *w = hi | (hi >> shift);
            }
        } else {
            let block = 1usize << (i - 6);
            let n = t.words.len();
            let mut w = 0;
            while w < n {
                for k in 0..block {
                    t.words[w + k] = t.words[w + k + block];
                }
                w += 2 * block;
            }
        }
        t.words[0] &= Self::word_mask(self.nvars());
        t
    }

    /// Negative cofactor with respect to variable `i` (`x_i := 0`).
    pub fn cofactor0(&self, i: usize) -> Self {
        assert!(i < self.nvars());
        let mut t = self.clone();
        if i < 6 {
            let shift = 1usize << i;
            for w in &mut t.words {
                let lo = *w & !VAR_MASKS[i];
                *w = lo | (lo << shift);
            }
        } else {
            let block = 1usize << (i - 6);
            let n = t.words.len();
            let mut w = 0;
            while w < n {
                for k in 0..block {
                    t.words[w + k + block] = t.words[w + k];
                }
                w += 2 * block;
            }
        }
        t.words[0] &= Self::word_mask(self.nvars());
        t
    }

    /// Invert variable `i`: the result reads `NOT x_i` where the original
    /// read `x_i` (i.e. `g(.., x_i, ..) = f(.., !x_i, ..)`).
    pub fn flip_var(&self, i: usize) -> Self {
        assert!(i < self.nvars());
        let mut t = self.clone();
        if i < 6 {
            let shift = 1usize << i;
            let mask = VAR_MASKS[i];
            for w in &mut t.words {
                *w = ((*w & mask) >> shift) | ((*w & !mask) << shift);
            }
            t.words[0] &= Self::word_mask(self.nvars());
        } else {
            let block = 1usize << (i - 6);
            let n = t.words.len();
            let mut w = 0;
            while w < n {
                for k in 0..block {
                    t.words.swap(w + k, w + k + block);
                }
                w += 2 * block;
            }
        }
        t
    }

    /// Does the function actually depend on variable `i`?
    pub fn depends_on(&self, i: usize) -> bool {
        self.cofactor0(i) != self.cofactor1(i)
    }

    /// The set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.nvars()).filter(|&i| self.depends_on(i)).collect()
    }

    /// Substitute constant `value` for variable `i` and *remove* the
    /// variable, producing a table over `nvars-1` variables (the remaining
    /// variables keep their relative order).
    pub fn restrict(&self, i: usize, value: bool) -> Self {
        assert!(i < self.nvars());
        let n = self.nvars();
        let mut bits = Vec::with_capacity(1 << (n - 1));
        for row in 0..(1usize << (n - 1)) {
            // Expand `row` (over n-1 vars) into a row over n vars with
            // x_i = value.
            let low = row & ((1 << i) - 1);
            let high = (row >> i) << (i + 1);
            let full = low | high | ((value as usize) << i);
            bits.push(self.bit(full));
        }
        Self::from_bits(n - 1, &bits)
    }

    /// Permute variables: `perm[new_index] = old_index`. The result reads
    /// its `k`-th input where the original read input `perm[k]`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.nvars(), "permutation arity mismatch");
        let n = self.nvars();
        let mut bits = Vec::with_capacity(1 << n);
        for row in 0..(1usize << n) {
            let mut orig_row = 0usize;
            for (new_i, &old_i) in perm.iter().enumerate() {
                if (row >> new_i) & 1 == 1 {
                    orig_row |= 1 << old_i;
                }
            }
            bits.push(self.bit(orig_row));
        }
        Self::from_bits(n, &bits)
    }

    /// Extend to `new_nvars` variables by adding (ignored) variables at the
    /// top. Panics if `new_nvars < nvars`.
    pub fn extend_to(&self, new_nvars: usize) -> Self {
        assert!(new_nvars >= self.nvars(), "cannot shrink with extend_to");
        assert!(new_nvars <= MAX_VARS);
        if new_nvars == self.nvars() {
            return self.clone();
        }
        let mut bits = Vec::with_capacity(1 << new_nvars);
        let low_rows = self.n_rows();
        for row in 0..(1usize << new_nvars) {
            bits.push(self.bit(row % low_rows));
        }
        Self::from_bits(new_nvars, &bits)
    }

    /// Remove variables the function does not depend on, returning the
    /// compacted table and, for each remaining position, the original
    /// variable index.
    pub fn shrink_support(&self) -> (Self, Vec<usize>) {
        let support = self.support();
        let mut t = self.clone();
        // Remove non-support vars from the top down so indices stay valid.
        for i in (0..self.nvars()).rev() {
            if !support.contains(&i) {
                t = t.restrict(i, false);
            }
        }
        (t, support)
    }

    /// The packed word of a `<=6`-variable table.
    pub fn as_word(&self) -> u64 {
        assert!(self.nvars() <= 6, "as_word requires <=6 vars");
        self.words[0]
    }

    /// Backing words (LSB rows first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({}v:", self.nvars)?;
        // MSB row first, like conventional truth-table constants.
        for row in (0..self.n_rows()).rev() {
            write!(f, "{}", if self.bit(row) { '1' } else { '0' })?;
        }
        write!(f, ")")
    }
}

/// Common 2-input gate tables, used by the synthetic circuit generators
/// and the BLIF parser's gate shorthands.
pub mod gates {
    use super::TruthTable;

    /// 2-input AND.
    pub fn and2() -> TruthTable {
        TruthTable::from_word(2, 0b1000)
    }
    /// 2-input OR.
    pub fn or2() -> TruthTable {
        TruthTable::from_word(2, 0b1110)
    }
    /// 2-input XOR.
    pub fn xor2() -> TruthTable {
        TruthTable::from_word(2, 0b0110)
    }
    /// 2-input NAND.
    pub fn nand2() -> TruthTable {
        TruthTable::from_word(2, 0b0111)
    }
    /// 2-input NOR.
    pub fn nor2() -> TruthTable {
        TruthTable::from_word(2, 0b0001)
    }
    /// 2-input XNOR.
    pub fn xnor2() -> TruthTable {
        TruthTable::from_word(2, 0b1001)
    }
    /// Inverter.
    pub fn not1() -> TruthTable {
        TruthTable::from_word(1, 0b01)
    }
    /// Buffer.
    pub fn buf1() -> TruthTable {
        TruthTable::from_word(1, 0b10)
    }
    /// 2:1 mux — inputs ordered (d0, d1, sel): output = sel ? d1 : d0.
    pub fn mux21() -> TruthTable {
        let d0 = TruthTable::var(3, 0);
        let d1 = TruthTable::var(3, 1);
        let sel = TruthTable::var(3, 2);
        TruthTable::mux(&sel, &d1, &d0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        for n in 0..=8 {
            let c0 = TruthTable::const0(n);
            let c1 = TruthTable::const1(n);
            assert!(c0.is_const0());
            assert!(c1.is_const1());
            assert!(!c0.is_const1() || n == usize::MAX);
            assert_eq!(c0.count_ones(), 0);
            assert_eq!(c1.count_ones(), 1 << n);
        }
    }

    #[test]
    fn var_projection_all_widths() {
        for n in 1..=9 {
            for i in 0..n {
                let v = TruthTable::var(n, i);
                for row in 0..(1usize << n) {
                    assert_eq!(v.bit(row), (row >> i) & 1 == 1, "n={n} i={i} row={row}");
                }
            }
        }
    }

    #[test]
    fn eval_matches_bit() {
        let t = gates::xor2();
        assert!(!t.eval(&[false, false]));
        assert!(t.eval(&[true, false]));
        assert!(t.eval(&[false, true]));
        assert!(!t.eval(&[true, true]));
    }

    #[test]
    fn boolean_ops() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let ab = a.and(&b);
        for row in 0..8 {
            assert_eq!(ab.bit(row), (row & 1 == 1) && (row & 2 == 2));
        }
        assert_eq!(a.not().not(), a);
        assert_eq!(a.xor(&a), TruthTable::const0(3));
        assert_eq!(a.or(&a.not()), TruthTable::const1(3));
    }

    #[test]
    fn mux_gate_semantics() {
        let m = gates::mux21();
        // inputs (d0, d1, sel)
        assert!(!m.eval(&[false, true, false])); // sel=0 -> d0
        assert!(m.eval(&[true, false, false]));
        assert!(!m.eval(&[true, false, true])); // sel=1 -> d1
        assert!(m.eval(&[false, true, true]));
    }

    #[test]
    fn cofactors_small_and_large() {
        for n in [3usize, 7, 8] {
            for i in 0..n {
                let v = TruthTable::var(n, i);
                assert!(v.cofactor1(i).is_const1(), "n={n} i={i}");
                assert!(v.cofactor0(i).is_const0(), "n={n} i={i}");
                // Cofactoring an independent variable is a no-op.
                let j = (i + 1) % n;
                assert_eq!(v.cofactor1(j), v);
                assert_eq!(v.cofactor0(j), v);
            }
        }
    }

    #[test]
    fn flip_var_inverts_one_input() {
        for n in [2usize, 3, 7] {
            for i in 0..n {
                let f = TruthTable::var(n, i).and(&TruthTable::var(n, (i + 1) % n));
                let g = f.flip_var(i);
                for row in 0..(1usize << n) {
                    assert_eq!(g.bit(row), f.bit(row ^ (1 << i)), "n={n} i={i} row={row}");
                }
                assert_eq!(g.flip_var(i), f, "double flip is identity");
            }
        }
    }

    #[test]
    fn support_detection() {
        let a = TruthTable::var(5, 0);
        let c = TruthTable::var(5, 2);
        let f = a.xor(&c);
        assert_eq!(f.support(), vec![0, 2]);
        assert!(f.depends_on(0));
        assert!(!f.depends_on(1));
    }

    #[test]
    fn restrict_removes_variable() {
        // f = x0 XOR x1; restrict x0 := 1 gives NOT x0 over 1 var.
        let f = TruthTable::var(2, 0).xor(&TruthTable::var(2, 1));
        let g = f.restrict(0, true);
        assert_eq!(g.nvars(), 1);
        assert!(g.eval(&[false]));
        assert!(!g.eval(&[true]));
    }

    #[test]
    fn restrict_middle_variable() {
        // f = mux(sel=x2; x1, x0). restrict x1 := 1 -> over (x0, sel):
        // sel ? 1 : x0.
        let f = gates::mux21();
        let g = f.restrict(1, true);
        assert_eq!(g.nvars(), 2);
        assert!(g.eval(&[false, true]));
        assert!(!g.eval(&[false, false]));
        assert!(g.eval(&[true, false]));
    }

    #[test]
    fn permute_swaps_inputs() {
        // f(x0,x1) = x0 AND NOT x1. After swapping, g(x0,x1)=x1 AND NOT x0.
        let f = TruthTable::var(2, 0).and(&TruthTable::var(2, 1).not());
        let g = f.permute(&[1, 0]);
        assert!(g.eval(&[false, true]));
        assert!(!g.eval(&[true, false]));
    }

    #[test]
    fn extend_ignores_new_vars() {
        let f = gates::and2();
        let g = f.extend_to(4);
        for row in 0..16 {
            let bits = [row & 1 == 1, row & 2 == 2, row & 4 == 4, row & 8 == 8];
            assert_eq!(g.eval(&bits), f.eval(&bits[..2]));
        }
    }

    #[test]
    fn shrink_support_compacts() {
        // Depend only on x0 and x3 of 5 vars.
        let f = TruthTable::var(5, 0).and(&TruthTable::var(5, 3));
        let (g, support) = f.shrink_support();
        assert_eq!(support, vec![0, 3]);
        assert_eq!(g.nvars(), 2);
        assert_eq!(g, gates::and2());
    }

    #[test]
    fn cofactor_structural_identity() {
        // Shannon expansion must reconstruct the function (n=7 exercises
        // the multi-word path).
        let f = TruthTable::var(7, 6).xor(&TruthTable::var(7, 2).and(&TruthTable::var(7, 5)));
        for i in 0..7 {
            let hi = f.cofactor1(i);
            let lo = f.cofactor0(i);
            let v = TruthTable::var(7, i);
            let rebuilt = v.and(&hi).or(&v.not().and(&lo));
            assert_eq!(rebuilt, f, "Shannon expansion failed on var {i}");
        }
    }
}
