//! BLIF (Berkeley Logic Interchange Format) reader and writer.
//!
//! The subset implemented is what the VTR / ISCAS89 benchmark files use:
//! `.model`, `.inputs`, `.outputs`, `.names` with a sum-of-products cover
//! (including `-` don't-cares), `.latch` (with optional type/control and
//! init value) and `.end`. Line continuation with `\` is supported.
//! Hierarchy (`.subckt`), library gates (`.gate`, `.mlatch`), external
//! don't-care networks (`.exdc`) and KISS state machines are rejected;
//! other dot directives (yosys's `.cname`, `.attr`, `.param`, timing
//! annotations) are skipped. Any input is read or rejected with a
//! [`BlifError`], never a panic.
//!
//! `.names` with a cover whose output column is `0` (an OFF-set cover) is
//! also handled, as are constant nodes (a `.names` with no inputs).

use crate::network::{Network, NodeId, NodeKind};
use crate::truth::{TruthTable, MAX_VARS};
use pfdbg_util::{FxHashMap, FxHashSet};
use std::fmt::Write as _;

/// A BLIF parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlifError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for BlifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BLIF error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BlifError {}

fn err(line: usize, message: impl Into<String>) -> BlifError {
    BlifError { line, message: message.into() }
}

/// One `.names` cover row: input pattern (`0`/`1`/`-` per input) and the
/// output value.
struct CoverRow {
    pattern: Vec<Option<bool>>,
    output: bool,
}

struct PendingNames {
    line: usize,
    signals: Vec<String>,
    rows: Vec<CoverRow>,
}

struct PendingLatch {
    line: usize,
    input: String,
    output: String,
    init: bool,
}

/// Parse a BLIF document into a [`Network`].
///
/// Only the first `.model` in the file is read (hierarchical BLIF with
/// `.subckt` is not part of the benchmark subset and is rejected).
pub fn parse(text: &str) -> Result<Network, BlifError> {
    // Join continuation lines, remembering the original line number of the
    // start of each logical line.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let no_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let mut piece = no_comment.trim_end().to_string();
        let continued = piece.ends_with('\\');
        if continued {
            piece.pop();
        }
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(piece.trim_start());
                if continued {
                    pending = Some((start, acc));
                } else {
                    logical.push((start, acc));
                }
            }
            None => {
                if continued {
                    pending = Some((lineno, piece));
                } else if !piece.trim().is_empty() {
                    logical.push((lineno, piece));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        logical.push((start, acc));
    }

    let mut model_name = String::new();
    let mut inputs: Vec<(usize, String)> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut names: Vec<PendingNames> = Vec::new();
    let mut latches: Vec<PendingLatch> = Vec::new();
    let mut seen_end = false;

    let mut iter = logical.iter().peekable();
    while let Some(&(lineno, ref line)) = iter.next() {
        let mut tokens = line.split_whitespace();
        let head = match tokens.next() {
            Some(h) => h,
            None => continue,
        };
        if seen_end {
            return Err(err(lineno, "content after .end"));
        }
        match head {
            ".model" => {
                if !model_name.is_empty() {
                    return Err(err(lineno, "multiple .model sections (hierarchy unsupported)"));
                }
                model_name = tokens.next().unwrap_or("top").to_string();
            }
            ".inputs" => {
                for t in tokens {
                    inputs.push((lineno, t.to_string()));
                }
            }
            ".outputs" => {
                for t in tokens {
                    outputs.push(t.to_string());
                }
            }
            ".names" => {
                let signals: Vec<String> = tokens.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(err(lineno, ".names with no signals"));
                }
                let n_in = signals.len() - 1;
                if n_in > MAX_VARS {
                    return Err(err(
                        lineno,
                        format!(".names with {n_in} inputs (at most {MAX_VARS} supported)"),
                    ));
                }
                let mut rows = Vec::new();
                // Consume cover rows: lines not starting with '.'.
                while let Some(&&(row_line, ref row)) = iter.peek() {
                    if row.trim_start().starts_with('.') {
                        break;
                    }
                    iter.next();
                    let parts: Vec<&str> = row.split_whitespace().collect();
                    let (pat_str, out_str) = match (n_in, parts.len()) {
                        (0, 1) => ("", parts[0]),
                        (_, 2) => (parts[0], parts[1]),
                        _ => {
                            return Err(err(
                                row_line,
                                format!("malformed cover row {row:?} for {n_in} inputs"),
                            ))
                        }
                    };
                    if pat_str.len() != n_in {
                        return Err(err(
                            row_line,
                            format!("pattern {pat_str:?} length != {n_in} inputs"),
                        ));
                    }
                    let mut pattern = Vec::with_capacity(n_in);
                    for c in pat_str.chars() {
                        pattern.push(match c {
                            '0' => Some(false),
                            '1' => Some(true),
                            '-' => None,
                            _ => return Err(err(row_line, format!("bad pattern char {c:?}"))),
                        });
                    }
                    let output = match out_str {
                        "0" => false,
                        "1" => true,
                        _ => return Err(err(row_line, format!("bad output value {out_str:?}"))),
                    };
                    rows.push(CoverRow { pattern, output });
                }
                names.push(PendingNames { line: lineno, signals, rows });
            }
            ".latch" => {
                let parts: Vec<&str> = tokens.collect();
                // .latch input output [type control] [init]
                let (input, output, init) = match parts.len() {
                    2 => (parts[0], parts[1], false),
                    3 => (parts[0], parts[1], parse_init(parts[2], lineno)?),
                    4 => (parts[0], parts[1], false),
                    5 => (parts[0], parts[1], parse_init(parts[4], lineno)?),
                    _ => return Err(err(lineno, "malformed .latch")),
                };
                latches.push(PendingLatch {
                    line: lineno,
                    input: input.to_string(),
                    output: output.to_string(),
                    init,
                });
            }
            ".end" => {
                seen_end = true;
            }
            ".subckt" | ".gate" | ".mlatch" | ".exdc" | ".start_kiss" => {
                return Err(err(lineno, format!("unsupported construct {head}")));
            }
            other if other.starts_with('.') => {
                // Tolerate harmless extensions (.default_input_arrival etc.)
                continue;
            }
            _ => {
                return Err(err(lineno, format!("unexpected line {line:?}")));
            }
        }
    }

    // Build the network: inputs, then latch outputs (so feedback works),
    // then names nodes in dependency order (they may be listed in any
    // order in the file, so we do it in two passes via placeholder wiring).
    let mut nw = Network::new(if model_name.is_empty() { "top".to_string() } else { model_name });
    let mut id_of: FxHashMap<String, NodeId> = FxHashMap::default();

    for (lineno, name) in &inputs {
        if id_of.contains_key(name) {
            return Err(err(*lineno, format!("duplicate input {name}")));
        }
        id_of.insert(name.clone(), nw.add_input(name.clone()));
    }

    // Latch outputs are sources; create them fed by a placeholder
    // constant — rewired below once the data net exists, then swept. Its
    // name is one no signal of the file uses, so it can collide with
    // nothing added later.
    let mut used: FxHashSet<&str> = FxHashSet::default();
    used.extend(inputs.iter().map(|(_, n)| n.as_str()));
    used.extend(latches.iter().flat_map(|l| [l.input.as_str(), l.output.as_str()]));
    used.extend(names.iter().flat_map(|pn| pn.signals.iter().map(String::as_str)));
    let mut placeholder_name = "__latch_ph".to_string();
    while used.contains(placeholder_name.as_str()) {
        placeholder_name.push('_');
    }
    if !latches.is_empty() {
        let placeholder = nw.add_const(placeholder_name, false);
        for latch in &latches {
            if id_of.contains_key(&latch.output) {
                return Err(err(latch.line, format!("duplicate driver for {}", latch.output)));
            }
            let q = nw.add_latch(latch.output.clone(), placeholder, latch.init);
            id_of.insert(latch.output.clone(), q);
        }
    }

    // .names nodes: topological-insertion loop. Repeatedly add nodes whose
    // fanins are all known. Undriven fanin nets become implicit inputs
    // (common in trimmed benchmark files).
    let mut remaining: Vec<&PendingNames> = names.iter().collect();
    // First, any signal used as fanin but never defined becomes an input.
    {
        let mut defined: FxHashMap<&str, ()> = FxHashMap::default();
        for pn in &names {
            let (out, _) = pn.signals.split_last().expect("nonempty");
            if id_of.contains_key(out) || defined.insert(out.as_str(), ()).is_some() {
                return Err(err(pn.line, format!("duplicate driver for {out}")));
            }
        }
        for pn in &names {
            let n = pn.signals.len() - 1;
            for s in &pn.signals[..n] {
                if !defined.contains_key(s.as_str()) && !id_of.contains_key(s) {
                    id_of.insert(s.clone(), nw.add_input(s.clone()));
                }
            }
        }
        for latch in &latches {
            if !defined.contains_key(latch.input.as_str()) && !id_of.contains_key(&latch.input) {
                id_of.insert(latch.input.clone(), nw.add_input(latch.input.clone()));
            }
        }
    }

    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|pn| {
            let (out, ins) = pn.signals.split_last().expect("nonempty");
            let fanins: Option<Vec<NodeId>> = ins.iter().map(|s| id_of.get(s).copied()).collect();
            match fanins {
                Some(fanins) => {
                    let table = cover_to_table(&pn.rows, ins.len());
                    let id = nw.add_table(out.clone(), fanins, table);
                    id_of.insert(out.clone(), id);
                    false
                }
                None => true,
            }
        });
        if remaining.len() == before {
            let pn = remaining[0];
            return Err(err(
                pn.line,
                format!(
                    "combinational cycle or undefined fanin for .names {}",
                    pn.signals.last().expect("nonempty")
                ),
            ));
        }
    }

    // Rewire latches to their real data nets.
    for latch in &latches {
        let q = id_of[&latch.output];
        let data = *id_of
            .get(&latch.input)
            .ok_or_else(|| err(latch.line, format!("latch input {} undefined", latch.input)))?;
        nw.set_latch_data(q, data);
    }

    for out in &outputs {
        let driver = *id_of.get(out).ok_or_else(|| err(0, format!("output {out} never driven")))?;
        nw.add_output(out.clone(), driver);
    }

    // Remove orphaned latch placeholders.
    nw.sweep_dead();
    Ok(nw)
}

fn parse_init(tok: &str, lineno: usize) -> Result<bool, BlifError> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        // 2 = don't care, 3 = unknown: model as 0.
        "2" | "3" => Ok(false),
        _ => Err(err(lineno, format!("bad latch init {tok:?}"))),
    }
}

/// Convert a SOP cover to a truth table. Rows with output `1` are the
/// ON-set (anything else 0); if all rows have output `0` the cover is the
/// OFF-set (anything else 1). An empty cover is constant 0 per SIS
/// convention.
fn cover_to_table(rows: &[CoverRow], n_in: usize) -> TruthTable {
    if rows.is_empty() {
        return TruthTable::const0(n_in);
    }
    let on_set = rows.iter().any(|r| r.output);
    let mut t = if on_set { TruthTable::const0(n_in) } else { TruthTable::const1(n_in) };
    for row in rows.iter().filter(|r| r.output == on_set) {
        t.assign_cube(&row.pattern, on_set);
    }
    t
}

/// Serialize a [`Network`] to BLIF. Truth tables are emitted as ON-set
/// minterm covers (correct, if not minimal — the files round-trip).
pub fn write(nw: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", nw.name);
    let input_names: Vec<&str> = nw.inputs().map(|id| nw.node(id).name.as_str()).collect();
    if !input_names.is_empty() {
        let _ = writeln!(out, ".inputs {}", input_names.join(" "));
    }
    if !nw.outputs().is_empty() {
        let names: Vec<&str> = nw.outputs().iter().map(|o| o.name.as_str()).collect();
        let _ = writeln!(out, ".outputs {}", names.join(" "));
    }
    for (_, node) in nw.nodes() {
        match &node.kind {
            NodeKind::Latch { init } => {
                let data = nw.node(node.fanins[0]).name.as_str();
                let _ = writeln!(out, ".latch {} {} {}", data, node.name, u8::from(*init));
            }
            NodeKind::Const(v) => {
                let _ = writeln!(out, ".names {}", node.name);
                if *v {
                    let _ = writeln!(out, "1");
                }
            }
            NodeKind::Table(t) => {
                let ins: Vec<&str> =
                    node.fanins.iter().map(|&f| nw.node(f).name.as_str()).collect();
                let _ = writeln!(out, ".names {} {}", ins.join(" "), node.name);
                // Emit ON-set minterms (or OFF-set if that's smaller).
                let ones = t.count_ones();
                let rows = t.n_rows();
                if ones == rows {
                    // constant 1 with inputs — emit all-dontcare row
                    let _ = writeln!(out, "{} 1", "-".repeat(t.nvars()));
                } else if ones * 2 <= rows {
                    for row in 0..rows {
                        if t.bit(row) {
                            let _ = writeln!(out, "{} 1", row_pattern(row, t.nvars()));
                        }
                    }
                } else {
                    for row in 0..rows {
                        if !t.bit(row) {
                            let _ = writeln!(out, "{} 0", row_pattern(row, t.nvars()));
                        }
                    }
                }
            }
            NodeKind::Input => {}
        }
    }
    // Any primary output whose port name differs from its driver net gets a
    // buffer so the name exists in the file.
    for port in nw.outputs() {
        let driver_name = &nw.node(port.driver).name;
        if driver_name != &port.name {
            let _ = writeln!(out, ".names {} {}", driver_name, port.name);
            let _ = writeln!(out, "1 1");
        }
    }
    out.push_str(".end\n");
    out
}

fn row_pattern(row: usize, nvars: usize) -> String {
    // Variable 0 is written leftmost in BLIF input lists, and our tables
    // use LSB = variable 0, so emit bit i at position i.
    (0..nvars).map(|i| if (row >> i) & 1 == 1 { '1' } else { '0' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;
    use proptest::prelude::*;

    const SMALL: &str = "\
# a tiny mixed design
.model small
.inputs a b c
.outputs y q
.names a b t1
11 1
.names t1 c y
10 1
01 1
.latch y q 0
.end
";

    #[test]
    fn parse_small() {
        let nw = parse(SMALL).unwrap();
        assert_eq!(nw.name, "small");
        assert_eq!(nw.n_inputs(), 3);
        assert_eq!(nw.n_tables(), 2);
        assert_eq!(nw.n_latches(), 1);
        assert_eq!(nw.n_outputs(), 2);
        nw.validate().unwrap();
        // t1 = a AND b; y = t1 XOR c
        let y = nw.find("y").unwrap();
        let t = nw.node(y).table().unwrap();
        assert_eq!(t, &crate::truth::gates::xor2());
    }

    #[test]
    fn out_of_order_names_resolved() {
        let text = "\
.model ooo
.inputs a b
.outputs y
.names t y
1 1
.names a b t
11 1
.end
";
        let nw = parse(text).unwrap();
        nw.validate().unwrap();
        assert_eq!(nw.n_tables(), 2);
    }

    #[test]
    fn offset_cover() {
        let text = "\
.model off
.inputs a b
.outputs y
.names a b y
00 0
.end
";
        let nw = parse(text).unwrap();
        let y = nw.find("y").unwrap();
        // y = NOT(a=0 AND b=0) = a OR b
        assert_eq!(nw.node(y).table().unwrap(), &crate::truth::gates::or2());
    }

    #[test]
    fn dont_cares_in_cover() {
        let text = "\
.model dc
.inputs a b c
.outputs y
.names a b c y
1-- 1
-11 1
.end
";
        let nw = parse(text).unwrap();
        let y = nw.find("y").unwrap();
        let t = nw.node(y).table().unwrap();
        for row in 0..8usize {
            let a = row & 1 == 1;
            let b = row & 2 == 2;
            let c = row & 4 == 4;
            assert_eq!(t.bit(row), a || (b && c), "row {row}");
        }
    }

    #[test]
    fn constant_nodes() {
        let text = "\
.model consts
.outputs one zero
.names one
1
.names zero
.end
";
        let nw = parse(text).unwrap();
        let one = nw.find("one").unwrap();
        let zero = nw.find("zero").unwrap();
        assert!(nw.node(one).table().unwrap().is_const1());
        assert!(nw.node(zero).table().unwrap().is_const0());
    }

    #[test]
    fn latch_feedback_loop() {
        let text = "\
.model counter
.inputs en
.outputs q
.latch d q 0
.names q en d
01 1
10 1
.end
";
        let nw = parse(text).unwrap();
        nw.validate().unwrap();
        assert_eq!(nw.n_latches(), 1);
    }

    #[test]
    fn latch_with_control_and_init() {
        let text = "\
.model lc
.inputs d clk
.outputs q
.latch d q re clk 1
.end
";
        let nw = parse(text).unwrap();
        let q = nw.find("q").unwrap();
        assert!(matches!(nw.node(q).kind, NodeKind::Latch { init: true }));
    }

    #[test]
    fn continuation_lines() {
        let text = ".model c\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let nw = parse(text).unwrap();
        assert_eq!(nw.n_inputs(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = ".model e\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("pattern"));
    }

    #[test]
    fn cycle_reported() {
        let text = "\
.model cyc
.inputs a
.outputs y
.names a x y
11 1
.names a y x
11 1
.end
";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn round_trip_preserves_function() {
        let nw = parse(SMALL).unwrap();
        let text = write(&nw);
        let nw2 = parse(&text).unwrap();
        nw2.validate().unwrap();
        assert!(sim::comb_equivalent(&nw, &nw2, 64, 0xBEEF).unwrap());
    }

    /// The value of the cover `rows` on minterm `m`, row by row.
    fn eval_cover(rows: &[CoverRow], m: usize) -> bool {
        let on_set = rows.iter().any(|r| r.output);
        let hit = rows.iter().filter(|r| r.output == on_set).any(|r| {
            let lit_holds =
                |(i, lit): (usize, &Option<bool>)| lit.is_none_or(|v| ((m >> i) & 1 == 1) == v);
            r.pattern.iter().enumerate().all(lit_holds)
        });
        hit == on_set
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// On-set, off-set and mixed covers of up to 10 inputs (16 words)
        /// convert to the table that evaluating the cover minterm by
        /// minterm gives.
        #[test]
        fn cover_to_table_matches_minterm_evaluation(
            n_in in 0usize..=10,
            n_rows in 1usize..12,
            outputs in 0u8..3,
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let mut draw = |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z ^ (z >> 29)) % n
            };
            let rows: Vec<CoverRow> = (0..n_rows)
                .map(|_| CoverRow {
                    // Half the literals are don't-cares, so cubes span words.
                    pattern: (0..n_in)
                        .map(|_| match draw(4) {
                            0 => Some(false),
                            1 => Some(true),
                            _ => None,
                        })
                        .collect(),
                    output: match outputs {
                        0 => true,
                        1 => false,
                        _ => draw(2) == 1,
                    },
                })
                .collect();
            let t = cover_to_table(&rows, n_in);
            for m in 0..1usize << n_in {
                prop_assert_eq!(t.bit(m), eval_cover(&rows, m), "minterm {m:#x}");
            }
            prop_assert_eq!(t.count_ones(), (0..1usize << n_in).filter(|&m| t.bit(m)).count());
        }
    }

    #[test]
    fn empty_cover_is_constant_zero() {
        assert!(cover_to_table(&[], 3).is_const0());
    }

    #[test]
    fn writer_emits_offset_for_dense_tables() {
        let mut nw = Network::new("dense");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let y = nw.add_table("y", vec![a, b], crate::truth::gates::or2());
        nw.add_output("y", y);
        let text = write(&nw);
        // OR2 has 3 ones of 4 rows -> OFF-set (1 row) is emitted.
        assert!(text.contains("00 0"), "{text}");
        let nw2 = parse(&text).unwrap();
        assert!(sim::comb_equivalent(&nw, &nw2, 16, 7).unwrap());
    }
}
