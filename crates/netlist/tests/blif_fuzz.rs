//! BLIF reader fuzzing: malformed and unsupported documents. The
//! contract under test is total: *every* input is either read into a
//! network that validates or rejected with a [`BlifError`] — never a
//! panic. BLIF reaches the reader from user design files, from journal
//! replays of `DesignSpec::File` sessions, and from artifact-store
//! entries, whose checksum is not cryptographic.

use pfdbg_netlist::blif::{self, BlifError};
use pfdbg_netlist::Network;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small sequential design every family mutates: three inputs, a
/// latch with type, control and init, and covers with don't-cares.
const BASE: &str = "\
.model fuzz
.inputs a b c
.outputs y z
.latch n1 q re clk 0
.names a b n1
11 1
.names n1 c q y
1-1 1
-11 1
.names a q z
0- 0
.end
";

/// Parse `text`, turning a panic into a property failure that carries
/// the input.
fn read(text: &str) -> Result<Result<Network, BlifError>, TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| blif::parse(text)))
        .map_err(|_| TestCaseError::fail(format!("the reader panicked on {text:?}")))
}

/// Read or reject: a read network must validate.
fn read_or_reject(text: &str) -> Result<(), TestCaseError> {
    if let Ok(nw) = read(text)? {
        prop_assert!(nw.validate().is_ok(), "read an invalid network from {text:?}");
    }
    Ok(())
}

fn next(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

fn pick<'a>(seed: &mut u64, from: &[&'a str]) -> &'a str {
    from[next(seed) as usize % from.len()]
}

/// Deterministic junk from a seed: BLIF's own alphabet plus noise.
fn junk(seed: &mut u64, max_len: usize) -> String {
    const CHARSET: &[u8] = b"01-10 \t.abcnqyz\\#\xc3\xa9xyz_";
    let len = next(seed) as usize % max_len.max(1);
    let bytes: Vec<u8> = (0..len).map(|_| CHARSET[next(seed) as usize % CHARSET.len()]).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `BASE` with `extra` inserted before line `at` (counted modulo the
/// line count).
fn insert(at: u64, extra: &str) -> String {
    let mut lines: Vec<&str> = BASE.lines().collect();
    let at = at as usize % (lines.len() + 1);
    lines.insert(at, extra);
    lines.join("\n")
}

/// One malformed or unsupported document per family.
fn document(mut seed: u64, family: usize) -> String {
    let s = &mut seed;
    match family {
        // Bad covers: rows of the wrong width, alphabet or arity.
        0 => {
            let head = pick(s, &[".names a b n9", ".names n9", ".names a b c d n9"]);
            let row = junk(s, 12);
            insert(next(s), &format!("{head}\n{row}"))
        }
        // Dangling continuations: a trailing `\` joins whatever comes
        // next, the end of the file included.
        1 => {
            let mut text = BASE.to_string();
            let cut = next(s) as usize % text.len();
            text.insert_str(cut, pick(s, &["\\\n", " \\\n\\\n", "\\"]));
            if next(s).is_multiple_of(2) {
                text.push('\\');
            }
            text
        }
        // Duplicate drivers: a net driven twice, by covers, latches or
        // the primary inputs.
        2 => insert(
            next(s),
            pick(
                s,
                &[
                    ".names a b n1\n00 1",
                    ".names c a\n1 1",
                    ".names a c q\n11 1",
                    ".latch y q 1",
                    ".latch z a",
                    ".inputs b",
                    ".names __latch_ph y2\n1 1",
                    ".names a __latch_ph\n1 1",
                ],
            ),
        ),
        // Oversized lines: wide covers (past the truth-table limit) and
        // long names.
        3 => {
            let n = next(s) as usize % 40;
            let fanins: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
            let row: String = (0..n).map(|i| if i % 3 == 0 { '-' } else { '1' }).collect();
            let long = "x".repeat(next(s) as usize % 5000);
            insert(next(s), &format!(".names {} {long}\n{row} 1", fanins.join(" ")))
        }
        // KISS state machines.
        4 => insert(
            next(s),
            ".start_kiss\n.i 2\n.o 1\n.p 2\n.s 2\n.r st0\n0- st0 st1 0\n11 st1 st0 1\n.end_kiss",
        ),
        // Yosys extensions and external don't-care sections.
        5 => insert(
            next(s),
            pick(
                s,
                &[
                    ".cname n1",
                    ".attr src \"top.v:3\"",
                    ".param WIDTH 00000000000000000000000000000100",
                    ".exdc\n.names a b y\n11 1",
                    ".exdc",
                ],
            ),
        ),
        // Raw mutation: one line of `BASE` replaced with junk.
        _ => {
            let mut lines: Vec<String> = BASE.lines().map(str::to_string).collect();
            let i = next(s) as usize % lines.len();
            lines[i] = junk(s, 24);
            lines.join("\n")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn every_document_is_read_or_rejected(seed in any::<u64>(), family in 0usize..7) {
        read_or_reject(&document(seed, family))?;
    }
}

/// The inputs that used to panic — a cover wider than a truth table, a
/// net driven twice, a cover driving a primary input or a latch output,
/// and an `.exdc` section re-defining an output — are errors that name
/// their line.
#[test]
fn the_inputs_that_panicked_are_errors_with_their_line() {
    let wide: Vec<String> = (0..17).map(|i| format!("i{i}")).collect();
    let cases = [
        (format!(".model m\n.outputs y\n.names {} y\n.end\n", wide.join(" ")), 3),
        (".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n".into(), 6),
        (".model m\n.inputs a\n.outputs a\n.names a\n1\n.end\n".into(), 4),
        (".model m\n.inputs a\n.outputs q\n.latch a q\n.names a q\n1 1\n.end\n".into(), 5),
        (
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.exdc\n.names a y\n0 1\n.end\n"
                .into(),
            6,
        ),
    ];
    for (text, line) in cases {
        let e = blif::parse(&text).expect_err("a malformed document must be rejected");
        assert_eq!(e.line, line, "{e} in {text:?}");
    }
}

/// A latch next to a net named like the reader's internal placeholder
/// reads as written.
#[test]
fn nets_named_like_the_latch_placeholder_read() {
    let text = ".model m\n.inputs __latch_ph\n.outputs q y\n.latch __latch_ph q\n\
                .names __latch_ph_ q y\n11 1\n.end\n";
    let nw = blif::parse(text).unwrap();
    nw.validate().unwrap();
    assert_eq!((nw.n_inputs(), nw.n_latches(), nw.n_tables()), (2, 1, 1));
}
