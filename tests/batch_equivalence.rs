//! Equivalence of the memoized **batch** turn path with the reference
//! per-function evaluator: across random generalized bitstreams and
//! random multi-turn parameter walks, `specialize_from_batch`,
//! `specialize_timed_batch` and the packed word-XOR diff
//! (`specialize_diff_from_batch`) must be **bit-identical** to
//! `try_specialize` — the diff to the difference of two reference
//! specializations — at 1, 2 and 8 evaluation threads, including across
//! scratch reuse, cold-scratch re-derivation and rolled-back (evaluated
//! but never committed) turns.

use parameterized_fpga_debug::arch::{build_rrg, ArchSpec, Bitstream, BitstreamLayout, Device};
use parameterized_fpga_debug::pconf::{BddManager, GeneralizedBuilder, Scg, SpecializeScratch};
use parameterized_fpga_debug::util::BitVec;
use proptest::prelude::*;
use proptest::TestCaseError;

/// One random scenario: a generalized bitstream (shape scalars plus a
/// seed that derives the tunable functions) and a walk seed that
/// derives the turn sequence. Strides > 1 leave untunable gaps between
/// tunable bits, exercising packing against non-dense addresses.
#[derive(Debug, Clone, Copy)]
struct Case {
    n_params: usize,
    stride: usize,
    n_funcs: usize,
    gbs_seed: u64,
    walk_seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..12, 1usize..4, 1usize..200, any::<u64>(), any::<u64>()).prop_map(
        |(n_params, stride, n_funcs, gbs_seed, walk_seed)| Case {
            n_params,
            stride,
            n_funcs,
            gbs_seed,
            walk_seed,
        },
    )
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Each tunable function folds 1–4 random variables with random
/// and/or/xor steps — enough shared subgraphs that the memoized sweep
/// really skips repeated nodes.
fn build(case: &Case) -> Scg {
    let mut seed = case.gbs_seed | 1;
    let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 4, 4);
    let rrg = build_rrg(&dev);
    let layout = BitstreamLayout::new(&dev, &rrg, 1312);
    let mut m = BddManager::new();
    let mut b = GeneralizedBuilder::new(&layout, case.n_params);
    for i in 0..case.n_funcs {
        let mut f = m.var((xorshift(&mut seed) as usize % case.n_params) as u32);
        for _ in 0..xorshift(&mut seed) % 4 {
            let v = m.var((xorshift(&mut seed) as usize % case.n_params) as u32);
            f = match xorshift(&mut seed) % 3 {
                0 => m.and(f, v),
                1 => m.or(f, v),
                _ => m.xor(f, v),
            };
        }
        b.set_func(&m, i * case.stride, f);
    }
    Scg::new(m, b.build().expect("random gbs builds"))
}

/// A walk of 1–8 turns; each turn flips 0–3 parameter bits of a
/// running assignment — adjacent turns differ in just a few bits, like
/// a real debug session (and unlike independent random vectors).
fn walk_of(case: &Case) -> Vec<Vec<(usize, bool)>> {
    let mut seed = case.walk_seed | 1;
    let turns = 1 + (xorshift(&mut seed) as usize) % 8;
    (0..turns)
        .map(|_| {
            let flips = (xorshift(&mut seed) as usize) % 4;
            (0..flips)
                .map(|_| {
                    let i = xorshift(&mut seed) as usize % case.n_params;
                    let v = xorshift(&mut seed) % 2 == 1;
                    (i, v)
                })
                .collect()
        })
        .collect()
}

/// The reference write set: every address where two reference
/// specializations differ, ascending, with the target's value.
fn reference_diff(from: &Bitstream, to: &Bitstream) -> Vec<(usize, bool)> {
    (0..to.len()).filter(|&a| from.get(a) != to.get(a)).map(|a| (a, to.get(a))).collect()
}

/// Full-turn walk at one thread count: the batch specializers and the
/// packed diff agree bit-for-bit with the reference evaluator. Turn
/// `rollback` evaluates without committing; the next turn's diff must
/// still describe the loaded configuration.
fn check_walk(
    scg: &Scg,
    case: &Case,
    walk: &[Vec<(usize, bool)>],
    rollback: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let mut scratch = SpecializeScratch::new();
    let mut params = BitVec::zeros(case.n_params);
    let mut prev_params = params.clone();
    let mut current = scg.specialize(&params);
    for (turn, flips) in walk.iter().enumerate() {
        for &(i, v) in flips {
            params.set(i, v);
        }
        // Ground truth: fresh per-function specialization.
        let want = scg.specialize(&params);

        // Batch full specialization from an arbitrary prior bitstream,
        // and the timed variant.
        let got = scg.specialize_from_batch(&current, &params, &mut scratch).unwrap();
        prop_assert_eq!(&got, &want, "specialize_from_batch, threads={}", threads);
        let (timed, _) = scg.specialize_timed_batch(&params, &mut scratch);
        prop_assert_eq!(&timed, &want, "specialize_timed_batch, threads={}", threads);

        // Packed word-XOR diff vs the reference diff.
        let serial_diff = reference_diff(&scg.try_specialize(&prev_params).unwrap(), &want);
        let batch_diff =
            scg.specialize_diff_from_batch(&prev_params, &params, &mut scratch).unwrap().to_vec();
        prop_assert_eq!(&batch_diff, &serial_diff, "diff, threads={}", threads);

        if turn == rollback {
            // Rolled-back turn: evaluation happened, commit did not.
            continue;
        }
        for &(addr, v) in &batch_diff {
            current.set(addr, v);
        }
        prop_assert_eq!(&current, &want, "diff write-set reaches the target");
        scratch.commit(&params);
        prev_params.clone_from(&params);
    }
    Ok(())
}

/// The diff write set is the *minimal* one: strictly ascending
/// addresses, no duplicates, and every entry really flips a loaded bit.
fn check_minimal(scg: &Scg, case: &Case, walk: &[Vec<(usize, bool)>]) -> Result<(), TestCaseError> {
    let mut scratch = SpecializeScratch::new();
    let mut params = BitVec::zeros(case.n_params);
    let mut prev_params = params.clone();
    let mut current = scg.specialize(&params);
    for flips in walk {
        for &(i, v) in flips {
            params.set(i, v);
        }
        let diff =
            scg.specialize_diff_from_batch(&prev_params, &params, &mut scratch).unwrap().to_vec();
        let mut last = None;
        for &(addr, v) in &diff {
            prop_assert!(last < Some(addr), "addresses strictly ascending");
            last = Some(addr);
            prop_assert_ne!(current.get(addr), v);
            current.set(addr, v);
        }
        prop_assert_eq!(&current, &scg.specialize(&params));
        scratch.commit(&params);
        prev_params.clone_from(&params);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn batch_paths_match_per_function_paths(case in arb_case()) {
        let mut scg = build(&case);
        let walk = walk_of(&case);
        let rollback = (case.walk_seed >> 32) as usize % walk.len();
        for threads in [1usize, 2, 8] {
            scg.set_threads(threads);
            check_walk(&scg, &case, &walk, rollback, threads)?;
        }
    }

    #[test]
    fn batch_diff_is_minimal_and_sorted(case in arb_case()) {
        check_minimal(&build(&case), &case, &walk_of(&case))?;
    }
}
