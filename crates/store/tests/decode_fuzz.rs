//! Artifact decoder fuzzing: arbitrary bytes, truncations and bit flips
//! of a real artifact through `Artifact::from_bytes` and `instantiate`.
//! The checksum stops almost every flip at the header, so the payload
//! mutations re-seal it — what a collision of the non-cryptographic
//! checksum would let through — and reach the decoders behind it. Each
//! input must be rejected with an error or load into a design whose
//! specialization runs, never panic.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_store::bytes::checksum;
use pfdbg_store::Artifact;
use pfdbg_util::BitVec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Magic, version, payload length and checksum precede the payload.
const HEADER: usize = 24;

/// The encoded artifact of a small compiled design, built once.
fn artifact_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
            n_inputs: 6,
            n_outputs: 4,
            n_gates: 24,
            depth: 4,
            n_latches: 2,
            seed: 7,
        });
        let (_, _, inst) = prepare_instrumented(
            &design,
            &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
            4,
        )
        .unwrap();
        let cfg = OfflineConfig { k: 4, ..OfflineConfig::default() };
        let off = pfdbg_core::offline(&inst, &cfg).unwrap();
        let (scg, layout) = (off.scg.unwrap(), off.layout.unwrap());
        Artifact::capture(&inst, &off.map_stats, &layout, &scg).to_bytes()
    })
}

fn next(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Recompute the header checksum over the (mutated) payload.
fn reseal(bytes: &mut [u8]) {
    let sum = checksum(&bytes[HEADER..]);
    bytes[16..HEADER].copy_from_slice(&sum.to_le_bytes());
}

/// One mutation of the artifact per family.
fn mutate(mut seed: u64, family: usize) -> Vec<u8> {
    let s = &mut seed;
    let mut bytes = artifact_bytes().to_vec();
    let payload = bytes.len() - HEADER;
    match family {
        // Arbitrary bytes, behind the real header half the time.
        0 => {
            let len = next(s) as usize % 512;
            let junk: Vec<u8> = (0..len).map(|_| next(s) as u8).collect();
            if next(s).is_multiple_of(2) {
                bytes.truncate(HEADER);
                bytes[8..16].copy_from_slice(&(len as u64).to_le_bytes());
                bytes.extend_from_slice(&junk);
                reseal(&mut bytes);
                bytes
            } else {
                junk
            }
        }
        // A truncation anywhere.
        1 => {
            bytes.truncate(next(s) as usize % bytes.len());
            bytes
        }
        // One bit flipped anywhere, checksum left as it was.
        2 => {
            let bit = next(s) as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        }
        // A few payload bits flipped, checksum re-sealed.
        3 => {
            for _ in 0..1 + next(s) % 4 {
                let bit = next(s) as usize % (payload * 8);
                bytes[HEADER + bit / 8] ^= 1 << (bit % 8);
            }
            reseal(&mut bytes);
            bytes
        }
        // A word of the payload overwritten with an extreme value — a
        // length prefix, an index, an address — checksum re-sealed.
        _ => {
            let at = HEADER + next(s) as usize % (payload - 7);
            let word = [0, 1, u32::MAX as u64, u64::MAX, 1 << 40][next(s) as usize % 5];
            bytes[at..at + 8].copy_from_slice(&u64::to_le_bytes(word));
            reseal(&mut bytes);
            bytes
        }
    }
}

/// Decode, instantiate and, when both succeed, specialize the
/// all-zeros vector: an error anywhere is a rejection, a panic fails.
fn load(bytes: &[u8]) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let design = Artifact::from_bytes(bytes)?.instantiate()?;
        let n = design.scg.generalized().n_params;
        design.scg.try_specialize(&BitVec::zeros(n)).map(|_| ())
    }));
    prop_assert!(outcome.is_ok(), "loading a {}-byte artifact panicked", bytes.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    #[test]
    fn every_mutated_artifact_is_rejected_or_loads(seed in any::<u64>(), family in 0usize..5) {
        load(&mutate(seed, family))?;
    }
}

/// The untouched artifact loads: the mutations start from a good one.
#[test]
fn the_unmutated_artifact_loads() {
    let design = Artifact::from_bytes(artifact_bytes()).unwrap().instantiate().unwrap();
    assert!(design.scg.generalized().n_params > 0);
}

/// A tunable function over a variable past the parameter vector used to
/// load, then panic in its first specialization: it is rejected.
#[test]
fn a_bdd_variable_beyond_the_parameters_is_rejected() {
    let mut artifact = Artifact::from_bytes(artifact_bytes()).unwrap();
    let leaf = artifact.bdd_nodes.iter().position(|&(_, lo, hi)| lo < 2 && hi < 2);
    artifact.bdd_nodes[leaf.expect("a node over the terminals")].0 = artifact.n_params as u32;
    let loaded = Artifact::from_bytes(&artifact.to_bytes()).unwrap().instantiate();
    let err = loaded.err().expect("the artifact must be rejected");
    assert!(err.contains("beyond"), "{err}");
}
