//! Integration tests for the artifact store: format round-trip under
//! randomized designs, loading tables the SCG has not compacted, and
//! corruption rejection. The cache hit itself is checked in
//! `cache_hit.rs`, a binary of its own.

use pfdbg_core::{prepare_instrumented, CompiledDesign, InstrumentConfig, MapStats, OfflineConfig};
use pfdbg_pconf::BddManager;
use pfdbg_store::Artifact;
use pfdbg_util::BitVec;
use proptest::prelude::*;

fn compile(seed: u64, n_gates: usize) -> (CompiledDesign, MapStats) {
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 8,
        n_outputs: 6,
        n_gates,
        depth: if n_gates > 100 { 7 } else { 5 },
        n_latches: 2,
        seed,
    });
    let (_, _, inst) = prepare_instrumented(
        &design,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        6,
    )
    .unwrap();
    let off = pfdbg_core::offline(&inst, &OfflineConfig::default()).unwrap();
    let map_stats = off.map_stats;
    (CompiledDesign::from_offline(inst, off), map_stats)
}

fn some_param_vectors(n: usize) -> Vec<BitVec> {
    let mut out = vec![BitVec::zeros(n)];
    for i in 0..n.min(4) {
        let mut v = BitVec::zeros(n);
        v.set(i, true);
        out.push(v);
    }
    out.push((0..n).map(|i| i % 2 == 0).collect());
    out.push((0..n).map(|_| true).collect());
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..Default::default() })]

    /// The decoded artifact must be field-identical, and the
    /// instantiated SCG must specialize bit-identically to the original
    /// for a spread of parameter vectors.
    #[test]
    fn round_trip_preserves_specializations(seed in 1u64..1000, n_gates in 30usize..60) {
        let (compiled, map_stats) = compile(seed, n_gates);
        let artifact = Artifact::capture(&compiled, &map_stats);
        let bytes = artifact.to_bytes();
        let back = Artifact::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &artifact);
        let (restored, _) = back.instantiate().unwrap();
        prop_assert_eq!(restored.layout.n_bits, compiled.layout.n_bits);
        prop_assert_eq!(restored.inst.annotations, compiled.inst.annotations.clone());
        let n = compiled.inst.annotations.len();
        for p in some_param_vectors(n) {
            prop_assert_eq!(restored.scg.try_specialize(&p).unwrap(), compiled.scg.try_specialize(&p).unwrap());
        }
    }
}

/// Entries written before the SCG compacted its BDD table hold the
/// offline flow's whole manager: the live nodes interleaved with
/// construction leftovers no tunable function reaches. Such an artifact
/// must still load, compact to the same table a fresh compile holds,
/// and specialize identically.
#[test]
fn uncompacted_artifact_loads_and_specializes_identically() {
    let (compiled, map_stats) = compile(11, 50);
    let artifact = Artifact::capture(&compiled, &map_stats);

    // Rebuild the table with dead nodes around the live ones: a cone
    // over a variable no function uses ahead of it, and the negation of
    // every tunable function behind it (what De Morgan leaves).
    let unused = artifact.n_params as u32 + 1;
    let mut full = BddManager::new();
    let u = full.var(unused);
    let v = full.var(unused + 1);
    let uv = full.and(u, v);
    full.not(uv);
    let trans = full.import_nodes(&artifact.bdd_nodes);
    let mut padded = artifact.clone();
    for t in &mut padded.tunable {
        let f = trans[t.1 as usize];
        full.not(f);
        t.1 = f.index();
    }
    padded.bdd_nodes = full.export_nodes();
    assert!(padded.bdd_nodes.len() > artifact.bdd_nodes.len() + 4, "no dead nodes added");
    assert_ne!(padded.tunable, artifact.tunable, "live nodes did not move");

    let (restored, restored_stats) =
        Artifact::from_bytes(&padded.to_bytes()).unwrap().instantiate().unwrap();
    assert_eq!(restored.scg.manager().n_nodes(), compiled.scg.manager().n_nodes());
    let recaptured = Artifact::capture(&restored, &restored_stats);
    assert_eq!(recaptured, artifact, "loading must compact to the fresh compile's table");
    for p in some_param_vectors(compiled.inst.annotations.len()) {
        assert_eq!(restored.scg.try_specialize(&p), compiled.scg.try_specialize(&p));
    }
}

/// Any single corrupted byte and any truncation must be rejected with
/// an error — never a panic, never a silently wrong artifact.
#[test]
fn corrupted_and_truncated_artifacts_rejected() {
    let (compiled, map_stats) = compile(7, 40);
    let artifact = Artifact::capture(&compiled, &map_stats);
    let bytes = artifact.to_bytes();
    assert!(Artifact::from_bytes(&bytes).is_ok());

    // Truncations: sample cut points across the whole file.
    for cut in (0..bytes.len()).step_by((bytes.len() / 64).max(1)) {
        assert!(Artifact::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
    }
    // Bit flips: header bytes and sampled payload bytes.
    for pos in (0..bytes.len()).step_by((bytes.len() / 97).max(1)) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x41;
        assert!(Artifact::from_bytes(&bad).is_err(), "flip at {pos} accepted");
    }
    // Trailing garbage.
    let mut long = bytes.clone();
    long.extend_from_slice(b"xx");
    assert!(Artifact::from_bytes(&long).is_err());
    // Wrong version.
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 99;
    let err = Artifact::from_bytes(&wrong_version).unwrap_err();
    assert!(err.contains("format"), "{err}");
}
