//! The store's reason to exist, checked by the work a hit skips rather
//! than by wall-clock time: the second compile of a design is a cache
//! hit that runs none of the offline flow, whatever the flow costs.
//!
//! The flow's stages are counted as `pfdbg_obs` spans. The registry and
//! its enabled flag are process-global, so this test has a binary of
//! its own: the tests in `store.rs` run flows concurrently.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_store::{ArtifactStore, CacheOutcome};
use pfdbg_util::BitVec;

/// `(offline, tpar)` spans recorded since the last reset.
fn flow_spans() -> (usize, usize) {
    let spans = pfdbg_obs::registry().spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    (count("offline"), count("tpar"))
}

#[test]
fn second_compile_is_a_cache_hit_that_runs_no_flow() {
    let dir = std::env::temp_dir().join(format!("pfdbg-store-hit-test-{}", std::process::id()));
    let store = ArtifactStore::open(&dir).unwrap();
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 8,
        n_outputs: 6,
        n_gates: 160,
        depth: 7,
        n_latches: 2,
        seed: 21,
    });
    let (_, _, inst) = prepare_instrumented(
        &design,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        6,
    )
    .unwrap();
    let cfg = OfflineConfig::default();

    pfdbg_obs::set_enabled(true);
    pfdbg_obs::reset();
    let (first, outcome1) = store.offline_cached(&inst, &cfg).unwrap();
    assert_eq!(outcome1, CacheOutcome::Miss);
    assert_eq!(flow_spans(), (1, 1), "a miss runs the offline flow and TPaR once");

    pfdbg_obs::reset();
    let (second, outcome2) = store.offline_cached(&inst, &cfg).unwrap();
    assert_eq!(outcome2, CacheOutcome::Hit);
    assert_eq!(flow_spans(), (0, 0), "a hit runs neither the offline flow nor TPaR");
    pfdbg_obs::set_enabled(false);

    // Identical specializations either way.
    let n = inst.annotations.len();
    let mut vectors = vec![BitVec::zeros(n), (0..n).map(|i| i % 2 == 0).collect()];
    vectors.extend((0..n.min(4)).map(|i| (0..n).map(|j| j == i).collect()));
    vectors.push((0..n).map(|_| true).collect());
    for p in &vectors {
        assert_eq!(first.scg.try_specialize(p).unwrap(), second.scg.try_specialize(p).unwrap());
    }

    // A different configuration is a different fingerprint -> miss.
    let other_cfg = OfflineConfig { k: 5, ..OfflineConfig::default() };
    assert_ne!(
        ArtifactStore::fingerprint(&inst, &cfg),
        ArtifactStore::fingerprint(&inst, &other_cfg)
    );

    // A damaged cache entry degrades to a recompile, not a failure.
    let key = ArtifactStore::fingerprint(&inst, &cfg);
    let path = store.path_for(&key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let (_, outcome3) = store.offline_cached(&inst, &cfg).unwrap();
    assert_eq!(outcome3, CacheOutcome::Miss, "corrupt entry must recompile");
    let (_, outcome4) = store.offline_cached(&inst, &cfg).unwrap();
    assert_eq!(outcome4, CacheOutcome::Hit, "recompile must repair the entry");

    let _ = std::fs::remove_dir_all(&dir);
}
