//! Integration tests for the always-on fleet-telemetry layer:
//! lost-update-freedom of the atomic counter path under 8 writer
//! threads, and a property test pinning the histogram's bucketed
//! percentile to the exact nearest-rank percentile from
//! `pfdbg_util::stats`. The overhead bound lives in `overhead.rs`, a
//! binary of its own, so these threads never run beside its timing.
//!
//! The metrics hub is process-global, so tests that reset it serialize
//! on one mutex (same idiom as `tests/obs.rs`).

use pfdbg_obs::{
    counter_add, gauge_set, hub, registry, reset, set_enabled, Histogram, LazyCounter,
    LazyHistogram,
};
use proptest::prelude::*;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Satellite (a): `counter_add` with profiling enabled is a pure atomic
/// update — 8 threads hammering one counter lose no increments, and the
/// value is exact, not approximate.
#[test]
fn counter_add_loses_no_updates_across_8_threads() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_enabled(true);
    reset();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    counter_add("stress.adds", 1);
                    if i % 1024 == 0 {
                        // Interleave gauge writes on the same hub to
                        // shake out any shared-lock interference.
                        gauge_set("stress.gauge", (t * 1000 + 1) as f64);
                    }
                }
            });
        }
    });
    assert_eq!(registry().counter_value("stress.adds"), THREADS as u64 * PER_THREAD);
    assert!(registry().gauges().iter().any(|(n, v)| n == "stress.gauge" && *v > 0.0));
    reset();
    set_enabled(false);
}

/// The same guarantee holds for the lock-free handles used on serve hot
/// paths (no `enabled()` gate at all), including concurrent histogram
/// records — total sample count must be exact.
#[test]
fn hub_handles_are_exact_under_contention() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    static ADDS: LazyCounter = LazyCounter::new("stress.lazy_adds");
    static HIST: LazyHistogram = LazyHistogram::new("stress.lazy_hist");
    hub().zero_all();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    ADDS.add(1);
                    HIST.record(t * 1000 + i % 97);
                }
            });
        }
    });
    assert_eq!(ADDS.value(), THREADS as u64 * PER_THREAD);
    assert_eq!(HIST.get().count(), THREADS as u64 * PER_THREAD);
    hub().zero_all();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Satellite (c): the exact nearest-rank percentile from
    /// `pfdbg_util::stats::percentile` always falls inside the bucket
    /// the histogram attributes that percentile to — for any sample
    /// set (including single-element and duplicate-heavy ones) and any
    /// `p`. Both sides use the same rank definition, so containment is
    /// exact, no epsilon.
    #[test]
    fn histogram_percentile_brackets_exact_percentile(
        len in 1usize..300,
        seed in any::<u64>(),
        p in 0.0f64..100.0,
    ) {
        // Samples from a seeded xorshift (the offline proptest subset
        // has no collection strategies). Mixed magnitudes exercise both
        // the unit-width low buckets and the wide log-linear tail.
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut samples: Vec<u64> = (0..len)
            .map(|_| {
                let shift = step() % 34; // spread across all magnitudes
                step() % (pfdbg_obs::hist::MAX_TRACKABLE_NS >> shift)
            })
            .collect();
        // Half the runs get a duplicate-heavy spin: repeat one sample
        // until it dominates, the regime that used to trip the old
        // interpolating percentile.
        if seed.is_multiple_of(2) {
            let v = samples[step() as usize % samples.len()];
            let extra = samples.len() * 3;
            samples.extend(std::iter::repeat_n(v, extra));
        }
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);

        let xs: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        for q in [p, 0.0, 50.0, 99.0, 99.9, 100.0] {
            let exact = pfdbg_util::stats::percentile(&xs, q).expect("non-empty");
            let (lo, hi) = snap.percentile_bounds_ns(q).expect("non-empty");
            prop_assert!(
                (lo as f64) <= exact && exact < hi as f64,
                "p{}: exact {} outside histogram bucket [{}, {})",
                q, exact, lo, hi
            );
            // And the reported midpoint stays inside the same bucket.
            let mid = snap.percentile_ns(q).expect("non-empty");
            prop_assert!((lo as f64) <= mid && mid < hi as f64);
        }
    }
}
