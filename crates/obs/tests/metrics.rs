//! Integration tests for the always-on fleet-telemetry layer:
//! lost-update-freedom of the atomic counter path under 8 writer
//! threads, the always-on overhead bound (instrumented hot loop within
//! 5% of the bare loop), and a property test pinning the histogram's
//! bucketed percentile to the exact nearest-rank percentile from
//! `pfdbg_util::stats`.
//!
//! The metrics hub is process-global, so tests that reset it serialize
//! on one mutex (same idiom as `tests/obs.rs`).

use pfdbg_obs::{
    counter_add, gauge_set, hub, registry, reset, set_enabled, FlightKind, FlightRecorder,
    Histogram, LazyCounter, LazyHistogram, LazySlo,
};
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

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

/// A few µs of deterministic synthetic work standing in for one debug
/// turn — still an order of magnitude below the real specialize path
/// (~13–70 µs), so the measured ratio over-states production overhead.
/// `black_box` keeps the compiler from collapsing the loop.
fn synthetic_turn(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..2700 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    x
}

/// Acceptance criterion: a 10k-turn session with metrics enabled stays
/// within 5% wall time of the metrics-disabled baseline. Per turn the
/// instrumented arm pays the full always-on kit — counter add, two
/// histogram records, an SLO observation, and a flight-recorder push —
/// against a few µs of real work. Both arms are measured interleaved
/// and scored best-of-N so scheduler noise on a loaded box cancels out;
/// on a box loaded enough that *every* round of an attempt is preempted
/// (single-core CI running suites in parallel) the whole measurement is
/// retried, and only a bound miss on every attempt fails the test — a
/// real regression misses all of them.
#[test]
fn always_on_telemetry_overhead_stays_under_5_percent() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    static TURNS: LazyCounter = LazyCounter::new("ovh.turns");
    static TURN_NS: LazyHistogram = LazyHistogram::new("ovh.turn_ns");
    static SPEC_NS: LazyHistogram = LazyHistogram::new("ovh.spec_ns");
    static SLO: LazySlo = LazySlo::new("ovh.turn_us", 50.0);
    const TURNS_PER_RUN: u64 = 10_000;
    const ROUNDS: usize = 7;

    let bare = |acc: &mut u64| {
        let t0 = Instant::now();
        for i in 0..TURNS_PER_RUN {
            *acc ^= synthetic_turn(i + 1);
        }
        t0.elapsed()
    };
    let instrumented = |acc: &mut u64, fr: &mut FlightRecorder| {
        let t0 = Instant::now();
        for i in 0..TURNS_PER_RUN {
            let turn0 = Instant::now();
            *acc ^= synthetic_turn(i + 1);
            let ns = turn0.elapsed().as_nanos() as u64;
            TURNS.add(1);
            TURN_NS.record(ns);
            SPEC_NS.record(ns / 2);
            SLO.observe_us(ns as f64 / 1e3);
            fr.record(FlightKind::TurnCommit, i, 0);
        }
        t0.elapsed()
    };

    // Warm both paths (first-use registration, branch predictors).
    let mut acc = 0u64;
    let mut fr = FlightRecorder::new(256);
    bare(&mut acc);
    instrumented(&mut acc, &mut fr);

    const ATTEMPTS: usize = 3;
    let mut measured = Vec::with_capacity(ATTEMPTS);
    for attempt in 1..=ATTEMPTS {
        let mut best_bare = None::<std::time::Duration>;
        let mut best_inst = None::<std::time::Duration>;
        for _ in 0..ROUNDS {
            let b = bare(&mut acc);
            let i = instrumented(&mut acc, &mut fr);
            best_bare = Some(best_bare.map_or(b, |x| x.min(b)));
            best_inst = Some(best_inst.map_or(i, |x| x.min(i)));
        }
        let (bare_t, inst_t) = (best_bare.unwrap(), best_inst.unwrap());
        let expected = (attempt * ROUNDS + 1) as u64 * TURNS_PER_RUN;
        assert_eq!(TURNS.value(), expected);
        assert_eq!(fr.total_recorded(), expected);
        let ratio = inst_t.as_secs_f64() / bare_t.as_secs_f64();
        measured.push((ratio, bare_t, inst_t));
        if ratio <= 1.05 {
            break;
        }
    }
    std::hint::black_box(acc);
    let best = measured.iter().cloned().reduce(|a, b| if a.0 <= b.0 { a } else { b }).unwrap();
    let (ratio, bare_t, inst_t) = best;
    assert!(
        ratio <= 1.05,
        "always-on telemetry overhead {:.2}% on every attempt \
         (best: bare {bare_t:?}, instrumented {inst_t:?})",
        (ratio - 1.0) * 100.0
    );
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
