//! The always-on telemetry overhead bound: an instrumented hot loop
//! stays within 5% of the bare loop. A wall-clock bound, so it runs in
//! a binary of its own: cargo runs test binaries one at a time, so no
//! other test shares its CPU (beside the 8-thread contention tests and
//! the histogram proptest, one run under the full suite read 8.43%).

use pfdbg_obs::{hub, FlightKind, FlightRecorder, LazyCounter, LazyHistogram, LazySlo};
use std::time::Instant;

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
    eprintln!(
        "always-on telemetry overhead {:.2}% (bare {bare_t:?}, instrumented {inst_t:?}, \
         {} attempt(s))",
        (ratio - 1.0) * 100.0,
        measured.len()
    );
    assert!(
        ratio <= 1.05,
        "always-on telemetry overhead {:.2}% on every attempt \
         (best: bare {bare_t:?}, instrumented {inst_t:?})",
        (ratio - 1.0) * 100.0
    );
    hub().zero_all();
}
