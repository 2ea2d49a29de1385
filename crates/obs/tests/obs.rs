//! Integration tests over the public `pfdbg-obs` surface: nested-span
//! timing monotonicity, counter aggregation under concurrent writers,
//! and the JSONL export → parse → summarize round trip.
//!
//! The registry is process-global, so tests serialize on one mutex.

use pfdbg_obs::{
    counter_add, gauge_set, parse_jsonl, registry, reset, set_enabled, span, summarize,
};
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn with_clean_registry(f: impl FnOnce()) {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_enabled(true);
    reset();
    f();
    reset();
    set_enabled(false);
}

#[test]
fn nested_span_timing_is_monotone() {
    with_clean_registry(|| {
        {
            let _offline = span("offline");
            {
                let _map = span("tconmap");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _tpar = span("tpar");
                {
                    let _route = span("route");
                    std::thread::sleep(Duration::from_millis(3));
                }
            }
        }
        let spans = registry().spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n);
        let offline = by_name("offline");
        let tconmap = by_name("tconmap");
        let tpar = by_name("tpar");
        let route = by_name("route");

        // Parentage reflects lexical nesting.
        assert_eq!(offline.parent, None);
        assert_eq!(tconmap.parent, Some(0));
        assert_eq!(tpar.parent, Some(0));
        assert_eq!(route.parent.map(|p| spans[p].name.clone()), Some("tpar".into()));
        assert_eq!(route.depth, 2);

        // Start offsets are monotone along any path, and children start
        // no earlier than their parent.
        assert!(tconmap.start >= offline.start);
        assert!(tpar.start >= tconmap.start);
        assert!(route.start >= tpar.start);

        // A parent's duration dominates the sum of its children's.
        let children_sum = tconmap.dur.unwrap() + tpar.dur.unwrap();
        assert!(
            offline.dur.unwrap() >= children_sum,
            "offline {:?} < children {children_sum:?}",
            offline.dur
        );
        assert!(tpar.dur.unwrap() >= route.dur.unwrap());

        // Every child lies inside its parent's window.
        let end = |s: &pfdbg_obs::SpanRecord| s.start + s.dur.unwrap();
        assert!(end(route) <= end(tpar) + Duration::from_micros(50));
        assert!(end(tpar) <= end(offline) + Duration::from_micros(50));
    });
}

#[test]
fn counters_aggregate_across_threads() {
    with_clean_registry(|| {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 1000;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let _worker = span(&format!("worker{t}"));
                        for _ in 0..PER_THREAD {
                            counter_add("emu.cycles", 1);
                        }
                        counter_add("scg.turns", t as u64)
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker");
            }
        });

        assert_eq!(registry().counter_value("emu.cycles"), THREADS as u64 * PER_THREAD);
        assert_eq!(registry().counter_value("scg.turns"), (0..THREADS as u64).sum::<u64>());
        // Worker spans all recorded as roots of their own threads.
        let spans = registry().spans();
        assert_eq!(spans.len(), THREADS);
        assert!(spans.iter().all(|s| s.parent.is_none() && s.dur.is_some()));
    });
}

#[test]
fn disabled_instrumentation_is_nearly_free_and_records_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_enabled(false);
    reset();
    // A disabled call site is one relaxed atomic load (single-digit ns).
    // The bound below is ~100 ns/call — two orders looser than reality,
    // but still far below 2% of any stage this library instruments.
    const CALLS: u32 = 100_000;
    let t0 = std::time::Instant::now();
    for i in 0..CALLS {
        let _s = span("offline");
        counter_add("emu.cycles", 1);
        gauge_set("bdd.nodes", i as f64);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(30),
        "{CALLS} disabled span+counter+gauge calls took {elapsed:?}"
    );
    assert!(registry().spans().is_empty(), "disabled spans must not be recorded");
    assert_eq!(registry().counter_value("emu.cycles"), 0);
}

#[test]
fn jsonl_export_round_trips_through_summary() {
    with_clean_registry(|| {
        {
            let _offline = span("offline");
            {
                let _tpar = span("tpar");
                counter_add("tpar.route_iterations", 12);
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _gen = span("genbits");
                std::thread::sleep(Duration::from_millis(1));
            }
            counter_add("scg.frames_changed", 3);
            counter_add("scg.icap_bytes", 3 * 164);
            gauge_set("bdd.nodes", 4096.0);
        }

        let jsonl = registry().to_jsonl();
        let events = parse_jsonl(&jsonl).expect("export parses");
        let summary = summarize(&events);

        assert_eq!(summary.schema, "pfdbg-obs/3");
        assert_eq!(summary.stages.len(), 3);
        assert_eq!(summary.stages[0].name, "offline");
        assert!((summary.stages[0].fraction - 1.0).abs() < 1e-9, "single root owns the total");
        // Stage fractions of the root's children stay within the root.
        let child_frac: f64 = summary.stages[1..].iter().map(|s| s.fraction).sum();
        assert!(child_frac <= 1.0 + 1e-9, "children sum to {child_frac}");
        // Durations survive the round trip to within export precision.
        let spans = registry().spans();
        for (rec, stage) in spans.iter().zip(&summary.stages) {
            let delta = rec.dur.unwrap().abs_diff(stage.dur);
            assert!(delta < Duration::from_micros(1), "{}: {delta:?}", rec.name);
        }
        assert!(summary.counters.contains(&("tpar.route_iterations".to_string(), 12)));
        assert!(summary.counters.contains(&("scg.icap_bytes".to_string(), 492)));
        assert_eq!(summary.gauges, vec![("bdd.nodes".to_string(), 4096.0)]);

        // The rendered report shows the hierarchy and the counters.
        let rendered = summary.to_string();
        assert!(rendered.contains("offline"), "{rendered}");
        assert!(rendered.contains("  tpar"), "{rendered}");
        assert!(rendered.contains("tpar.route_iterations"), "{rendered}");
    });
}
