//! The always-on metrics hub: sharded atomic counters, gauges, SLOs,
//! and [`Histogram`]s behind a process-global registry.
//!
//! Unlike the profiling registry ([`crate::registry`]), which is off by
//! default and mutex-guarded, the hub is **always on** and its data
//! path is lock-free: a counter add is a relaxed `fetch_add` on a
//! per-thread shard, a histogram record is one `fetch_add` on a bucket,
//! a gauge set is one atomic store. The only lock is a `RwLock` over
//! the name → handle table, taken *shared* for dynamic-name lookups and
//! *exclusive* only when a name is first registered. Hot paths avoid
//! even the read lock by holding a [`LazyCounter`] / [`LazyHistogram`]
//! / [`LazySlo`] static, which resolves its `&'static` handle once and
//! is pure atomics afterwards.
//!
//! Handles are `Box::leak`ed on first registration — the set of metric
//! names in a process is small and fixed, so the "leak" is a one-time
//! static allocation, which is what lets lookups hand out `&'static`
//! references without unsafe code.

use crate::hist::{HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// Shards per counter: enough that 8 concurrent writers rarely share a
/// cache line, small enough that a snapshot sum stays trivial.
const SHARDS: usize = 8;

/// One cache line per shard so concurrent writers do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// Each thread gets a stable shard index round-robin at first use.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// A monotonically increasing counter, striped across `SHARDS` (8)
/// per-thread shards so concurrent adds never contend on one line.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Add `delta` — one relaxed `fetch_add` on this thread's shard.
    #[inline]
    pub fn add(&self, delta: u64) {
        let shard = MY_SHARD.with(|s| *s);
        self.shards[shard].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total (sum over shards).
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn clear(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins gauge storing an `f64` as atomic bits. Tracks
/// whether it was ever set so snapshots can distinguish "explicitly 0"
/// from "never touched".
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
    set: AtomicBool,
}

impl Gauge {
    /// Set the gauge — two relaxed atomic stores.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        self.set.store(true, Ordering::Relaxed);
    }

    /// Current value, `None` if never set since the last reset.
    pub fn value(&self) -> Option<f64> {
        if self.set.load(Ordering::Relaxed) {
            Some(f64::from_bits(self.bits.load(Ordering::Relaxed)))
        } else {
            None
        }
    }

    fn clear(&self) {
        self.set.store(false, Ordering::Relaxed);
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// One service-level objective: a declared latency budget plus burn
/// accounting. `observe_us` is two relaxed `fetch_add`s; the budget is
/// adjustable after registration (servers set it from their config).
#[derive(Debug)]
pub struct Slo {
    budget_us_bits: AtomicU64,
    total: AtomicU64,
    burned: AtomicU64,
}

impl Slo {
    fn new(budget_us: f64) -> Slo {
        Slo {
            budget_us_bits: AtomicU64::new(budget_us.to_bits()),
            total: AtomicU64::new(0),
            burned: AtomicU64::new(0),
        }
    }

    /// The declared budget in microseconds.
    pub fn budget_us(&self) -> f64 {
        f64::from_bits(self.budget_us_bits.load(Ordering::Relaxed))
    }

    /// Re-declare the budget (e.g. from a server's configured deadline).
    pub fn set_budget_us(&self, budget_us: f64) {
        self.budget_us_bits.store(budget_us.to_bits(), Ordering::Relaxed);
    }

    /// Record one observation in microseconds; burns budget when over.
    #[inline]
    pub fn observe_us(&self, us: f64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if us > self.budget_us() {
            self.burned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Observations that exceeded the budget.
    pub fn burned(&self) -> u64 {
        self.burned.load(Ordering::Relaxed)
    }

    /// Burned share of all observations (0 when none recorded).
    pub fn burn_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.burned() as f64 / total as f64
        }
    }

    fn clear(&self) {
        self.total.store(0, Ordering::Relaxed);
        self.burned.store(0, Ordering::Relaxed);
    }
}

/// One registered metric handle.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Hist(&'static Histogram),
    Slo(&'static Slo),
}

/// The process-global metric table. The data path never takes the
/// write lock: reads are shared, and the updates themselves are plain
/// atomics on leaked `'static` cells.
#[derive(Debug, Default)]
pub struct MetricsHub {
    entries: RwLock<BTreeMap<String, Metric>>,
}

/// The global hub.
pub fn hub() -> &'static MetricsHub {
    static HUB: OnceLock<MetricsHub> = OnceLock::new();
    HUB.get_or_init(MetricsHub::default)
}

impl MetricsHub {
    fn lookup(&self, name: &str) -> Option<Metric> {
        self.entries.read().expect("metrics hub").get(name).copied()
    }

    fn register_with(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut table = self.entries.write().expect("metrics hub");
        *table.entry(name.to_string()).or_insert_with(make)
    }

    /// The counter registered under `name` (created on first use).
    /// Registering a name that already holds a different metric kind
    /// returns a detached handle rather than panicking — adds to it are
    /// simply invisible, which a test will catch long before prod.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let m = match self.lookup(name) {
            Some(m) => m,
            None => self.register_with(name, || Metric::Counter(Box::leak(Box::default()))),
        };
        match m {
            Metric::Counter(c) => c,
            _ => Box::leak(Box::default()),
        }
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let m = match self.lookup(name) {
            Some(m) => m,
            None => self.register_with(name, || Metric::Gauge(Box::leak(Box::default()))),
        };
        match m {
            Metric::Gauge(g) => g,
            _ => Box::leak(Box::default()),
        }
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let m = match self.lookup(name) {
            Some(m) => m,
            None => {
                self.register_with(name, || Metric::Hist(Box::leak(Box::new(Histogram::new()))))
            }
        };
        match m {
            Metric::Hist(h) => h,
            _ => Box::leak(Box::new(Histogram::new())),
        }
    }

    /// The SLO registered under `name`; `budget_us` applies only on
    /// first registration (use [`Slo::set_budget_us`] to re-declare).
    pub fn slo(&self, name: &str, budget_us: f64) -> &'static Slo {
        let m = match self.lookup(name) {
            Some(m) => m,
            None => {
                self.register_with(name, || Metric::Slo(Box::leak(Box::new(Slo::new(budget_us)))))
            }
        };
        match m {
            Metric::Slo(s) => s,
            _ => Box::leak(Box::new(Slo::new(budget_us))),
        }
    }

    /// Dynamic-name counter add: shared-lock lookup, atomic add.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        match self.lookup(name) {
            Some(Metric::Counter(c)) => c.add(delta),
            Some(_) => {}
            None => self.counter(name).add(delta),
        }
    }

    /// Dynamic-name gauge set: shared-lock lookup, atomic store.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        match self.lookup(name) {
            Some(Metric::Gauge(g)) => g.set(value),
            Some(_) => {}
            None => self.gauge(name).set(value),
        }
    }

    /// One counter's current value (0 when absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.lookup(name) {
            Some(Metric::Counter(c)) => c.value(),
            _ => 0,
        }
    }

    /// Non-zero counters, sorted by name. Zero-valued counters are
    /// indistinguishable from never-touched ones and are omitted, which
    /// keeps exports stable across [`MetricsHub::zero_all`].
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.entries
            .read()
            .expect("metrics hub")
            .iter()
            .filter_map(|(k, m)| match m {
                Metric::Counter(c) if c.value() > 0 => Some((k.clone(), c.value())),
                _ => None,
            })
            .collect()
    }

    /// Gauges that have been set, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.entries
            .read()
            .expect("metrics hub")
            .iter()
            .filter_map(|(k, m)| match m {
                Metric::Gauge(g) => g.value().map(|v| (k.clone(), v)),
                _ => None,
            })
            .collect()
    }

    /// Non-empty histograms as `(name, snapshot)`, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistSnapshot)> {
        self.entries
            .read()
            .expect("metrics hub")
            .iter()
            .filter_map(|(k, m)| match m {
                Metric::Hist(h) => {
                    let snap = h.snapshot();
                    (snap.count() > 0).then(|| (k.clone(), snap))
                }
                _ => None,
            })
            .collect()
    }

    /// SLOs with at least one observation, sorted by name, as
    /// `(name, budget_us, total, burned)`.
    pub fn slos(&self) -> Vec<(String, f64, u64, u64)> {
        self.entries
            .read()
            .expect("metrics hub")
            .iter()
            .filter_map(|(k, m)| match m {
                Metric::Slo(s) if s.total() > 0 => {
                    Some((k.clone(), s.budget_us(), s.total(), s.burned()))
                }
                _ => None,
            })
            .collect()
    }

    /// Is the hub free of any recorded data? (Names may persist.)
    pub fn is_pristine(&self) -> bool {
        self.entries.read().expect("metrics hub").values().all(|m| match m {
            Metric::Counter(c) => c.value() == 0,
            Metric::Gauge(g) => g.value().is_none(),
            Metric::Hist(h) => h.count() == 0,
            Metric::Slo(s) => s.total() == 0,
        })
    }

    /// Zero every metric (registered names persist) — test isolation
    /// and `pfdbg_obs::reset`.
    pub fn zero_all(&self) {
        for m in self.entries.read().expect("metrics hub").values() {
            match m {
                Metric::Counter(c) => c.clear(),
                Metric::Gauge(g) => g.clear(),
                Metric::Hist(h) => h.clear(),
                Metric::Slo(s) => s.clear(),
            }
        }
    }

    /// Append the hub's histogram and SLO events to a JSONL export
    /// (`hist` and `slo` kinds; counters/gauges are exported by the
    /// registry under the legacy `counter`/`gauge` kinds).
    pub fn append_jsonl(&self, out: &mut String) {
        use crate::jsonl::{write_object, JsonValue};
        for (name, snap) in self.histograms() {
            let p = |q: f64| JsonValue::Num(snap.percentile_us(q).unwrap_or(f64::NAN));
            out.push_str(&write_object(&[
                ("type", JsonValue::Str("hist".into())),
                ("name", JsonValue::Str(name)),
                ("count", JsonValue::Num(snap.count() as f64)),
                ("p50_us", p(50.0)),
                ("p90_us", p(90.0)),
                ("p99_us", p(99.0)),
                ("p999_us", p(99.9)),
                ("buckets", JsonValue::Str(snap.buckets_string())),
            ]));
            out.push('\n');
        }
        for (name, budget_us, total, burned) in self.slos() {
            out.push_str(&write_object(&[
                ("type", JsonValue::Str("slo".into())),
                ("name", JsonValue::Str(name)),
                ("budget_us", JsonValue::Num(budget_us)),
                ("total", JsonValue::Num(total as f64)),
                ("burned", JsonValue::Num(burned as f64)),
                (
                    "burn_pct",
                    JsonValue::Num(if total > 0 {
                        burned as f64 / total as f64 * 100.0
                    } else {
                        0.0
                    }),
                ),
            ]));
            out.push('\n');
        }
    }
}

/// A hot-path counter handle: declare as a `static`, and after the
/// first `add` the call is a `OnceLock` load plus one `fetch_add` —
/// no name lookup, no lock of any kind.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A handle for `name` (registered in the hub on first use).
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter { name, cell: OnceLock::new() }
    }

    fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| hub().counter(self.name))
    }

    /// Add `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.get().add(delta);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.get().value()
    }
}

/// A hot-path histogram handle — see [`LazyCounter`].
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A handle for `name` (registered in the hub on first use).
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram { name, cell: OnceLock::new() }
    }

    /// The underlying histogram.
    pub fn get(&self) -> &'static Histogram {
        self.cell.get_or_init(|| hub().histogram(self.name))
    }

    /// Record nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.get().record(ns);
    }

    /// Record a duration.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.get().record_duration(d);
    }

    /// Record microseconds.
    #[inline]
    pub fn record_us(&self, us: f64) {
        self.get().record_us(us);
    }
}

/// A hot-path gauge handle — see [`LazyCounter`]. After the first
/// `set` the call is a `OnceLock` load plus two relaxed stores.
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A handle for `name` (registered in the hub on first use).
    pub const fn new(name: &'static str) -> LazyGauge {
        LazyGauge { name, cell: OnceLock::new() }
    }

    fn get(&self) -> &'static Gauge {
        self.cell.get_or_init(|| hub().gauge(self.name))
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.get().set(value);
    }

    /// Current value, `None` if never set since the last reset.
    pub fn value(&self) -> Option<f64> {
        self.get().value()
    }
}

/// A hot-path SLO handle — see [`LazyCounter`]. The budget declared
/// here applies on first registration; call
/// [`LazySlo::set_budget_us`] to re-declare from runtime config.
#[derive(Debug)]
pub struct LazySlo {
    name: &'static str,
    budget_us: f64,
    cell: OnceLock<&'static Slo>,
}

impl LazySlo {
    /// A handle for `name` with a default budget in microseconds.
    pub const fn new(name: &'static str, budget_us: f64) -> LazySlo {
        LazySlo { name, budget_us, cell: OnceLock::new() }
    }

    /// The underlying SLO.
    pub fn get(&self) -> &'static Slo {
        self.cell.get_or_init(|| hub().slo(self.name, self.budget_us))
    }

    /// Record one observation in microseconds.
    #[inline]
    pub fn observe_us(&self, us: f64) {
        self.get().observe_us(us);
    }

    /// Re-declare the budget.
    pub fn set_budget_us(&self, budget_us: f64) {
        self.get().set_budget_us(budget_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_slos_roundtrip() {
        let hub = MetricsHub::default();
        hub.counter_add("t.counter", 3);
        hub.counter_add("t.counter", 4);
        assert_eq!(hub.counter_value("t.counter"), 7);
        assert_eq!(hub.counter_value("t.absent"), 0);

        hub.gauge_set("t.gauge", 0.0);
        assert_eq!(hub.gauges(), vec![("t.gauge".to_string(), 0.0)]);

        let slo = hub.slo("t.slo", 50.0);
        slo.observe_us(10.0);
        slo.observe_us(60.0);
        assert_eq!((slo.total(), slo.burned()), (2, 1));
        assert!((slo.burn_fraction() - 0.5).abs() < 1e-12);
        slo.set_budget_us(100.0);
        slo.observe_us(60.0);
        assert_eq!((slo.total(), slo.burned()), (3, 1));

        hub.histogram("t.hist").record_us(12.0);
        let mut out = String::new();
        hub.append_jsonl(&mut out);
        assert!(out.contains("\"type\":\"hist\""), "{out}");
        assert!(out.contains("\"type\":\"slo\""), "{out}");
        assert!(!hub.is_pristine());

        hub.zero_all();
        assert!(hub.is_pristine());
        assert_eq!(hub.counter_value("t.counter"), 0);
        assert!(hub.gauges().is_empty());
        assert!(hub.histograms().is_empty());
        assert!(hub.slos().is_empty());
    }

    #[test]
    fn kind_collisions_degrade_to_detached_handles() {
        let hub = MetricsHub::default();
        hub.counter_add("t.name", 1);
        // Asking for the same name as a gauge must not panic or corrupt
        // the counter; the handle is simply detached.
        hub.gauge_set("t.name", 9.0);
        hub.histogram("t.name").record(1);
        hub.slo("t.name", 1.0).observe_us(2.0);
        assert_eq!(hub.counter_value("t.name"), 1);
        assert!(hub.gauges().is_empty());
    }
}
