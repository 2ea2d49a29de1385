//! Always-on telemetry handles for the serve layer.
//!
//! Every handle here is a `Lazy*` static from `pfdbg-obs`: after the
//! first touch, an update is one relaxed atomic on a sharded cell — no
//! registry mutex, no `enabled()` gate. These feed the `metrics`
//! protocol verb and the `pfdbg top` dashboard, so they stay hot even
//! when nobody asked for a profile (the profiling layer's spans and
//! gated counters remain off by default and are unaffected).
//!
//! They are process-wide. The counts of turns, cache lookups, faults,
//! scrubs and device events are not here: each `SessionManager` keeps
//! them in its own counter table, which `stats` and `metrics` both
//! render. What stays here is per process: four request-level counters
//! (a reply slot's `Drop` counts errors with no manager in reach), the
//! latency histograms, and the SLO budgets.
//!
//! Naming: `serve.*` for the service, `scg.specialize_us` for the
//! paper's headline latency, and `slo.*` for the declared budgets (a
//! distinct prefix — the hub keys metrics by name, so an SLO may not
//! shadow its histogram).

use pfdbg_obs::{LazyCounter, LazyHistogram, LazySlo};

/// Requests handled (any verb, including errors).
pub(crate) static REQUESTS: LazyCounter = LazyCounter::new("serve.requests");
/// Requests answered with an error reply.
pub(crate) static ERRORS: LazyCounter = LazyCounter::new("serve.errors");
/// Connections accepted.
pub(crate) static CONNECTIONS: LazyCounter = LazyCounter::new("serve.connections");
/// Selects rejected at the deadline gate.
pub(crate) static DEADLINE_MISSES: LazyCounter = LazyCounter::new("serve.deadline_misses");

/// Wall time per protocol request (parse to reply).
pub(crate) static REQUEST_US: LazyHistogram = LazyHistogram::new("serve.request_us");
/// Wall time per committed turn (lock to commit-verified).
pub(crate) static TURN_US: LazyHistogram = LazyHistogram::new("serve.turn_us");
/// Host-side SCG specialization time on cache misses — the paper's
/// ≤ 50 µs claim.
pub(crate) static SPECIALIZE_US: LazyHistogram = LazyHistogram::new("scg.specialize_us");
/// Time client jobs spend queued in a shard inbox before execution.
pub(crate) static INBOX_WAIT_US: LazyHistogram = LazyHistogram::new("serve.inbox_wait_us");
/// Wall time per device migration, failover start to last shard
/// finishing its journal re-drives — in milliseconds (re-drives span
/// whole session histories, so µs buckets would saturate).
pub(crate) static MIGRATION_MS: LazyHistogram = LazyHistogram::new("serve.migration_ms");

/// Specialization budget: the paper's 50 µs bound.
pub(crate) static SLO_SPECIALIZE: LazySlo = LazySlo::new("slo.specialize_us", 50.0);
/// Turn budget; rebound to the server's default deadline at startup.
pub(crate) static SLO_TURN: LazySlo = LazySlo::new("slo.turn_us", 1_000_000.0);
/// Scrub cadence: actual walk-to-walk interval vs. 2× the configured
/// one; rebound at startup, infinite (never burned) when disabled.
pub(crate) static SLO_SCRUB: LazySlo = LazySlo::new("slo.scrub_interval_us", f64::INFINITY);
/// Inbox-wait budget: a client job should start executing within a
/// quarter of the default turn deadline; rebound at startup.
pub(crate) static SLO_INBOX: LazySlo = LazySlo::new("slo.inbox_wait_us", 250_000.0);
/// Migration budget: a failover (journal re-drives included) should
/// finish within five seconds — observed in milliseconds.
pub(crate) static SLO_MIGRATION: LazySlo = LazySlo::new("slo.migration_ms", 5_000.0);
