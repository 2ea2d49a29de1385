//! The metrics a run reports, and the result it prints.
//!
//! These tables and `BENCHMARK.json` name the same metrics with the same
//! units; a test holds them together.

use crate::json::Json;

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("device_us_per_turn", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wires_used", "count"),
];

/// Per-layer metrics, reported by traced runs. A layer a workload never
/// exercises reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.instrument_ms", "ms"),
    ("map.tconmap_ms", "ms"),
    ("pr.pack_ms", "ms"),
    ("pr.place_ms", "ms"),
    ("pr.route_ms", "ms"),
    ("pr.route_iterations", "count"),
    ("pconf.genbits_ms", "ms"),
    ("pconf.genbits.bdd_nodes", "count"),
    ("pconf.genbits.tunable_bits", "count"),
    ("util.par.threads", "count"),
    ("serve.protocol.parse_us", "us"),
    ("serve.server.request_us_p50", "us"),
    ("serve.server.request_us_p99", "us"),
    ("serve.net_us_p50", "us"),
    ("serve.shard.inbox_wait_us_p50", "us"),
    ("serve.shard.inbox_wait_us_p99", "us"),
    ("serve.session.turn_us_p50", "us"),
    ("serve.session.turn_us_p99", "us"),
    ("serve.session.select_us_p50", "us"),
    ("serve.lru.hit_ratio", "ratio"),
    ("serve.lru.get_us", "us"),
    ("serve.lru.put_us", "us"),
    ("pconf.scg.specialize_us_p50", "us"),
    ("pconf.scg.specialize_us_p99", "us"),
    ("pconf.scg.eval_us_p50", "us"),
    ("pconf.scg.diff_us_p50", "us"),
    ("pconf.scg.specializations", "count"),
    ("pconf.icap.commit_us_p50", "us"),
    ("pconf.icap.frames_per_turn", "count"),
    ("pconf.icap.bits_per_turn", "count"),
    ("pconf.icap.retries_per_turn", "count"),
    ("pconf.icap.verify_ratio", "ratio"),
    ("pconf.icap.rollbacks", "count"),
    ("pconf.icap.readback_us", "us"),
    ("pconf.scrub.pass_us_p50", "us"),
    ("pconf.scrub.repairs", "count"),
    ("pconf.scrub.upset_frames", "count"),
    ("pconf.health.watchdog_trips", "count"),
    ("emu.seu.bits_injected", "count"),
    ("replay.journal.append_us_p50", "us"),
    ("replay.journal.records", "count"),
    ("core.online.turn_us_p50", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_us", "us"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted: requests sent plus correctness checks.
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or mismatched.
    pub failed: u64,
    /// Named correctness checks beyond the failure count.
    pub checks: Vec<(&'static str, bool)>,
    /// Facts recorded with the result: request counts, the server
    /// configuration as read back from the server, the design.
    pub details: Vec<(&'static str, Json)>,
}

impl RunOutput {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.iter().rev().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
    }

    fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// `{name: {value, unit}}` over the table the run reports.
    pub fn metrics_json(&self, traced: bool) -> Json {
        Json::obj(Self::table(traced).iter().map(|&(name, unit)| {
            (name, Json::obj([("value", Json::Num(self.value(name))), ("unit", Json::str(unit))]))
        }))
    }

    /// Checks that fail, including metrics that are missing or not
    /// finite, and end-to-end metrics that read 0.
    pub fn failed_checks(&self, traced: bool) -> Vec<String> {
        let mut bad: Vec<String> =
            self.checks.iter().filter(|(_, ok)| !ok).map(|(n, _)| n.to_string()).collect();
        for &(name, _) in Self::table(traced) {
            let v = self.value(name);
            if !v.is_finite() || (!traced && v <= 0.0) {
                bad.push(format!("metric {name} = {v}"));
            }
        }
        bad
    }

    pub fn correct(&self, traced: bool) -> bool {
        self.failed == 0 && self.failed_checks(traced).is_empty()
    }

    /// The line the benchmark ends its output with.
    pub fn result_line(&self, traced: bool) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct(traced))),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(traced)),
        ])
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
