//! Traced runs: the spans they keep in memory, written out at exit, and
//! `pfbench layers`, which turns a trace back into self time per layer.
//!
//! A trace file is `pfdbg-obs` JSONL — the registry's own export (its
//! spans, counters, gauges and the always-on hub histograms) — followed
//! by the sampled client request spans in the same `span` schema and one
//! `metric` line per per-layer metric, so `pfdbg report` reads it too.

use crate::load::ClientSpan;
use crate::probe::stage_sum_us;
use crate::report::{RunOutput, PER_LAYER};
use pfdbg_obs::jsonl::{parse_jsonl, write_object, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

pub fn write(path: &Path, client: &[ClientSpan], out: &RunOutput) -> Result<(), String> {
    let mut text = pfdbg_obs::registry().to_jsonl();
    let first_id = pfdbg_obs::registry().spans().len();
    for (i, s) in client.iter().enumerate() {
        text.push_str(&write_object(&[
            ("type", JsonValue::Str("span".into())),
            ("id", JsonValue::Num((first_id + i) as f64)),
            ("name", JsonValue::Str("client.request".into())),
            ("depth", JsonValue::Num(0.0)),
            ("start_us", JsonValue::Num(s.start_ns as f64 / 1e3)),
            ("dur_us", JsonValue::Num(s.dur_ns as f64 / 1e3)),
            ("req", JsonValue::Num(s.req as f64)),
        ]));
        text.push('\n');
    }
    for &(name, unit) in &PER_LAYER {
        text.push_str(&write_object(&[
            ("type", JsonValue::Str("metric".into())),
            ("name", JsonValue::Str(name.into())),
            ("value", JsonValue::Num(out.value(name))),
            ("unit", JsonValue::Str(unit.into())),
        ]));
        text.push('\n');
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `pfbench layers TRACE`: self time per span name, then the
/// reconciliation of the turn's stages against the server's turn time.
pub fn layers(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = parse_jsonl(&text)?;
    // id -> (name, duration); children durations summed per parent.
    let mut spans: BTreeMap<u64, (String, f64)> = BTreeMap::new();
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    for ev in &events {
        match ev.kind() {
            "span" => {
                let (Some(id), Some(name)) = (ev.num("id"), ev.str("name")) else { continue };
                let dur = ev.num("dur_us").unwrap_or(0.0);
                spans.insert(id as u64, (name.to_string(), dur));
                if let Some(p) = ev.num("parent") {
                    *child_us.entry(p as u64).or_default() += dur;
                }
            }
            "metric" => {
                if let (Some(name), Some(v)) = (ev.str("name"), ev.num("value")) {
                    metrics.insert(name.to_string(), v);
                }
            }
            _ => {}
        }
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (id, (name, dur)) in &spans {
        let own = (dur - child_us.get(id).copied().unwrap_or(0.0)).max(0.0);
        by_name.entry(name).or_default().push(own);
    }
    let total: f64 = by_name.values().flatten().sum();
    let mut rows: Vec<(&str, usize, f64, f64)> = by_name
        .iter()
        .map(|(n, xs)| {
            (*n, xs.len(), xs.iter().sum(), pfdbg_util::stats::median(xs).unwrap_or(0.0))
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut report = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>7}\n",
        "layer (span)", "count", "self ms", "self p50 us", "share"
    );
    for (name, n, sum, p50) in &rows {
        report.push_str(&format!(
            "{name:<28} {n:>8} {:>12.3} {p50:>12.2} {:>6.1}%\n",
            sum / 1e3,
            100.0 * sum / total.max(1e-9)
        ));
    }
    let p50 = |name: &str| by_name.get(name).and_then(|xs| pfdbg_util::stats::median(xs));
    let metric = |name: &str| metrics.get(name).copied().unwrap_or(f64::NAN);
    if let Some(offline) = p50("offline") {
        report.push_str(&format!(
            "reconcile offline: median compile self time (outside the stage spans) {offline:.1} us\n"
        ));
    }
    let turn = metric("serve.session.turn_us_p50");
    if turn > 0.0 {
        // Sessions journal (serve-repair) when the server appended records.
        let journaled = metric("replay.journal.records") > 0.0;
        let staged =
            stage_sum_us(|l| p50(l).unwrap_or(0.0), metric("serve.lru.hit_ratio"), journaled);
        report.push_str(&format!(
            "reconcile turn: stages {staged:.1} us vs serve.session.turn_us_p50 {turn:.1} us -> \
             unattributed {:.1} us (recorded trace.unattributed_us {:.1})\n",
            turn - staged,
            metric("trace.unattributed_us")
        ));
    }
    Ok(report)
}
