//! `serve_load` report regression tests: the emitted BENCH JSON must
//! strict-parse (regression for the closed-loop `target_rps` literal
//! NaN, which is not JSON) and carry the server's `stats` fields, and a
//! device-fleet chaos run must carry the fleet fields `check.sh` gates
//! on.

use pfdbg_obs::jsonl::{parse_jsonl, Event, JsonValue};
use std::process::Command;

fn run_serve_load(out: &std::path::Path, extra: &[&str]) -> Event {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve_load"));
    cmd.args(["--threads", "2", "--sessions", "4", "--out"]).arg(out);
    cmd.args(extra);
    let status = cmd.status().expect("spawn serve_load");
    assert!(status.success(), "serve_load exited with {status}");
    let text = std::fs::read_to_string(out).expect("read report");
    // The strict parser rejects bare NaN/Infinity — this line is the
    // whole regression.
    let mut events = parse_jsonl(&text).expect("report must strict-parse");
    assert_eq!(events.len(), 1, "one report object: {text:?}");
    events.remove(0)
}

#[test]
fn closed_loop_report_strict_parses_with_null_target_rps() {
    let out = std::env::temp_dir()
        .join(format!("pfdbg-serve-load-json-closed-{}.json", std::process::id()));
    let ev = run_serve_load(&out, &["--requests", "3"]);
    assert_eq!(ev.fields.get("open_loop"), Some(&JsonValue::Bool(false)));
    // Closed-loop runs have no pacing target: null, never NaN.
    assert_eq!(ev.fields.get("target_rps"), Some(&JsonValue::Null), "{ev:?}");
    assert_eq!(ev.num("failures"), Some(0.0));
    // The server's `stats` reply rides along whole, not a hand-picked
    // subset of it.
    for field in ["turns", "cache_hits", "icap_retries", "shed_total"] {
        assert!(
            matches!(ev.fields.get(field), Some(JsonValue::Num(_))),
            "stats field {field} missing or non-numeric: {ev:?}"
        );
    }
    std::fs::remove_file(&out).ok();
}

#[test]
fn device_fleet_report_carries_fleet_fields() {
    let out = std::env::temp_dir()
        .join(format!("pfdbg-serve-load-json-fleet-{}.json", std::process::id()));
    let ev = run_serve_load(
        &out,
        &[
            "--requests",
            "20",
            "--devices",
            "2",
            "--spares",
            "1",
            "--journal",
            "--kill-device-at",
            "5",
        ],
    );
    // 2 primaries + 1 spare, as the server reports it.
    assert_eq!(ev.num("devices"), Some(3.0), "{ev:?}");
    for field in [
        "migrations",
        "watchdog_trips",
        "device_failures",
        "sessions_migrated",
        "sessions_lost",
        "migrating_replies",
    ] {
        assert!(
            matches!(ev.fields.get(field), Some(JsonValue::Num(_))),
            "fleet field {field} missing or non-numeric: {ev:?}"
        );
    }
    // Device 0 was armed to die after 5 frame writes and every session
    // is journaled, so the failover must have dropped nothing.
    assert!(ev.num("migrations").unwrap() >= 1.0, "kill never triggered a failover: {ev:?}");
    assert_eq!(ev.num("sessions_lost"), Some(0.0), "{ev:?}");
    std::fs::remove_file(&out).ok();
}
