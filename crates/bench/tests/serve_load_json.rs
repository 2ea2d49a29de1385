//! `serve_load` report regression tests: the emitted BENCH JSON must
//! strict-parse (no bare NaN, which is not JSON) and carry the server's
//! `stats` fields, a device-fleet chaos run must carry the fleet fields
//! `check.sh` gates on, and an in-process report must name the chaos
//! rates its server ran and balance its request ledger.

use pfdbg_obs::jsonl::{parse_jsonl, Event, JsonValue};
use std::process::Command;

fn run_serve_load(out: &std::path::Path, extra: &[&str]) -> Event {
    run_serve_load_with_env(out, extra, &[])
}

fn run_serve_load_with_env(out: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> Event {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve_load"));
    cmd.args(["--threads", "2", "--sessions", "4", "--out"]).arg(out);
    cmd.args(extra);
    cmd.envs(env.iter().copied());
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
fn closed_loop_report_strict_parses_with_server_stats() {
    let out = std::env::temp_dir()
        .join(format!("pfdbg-serve-load-json-closed-{}.json", std::process::id()));
    let ev = run_serve_load(&out, &["--requests", "3"]);
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

/// The in-process server takes its transport faults from
/// `PFDBG_ICAP_FAULT_RATE` when `--icap-fault-rate` is unset, so the
/// report must carry that rate, not the unset flag's 0 next to nonzero
/// retries; likewise the upset rate. Every issued request lands in
/// exactly one bucket of the ledger.
#[test]
fn in_process_report_names_the_rates_its_server_ran() {
    let out = std::env::temp_dir()
        .join(format!("pfdbg-serve-load-json-rates-{}.json", std::process::id()));
    let ev = run_serve_load_with_env(
        &out,
        &["--requests", "20", "--seu-rate", "0.05"],
        &[("PFDBG_ICAP_FAULT_RATE", "0.05")],
    );
    let num = |field: &str| ev.num(field).unwrap_or_else(|| panic!("{field} missing: {ev:?}"));
    let fault_rate = num("icap_fault_rate");
    assert!((fault_rate - 0.05).abs() < 1e-9, "icap_fault_rate {fault_rate}: {ev:?}");
    assert_eq!(num("seu_rate"), 0.05, "{ev:?}");
    if num("icap_retries") > 0.0 {
        assert!(fault_rate > 0.0, "retries without a fault rate: {ev:?}");
    }
    if num("seu_bits_injected") > 0.0 {
        assert!(num("seu_rate") > 0.0, "upsets without an upset rate: {ev:?}");
    }
    let buckets = ["requests_ok", "overloaded_replies", "migrating_replies", "failures"];
    let landed: f64 = buckets.iter().map(|field| num(field)).sum();
    assert_eq!(num("requests_issued"), landed, "the request ledger does not balance: {ev:?}");
    std::fs::remove_file(&out).ok();
}
