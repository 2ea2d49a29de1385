//! `compile_time` report regression test: the emitted BENCH JSON must
//! strict-parse (no bare NaN, which is not JSON) and be consistent with
//! itself — stage times that fit inside the total, a parameterized flow
//! no larger than the conventional one, and a provenance block naming
//! the build profile that produced it.

use pfdbg_obs::jsonl::{parse_jsonl, Event, JsonValue};
use std::process::Command;

/// The one object in `text`.
fn parse_one(text: &str) -> Event {
    let mut events = parse_jsonl(text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
    assert_eq!(events.len(), 1, "one object: {text:?}");
    events.remove(0)
}

#[test]
fn report_strict_parses_and_adds_up() {
    let out =
        std::env::temp_dir().join(format!("pfdbg-compile-time-json-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_compile_time"))
        .args(["stereov.", "--runs", "1", "--out"])
        .arg(&out)
        .status()
        .expect("spawn compile_time");
    assert!(status.success(), "compile_time exited with {status}");
    let text = std::fs::read_to_string(&out).expect("read report");
    std::fs::remove_file(&out).ok();

    // The flat parser reads the report and its nested provenance block
    // as two objects; the report must end with that block.
    let line = text.strip_suffix('\n').unwrap_or(&text);
    assert!(!line.contains('\n'), "one report line: {text:?}");
    let (head, provenance) =
        line.split_once(",\"provenance\":").expect("report carries a provenance block");
    let report = parse_one(&format!("{head}}}"));
    let provenance =
        parse_one(provenance.strip_suffix('}').expect("the provenance block closes the report"));

    let num = |field: &str| {
        report.num(field).unwrap_or_else(|| panic!("{field} missing or non-numeric: {text}"))
    };
    assert_eq!(report.str("design"), Some("stereov."), "{text}");
    assert_eq!(num("runs"), 1.0, "{text}");
    let stages = ["map_ms", "pack_ms", "place_ms", "route_ms", "genbits_ms"];
    for field in stages.iter().chain(&["total_ms"]) {
        let ms = num(field);
        assert!(ms.is_finite() && ms >= 0.0, "{field} = {ms}: {text}");
    }
    let staged: f64 = stages.iter().map(|field| num(field)).sum();
    assert!(staged <= num("total_ms"), "stages sum to {staged} ms, past total_ms: {text}");
    assert!(num("param_wires") < num("conv_wires"), "{text}");
    assert!(num("param_clbs") <= num("conv_clbs"), "{text}");

    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    assert_eq!(provenance.str("profile"), Some(profile), "{text}");
    assert!(matches!(provenance.fields.get("rustc"), Some(JsonValue::Str(s)) if !s.is_empty()));
    assert!(provenance.num("host_threads").is_some_and(|n| n >= 1.0), "{text}");
}
