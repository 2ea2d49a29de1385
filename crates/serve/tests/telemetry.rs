//! Fleet-telemetry tests for the debug service: the `metrics` verb
//! must expose the always-on registry (counters, histograms with
//! specialize percentiles, SLO burn, per-session rows) as embedded
//! JSONL that `pfdbg report` can digest; the `dump` verb must replay a
//! session's flight recorder; and — the acceptance criterion — driving
//! a session to quarantine under chaos must leave an *automatic*
//! flight-recorder dump whose trailing events reconstruct the failing
//! turn sequence.

use pfdbg_core::{prepare_instrumented, CompiledDesign, InstrumentConfig, OfflineConfig};
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_obs::jsonl::JsonValue;
use pfdbg_pconf::ScrubPolicy;
use pfdbg_replay::ChaosSpec;
use pfdbg_serve::server::{Server, ServerConfig};
use pfdbg_serve::session::{ManagerOptions, SessionManager};
use pfdbg_util::BitVec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn build_engine() -> CompiledDesign {
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 8,
        n_outputs: 6,
        n_gates: 40,
        depth: 5,
        n_latches: 2,
        seed: 33,
    });
    let (_, _, inst) = prepare_instrumented(
        &design,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        6,
    )
    .unwrap();
    CompiledDesign::compile(inst, &OfflineConfig::default()).unwrap()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        Client { reader: BufReader::new(stream), writer }
    }

    fn roundtrip(&mut self, line: &str) -> pfdbg_obs::jsonl::Event {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        let mut events = pfdbg_obs::jsonl::parse_jsonl(&reply).unwrap();
        assert_eq!(events.len(), 1, "one reply per request: {reply:?}");
        events.remove(0)
    }
}

fn assert_ok(ev: &pfdbg_obs::jsonl::Event) {
    assert_eq!(ev.fields.get("ok"), Some(&JsonValue::Bool(true)), "expected ok reply: {ev:?}");
}

/// `metrics` and `dump` over the wire: the embedded JSONL carries the
/// always-on counters, the specialize histogram, SLO burn lines, and a
/// per-session row; the flight dump replays the session's turns in
/// order; `health` surfaces SLO burn; `stats` surfaces specialize
/// percentiles.
#[test]
fn metrics_and_dump_verbs_round_trip() {
    let opts = ManagerOptions { cache_capacity: 16, ..ManagerOptions::default() };
    let manager = SessionManager::new(Arc::new(build_engine()), opts);
    let server =
        Server::start(manager, ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
    let mut c = Client::connect(server.local_addr());

    let open = c.roundtrip("{\"op\":\"open\",\"session\":\"m\"}");
    assert_ok(&open);
    let n = open.num("n_params").unwrap() as usize;
    for turn in 0..3 {
        let params: String = (0..n).map(|i| if i == turn % n.max(1) { '1' } else { '0' }).collect();
        assert_ok(&c.roundtrip(&format!(
            "{{\"op\":\"select\",\"session\":\"m\",\"params\":\"{params}\"}}"
        )));
    }

    // ---- metrics: the full registry as embedded JSONL ----
    let metrics = c.roundtrip("{\"op\":\"metrics\"}");
    assert_ok(&metrics);
    assert_eq!(metrics.num("sessions"), Some(1.0));
    let body = metrics.str("metrics").unwrap().to_string();
    assert!(metrics.num("lines").unwrap() as usize == body.lines().count());
    let events = pfdbg_obs::jsonl::parse_jsonl(&body).expect("embedded registry parses");
    let by = |kind: &str, name: &str| {
        events.iter().find(|e| e.kind() == kind && e.str("name") == Some(name))
    };
    let turns = by("counter", "serve.turns").expect("serve.turns counter");
    assert!(turns.num("value").unwrap() >= 3.0);
    let spec = by("hist", "scg.specialize_us").expect("specialize histogram");
    assert!(spec.num("count").unwrap() >= 3.0, "3 cache misses recorded: {spec:?}");
    assert!(spec.num("p99_us").unwrap() > 0.0);
    assert!(spec.str("buckets").unwrap().contains(':'), "bucket string present");
    let slo = by("slo", "slo.specialize_us").expect("specialize SLO");
    assert_eq!(slo.num("budget_us"), Some(50.0));
    assert!(slo.num("total").unwrap() >= 3.0);
    let row = by("session", "m").expect("per-session row");
    assert_eq!(row.num("turns"), Some(3.0));
    assert_eq!(row.str("health"), Some("clean"));
    assert_eq!(row.fields.get("needs_resync"), Some(&JsonValue::Bool(false)));
    // The embedded document is a valid pfdbg-obs dialect: report
    // digests it without tripping on the session rows.
    let summary = pfdbg_obs::summarize(&events);
    assert!(summary.hists.iter().any(|h| h.name == "scg.specialize_us"));
    assert!(summary.slos.iter().any(|s| s.name == "slo.specialize_us"));

    // ---- dump: the session's flight recorder, oldest first ----
    let dump = c.roundtrip("{\"op\":\"dump\",\"session\":\"m\"}");
    assert_ok(&dump);
    assert_eq!(dump.str("source"), Some("live"));
    let flight = pfdbg_obs::jsonl::parse_jsonl(dump.str("flight").unwrap()).unwrap();
    assert_eq!(dump.num("events").unwrap() as usize, flight.len());
    let kinds: Vec<&str> = flight.iter().map(|e| e.str("event").unwrap()).collect();
    assert_eq!(
        kinds,
        vec!["turn_start", "turn_commit", "turn_start", "turn_commit", "turn_start", "turn_commit"],
        "3 clean turns replay as start/commit pairs"
    );
    let seqs: Vec<f64> = flight.iter().map(|e| e.num("seq").unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[1] > w[0]), "monotone sequence numbers: {seqs:?}");
    assert_eq!(flight.last().unwrap().num("turn"), Some(2.0));

    // No rollback, no quarantine: nothing was auto-dumped yet.
    let none = c.roundtrip("{\"op\":\"dump\"}");
    assert_eq!(none.fields.get("ok"), Some(&JsonValue::Bool(false)));
    assert!(none.str("error").unwrap().contains("no automatic"), "{none:?}");

    // ---- health carries fleet SLO burn, stats carries percentiles ----
    let health = c.roundtrip("{\"op\":\"health\",\"session\":\"m\"}");
    assert_ok(&health);
    assert!(health.num("slo_specialize_total").unwrap() >= 3.0);
    assert!(health.num("slo_turn_total").unwrap() >= 3.0);
    assert!(health.num("slo_specialize_burned").is_some());
    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert_ok(&stats);
    assert!(stats.num("specialize_p99_us").unwrap() > 0.0);
    assert!(stats.num("specialize_p50_us").unwrap() <= stats.num("specialize_p99_us").unwrap());
    assert!(stats.num("turn_p99_us").unwrap() > 0.0);

    server.shutdown();
}

/// The acceptance criterion: a frame driven to quarantine under chaos
/// (dead write path, SEUs striking every tick) leaves an automatic
/// flight-recorder dump for the right session, and its trailing events
/// reconstruct the failing sequence — the turn that ticked the SEUs in,
/// the scrub passes that could not repair, and the final quarantine.
#[test]
fn quarantine_leaves_an_automatic_dump_reconstructing_the_failure() {
    let chaos = ChaosSpec {
        fault: Some(IcapFaultConfig {
            write_error_rate: 1.0,
            seed: 3,
            ..IcapFaultConfig::default()
        }),
        seu: Some(SeuConfig { rate: 1.0, burst: 1, seed: 11 }),
        max_retries: 0,
        ..ChaosSpec::reliable()
    };
    let opts = ManagerOptions { cache_capacity: 16, chaos, ..ManagerOptions::default() };
    let manager = SessionManager::new(Arc::new(build_engine()), opts);
    manager.open("q").unwrap();
    assert!(manager.last_flight_dump().is_none(), "nothing went wrong yet");
    let n = manager.engine().n_params();
    // The all-zeros select writes no frames (trivially commits over the
    // dead port) but ticks the channel: every frame takes an upset.
    manager.select("q", &BitVec::zeros(n)).unwrap();
    let attempts = ScrubPolicy::default().max_repair_attempts as usize;
    for _ in 0..attempts {
        manager.scrub_session("q").unwrap();
    }

    let (session, dump) = manager.last_flight_dump().expect("quarantine must auto-dump");
    assert_eq!(session, "q");
    let events = pfdbg_obs::jsonl::parse_jsonl(&dump).unwrap();
    let kinds: Vec<&str> = events.iter().map(|e| e.str("event").unwrap()).collect();

    // The ring replays the failure end-to-end: the SEU strike and its
    // turn first, then one fruitless scrub per attempt, then the
    // quarantine verdict as the final event.
    let expected_head = ["seu_strike", "turn_start", "turn_commit"];
    assert_eq!(&kinds[..3], &expected_head, "the striking turn leads the dump: {kinds:?}");
    let scrubs = kinds.iter().filter(|k| **k == "scrub_pass").count();
    assert_eq!(scrubs, attempts, "one scrub_pass per repair attempt");
    assert_eq!(*kinds.last().unwrap(), "quarantine", "quarantine is the terminal event");
    assert!(!kinds.contains(&"scrub_repair"), "the dead port never repaired anything");
    let quarantined = events.last().unwrap().num("value").unwrap();
    assert!(quarantined > 0.0, "quarantine event counts the frames it condemned");

    // The on-demand dump of the same session agrees with the automatic
    // snapshot (nothing happened since).
    assert_eq!(manager.flight_dump("q").unwrap(), dump);
    let h = manager.health("q").unwrap();
    assert_eq!(h.verdict.as_str(), "degraded");
    assert!(h.needs_resync);
}

/// A turn that rolls back also auto-dumps, with `turn_rollback` as the
/// terminal event — the post-mortem for a commit that exhausted every
/// escalation level.
#[test]
fn rollback_leaves_an_automatic_dump() {
    let chaos = ChaosSpec {
        fault: Some(IcapFaultConfig {
            write_error_rate: 1.0,
            seed: 5,
            ..IcapFaultConfig::default()
        }),
        max_retries: 0,
        ..ChaosSpec::reliable()
    };
    let opts = ManagerOptions { cache_capacity: 16, chaos, ..ManagerOptions::default() };
    let manager = SessionManager::new(Arc::new(build_engine()), opts);
    manager.open("r").unwrap();
    let n = manager.engine().n_params();
    let mut params = BitVec::zeros(n);
    params.set(0, true);
    let err = manager.select("r", &params).unwrap_err();
    assert!(err.contains("rolled back"), "{err}");

    let (session, dump) = manager.last_flight_dump().expect("rollback must auto-dump");
    assert_eq!(session, "r");
    let events = pfdbg_obs::jsonl::parse_jsonl(&dump).unwrap();
    let kinds: Vec<&str> = events.iter().map(|e| e.str("event").unwrap()).collect();
    assert_eq!(kinds.first().copied(), Some("turn_start"));
    assert_eq!(kinds.last().copied(), Some("turn_rollback"));
}
