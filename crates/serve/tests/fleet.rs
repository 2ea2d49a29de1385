//! Shard-fleet failure-containment tests: a panicking select handler
//! must cost exactly its own session (the shard thread and every other
//! session keep serving), and background scrubs must keep landing on a
//! session that is being hammered with selects — the starvation the old
//! `try_lock`-and-skip scrub walk allowed.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_emu::SeuConfig;
use pfdbg_pconf::{CommitPolicy, ScrubPolicy};
use pfdbg_serve::server::{Server, ServerConfig};
use pfdbg_serve::session::{Engine, FleetOptions, SessionManager};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_engine() -> Engine {
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
    let off = pfdbg_core::offline(&inst, &OfflineConfig::default()).unwrap();
    Engine::new(inst, off.scg.unwrap(), off.layout.unwrap(), off.icap)
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

fn is_ok(ev: &pfdbg_obs::jsonl::Event) -> bool {
    ev.fields.get("ok") == Some(&pfdbg_obs::jsonl::JsonValue::Bool(true))
}

fn err_of(ev: &pfdbg_obs::jsonl::Event) -> &str {
    assert!(!is_ok(ev), "expected an error reply, got {ev:?}");
    ev.str("error").unwrap_or("")
}

/// Regression for the old shared-queue pool, where one panicking
/// handler poisoned the connection-queue mutex and every later request
/// died on `PoisonError`. Now a panic unwinds into the shard loop's
/// `catch_unwind`: the suspect session is dropped, the panic is
/// counted, and the same shard thread keeps serving its other sessions.
#[test]
fn panicking_handler_costs_one_session_not_the_server() {
    std::env::set_var("PFDBG_TEST_PANIC", "1");
    let manager = SessionManager::with_fleet(
        Arc::new(build_engine()),
        16,
        None,
        CommitPolicy::default(),
        None,
        ScrubPolicy::default(),
        FleetOptions { shards: 2, inbox_capacity: 64 },
    );
    // Place the doomed session and a healthy one on the SAME shard, so
    // surviving proves the shard thread itself rode out the panic.
    let doomed = (0..)
        .map(|i| format!("panic-{i}"))
        .find(|n| manager.shard_index(n) == manager.shard_index("steady"))
        .unwrap();
    let handle =
        Server::start(manager, ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
    let mut c = Client::connect(handle.local_addr());

    assert!(is_ok(&c.roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{doomed}\"}}"))));
    assert!(is_ok(&c.roundtrip("{\"op\":\"open\",\"session\":\"steady\"}")));
    let n = handle.sessions().engine().n_params();
    let params = "0".repeat(n);

    // The injected panic surfaces as an error reply on this request —
    // not a hung connection, not a dead server.
    let r = c.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"{doomed}\",\"params\":\"{params}\"}}"
    ));
    assert!(err_of(&r).contains("panicked"), "want panic containment reply, got {r:?}");

    // The panicking session is gone (its state is suspect) ...
    let r = c.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"{doomed}\",\"params\":\"{params}\"}}"
    ));
    assert!(err_of(&r).contains("no such session"));

    // ... but its shard-mate serves on, on the same thread.
    let r = c.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"steady\",\"params\":\"{params}\"}}"
    ));
    assert!(is_ok(&r), "shard-mate must keep serving after the panic: {r:?}");

    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert!(is_ok(&stats));
    assert!(stats.num("handler_panics").unwrap() >= 1.0);
    assert_eq!(stats.num("sessions"), Some(1.0), "exactly the doomed session dropped");

    // The name is free again: a fresh open rebuilds clean state.
    assert!(is_ok(&c.roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{doomed}\"}}"))));
    handle.shutdown();
}

/// The embedding facade follows the wire's panic rule: a session verb
/// whose handler panics under `SessionManager` drops that session, not
/// just the call. Before, the facade reported the panic but left the
/// suspect session in its shard's table. The manager takes its shard
/// count from the environment, so the shard sweep runs this at 1, 2 and
/// 8 shards.
#[test]
fn facade_call_that_panics_drops_its_session() {
    std::env::set_var("PFDBG_TEST_PANIC", "1");
    let manager = SessionManager::new(Arc::new(build_engine()), 16);
    let doomed = (0..)
        .map(|i| format!("panic-{i}"))
        .find(|n| manager.shard_index(n) == manager.shard_index("steady"))
        .unwrap();
    manager.open(&doomed).unwrap();
    manager.open("steady").unwrap();
    let params = pfdbg_util::BitVec::zeros(manager.engine().n_params());

    let err = manager.select(&doomed, &params).unwrap_err();
    assert!(err.contains("panicked"), "want the panic reported, got {err:?}");
    assert_eq!(manager.n_sessions(), 1, "exactly the doomed session dropped");
    assert!(manager.session_state(&doomed).is_err(), "the doomed session is gone");
    manager.select("steady", &params).expect("its shard-mate keeps serving");
}

/// Regression for scrub starvation: the old walk `try_lock`ed each
/// session and skipped it when busy, so a session under continuous
/// selects could dodge scrubbing forever. Scrubs now ride the same
/// shard inbox as selects and interleave with them, so a hot session
/// still gets its passes.
#[test]
fn hot_session_still_gets_scrubbed() {
    std::env::set_var("PFDBG_TEST_PANIC", "1");
    let seu = SeuConfig::from_env().unwrap_or(SeuConfig { rate: 1.0, burst: 1, seed: 0x5EED });
    let manager = SessionManager::with_chaos_scrub(
        Arc::new(build_engine()),
        16,
        None,
        CommitPolicy::default(),
        Some(seu),
        ScrubPolicy::default(),
    );
    let handle = Server::start(
        manager,
        ServerConfig { workers: 2, scrub_interval_ms: 20.0, ..ServerConfig::default() },
    )
    .unwrap();
    let mut c = Client::connect(handle.local_addr());
    assert!(is_ok(&c.roundtrip("{\"op\":\"open\",\"session\":\"hot\"}")));
    let n = handle.sessions().engine().n_params();
    let vectors = ["0".repeat(n), "1".to_string() + &"0".repeat(n - 1)];

    // Hammer the session with selects for ~0.5 s — many scrub-walk
    // periods — without ever pausing the connection.
    let t0 = Instant::now();
    let mut turn = 0usize;
    while t0.elapsed() < Duration::from_millis(500) {
        let params = &vectors[turn % 2];
        let r = c.roundtrip(&format!(
            "{{\"op\":\"select\",\"session\":\"hot\",\"params\":\"{params}\",\
             \"deadline_ms\":10000}}"
        ));
        assert!(is_ok(&r), "select under scrub pressure failed: {r:?}");
        turn += 1;
    }
    assert!(turn >= 4, "hammer loop barely ran; timing assumptions broken");

    // At a 20 ms cadence at least one pass must have landed on the hot
    // session despite the constant select stream.
    let h = c.roundtrip("{\"op\":\"health\",\"session\":\"hot\"}");
    assert!(is_ok(&h));
    let scrubs = h.num("scrubs").unwrap();
    assert!(scrubs >= 1.0, "hot session starved: zero scrub passes in {turn} turns");
    // And with a rate-1.0 SEU channel, scrubbing found real upsets.
    assert!(h.num("upsets_detected").unwrap() >= 1.0);
    assert!(handle.sessions().counts().scrub_passes >= 1);
    handle.shutdown();
}
