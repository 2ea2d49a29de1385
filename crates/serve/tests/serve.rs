//! End-to-end tests of the debug service over real TCP connections:
//! concurrent sessions from many client threads, malformed-request
//! resilience, and clean shutdown.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_serve::server::{Server, ServerConfig, ServerHandle};
use pfdbg_serve::session::{Engine, SessionManager};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

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

fn start_server(workers: usize) -> ServerHandle {
    let manager = SessionManager::new(Arc::new(build_engine()), 16);
    Server::start(manager, ServerConfig { workers, ..ServerConfig::default() }).unwrap()
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

    /// Send one request line, read one reply line.
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
    assert_eq!(
        ev.fields.get("ok"),
        Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)),
        "expected ok reply, got {ev:?}"
    );
}

fn assert_err(ev: &pfdbg_obs::jsonl::Event, needle: &str) {
    assert_eq!(
        ev.fields.get("ok"),
        Some(&pfdbg_obs::jsonl::JsonValue::Bool(false)),
        "expected error reply, got {ev:?}"
    );
    let msg = ev.str("error").unwrap_or("");
    assert!(msg.contains(needle), "error {msg:?} lacks {needle:?}");
}

#[test]
fn eight_concurrent_sessions_zero_failures() {
    let handle = start_server(8);
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let session = format!("s{t}");
                let open = c.roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{session}\"}}"));
                assert_ok(&open);
                let n = open.num("n_params").unwrap() as usize;
                assert!(n > 0);
                // Five turns per session, each a distinct parameter
                // vector; every reply must be ok with sane fields.
                for turn in 0..5usize {
                    let params: String = (0..n)
                        .map(|i| if (i + t + turn) % 3 == 0 { '1' } else { '0' })
                        .collect();
                    let r = c.roundtrip(&format!(
                        "{{\"op\":\"select\",\"session\":\"{session}\",\"params\":\"{params}\",\"id\":\"{t}-{turn}\"}}"
                    ));
                    assert_ok(&r);
                    assert_eq!(r.str("id"), Some(format!("{t}-{turn}").as_str()));
                    assert_eq!(r.num("turn"), Some(turn as f64));
                    assert_eq!(r.str("params"), Some(params.as_str()));
                    assert!(r.num("eval_us").unwrap() >= 0.0);
                    assert!(r.num("frames_changed").unwrap() >= 0.0);
                }
                let closed =
                    c.roundtrip(&format!("{{\"op\":\"close\",\"session\":\"{session}\"}}"));
                assert_ok(&closed);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread must not fail");
    }

    let counts = handle.sessions().counts();
    let (turns, hits, misses) = (counts.turns, counts.cache_hits, counts.cache_misses);
    assert_eq!(turns, 40, "8 sessions x 5 turns");
    assert!(hits + misses >= 40);
    assert!(hits > 0, "overlapping selections across sessions must hit the LRU");
    handle.shutdown();
}

#[test]
fn malformed_requests_get_error_replies_and_service_continues() {
    let handle = start_server(2);
    let mut c = Client::connect(handle.local_addr());

    assert_err(&c.roundtrip("this is not json"), "malformed JSON");
    assert_err(&c.roundtrip("{\"op\":\"teleport\"}"), "unknown op");
    assert_err(&c.roundtrip("{\"no_op\":1}"), "missing");
    assert_err(&c.roundtrip("{\"op\":\"open\"}"), "session");
    assert_err(
        &c.roundtrip("{\"op\":\"select\",\"session\":\"ghost\",\"params\":\"01\"}"),
        "no such session",
    );

    let open = c.roundtrip("{\"op\":\"open\",\"session\":\"a\"}");
    assert_ok(&open);
    let n = open.num("n_params").unwrap() as usize;
    // Wrong parameter count: error reply, session stays usable.
    let bad = "1".repeat(n + 3);
    assert_err(
        &c.roundtrip(&format!("{{\"op\":\"select\",\"session\":\"a\",\"params\":\"{bad}\"}}")),
        "parameter count mismatch",
    );
    assert_err(&c.roundtrip("{\"op\":\"select\",\"session\":\"a\",\"params\":\"01x\"}"), "0/1");
    assert_err(&c.roundtrip("{\"op\":\"open\",\"session\":\"a\"}"), "already exists");
    assert_err(
        &c.roundtrip("{\"op\":\"select\",\"session\":\"a\",\"signals\":\"no_such_net\"}"),
        "no free trace port",
    );

    // After all that abuse the server still serves real work.
    let good = "0".repeat(n);
    let r = c.roundtrip(&format!("{{\"op\":\"select\",\"session\":\"a\",\"params\":\"{good}\"}}"));
    assert_ok(&r);
    assert_ok(&c.roundtrip("{\"op\":\"ping\"}"));
    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert_ok(&stats);
    assert_eq!(stats.num("sessions"), Some(1.0));
    handle.shutdown();
}

#[test]
fn signal_selection_and_client_shutdown() {
    let handle = start_server(2);
    let mut c = Client::connect(handle.local_addr());
    assert_ok(&c.roundtrip("{\"op\":\"open\",\"session\":\"sig\"}"));

    // Pick a real observable signal from the engine's port map.
    let signal = handle.sessions().engine().inst.ports[0].signals[0].clone();
    let r = c.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"sig\",\"signals\":\"{signal}\",\"deadline_ms\":5000}}"
    ));
    assert_ok(&r);

    // Client-initiated shutdown: ok reply, then the server stops.
    assert_ok(&c.roundtrip("{\"op\":\"shutdown\"}"));
    handle.wait();
}
