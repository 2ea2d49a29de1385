//! Backpressure under a saturated shard: bounded inboxes shed with
//! well-formed `overloaded` replies, the shed counters surface in
//! `stats`, and sessions on other shards keep meeting their deadlines
//! while one shard is wedged.

use pfdbg_core::{prepare_instrumented, CompiledDesign, InstrumentConfig, OfflineConfig};
use pfdbg_serve::server::{Server, ServerConfig, ServerHandle};
use pfdbg_serve::session::{FleetOptions, ManagerOptions, SessionManager};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

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

/// Two shards, a two-slot client inbox each: small enough that a held
/// shard sheds within a handful of pipelined requests.
fn start_tiny_fleet() -> ServerHandle {
    let manager = SessionManager::new(
        Arc::new(build_engine()),
        ManagerOptions {
            cache_capacity: 16,
            fleet: FleetOptions { shards: 2, inbox_capacity: 2 },
            ..ManagerOptions::default()
        },
    );
    Server::start(manager, ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap()
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

    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> pfdbg_obs::jsonl::Event {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        let mut events = pfdbg_obs::jsonl::parse_jsonl(&reply).unwrap();
        assert_eq!(events.len(), 1, "one reply per request: {reply:?}");
        events.remove(0)
    }

    fn roundtrip(&mut self, line: &str) -> pfdbg_obs::jsonl::Event {
        self.send(line);
        self.recv()
    }
}

fn is_ok(ev: &pfdbg_obs::jsonl::Event) -> bool {
    ev.fields.get("ok") == Some(&pfdbg_obs::jsonl::JsonValue::Bool(true))
}

/// A session name placed on each shard, found by probing the stable
/// placement hash.
fn names_per_shard(handle: &ServerHandle) -> [String; 2] {
    let sessions = handle.sessions();
    let mut names: [Option<String>; 2] = [None, None];
    for i in 0.. {
        let name = format!("s{i}");
        let idx = sessions.shard_index(&name);
        if names[idx].is_none() {
            names[idx] = Some(name);
        }
        if names.iter().all(Option::is_some) {
            break;
        }
    }
    [names[0].take().unwrap(), names[1].take().unwrap()]
}

#[test]
fn saturated_shard_sheds_while_the_other_meets_deadlines() {
    let handle = start_tiny_fleet();
    let addr = handle.local_addr();
    let [hot, cold] = names_per_shard(&handle);
    let hot_idx = handle.sessions().shard_index(&hot);

    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    assert!(is_ok(&a.roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{hot}\"}}"))));
    assert!(is_ok(&b.roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{cold}\"}}"))));
    let n = handle.sessions().engine().n_params();
    let params = "1".repeat(n % 2) + &"0".repeat(n - n % 2);

    // Park the hot shard, then pipeline 10 selects at it. The inbox
    // admits exactly `inbox_capacity` of them; the rest must shed
    // immediately with `overloaded` replies.
    let hold = handle.sessions().hold_shard(hot_idx);
    const PIPELINED: usize = 10;
    let admitted = handle.sessions().inbox_capacity();
    assert!(admitted < PIPELINED, "test needs more requests than inbox slots");
    for i in 0..PIPELINED {
        // A generous deadline so the admitted requests still commit
        // after spending the hold parked in the inbox.
        a.send(&format!(
            "{{\"op\":\"select\",\"session\":\"{hot}\",\"params\":\"{params}\",\
             \"deadline_ms\":60000,\"id\":\"q{i}\"}}"
        ));
    }

    // Wait until the IO thread has parsed and shed the overflow, so the
    // other-shard probes below observe a saturated fleet, not a race.
    let t0 = Instant::now();
    while handle.sessions().counts().shed_total < (PIPELINED - admitted) as u64 {
        assert!(t0.elapsed().as_secs() < 10, "shed counter never reached the overflow count");
        std::thread::yield_now();
    }

    // The cold shard is unaffected: selects there complete well inside
    // their deadline while the hot shard is still parked.
    let t1 = Instant::now();
    let r = b.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"{cold}\",\"params\":\"{params}\",\"deadline_ms\":5000}}"
    ));
    assert!(is_ok(&r), "cold-shard select failed under hot-shard saturation: {r:?}");
    assert!(t1.elapsed().as_millis() < 5000, "cold-shard select blew its deadline");

    // Shed totals surface in `stats` (served inline, never queued).
    let stats = b.roundtrip("{\"op\":\"stats\"}");
    assert!(is_ok(&stats));
    let shed = stats.num("shed_total").unwrap();
    assert!(shed >= (PIPELINED - admitted) as f64, "stats shed_total {shed} too low");
    assert_eq!(stats.num("shards"), Some(2.0));
    assert_eq!(stats.num("inbox_capacity"), Some(admitted as f64));

    // Release the shard and read all ten replies in order: the admitted
    // prefix commits, the rest are well-formed `overloaded` errors
    // carrying the shard index and a positive retry hint.
    drop(hold);
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for i in 0..PIPELINED {
        let r = a.recv();
        assert_eq!(r.str("id"), Some(format!("q{i}").as_str()), "replies out of order");
        if is_ok(&r) {
            ok += 1;
            assert!(r.num("turn").is_some());
        } else {
            overloaded += 1;
            assert_eq!(r.str("kind"), Some("overloaded"), "shed reply lacks kind: {r:?}");
            assert!(r.str("error").unwrap().contains("overloaded"));
            assert_eq!(r.num("shard"), Some(hot_idx as f64));
            assert!(r.num("retry_after_ms").unwrap() > 0.0, "retry hint must be positive");
        }
    }
    assert_eq!(ok, admitted, "every admitted request must complete");
    assert_eq!(ok + overloaded, PIPELINED, "every request accounted for");
    // The server counted each shed request once: exactly the
    // `overloaded` replies this client received.
    assert_eq!(shed, overloaded as f64, "stats shed_total against the client's overloaded count");

    // After the backlog drains the shard serves normally again.
    let r = a
        .roundtrip(&format!("{{\"op\":\"select\",\"session\":\"{hot}\",\"params\":\"{params}\"}}"));
    assert!(is_ok(&r), "hot shard did not recover after release: {r:?}");
    handle.shutdown();
}
