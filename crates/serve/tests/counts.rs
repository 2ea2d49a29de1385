//! One count per event: `stats` and `metrics` render the same counter
//! table of one session manager, so every counter key in `stats` reads
//! the same value as its `serve.<key>` counter in `metrics`, and an
//! event counts once even with the profiling layer switched on.
//!
//! This binary turns profiling on (`pfdbg_obs::set_enabled`), which is
//! process-global, so it shares its process with no other suite.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_obs::jsonl::{parse_jsonl, Event, JsonValue};
use pfdbg_pconf::{CommitPolicy, ScrubPolicy};
use pfdbg_serve::server::{Server, ServerConfig};
use pfdbg_serve::session::{DeviceOptions, Engine, FleetOptions, SessionManager};
use pfdbg_util::BitVec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_engine() -> Engine {
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 6,
        n_outputs: 4,
        n_gates: 24,
        depth: 4,
        n_latches: 2,
        seed: 91,
    });
    let (_, _, inst) = prepare_instrumented(
        &design,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        4,
    )
    .unwrap();
    let off =
        pfdbg_core::offline(&inst, &OfflineConfig { k: 4, ..OfflineConfig::default() }).unwrap();
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

    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Event {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        let mut events = parse_jsonl(&reply).unwrap();
        assert_eq!(events.len(), 1, "one reply per request: {reply:?}");
        events.remove(0)
    }

    fn roundtrip(&mut self, line: &str) -> Event {
        self.send(line);
        self.recv()
    }
}

fn is_ok(ev: &Event) -> bool {
    ev.fields.get("ok") == Some(&JsonValue::Bool(true))
}

/// `stats` keys that are levels, settings or percentiles rather than
/// event counts.
const NOT_COUNTS: [&str; 11] = [
    "sessions",
    "shards",
    "inbox_capacity",
    "seu_rate",
    "scrub_interval_ms",
    "devices",
    "device_primaries",
    "specialize_p50_us",
    "specialize_p99_us",
    "turn_p99_us",
    "inbox_wait_p99_us",
];

/// Every counter key of a `stats` reply with its value, paired with
/// the `serve.<key>` counter of a `metrics` reply (`None` when absent).
fn stats_against_metrics(c: &mut Client) -> Vec<(String, f64, Option<f64>)> {
    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert!(is_ok(&stats), "{stats:?}");
    let metrics = c.roundtrip("{\"op\":\"metrics\"}");
    assert!(is_ok(&metrics), "{metrics:?}");
    let body = parse_jsonl(metrics.str("metrics").unwrap()).unwrap();
    let counter = |name: &str| {
        body.iter()
            .find(|e| e.kind() == "counter" && e.str("name") == Some(name))
            .and_then(|e| e.num("value"))
    };
    stats
        .fields
        .iter()
        .filter_map(|(key, value)| match value {
            JsonValue::Num(v) if !NOT_COUNTS.contains(&key.as_str()) => {
                Some((key.clone(), *v, counter(&format!("serve.{key}"))))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn stats_and_metrics_report_the_same_counts() {
    let manager = SessionManager::with_fleet(
        Arc::new(build_engine()),
        16,
        Some(IcapFaultConfig {
            write_error_rate: 0.3,
            seed: 0xC0_047,
            ..IcapFaultConfig::default()
        }),
        CommitPolicy { max_retries: 1, ..CommitPolicy::default() },
        Some(SeuConfig { rate: 0.05, burst: 1, seed: 0x5E_0C }),
        ScrubPolicy::default(),
        FleetOptions { shards: 0, inbox_capacity: 1 },
    );
    manager.open("c").unwrap();
    let n = manager.engine().n_params();
    let pool: Vec<BitVec> = (0..3)
        .map(|i| {
            let mut p = BitVec::zeros(n);
            p.set(i % n, true);
            p
        })
        .collect();
    // Revisit a small pool under faults and upsets, scrubbing every
    // third turn, until every path this test compares has run: LRU
    // hits and misses, retries, a rollback, a scrub repair. The chaos
    // streams are seeded per session, so the run is the same every time.
    for t in 0.. {
        let counts = manager.counts();
        if counts.cache_hits > 0
            && counts.cache_misses > 0
            && counts.icap_retries > 0
            && counts.icap_rollbacks > 0
            && counts.scrub_repairs > 0
        {
            break;
        }
        assert!(t < 600, "chaos never reached every path: {counts:?}");
        let _ = manager.select("c", &pool[t % pool.len()]);
        if t % 3 == 2 {
            manager.scrub_session("c").unwrap();
        }
    }

    // A shed: park the session's shard, then pipeline three selects at
    // its one-slot inbox. One is admitted; two are shed.
    let idx = manager.shard_index("c");
    let server =
        Server::start(manager, ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
    let mut c = Client::connect(server.local_addr());
    let hold = server.sessions().hold_shard(idx);
    let params = "0".repeat(n);
    for _ in 0..3 {
        c.send(&format!(
            "{{\"op\":\"select\",\"session\":\"c\",\"params\":\"{params}\",\"deadline_ms\":60000}}"
        ));
    }
    let t0 = Instant::now();
    while server.sessions().counts().shed_total < 2 {
        assert!(t0.elapsed() < Duration::from_secs(10), "the overflow was never shed");
        std::thread::yield_now();
    }
    drop(hold);
    let overloaded = (0..3).filter(|_| c.recv().str("kind") == Some("overloaded")).count();
    assert_eq!(overloaded, 2);

    let pairs = stats_against_metrics(&mut c);
    let counts = server.sessions().counts();
    assert_eq!(pairs.len(), counts.entries().len(), "one stats key per table entry: {pairs:?}");
    let differ: Vec<_> = pairs.iter().filter(|(_, s, m)| Some(*s) != *m).collect();
    assert!(differ.is_empty(), "stats key vs metrics serve.<key>: {differ:?}");
    for (name, value) in counts.entries() {
        let wire = pairs.iter().find(|(k, _, _)| k == name).map(|p| p.1);
        assert_eq!(wire, Some(value as f64), "stats {name} against the manager's table");
    }
    assert_eq!(counts.shed_total, 2);
    server.shutdown();
}

#[test]
fn a_profiled_server_counts_a_lost_session_once() {
    pfdbg_obs::set_enabled(true);
    // One primary plus a spare, no journal: a killed device's session
    // cannot be re-driven, so the failover drops it.
    let manager = SessionManager::with_devices(
        Arc::new(build_engine()),
        16,
        None,
        CommitPolicy::default(),
        None,
        ScrubPolicy::default(),
        FleetOptions::default(),
        DeviceOptions { devices: 1, spares: 1, ..DeviceOptions::default() },
    );
    let server =
        Server::start(manager, ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
    let mut c = Client::connect(server.local_addr());
    let open = c.roundtrip("{\"op\":\"open\",\"session\":\"doomed\"}");
    assert!(is_ok(&open), "{open:?}");
    let params = "0".repeat(open.num("n_params").unwrap() as usize);
    let r = c.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"doomed\",\"params\":\"{params}\"}}"
    ));
    assert!(is_ok(&r), "{r:?}");
    assert!(is_ok(&c.roundtrip("{\"op\":\"fail\",\"device\":0}")));

    let t0 = Instant::now();
    while server.sessions().counts().sessions_lost == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "the failover never dropped the session");
        std::thread::sleep(Duration::from_millis(5));
    }
    let pairs = stats_against_metrics(&mut c);
    let lost = pairs.iter().find(|(k, _, _)| k == "sessions_lost").expect("stats sessions_lost");
    assert_eq!(lost.1, 1.0, "{pairs:?}");
    assert_eq!(lost.2, Some(1.0), "metrics serve.sessions_lost counts the lost session once");
    server.shutdown();
    pfdbg_obs::set_enabled(false);
}
