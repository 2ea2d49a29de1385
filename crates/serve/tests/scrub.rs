//! Scrubbing tests for the debug service: a long SEU-bombarded session
//! must end with zero undetected divergence (every frame the scrubber
//! reports clean is bit-identical to the PConf-evaluated golden
//! frames), repairs must leave the LRU's entries serving, stuck frames
//! must quarantine and degrade the health verdict, and the `health` /
//! `scrub` protocol verbs must surface it all over TCP.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_pconf::{CommitPolicy, ScrubPolicy};
use pfdbg_serve::server::{Server, ServerConfig, ServerHandle};
use pfdbg_serve::session::{Engine, SessionManager};
use pfdbg_util::BitVec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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

fn seu_manager(engine: Arc<Engine>, seu: SeuConfig) -> SessionManager {
    SessionManager::with_chaos_scrub(
        engine,
        16,
        None,
        CommitPolicy::default(),
        Some(seu),
        ScrubPolicy::default(),
    )
}

/// 200 selects under `PFDBG_SEU_RATE=0.02` (or the built-in 0.02
/// default) over a toggling parameter schedule, with a scrub every 5
/// turns plus a final one, end with zero undetected divergence against
/// the golden oracle.
#[test]
fn bombarded_session_ends_clean() {
    let seu =
        SeuConfig::from_env().unwrap_or(SeuConfig { rate: 0.02, burst: 2, seed: 0xACCE_55ED });
    let turns = 200;
    let engine = Arc::new(build_engine());
    let n = engine.n_params();
    let manager = seu_manager(engine.clone(), seu);
    manager.open("acc").unwrap();
    let mut params = BitVec::zeros(n);
    for t in 0..turns {
        let bit = t % n.max(1);
        params.set(bit, !params.get(bit));
        manager.select("acc", &params).unwrap();
        if (t + 1) % 5 == 0 {
            manager.scrub_session("acc").unwrap();
        }
    }
    let last = manager.scrub_session("acc").unwrap();
    assert_eq!(last.failed_frames, 0, "SEU-only repairs write to a reliable port");

    // After the final scrub (and with no tick since), configuration
    // memory is bit-identical to the golden specialization of the
    // session's current parameter vector. No injected upset survives
    // undetected.
    let (p, served, resync) = manager.session_state("acc").unwrap();
    assert_eq!(served, turns);
    assert!(!resync, "SEU-only sessions never quarantine, so never arm resync");
    let golden = engine.scg.specialize(&p);
    let readback = manager.readback("acc").unwrap();
    assert_eq!(readback, golden, "undetected divergence after final scrub");

    let h = manager.health("acc").unwrap();
    assert_eq!(h.verdict.as_str(), "clean");
    assert!(h.quarantine.is_empty());
    assert!(h.upsets_detected > 0, "a 0.02 rate over {turns} turns must upset something");
    assert_eq!(h.upsets_detected, h.frames_repaired, "every detected upset was repaired");
}

/// A scrub repair rewrites device frames only, verifying each write;
/// the LRU entry for the session's vector is its packed tunable words,
/// a pure function of the vector, so it stays. The next select of the
/// vector hits it, and since the repair restored the golden frames,
/// changes no bit.
#[test]
fn scrub_repair_keeps_the_cached_specialization() {
    let engine = Arc::new(build_engine());
    let n = engine.n_params();
    let manager = seu_manager(engine, SeuConfig { rate: 1.0, burst: 1, seed: 7 });
    manager.open("inv").unwrap();
    let mut params = BitVec::zeros(n);
    params.set(0, true);

    let first = manager.select("inv", &params).unwrap();
    assert!(!first.cache_hit, "fresh vector must miss");
    // Reselecting the identical vector proves the entry is live.
    let second = manager.select("inv", &params).unwrap();
    assert!(second.cache_hit, "repeat vector must hit the LRU");

    // Rate-1.0 SEUs guarantee the scrub finds and repairs upsets.
    let report = manager.scrub_session("inv").unwrap();
    assert!(report.repaired_frames > 0, "the scrub must have repaired something");

    let third = manager.select("inv", &params).unwrap();
    assert!(third.cache_hit, "a repair must not evict the cached specialization");
    assert_eq!(third.bits_changed, 0, "the repaired device already holds the selection");
}

/// A frame that refuses to heal (every repair write rejected) is
/// quarantined after `max_repair_attempts` consecutive failed passes;
/// quarantining degrades the health verdict and arms `needs_resync`.
#[test]
fn stuck_frames_quarantine_and_degrade_health() {
    let engine = Arc::new(build_engine());
    let manager = SessionManager::with_chaos_scrub(
        engine,
        16,
        // Dead write path: SEU injection still lands (it strikes the
        // inner memory model directly) but every repair write fails.
        Some(IcapFaultConfig { write_error_rate: 1.0, seed: 3, ..IcapFaultConfig::default() }),
        CommitPolicy { max_retries: 0, ..CommitPolicy::default() },
        Some(SeuConfig { rate: 1.0, burst: 1, seed: 11 }),
        ScrubPolicy::default(),
    );
    manager.open("stuck").unwrap();
    let n = manager.engine().n_params();
    // Selecting the current (all-zeros) vector writes no frames, so it
    // commits trivially even over the dead port — but it ticks the
    // channel, so every frame takes an upset.
    let zeros = BitVec::zeros(n);
    manager.select("stuck", &zeros).unwrap();

    let attempts = ScrubPolicy::default().max_repair_attempts;
    for pass in 0..attempts {
        let r = manager.scrub_session("stuck").unwrap();
        assert!(r.upset_frames > 0, "pass {pass}: upsets persist while repairs fail");
        assert_eq!(r.repaired_frames, 0, "pass {pass}: the dead port cannot repair");
        if pass + 1 < attempts {
            assert_eq!(r.quarantined_frames, 0, "pass {pass}: streak not yet exhausted");
        } else {
            assert!(r.quarantined_frames > 0, "final pass must quarantine");
        }
    }
    let h = manager.health("stuck").unwrap();
    assert_eq!(h.verdict.as_str(), "degraded");
    assert!(!h.quarantine.is_empty());
    assert!(h.needs_resync, "quarantine must stop trusting configuration memory");
}

/// Combined chaos: transport faults on the write path and SEUs in the
/// fabric, together. Committed turns keep the PR-4 invariant for the
/// frames they write, rollbacks leave no trace, and once a scrub pass
/// completes with nothing failed, readback is bit-identical to the
/// golden oracle.
#[test]
fn combined_faults_and_seus_stay_recoverable() {
    let engine = Arc::new(build_engine());
    let n = engine.n_params();
    let manager = SessionManager::with_chaos_scrub(
        engine.clone(),
        16,
        Some(IcapFaultConfig::uniform(0.10, 0xBEEF)),
        CommitPolicy::default(),
        Some(SeuConfig { rate: 0.05, burst: 2, seed: 0xC0DE }),
        ScrubPolicy::default(),
    );
    manager.open("both").unwrap();
    let mut committed = 0usize;
    for turn in 0..30 {
        let mut params = BitVec::zeros(n);
        params.set(turn % n.max(1), true);
        let (before_params, before_turns, _) = manager.session_state("both").unwrap();
        match manager.select("both", &params) {
            Ok(_) => committed += 1,
            Err(msg) => {
                assert!(msg.contains("rolled back"), "unexpected failure: {msg}");
                let (after_params, after_turns, resync) = manager.session_state("both").unwrap();
                assert_eq!(after_params, before_params, "rollback moved session params");
                assert_eq!(after_turns, before_turns, "rollback advanced the turn counter");
                assert!(resync, "rollback must arm needs_resync");
            }
        }
        if turn % 5 == 4 {
            let _ = manager.scrub_session("both").unwrap();
        }
    }
    assert!(committed > 0, "no turn ever committed under combined chaos");

    // Scrub until one pass repairs everything it found (a 10% write
    // fault rate with retries makes this converge almost immediately),
    // then the full readback must match the golden oracle.
    let mut clean = false;
    for _ in 0..8 {
        let r = manager.scrub_session("both").unwrap();
        if r.failed_frames == 0 && r.quarantined_frames == 0 {
            clean = true;
            break;
        }
    }
    assert!(clean, "scrub never converged under 10% transport faults");
    let (p, _, _) = manager.session_state("both").unwrap();
    assert_eq!(
        manager.readback("both").unwrap(),
        engine.scg.specialize(&p),
        "converged scrub must leave the device bit-identical to golden"
    );
}

// ---------------------------------------------------------------- TCP --

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
    assert_eq!(
        ev.fields.get("ok"),
        Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)),
        "expected ok reply, got {ev:?}"
    );
}

fn start_seu_server(seu: SeuConfig, scrub_interval_ms: f64) -> ServerHandle {
    let manager = seu_manager(Arc::new(build_engine()), seu);
    Server::start(
        manager,
        ServerConfig { workers: 2, scrub_interval_ms, ..ServerConfig::default() },
    )
    .unwrap()
}

/// The `scrub` and `health` verbs over the wire: an on-demand scrub
/// returns its report, health returns the verdict plus totals, the
/// quarantine set travels as a comma-joined string, and `stats` carries
/// the aggregate scrub counters and the server's SEU and scrub settings.
#[test]
fn health_and_scrub_verbs_report_over_tcp() {
    let server = start_seu_server(SeuConfig { rate: 1.0, burst: 1, seed: 21 }, 0.0);
    let addr = server.local_addr();
    let mut c = Client::connect(addr);
    let open = c.roundtrip("{\"op\":\"open\",\"session\":\"h\"}");
    assert_ok(&open);
    let n = open.num("n_params").unwrap() as usize;
    let params: String = (0..n).map(|i| if i == 0 { '1' } else { '0' }).collect();
    assert_ok(
        &c.roundtrip(&format!("{{\"op\":\"select\",\"session\":\"h\",\"params\":\"{params}\"}}")),
    );

    let scrub = c.roundtrip("{\"op\":\"scrub\",\"session\":\"h\"}");
    assert_ok(&scrub);
    assert!(scrub.num("frames_checked").unwrap() > 0.0);
    assert!(scrub.num("upset_frames").unwrap() > 0.0, "rate-1.0 SEUs must be detected");
    assert_eq!(scrub.num("upset_frames"), scrub.num("repaired_frames"));
    assert_eq!(scrub.num("quarantined_frames"), Some(0.0));

    let health = c.roundtrip("{\"op\":\"health\",\"session\":\"h\"}");
    assert_ok(&health);
    assert_eq!(health.str("verdict"), Some("clean"));
    assert_eq!(health.str("quarantine"), Some(""));
    assert_eq!(health.fields.get("needs_resync"), Some(&pfdbg_obs::jsonl::JsonValue::Bool(false)));
    assert!(health.num("scrubs").unwrap() >= 1.0);
    assert_eq!(health.num("upsets_detected"), health.num("frames_repaired"));

    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert_ok(&stats);
    for field in [
        "scrub_passes",
        "scrub_upsets_detected",
        "scrub_repairs",
        "scrub_quarantined",
        "seu_bits_injected",
    ] {
        assert!(stats.num(field).is_some(), "{field} missing from stats: {stats:?}");
    }
    assert!(stats.num("scrub_passes").unwrap() >= 1.0);
    assert!(stats.num("seu_bits_injected").unwrap() > 0.0, "the select's tick injected upsets");
    // The server's own chaos settings, not a client's guess at them.
    assert_eq!(stats.num("seu_rate"), Some(1.0), "{stats:?}");
    assert_eq!(stats.num("scrub_interval_ms"), Some(0.0), "{stats:?}");

    // Unknown sessions are protocol errors, not panics.
    let missing = c.roundtrip("{\"op\":\"health\",\"session\":\"ghost\"}");
    assert_eq!(missing.fields.get("ok"), Some(&pfdbg_obs::jsonl::JsonValue::Bool(false)));
    server.shutdown();
}

/// The LRU's publication order on the route clients use: two sessions
/// on one shard, one pipelined write of five requests. A's select
/// publishes v, B's select of v hits it, A's scrub repairs upsets and
/// leaves v cached, so B's and A's next selects of v both hit.
/// `scrub_repair_keeps_the_cached_specialization` checks the same
/// through the embedding facade, which clients never use.
#[test]
fn pipelined_selects_and_scrubs_on_one_shard_keep_the_lru_order() {
    let server = start_seu_server(SeuConfig { rate: 1.0, burst: 1, seed: 41 }, 0.0);
    let sessions = server.sessions();
    let a = "lru-a";
    let b = (0..)
        .map(|i| format!("lru-b{i}"))
        .find(|name| sessions.shard_index(name) == sessions.shard_index(a))
        .unwrap();
    let mut c = Client::connect(server.local_addr());
    assert_ok(&c.roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{a}\"}}")));
    let open = c.roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{b}\"}}"));
    assert_ok(&open);
    let n = open.num("n_params").unwrap() as usize;
    let v: String = (0..n).map(|i| if i == 0 { '1' } else { '0' }).collect();

    let select =
        |s: &str| format!("{{\"op\":\"select\",\"session\":\"{s}\",\"params\":\"{v}\"}}\n");
    let scrub = format!("{{\"op\":\"scrub\",\"session\":\"{a}\"}}\n");
    let burst = [select(a), select(&b), scrub, select(&b), select(a)].concat();
    c.writer.write_all(burst.as_bytes()).unwrap();
    c.writer.flush().unwrap();
    let mut replies = Vec::new();
    for _ in 0..5 {
        let mut line = String::new();
        c.reader.read_line(&mut line).unwrap();
        let mut events = pfdbg_obs::jsonl::parse_jsonl(&line).unwrap();
        assert_eq!(events.len(), 1, "one reply per request: {line:?}");
        let ev = events.remove(0);
        assert_ok(&ev);
        replies.push(ev);
    }
    let cache: Vec<Option<&str>> = replies.iter().map(|r| r.str("cache")).collect();
    assert_eq!(
        cache,
        [Some("miss"), Some("hit"), None, Some("hit"), Some("hit")],
        "LRU order broken: {replies:?}"
    );
    assert!(
        replies[2].num("repaired_frames").unwrap() > 0.0,
        "rate-1.0 SEUs must give the scrub something to repair: {:?}",
        replies[2]
    );
    server.shutdown();
}

/// The background scrubber thread: with a short interval it scrubs
/// idle sessions on its own — no client ever sends `scrub` — and its
/// passes show up in `health` and `stats`.
#[test]
fn background_scrubber_repairs_idle_sessions() {
    let server = start_seu_server(SeuConfig { rate: 1.0, burst: 1, seed: 31 }, 20.0);
    let addr = server.local_addr();
    let mut c = Client::connect(addr);
    let open = c.roundtrip("{\"op\":\"open\",\"session\":\"bg\"}");
    assert_ok(&open);
    let n = open.num("n_params").unwrap() as usize;
    let params: String = (0..n).map(|i| if i == 1 % n.max(1) { '1' } else { '0' }).collect();
    // One select ticks the channel, so every frame is now upset.
    assert_ok(
        &c.roundtrip(&format!("{{\"op\":\"select\",\"session\":\"bg\",\"params\":\"{params}\"}}")),
    );

    // Generous budget: the 20 ms interval only needs to fire once.
    let mut scrubs = 0.0;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        let health = c.roundtrip("{\"op\":\"health\",\"session\":\"bg\"}");
        assert_ok(&health);
        scrubs = health.num("scrubs").unwrap_or(0.0);
        if scrubs >= 1.0 {
            assert!(health.num("frames_repaired").unwrap() > 0.0, "{health:?}");
            break;
        }
    }
    assert!(scrubs >= 1.0, "background scrubber never ran within 2 s");
    let stats = c.roundtrip("{\"op\":\"stats\"}");
    assert!(stats.num("scrub_passes").unwrap() >= 1.0, "{stats:?}");
    assert_eq!(stats.num("scrub_interval_ms"), Some(20.0), "{stats:?}");
    server.shutdown();
}
