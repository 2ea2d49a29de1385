//! Crash-consistent session restore over real TCP.
//!
//! A server started with a journal dir records every turn. Killing it
//! mid-session and restarting over the same dir must restore the
//! session by re-driving its journal — and the restored session's next
//! select must be bit-identical to an uninterrupted golden run. A
//! restart under *different* chaos
//! flags must refuse the restore loudly instead. A serve journal also
//! verifies on the standalone engine (`pfdbg_replay::verify_path`), and
//! the `replay` verb re-drives a journal without touching the live
//! device fleet.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_pconf::health::WatchdogPolicy;
use pfdbg_pconf::icap::CommitPolicy;
use pfdbg_pconf::scrub::ScrubPolicy;
use pfdbg_replay::DesignSpec;
use pfdbg_serve::server::{Server, ServerConfig, ServerHandle};
use pfdbg_serve::session::{DeviceOptions, Engine, FleetOptions, SessionManager};
use pfdbg_util::BitVec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The generated design every test serves (instrumented with 2 ports
/// at coverage 1, k = 4).
const GEN: pfdbg_circuits::GenParams = pfdbg_circuits::GenParams {
    n_inputs: 6,
    n_outputs: 4,
    n_gates: 24,
    depth: 4,
    n_latches: 2,
    seed: 91,
};

/// The journal provenance of [`GEN`]: journals that name it are
/// self-contained, replayable by `pfdbg_replay::verify_path`.
fn gen_spec() -> DesignSpec {
    DesignSpec::Generated {
        n_inputs: GEN.n_inputs,
        n_outputs: GEN.n_outputs,
        n_gates: GEN.n_gates,
        depth: GEN.depth,
        n_latches: GEN.n_latches,
        seed: GEN.seed,
    }
}

fn build_engine() -> Engine {
    let design = pfdbg_circuits::generate(&GEN);
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

/// The chaos environment both runs share: flaky transport + SEUs, so
/// the restore has to reproduce retries, escalations, and upsets — not
/// just a clean bit diff.
fn chaos_manager(journal: Option<PathBuf>, seu_rate: f64) -> SessionManager {
    let mut manager = SessionManager::with_chaos_scrub(
        Arc::new(build_engine()),
        16,
        Some(IcapFaultConfig::uniform(0.04, 0xFA_417)),
        CommitPolicy { jitter_seed: 0x117_7E4, ..CommitPolicy::default() },
        Some(SeuConfig { rate: seu_rate, burst: 2, seed: 0x5E05_E5E0 }),
        ScrubPolicy::default(),
    );
    if let Some(dir) = journal {
        manager.set_journal_dir(dir);
    }
    manager
}

fn start(journal: Option<PathBuf>, seu_rate: f64) -> ServerHandle {
    let manager = chaos_manager(journal, seu_rate);
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

/// Deterministic parameter string for turn `t` (LSB first).
fn params_for(t: usize, n: usize) -> String {
    (0..n).map(|i| if (t * 7 + i * 13).is_multiple_of(3) { '1' } else { '0' }).collect()
}

/// Drive `turns` interleaved select/scrub operations on session `s`.
/// Returns each select reply so callers can compare runs.
fn drive(client: &mut Client, n_params: usize, turns: usize) -> Vec<pfdbg_obs::jsonl::Event> {
    let mut replies = Vec::new();
    for t in 0..turns {
        if t % 3 == 2 {
            let ev = client.roundtrip("{\"op\":\"scrub\",\"session\":\"s\"}");
            assert!(is_ok(&ev), "scrub failed: {ev:?}");
        } else {
            let ev = client.roundtrip(&format!(
                "{{\"op\":\"select\",\"session\":\"s\",\"params\":\"{}\"}}",
                params_for(t, n_params)
            ));
            // A rolled-back turn is a legitimate recorded outcome under
            // a flaky transport; both runs must roll back identically,
            // so keep the reply either way.
            replies.push(ev);
        }
    }
    replies
}

/// The reply fields that must be bit-identical between an uninterrupted
/// run and a crash-restored one. Wall-clock times and cache hits are
/// interleaving-dependent and excluded; the modeled transfer/verify
/// times, retry ladder, and diff sizes are all deterministic.
fn replay_fields(ev: &pfdbg_obs::jsonl::Event) -> Vec<(String, String)> {
    ["ok", "params", "turn", "bits_changed", "frames_changed", "retries", "degradations", "error"]
        .iter()
        .filter_map(|k| ev.fields.get(*k).map(|v| (k.to_string(), format!("{v:?}"))))
        .collect()
}

#[test]
fn restored_session_matches_uninterrupted_golden() {
    let dir = std::env::temp_dir().join(format!("pfdbg-serve-replay-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    const TURNS: usize = 7;

    // Golden: one uninterrupted run, TURNS ops then one more select.
    let golden_server = start(None, 0.01);
    let mut golden = Client::connect(golden_server.local_addr());
    let open = golden.roundtrip("{\"op\":\"open\",\"session\":\"s\"}");
    assert!(is_ok(&open), "{open:?}");
    let n_params = open.num("n_params").unwrap() as usize;
    drive(&mut golden, n_params, TURNS);
    let golden_next = golden.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"s\",\"params\":\"{}\"}}",
        params_for(TURNS, n_params)
    ));
    golden_server.shutdown();

    // Run A: same chaos, journaling on; killed after TURNS ops with no
    // clean close — the journal ends mid-session.
    let a = start(Some(dir.clone()), 0.01);
    let mut ca = Client::connect(a.local_addr());
    assert!(is_ok(&ca.roundtrip("{\"op\":\"open\",\"session\":\"s\"}")));
    drive(&mut ca, n_params, TURNS);
    a.shutdown();

    // Run B: a fresh server over the same journal dir. Opening the
    // same session name restores it from the journal.
    let b = start(Some(dir.clone()), 0.01);
    let mut cb = Client::connect(b.local_addr());
    let reopened = cb.roundtrip("{\"op\":\"open\",\"session\":\"s\"}");
    assert!(is_ok(&reopened), "restore failed: {reopened:?}");
    let restored_next = cb.roundtrip(&format!(
        "{{\"op\":\"select\",\"session\":\"s\",\"params\":\"{}\"}}",
        params_for(TURNS, n_params)
    ));
    assert_eq!(
        replay_fields(&golden_next),
        replay_fields(&restored_next),
        "restored session diverged from the uninterrupted golden\n\
         golden:   {golden_next:?}\nrestored: {restored_next:?}"
    );
    let stats = cb.roundtrip("{\"op\":\"stats\"}");
    assert!(stats.num("restores").unwrap() >= 1.0, "{stats:?}");
    assert!(stats.num("journal_records").unwrap() >= 1.0, "{stats:?}");
    b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Restarting with different chaos flags must refuse the restore with
/// a divergence report, not silently serve a session whose journal it
/// cannot reproduce.
#[test]
fn restore_under_different_chaos_is_refused() {
    let dir =
        std::env::temp_dir().join(format!("pfdbg-serve-replay-divergence-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let a = start(Some(dir.clone()), 0.02);
    let mut ca = Client::connect(a.local_addr());
    let open = ca.roundtrip("{\"op\":\"open\",\"session\":\"s\"}");
    let n_params = open.num("n_params").unwrap() as usize;
    drive(&mut ca, n_params, 6);
    a.shutdown();

    // Different SEU rate: the recorded flip counts can't reproduce.
    let b = start(Some(dir.clone()), 0.3);
    let mut cb = Client::connect(b.local_addr());
    let reopened = cb.roundtrip("{\"op\":\"open\",\"session\":\"s\"}");
    assert!(!is_ok(&reopened), "restore should have diverged: {reopened:?}");
    let msg = reopened.str("error").unwrap_or("");
    assert!(msg.contains("diverged"), "unexpected error: {msg}");
    b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The `record` and `replay` verbs: a live session reports its journal,
/// and the server re-drives that journal to a bit-identical verdict.
#[test]
fn record_and_replay_verbs_round_trip() {
    let dir = std::env::temp_dir().join(format!("pfdbg-serve-replay-verbs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let server = start(Some(dir.clone()), 0.01);
    let mut c = Client::connect(server.local_addr());
    let open = c.roundtrip("{\"op\":\"open\",\"session\":\"s\"}");
    let n_params = open.num("n_params").unwrap() as usize;
    drive(&mut c, n_params, 5);

    let rec = c.roundtrip("{\"op\":\"record\",\"session\":\"s\"}");
    assert!(is_ok(&rec), "{rec:?}");
    let path = rec.str("path").unwrap().to_string();
    let file = rec.str("file").unwrap().to_string();
    assert!(rec.num("records").unwrap() >= 1.0);
    assert!(path.ends_with(&file), "file {file:?} should be the basename of {path:?}");

    // Replay takes the journal-dir-relative name `record` returned.
    let rep = c.roundtrip(&format!("{{\"op\":\"replay\",\"path\":\"{file}\"}}"));
    assert!(is_ok(&rep), "{rep:?}");
    assert_eq!(
        rep.fields.get("identical"),
        Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)),
        "server replay diverged: {rep:?}"
    );

    // The verb is confined to the journal directory: absolute paths
    // (even correct ones) and traversal out of the directory are
    // rejected before any file IO happens.
    let abs = c.roundtrip(&format!("{{\"op\":\"replay\",\"path\":\"{path}\"}}"));
    assert!(!is_ok(&abs), "absolute replay path should be refused: {abs:?}");
    assert!(abs.str("error").unwrap_or("").contains("relative"), "{abs:?}");
    let traversal = c.roundtrip(&format!("{{\"op\":\"replay\",\"path\":\"../{file}\"}}"));
    assert!(!is_ok(&traversal), "traversal replay path should be refused: {traversal:?}");
    assert!(traversal.str("error").unwrap_or("").contains(".."), "{traversal:?}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A serve-recorded journal verifies on the standalone engine: the
/// server's turns — LRU hits adopting cached tunable words, misses,
/// scrubs, and an expired deadline — re-drive through the
/// `OnlineReconfigurator` `pfdbg replay` builds, with no divergence.
#[test]
fn serve_journal_verifies_on_the_standalone_engine() {
    let dir =
        std::env::temp_dir().join(format!("pfdbg-serve-replay-standalone-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut manager = chaos_manager(Some(dir.clone()), 0.02);
    manager.set_journal_design(gen_spec(), 1, 4);
    let n_params = manager.open("s").unwrap();

    // Three vectors that recur (LRU hits once published) and a fresh
    // vector every other turn (misses).
    let mut seed = 0x51A7_u64;
    let mut fresh = || -> BitVec {
        (0..n_params)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & 1 == 1
            })
            .collect()
    };
    let pool: Vec<BitVec> = (0..3).map(|_| fresh()).collect();
    for t in 0..30 {
        if t % 5 == 4 {
            manager.scrub_session("s").unwrap();
            continue;
        }
        let params = if t % 2 == 0 { pool[(t / 2) % 3].clone() } else { fresh() };
        if t == 13 {
            let expired = Some((Instant::now(), Duration::ZERO));
            let err = manager.select_within("s", &params, expired).unwrap_err();
            assert!(err.contains("deadline"), "{err}");
            continue;
        }
        // A rollback under the flaky transport is a journaled outcome
        // like any other; the replay must reproduce it.
        let _ = manager.select("s", &params);
    }
    let counts = manager.counts();
    let (hits, misses) = (counts.cache_hits, counts.cache_misses);
    assert!(hits > 0 && misses > 0, "want both LRU paths: {hits} hits, {misses} misses");
    let (path, _, _) = manager.journal_status("s").unwrap();
    manager.close("s").unwrap();

    let report = pfdbg_replay::verify_path(Path::new(&path)).unwrap();
    assert!(report.ok(), "standalone replay diverged: {:?}", report.divergence);
    assert_eq!((report.turns, report.scrubs), (24, 6), "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Scrub repairs commit under the session's own commit policy, which
/// the journal meta records — whatever retry budget the constructor's
/// `ScrubPolicy` names. A server whose turns may not retry, under a
/// port that fails 30% of writes and heavy upsets, journals repairs
/// that its standalone replay reproduces exactly.
#[test]
fn serve_journal_verifies_when_repairs_may_retry_more_than_turns() {
    let dir =
        std::env::temp_dir().join(format!("pfdbg-serve-replay-repairs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut manager = SessionManager::with_chaos_scrub(
        Arc::new(build_engine()),
        16,
        Some(IcapFaultConfig::uniform(0.3, 0xFA_417)),
        CommitPolicy { max_retries: 0, jitter_seed: 0x117_7E4, ..CommitPolicy::default() },
        Some(SeuConfig { rate: 0.5, burst: 2, seed: 0x5E05_E5E0 }),
        ScrubPolicy::default(),
    );
    manager.set_journal_dir(dir.clone());
    manager.set_journal_design(gen_spec(), 1, 4);
    let n_params = manager.open("s").unwrap();
    for t in 0..40 {
        if t % 3 == 2 {
            manager.scrub_session("s").unwrap();
        } else {
            let params: BitVec = params_for(t, n_params).chars().map(|c| c == '1').collect();
            // Rollbacks are journaled outcomes like any other.
            let _ = manager.select("s", &params);
        }
    }
    let (path, _, _) = manager.journal_status("s").unwrap();
    manager.close("s").unwrap();

    let report = pfdbg_replay::verify_path(Path::new(&path)).unwrap();
    assert!(report.ok(), "standalone replay diverged: {:?}", report.divergence);
    assert_eq!((report.turns, report.scrubs), (27, 13), "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `replay` verb re-drives an `External` journal on a detached
/// session of no fleet device: it writes nothing through the live
/// device the session name maps to and feeds no health ladder, and a
/// killed device does not turn the re-drive into a failover.
#[test]
fn replay_verb_leaves_the_live_fleet_alone() {
    let dir = std::env::temp_dir().join(format!("pfdbg-serve-replay-fleet-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // Wide watchdog budgets: only the scripted kill moves the ladder.
    let watchdog = WatchdogPolicy {
        commit_budget: Duration::from_secs(60),
        scrub_budget: Duration::from_secs(60),
        ..WatchdogPolicy::default()
    };
    let mut manager = SessionManager::with_devices(
        Arc::new(build_engine()),
        16,
        None,
        CommitPolicy::default(),
        None,
        ScrubPolicy::default(),
        FleetOptions::default(),
        DeviceOptions { devices: 1, spares: 1, watchdog, ..DeviceOptions::default() },
    );
    manager.set_journal_dir(dir.clone());
    let n_params = manager.open("s").unwrap();
    for t in 0..6 {
        let params: BitVec = params_for(t, n_params).chars().map(|c| c == '1').collect();
        manager.select("s", &params).unwrap();
    }
    let (path, _, _) = manager.journal_status("s").unwrap();
    let device = manager.device_control(0).unwrap();
    assert!(device.writes() > 0, "the live session wrote through device 0");
    for killed in [false, true] {
        if killed {
            device.kill();
        }
        let (writes, migrations) = (device.writes(), manager.counts().migrations);
        let (_, records, divergence) = manager.replay_journal(Path::new(&path)).unwrap();
        assert_eq!(divergence, None, "killed: {killed}");
        assert_eq!(records, 7, "meta plus six selects");
        assert_eq!(device.writes(), writes, "killed: {killed}: the re-drive wrote to device 0");
        assert_eq!(manager.counts().migrations, migrations, "killed: {killed}: a failover ran");
    }
    std::fs::remove_dir_all(&dir).ok();
}
