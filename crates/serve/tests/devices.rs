//! Device-fleet failover chaos tests over real TCP, plus property
//! tests for the session→device assignment.
//!
//! The acceptance shape from the fleet-supervision work: a 200-turn
//! session whose device is killed mid-commit must migrate to a spare
//! by journal re-drive, and every post-migration reply must be
//! bit-identical to an uninterrupted golden run — at 1, 2, and 8
//! serve shards. While the migration is in flight the client sees
//! `overloaded`/"migrating" errors with a retry hint, never a hung
//! connection or a second reply, and no committed turn is lost.

use pfdbg_core::{prepare_instrumented, CompiledDesign, InstrumentConfig, OfflineConfig};
use pfdbg_emu::{DeviceMode, IcapFaultConfig, SeuConfig};
use pfdbg_pconf::health::{DeviceHealth, WatchdogPolicy};
use pfdbg_replay::ChaosSpec;
use pfdbg_serve::server::{Server, ServerConfig, ServerHandle};
use pfdbg_serve::session::{
    DeviceOptions, FleetOptions, JournalOptions, ManagerOptions, SessionManager,
};
use pfdbg_serve::{primary_device_of, protocol::parse_param_bits};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn build_engine() -> CompiledDesign {
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
    CompiledDesign::compile(inst, &OfflineConfig { k: 4, ..OfflineConfig::default() }).unwrap()
}

/// One engine for the whole file — golden and chaos runs share it the
/// same way shards inside one server do.
fn engine() -> Arc<CompiledDesign> {
    static ENGINE: OnceLock<Arc<CompiledDesign>> = OnceLock::new();
    ENGINE.get_or_init(|| Arc::new(build_engine())).clone()
}

/// A supervised manager. `chaos` turns on the flaky-transport + SEU
/// environment both runs of the determinism test share. The watchdog
/// budgets are opened wide so health transitions in this test come
/// only from the scripted kill — wall-clock trips on a loaded CI box
/// would otherwise make the golden run nondeterministic (the watchdog
/// itself is covered by its unit tests).
fn fleet_manager(
    shards: usize,
    journal: Option<PathBuf>,
    devices: usize,
    spares: usize,
    chaos: bool,
) -> SessionManager {
    let watchdog = WatchdogPolicy {
        commit_budget: Duration::from_secs(60),
        scrub_budget: Duration::from_secs(60),
        ..WatchdogPolicy::default()
    };
    let chaos = if chaos {
        ChaosSpec {
            fault: Some(IcapFaultConfig::uniform(0.04, 0xFA_417)),
            seu: Some(SeuConfig { rate: 0.01, burst: 2, seed: 0x5E05_E5E0 }),
            jitter_seed: 0x117_7E4,
            ..ChaosSpec::reliable()
        }
    } else {
        ChaosSpec::reliable()
    };
    SessionManager::new(
        engine(),
        ManagerOptions {
            cache_capacity: 16,
            chaos,
            fleet: FleetOptions { shards, inbox_capacity: 64 },
            devices: Some(DeviceOptions { devices, spares, watchdog, ..DeviceOptions::default() }),
            journal: journal.map(JournalOptions::external),
        },
    )
}

fn start(shards: usize, journal: Option<PathBuf>, chaos: bool) -> ServerHandle {
    let manager = fleet_manager(shards, journal, 2, 2, chaos);
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

/// A reply a failover-aware client retries: the device died under the
/// request, or the server is shedding while the journal re-drives.
fn should_retry(ev: &pfdbg_obs::jsonl::Event) -> bool {
    let msg = ev.str("error").unwrap_or("");
    !is_ok(ev) && (msg.contains("migrating") || msg.contains("overloaded"))
}

/// Deterministic parameter string for turn `t` (LSB first).
fn params_for(t: usize, n: usize) -> String {
    (0..n).map(|i| if (t * 7 + i * 13).is_multiple_of(3) { '1' } else { '0' }).collect()
}

/// Issue one op, retrying through a migration window. Returns the
/// first non-migration reply plus how many retries it took. An honest
/// chaos rollback is *not* retried — it is a recorded outcome both
/// runs must reproduce identically.
fn roundtrip_retrying(client: &mut Client, line: &str) -> (pfdbg_obs::jsonl::Event, usize) {
    for retry in 0..2000 {
        let ev = client.roundtrip(line);
        if !should_retry(&ev) {
            return (ev, retry);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("migration never finished: {line}");
}

/// Drive turns `range` on session `s`: one select per turn, plus a
/// scrub every 10th turn. Returns the select replies and the number of
/// migration retries the client had to absorb.
fn drive(
    client: &mut Client,
    n_params: usize,
    range: std::ops::Range<usize>,
) -> (Vec<pfdbg_obs::jsonl::Event>, usize) {
    let mut replies = Vec::new();
    let mut retries = 0;
    for t in range {
        if t % 10 == 9 {
            let (ev, r) = roundtrip_retrying(client, "{\"op\":\"scrub\",\"session\":\"s\"}");
            assert!(is_ok(&ev), "scrub failed: {ev:?}");
            retries += r;
        }
        let (ev, r) = roundtrip_retrying(
            client,
            &format!(
                "{{\"op\":\"select\",\"session\":\"s\",\"params\":\"{}\"}}",
                params_for(t, n_params)
            ),
        );
        retries += r;
        replies.push(ev);
    }
    (replies, retries)
}

/// The reply fields that must be bit-identical between the golden run
/// and the failover run. Wall-clock times and cache hits are
/// interleaving-dependent and excluded; the modeled costs, retry
/// ladder, and diff sizes are all deterministic.
fn replay_fields(ev: &pfdbg_obs::jsonl::Event) -> Vec<(String, String)> {
    ["ok", "params", "turn", "bits_changed", "frames_changed", "retries", "degradations", "error"]
        .iter()
        .filter_map(|k| ev.fields.get(*k).map(|v| (k.to_string(), format!("{v:?}"))))
        .collect()
}

fn failover_matches_golden_at(shards: usize) {
    const TURNS: usize = 200;
    const KILL_AT: usize = 100;
    let dir =
        std::env::temp_dir().join(format!("pfdbg-serve-devices-{}-s{shards}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Golden: the same fleet and chaos, never killed.
    let golden_server = start(shards, None, true);
    let mut golden = Client::connect(golden_server.local_addr());
    let open = golden.roundtrip("{\"op\":\"open\",\"session\":\"s\"}");
    assert!(is_ok(&open), "{open:?}");
    let n_params = open.num("n_params").unwrap() as usize;
    let (golden_replies, golden_retries) = drive(&mut golden, n_params, 0..TURNS);
    assert_eq!(golden_retries, 0, "golden run saw a spurious migration");
    golden_server.shutdown();

    // Failover run: after turn KILL_AT-1 commits, arm a kill that
    // fires three frame-writes later — inside some subsequent commit.
    let server = start(shards, Some(dir.clone()), true);
    let sessions = server.sessions();
    let mut client = Client::connect(server.local_addr());
    assert!(is_ok(&client.roundtrip("{\"op\":\"open\",\"session\":\"s\"}")));
    let (mut replies, _) = drive(&mut client, n_params, 0..KILL_AT);

    let dead = sessions.device_of("s");
    assert!(dead < 2, "session should start on a primary, got dev{dead}");
    sessions.device_control(dead).unwrap().kill_after_writes(3);

    let (tail, tail_retries) = drive(&mut client, n_params, KILL_AT..TURNS);
    replies.extend(tail);
    assert!(tail_retries >= 1, "the kill never interrupted a turn (shards={shards})");

    // Every reply — before, across, and after the migration — is
    // bit-identical to the uninterrupted run.
    assert_eq!(golden_replies.len(), replies.len());
    for (t, (g, r)) in golden_replies.iter().zip(&replies).enumerate() {
        assert_eq!(
            replay_fields(g),
            replay_fields(r),
            "turn {t} diverged after failover (shards={shards})\n\
             golden:   {g:?}\nfailover: {r:?}"
        );
    }
    // No committed turn was lost or double-committed across the kill.
    let committed: Vec<u64> =
        replies.iter().filter(|e| is_ok(e)).map(|e| e.num("turn").unwrap() as u64).collect();
    assert!(!committed.is_empty());
    for w in committed.windows(2) {
        assert!(w[1] > w[0], "turn sequence regressed across the migration: {committed:?}");
    }

    // The fleet accounted the failover: the dead device is terminal,
    // the session lives on a spare, nothing was dropped.
    let totals = sessions.counts();
    assert!(totals.device_failures >= 1, "{totals:?}");
    assert!(totals.migrations >= 1, "{totals:?}");
    assert!(totals.sessions_migrated >= 1, "{totals:?}");
    assert_eq!(totals.sessions_lost, 0, "{totals:?}");
    let (mode, health) = sessions.device_status(dead).unwrap();
    assert!(matches!(mode, DeviceMode::Killed), "dead device mode: {mode:?}");
    assert_eq!(health, DeviceHealth::Failed);
    let now = sessions.device_of("s");
    assert!(now >= 2, "session should have moved to a spare, got dev{now}");

    // The `devices` verb reports the fleet over the wire.
    let dv = client.roundtrip("{\"op\":\"devices\"}");
    assert!(is_ok(&dv), "{dv:?}");
    assert_eq!(dv.num("devices"), Some(4.0));
    assert!(dv.num("migrations").unwrap() >= 1.0, "{dv:?}");
    assert!(dv.num("device_failures").unwrap() >= 1.0, "{dv:?}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failover_matches_golden_1_shard() {
    failover_matches_golden_at(1);
}

#[test]
fn failover_matches_golden_2_shards() {
    failover_matches_golden_at(2);
}

#[test]
fn failover_matches_golden_8_shards() {
    failover_matches_golden_at(8);
}

/// The `drain` verb: an operator moves sessions off a *healthy*
/// device. The device keeps serving (mode stays Ok) but its health is
/// pinned Quarantined and its sessions re-drive onto a spare.
#[test]
fn drain_verb_migrates_sessions_off_a_healthy_device() {
    let dir =
        std::env::temp_dir().join(format!("pfdbg-serve-devices-drain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let server = start(2, Some(dir.clone()), false);
    let sessions = server.sessions();
    let mut client = Client::connect(server.local_addr());
    let open = client.roundtrip("{\"op\":\"open\",\"session\":\"s\"}");
    assert!(is_ok(&open), "{open:?}");
    let n_params = open.num("n_params").unwrap() as usize;
    drive(&mut client, n_params, 0..5);

    let drained = sessions.device_of("s");
    let dr = client.roundtrip(&format!("{{\"op\":\"drain\",\"device\":{drained}}}"));
    assert!(is_ok(&dr), "{dr:?}");

    let (ev, _) = roundtrip_retrying(
        &mut client,
        &format!(
            "{{\"op\":\"select\",\"session\":\"s\",\"params\":\"{}\"}}",
            params_for(5, n_params)
        ),
    );
    assert!(is_ok(&ev), "select after drain failed: {ev:?}");

    assert!(sessions.device_of("s") >= 2, "session should live on a spare after the drain");
    let (mode, health) = sessions.device_status(drained).unwrap();
    assert!(matches!(mode, DeviceMode::Ok), "a drained device keeps serving: {mode:?}");
    assert_eq!(health, DeviceHealth::Quarantined);
    let totals = sessions.counts();
    assert!(totals.migrations >= 1, "{totals:?}");
    assert_eq!(totals.device_failures, 0, "a drain is not a failure: {totals:?}");
    assert_eq!(totals.sessions_lost, 0, "{totals:?}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

mod assignment_props {
    use super::*;
    use proptest::prelude::*;

    /// A session name drawn from a 64-bit seed and a length.
    fn name_from(seed: u64, len: usize) -> String {
        format!("{seed:016x}")[..len.clamp(1, 16)].to_string()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Session→device assignment is a pure function of the name
        /// and the primary count: stable across calls, always in
        /// range, and (taking no other inputs) independent of shard
        /// count, process, and fleet state by construction.
        #[test]
        fn primary_assignment_is_pure_and_in_range(
            seed in any::<u64>(),
            len in 1usize..=16,
            primaries in 1usize..=16,
        ) {
            let name = name_from(seed, len);
            let d = primary_device_of(&name, primaries);
            prop_assert!(d < primaries);
            prop_assert_eq!(d, primary_device_of(&name, primaries));
        }
    }

    static CASE: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]
        /// A journaled session restored by a fresh manager — possibly
        /// with a different shard count — lands on the same healthy
        /// device it was assigned before the restart.
        #[test]
        fn restore_lands_on_same_healthy_device(
            seed in any::<u64>(),
            len in 1usize..=10,
            devices in 1usize..=4,
            spares in 1usize..=2,
            shard_pick in (0usize..3, 0usize..3),
        ) {
            let name = name_from(seed, len);
            let (shards_a, shards_b) = ([1, 2, 8][shard_pick.0], [1, 2, 8][shard_pick.1]);
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("pfdbg-devices-prop-{}-{case}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();

            let a = fleet_manager(shards_a, Some(dir.clone()), devices, spares, false);
            prop_assert!(a.open(&name).is_ok());
            let n = a.engine().n_params();
            for t in 0..3 {
                let params = parse_param_bits(&params_for(t, n)).unwrap();
                prop_assert!(a.select(&name, &params).is_ok());
            }
            let dev_a = a.device_of(&name);
            prop_assert_eq!(dev_a, primary_device_of(&name, devices));
            drop(a);

            let b = fleet_manager(shards_b, Some(dir.clone()), devices, spares, false);
            prop_assert!(b.open(&name).is_ok(), "journal restore failed after restart");
            prop_assert_eq!(b.device_of(&name), dev_a);
            let (mode, health) = b.device_status(dev_a).unwrap();
            prop_assert!(matches!(mode, DeviceMode::Ok));
            prop_assert_eq!(health, DeviceHealth::Healthy);
            drop(b);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
