//! Session state: many concurrent debugging sessions over one shared
//! compiled design.
//!
//! The expensive, read-only products of the offline flow (SCG, layout,
//! ICAP model, instrumented netlist, base configuration) are shared
//! behind `Arc`; each session owns only its [`TurnEngine`] (parameter
//! assignment, evaluation scratch with the committed packed tunable
//! words) and its (possibly faulty) reconfiguration channel, whose
//! device copies only the frames it writes over the shared base, so
//! turns from different clients proceed independently. A shared LRU of
//! packed tunable words, keyed by the parameter `BitVec` itself,
//! short-circuits the SCG sweep for repeated selections across *all*
//! sessions: each select looks it up once, under the LRU's own lock, and
//! a hit shares the cached words' `Arc`.
//!
//! Turns are **transactional** and are the standalone engine's turn:
//! [`TurnEngine::stage`] diffs the selection against the committed
//! configuration, and [`TurnEngine::commit`] pushes the changed frames
//! through the loop of [`pfdbg_pconf::icap::commit_frames`] (per-frame
//! CRC, readback-verify, bounded retry, escalation) before any session
//! state, turn counter, or cache entry advances. A deadline miss or an
//! exhausted retry budget leaves the session exactly as it was — the
//! only residue of a rollback is the armed resync, which makes the next
//! commit rewrite every frame because configuration memory is no
//! longer trusted.
//!
//! Sessions are **sharded, not locked**: a session pins to one of N
//! shard threads by a hash of its name, and that shard owns its state
//! outright (see the `shard` module). Every operation — client select,
//! background scrub, journal restore — rides the shard's inbox and
//! executes in arrival order, so a long commit in one session never
//! blocks another shard, and the scrubber can never be starved off a
//! hot session (there is no lock to lose; its scrub job simply queues
//! behind the selects and runs).
//!
//! Between turns a session's device is not assumed bit-perfect: every
//! select first ticks the channel (where an emulated fabric takes its
//! SEUs), and scrub passes diff readback against the PConf golden
//! oracle, repairing or quarantining divergent frames
//! ([`SessionManager::scrub_session`], surfaced by the `health` verb).
//!
//! This module keeps three layers apart: `ManagerCore` (the shared
//! engine, cache, chaos config, and fleet-wide atomics — everything a
//! shard thread needs), the shard-side session operations
//! (`impl Shard` here, so `SessionState` stays private to the crate),
//! and the [`SessionManager`] facade, which routes each call to the
//! owning shard and blocks for the answer — the embedding API is
//! unchanged from the mutex era.

use crate::lru::LruCache;
use crate::shard::{relock, Inbox, Job, SelectSpec, Shard, ShardHandle, ShardHold};
use crate::telemetry as tel;
use pfdbg_arch::{Bitstream, BitstreamLayout, IcapModel};
use pfdbg_core::Instrumented;
use pfdbg_emu::{
    channel_stack, DeviceControl, DeviceMode, DeviceRegistry, IcapFaultConfig, SeuConfig,
};
use pfdbg_obs::{FlightKind, FlightRecorder};
use pfdbg_pconf::health::{DeviceHealth, HealthEvent, HealthLadder, HealthPolicy, WatchdogPolicy};
use pfdbg_pconf::icap::{readback_all, CommitPolicy, IcapChannel};
use pfdbg_pconf::scrub::{ScrubHealth, ScrubPolicy, ScrubReport, Scrubber};
use pfdbg_pconf::{Scg, TunableFrames, TurnContext, TurnEngine};
use pfdbg_replay::verify::{diff_scrub, diff_select, Divergence};
use pfdbg_replay::{
    device_crc, session_seed, ChaosSpec, DesignSpec, JournalRecord, JournalWriter, ScrubFacts,
    SelectFacts, SelectOutcome, SessionMeta,
};
use pfdbg_util::BitVec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The shared compiled design a server instance runs against.
pub struct Engine {
    /// Instrumented design (for signal → parameter planning).
    pub inst: Arc<Instrumented>,
    /// The SCG over the generalized bitstream.
    pub scg: Arc<Scg>,
    /// Bitstream layout (frame geometry).
    pub layout: BitstreamLayout,
    /// Reconfiguration-port model.
    pub icap: IcapModel,
}

impl Engine {
    /// Bundle the offline products for serving.
    pub fn new(inst: Instrumented, scg: Scg, layout: BitstreamLayout, icap: IcapModel) -> Engine {
        Engine { inst: Arc::new(inst), scg: Arc::new(scg), layout, icap }
    }

    /// Number of PConf parameters.
    pub fn n_params(&self) -> usize {
        self.inst.annotations.len()
    }
}

/// One client session: its turn engine (the parameters it last
/// committed and their packed tunable words), the channel its frames
/// travel over, and the scrubber that keeps the device honest between
/// turns. Owned by exactly one shard thread — no lock.
pub(crate) struct SessionState {
    /// **Per-session** turn state, evaluation scratch included — the
    /// shared `Engine::scg` is immutable behind its `Arc`, and every
    /// mutable buffer lives here, on the owning shard's thread, so
    /// concurrent sessions never observe each other's sweeps
    /// (DESIGN.md §12).
    turn: TurnEngine,
    turns: usize,
    channel: Box<dyn IcapChannel>,
    scrubber: Scrubber,
    /// Per-session commit policy (the jitter seed is salted with the
    /// session name so concurrent sessions never retry in lockstep).
    policy: CommitPolicy,
    /// Fixed-size ring of the session's recent structured events — the
    /// post-mortem that survives to a `dump`.
    flight: FlightRecorder,
    /// Session journal appender when the server records sessions
    /// (`--journal-dir`); every turn's facts append here as they commit.
    journal: Option<JournalWriter>,
    /// When set, select/scrub store their replay facts in the
    /// `last_*_facts` slots — the restore and replay paths compare
    /// those against the recorded journal.
    capture_facts: bool,
    last_select_facts: Option<SelectFacts>,
    last_scrub_facts: Option<ScrubFacts>,
    /// The fleet device this session's channel routes through (`0`
    /// always, when no device fleet is configured). Every turn consults
    /// the device's mode; a session whose device drains is rebuilt on a
    /// spare by re-driving its journal.
    device: usize,
}

/// Flight-recorder depth per session: enough to reconstruct the last
/// few hundred turns' worth of commits, retries, scrubs, and strikes
/// at O(1) per event and a few KB per session.
const FLIGHT_CAP: usize = 256;

/// The result of one specialization turn.
#[derive(Debug, Clone)]
pub struct TurnOutcome {
    /// The parameter vector that was applied.
    pub params: BitVec,
    /// Configuration bits that changed.
    pub bits_changed: usize,
    /// Frames rewritten via DPR.
    pub frames_changed: usize,
    /// Host-side evaluation/lookup wall time in microseconds.
    pub eval_us: f64,
    /// Modeled ICAP transfer time in microseconds (forward writes).
    pub transfer_us: f64,
    /// Modeled verification time in microseconds (readbacks, retry
    /// backoff, stall penalties).
    pub verify_us: f64,
    /// Frame writes retried before the commit verified.
    pub retries: u32,
    /// Escalations (partial diff → full-frame rewrite → full
    /// reconfiguration) this turn needed.
    pub degradations: u32,
    /// Whether the specialization (its packed tunable words) came
    /// from the LRU cache.
    pub cache_hit: bool,
    /// Turn number within the session (0-based).
    pub turn: usize,
}

/// Running totals of the fault-tolerance machinery, served by `stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IcapTotals {
    /// Frame-write retries across all sessions.
    pub retries: u64,
    /// Escalations across all sessions.
    pub degradations: u64,
    /// Turns that rolled back after exhausting every escalation level.
    pub rollbacks: u64,
}

/// Running totals of the scrubbing machinery, served by `stats` and
/// `BENCH_serve.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrubStats {
    /// Scrub passes completed across all sessions.
    pub passes: u64,
    /// Divergent (upset) frames detected.
    pub upsets_detected: u64,
    /// Divergent bits detected.
    pub bits_upset: u64,
    /// Frames repaired back to the golden oracle.
    pub repairs: u64,
    /// Frames quarantined as stuck.
    pub quarantined: u64,
    /// Configuration bits the emulated fabric flipped via injected
    /// SEUs (0 on a reliable device).
    pub seu_bits_injected: u64,
}

/// One session's scrub status, served by the `health` verb.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Clean, or degraded because frames are quarantined.
    pub verdict: ScrubHealth,
    /// Scrub passes run on this session.
    pub scrubs: u64,
    /// Upset frames detected over the session's lifetime.
    pub upsets_detected: u64,
    /// Upset bits detected over the session's lifetime.
    pub bits_upset: u64,
    /// Frames repaired back to golden.
    pub frames_repaired: u64,
    /// Quarantined frame indices (ascending).
    pub quarantine: Vec<usize>,
    /// Whether the next commit will rewrite the whole device.
    pub needs_resync: bool,
    /// Turns served so far.
    pub turns: usize,
}

/// Device-fleet shape and supervision thresholds. Passing this to
/// [`SessionManager::with_devices`] opts the manager into fleet
/// supervision: sessions hash across `devices` primaries, every commit
/// and scrub pass feeds the owning device's health ladder and deadline
/// watchdog, and a quarantined or failed device drains onto a spare by
/// re-driving its sessions' `.pfdj` journals through the restore path.
#[derive(Debug, Clone, Copy)]
pub struct DeviceOptions {
    /// Primary device count: sessions hash across these.
    pub devices: usize,
    /// Spare devices kept idle to absorb a drained primary's sessions.
    pub spares: usize,
    /// Commit/scrub deadline budgets (scaled by the retry ladder).
    pub watchdog: WatchdogPolicy,
    /// Health-ladder thresholds.
    pub health: HealthPolicy,
}

impl Default for DeviceOptions {
    fn default() -> Self {
        DeviceOptions {
            devices: 1,
            spares: 0,
            watchdog: WatchdogPolicy::default(),
            health: HealthPolicy::default(),
        }
    }
}

/// Fleet-wide device totals, served by the `stats`/`devices` verbs and
/// `BENCH_serve.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceTotals {
    /// Devices in the fleet (primaries + spares); 1 when unsupervised.
    pub devices: u64,
    /// Primaries taking hashed session assignment.
    pub primaries: u64,
    /// Migrations started (operator drains and failovers).
    pub migrations: u64,
    /// Commit/scrub watchdog trips.
    pub watchdog_trips: u64,
    /// Devices declared failed.
    pub device_failures: u64,
    /// Sessions successfully re-driven onto a spare.
    pub sessions_migrated: u64,
    /// Sessions dropped by a migration (no journal to re-drive, or the
    /// re-drive diverged).
    pub sessions_lost: u64,
}

/// Device-flight ring depth: device events are rare (trips, failures,
/// migrations), so a small ring holds the fleet's recent history.
const DEVICE_FLIGHT_CAP: usize = 128;

/// The supervised device fleet: the registry plus per-device health
/// ladders, the primary→actual redirect table, and the spare pool.
/// Lives in [`ManagerCore`] so shard threads feed ladders directly.
pub(crate) struct DeviceFleet {
    registry: DeviceRegistry,
    primaries: usize,
    ladders: Vec<Mutex<HealthLadder>>,
    /// `redirect[p]` = the device primary `p`'s sessions actually live
    /// on right now: identity until a failover retargets it to a spare.
    redirect: Vec<AtomicUsize>,
    /// Per-device drain latch — one failover per device, ever.
    draining: Vec<AtomicU64>,
    /// Per-primary migration-in-flight flag; the server sheds new work
    /// for a migrating primary's sessions with `overloaded`.
    migrating: Vec<AtomicU64>,
    /// Next spare to claim (index into the registry, ≥ `primaries`).
    next_spare: AtomicUsize,
    watchdog: WatchdogPolicy,
    /// Device-level flight ring. Events here use `turn` = device id and
    /// `value` = the event's payload (target device, elapsed µs, rung).
    flight: Mutex<FlightRecorder>,
    migrations: AtomicU64,
    watchdog_trips: AtomicU64,
    device_failures: AtomicU64,
    sessions_migrated: AtomicU64,
    sessions_lost: AtomicU64,
}

impl DeviceFleet {
    fn new(opts: DeviceOptions) -> DeviceFleet {
        let primaries = opts.devices.max(1);
        let total = primaries + opts.spares;
        let fleet = DeviceFleet {
            registry: DeviceRegistry::new(total),
            primaries,
            ladders: (0..total).map(|_| Mutex::new(HealthLadder::new(opts.health))).collect(),
            redirect: (0..primaries).map(AtomicUsize::new).collect(),
            draining: (0..total).map(|_| AtomicU64::new(0)).collect(),
            migrating: (0..primaries).map(|_| AtomicU64::new(0)).collect(),
            next_spare: AtomicUsize::new(primaries),
            watchdog: opts.watchdog,
            flight: Mutex::new(FlightRecorder::new(DEVICE_FLIGHT_CAP)),
            migrations: AtomicU64::new(0),
            watchdog_trips: AtomicU64::new(0),
            device_failures: AtomicU64::new(0),
            sessions_migrated: AtomicU64::new(0),
            sessions_lost: AtomicU64::new(0),
        };
        for id in 0..total {
            fleet.publish_health_gauge(id, DeviceHealth::Healthy);
        }
        fleet
    }

    fn device_mode(&self, id: usize) -> DeviceMode {
        self.registry.get(id).map(|d| d.mode()).unwrap_or(DeviceMode::Killed)
    }

    fn health_of(&self, id: usize) -> DeviceHealth {
        relock(&self.ladders[id]).health()
    }

    fn publish_health_gauge(&self, id: usize, health: DeviceHealth) {
        pfdbg_obs::gauge_set(&format!("serve.device{id}.health"), health.score() as f64);
    }

    /// Feed one event to a device's ladder; publishes the health gauge
    /// and returns the new rung when the event moved it.
    fn observe(&self, id: usize, event: HealthEvent) -> Option<DeviceHealth> {
        let transition = relock(&self.ladders[id]).observe(event)?;
        self.publish_health_gauge(id, transition.to);
        Some(transition.to)
    }

    /// Record a watchdog trip: session ring, device ring, counters.
    fn note_trip(
        &self,
        device: usize,
        session_flight: &mut FlightRecorder,
        turn_no: u64,
        elapsed_us: u64,
    ) {
        session_flight.record(FlightKind::WatchdogTrip, turn_no, elapsed_us);
        relock(&self.flight).record(FlightKind::WatchdogTrip, device as u64, elapsed_us);
        self.watchdog_trips.fetch_add(1, Ordering::Relaxed);
        tel::WATCHDOG_TRIPS.add(1);
    }
}

/// The primary device a session name hashes to: a pure function of the
/// name and the primary count (the same FNV fold as shard placement,
/// under its own base), so assignment is stable across restarts and
/// independent of shard count.
pub fn primary_device_of(name: &str, primaries: usize) -> usize {
    (session_seed(0xDE1C, name) % primaries.max(1) as u64) as usize
}

/// Journal configuration, settable until serving starts (behind a
/// mutex because shards hold the core behind an `Arc` from birth).
struct JournalCfg {
    /// When set, every session appends its turns to
    /// `<dir>/<session file>.pfdj` and `open` restores
    /// crash-interrupted sessions by re-driving their journals.
    dir: Option<PathBuf>,
    /// Design provenance written into journal metas. `External` (the
    /// default) marks journals replayable only against an embedder
    /// holding the same engine; a self-contained spec (set when the
    /// design came from a generator or benchmark) makes them replayable
    /// standalone.
    design: DesignSpec,
    /// `(coverage, k)` of the engine build, recorded into journal metas
    /// so self-contained journals rebuild the identical design.
    build: (usize, usize),
}

/// A specialization as the LRU holds it: the packed tunable words of
/// one parameter vector (bit `i` = value of `gbs.tunable[i]`).
pub(crate) type CachedWords = Arc<BitVec>;

/// Everything the shard threads share: the engine, the specialization
/// LRU, the chaos configuration sessions are born with, and the
/// fleet-wide running totals (all atomics — the `stats` verb never
/// blocks on a shard).
pub(crate) struct ManagerCore {
    engine: Arc<Engine>,
    /// The specialization LRU, keyed by the parameter vector itself.
    cache: Mutex<LruCache<BitVec, CachedWords>>,
    fault: Option<IcapFaultConfig>,
    seu: Option<SeuConfig>,
    policy: CommitPolicy,
    scrub_policy: ScrubPolicy,
    /// Where the tunable bits sit in the frames, shared by every
    /// session's commit.
    tunables: TunableFrames,
    /// The base configuration every session's device powers up with,
    /// built once: a device copies only the frames it writes.
    image: Arc<Bitstream>,
    /// The supervised device fleet; `None` (the default) routes every
    /// session through an implicit always-healthy device — no ladders,
    /// no watchdog, no migration, bit-identical to the pre-fleet layer.
    fleet: Option<DeviceFleet>,
    /// Every shard's inbox, set once right after the shards spawn: a
    /// failover fans its migration jobs out through these (the internal
    /// lane, so drains cannot be shed).
    inboxes: OnceLock<Vec<Arc<Inbox>>>,
    /// The most recent automatic flight-recorder dump, `(session,
    /// JSONL)`: captured at the moment a turn rolls back or a scrub
    /// quarantines a frame, served by the `dump` verb with no session
    /// argument.
    last_dump: Mutex<Option<(String, String)>>,
    journal: Mutex<JournalCfg>,
    turns_total: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    session_count: AtomicU64,
    shed_total: AtomicU64,
    overloaded_replies: AtomicU64,
    journal_records: AtomicU64,
    restores: AtomicU64,
    icap_retries: AtomicU64,
    icap_degradations: AtomicU64,
    icap_rollbacks: AtomicU64,
    scrub_passes: AtomicU64,
    scrub_upsets: AtomicU64,
    scrub_bits_upset: AtomicU64,
    scrub_repairs: AtomicU64,
    scrub_quarantined: AtomicU64,
    seu_bits_injected: AtomicU64,
}

impl ManagerCore {
    /// The shared half of every session's turn.
    fn turn_context(&self) -> TurnContext<'_> {
        TurnContext {
            scg: &self.engine.scg,
            layout: &self.engine.layout,
            icap: &self.engine.icap,
            tunables: &self.tunables,
        }
    }

    /// The journal file backing `name`, when journaling is on. The file
    /// name embeds a hash of the session name so any client-chosen name
    /// maps to a filesystem-safe, restart-stable path.
    fn journal_path(&self, name: &str) -> Option<PathBuf> {
        let dir = relock(&self.journal).dir.clone()?;
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .take(48)
            .collect();
        Some(dir.join(format!("{safe}-{:016x}.pfdj", session_seed(0x1757, name))))
    }

    /// The meta record for a fresh journal of session `name`.
    fn journal_meta(&self, name: &str) -> SessionMeta {
        let (design, (coverage, k)) = {
            let cfg = relock(&self.journal);
            (cfg.design.clone(), cfg.build)
        };
        SessionMeta {
            session: name.to_string(),
            // Serve journals store the *configured* base seeds and
            // re-derive the per-session ones from the name, exactly as
            // `open` does.
            derive_seeds: true,
            design,
            ports: self.engine.inst.ports.len(),
            coverage,
            k,
            n_params: self.engine.n_params(),
            chaos: ChaosSpec::from_parts(self.fault, self.seu, &self.policy, &self.scrub_policy),
            threads: 1,
            note: "recorded by pfdbg-serve".into(),
        }
    }

    /// A brand-new session's state — the base configuration (params =
    /// 0) behind a freshly seeded chaos channel, exactly like
    /// [`pfdbg_pconf::OnlineReconfigurator::new`]. Shared by `open`,
    /// restore, and the detached `replay` verb so all three rebuild the
    /// same session byte-for-byte.
    fn fresh_state(&self, name: &str) -> SessionState {
        // Both injectors run with a per-session seed derived from the
        // configured one.
        let channel = channel_stack(
            self.image.clone(),
            self.engine.layout.frame_bits,
            self.seu.map(|cfg| SeuConfig { seed: session_seed(cfg.seed, name), ..cfg }),
            self.fault.map(|f| IcapFaultConfig { seed: session_seed(f.seed, name), ..f }),
        );
        // With a fleet configured, the session's device wraps the whole
        // chaos stack: kill/stall/wedge verdicts apply at the outermost
        // write, and a dead device stops ticking (it takes no upsets).
        // The wrapper is inert while the device stays `Ok`, so fleet
        // and non-fleet sessions replay bit-identically.
        let device = self.device_of(name);
        let channel: Box<dyn IcapChannel> = match &self.fleet {
            Some(f) => Box::new(
                f.registry
                    .get(device)
                    .expect("redirect targets a registered device")
                    .attach(channel),
            ),
            None => channel,
        };
        // Decorrelate the retry jitter per session too — the whole
        // point of the jittered backoff is that concurrent sessions do
        // not hammer a stalling port in lockstep.
        let policy = CommitPolicy {
            jitter_seed: session_seed(self.policy.jitter_seed, name),
            ..self.policy
        };
        SessionState {
            turn: TurnEngine::new(&self.engine.scg),
            turns: 0,
            channel,
            scrubber: Scrubber::new(self.scrub_policy),
            policy,
            flight: FlightRecorder::new(FLIGHT_CAP),
            journal: None,
            capture_facts: false,
            last_select_facts: None,
            last_scrub_facts: None,
            device,
        }
    }

    /// Rebuild a session from its journal: re-drive every recorded
    /// operation through the normal select/scrub path, verifying each
    /// fact, then attach the journal in append mode (its torn tail, if
    /// any, already truncated). A journal ending in `close` is spent
    /// and is restarted fresh.
    fn restore_into(
        &self,
        name: &str,
        state: &mut SessionState,
        path: &Path,
    ) -> Result<(), String> {
        let (writer, records, _torn) = JournalWriter::open_append(path)?;
        let spent = matches!(records.last(), Some(JournalRecord::Close));
        if records.len() <= 1 || spent {
            // Nothing (or a cleanly closed session) to restore: start
            // the journal over with a fresh meta for this server run.
            drop(writer);
            state.journal = Some(JournalWriter::create(path, &self.journal_meta(name))?);
            return Ok(());
        }
        let meta = pfdbg_replay::meta_of(&records)?;
        if meta.session != name {
            return Err(format!(
                "journal {} belongs to session {:?}, not {name:?}",
                path.display(),
                meta.session
            ));
        }
        if meta.n_params != self.engine.n_params() {
            return Err(format!(
                "journal {} was recorded against a {}-parameter design; this engine has {}",
                path.display(),
                meta.n_params,
                self.engine.n_params()
            ));
        }
        state.capture_facts = true;
        let replayed = self.replay_into(name, state, &records[1..]);
        state.capture_facts = false;
        match replayed? {
            Some(div) => {
                state.flight.record(
                    FlightKind::ReplayDivergence,
                    state.turns as u64,
                    div.record as u64,
                );
                *relock(&self.last_dump) = Some((name.to_string(), state.flight.to_jsonl()));
                Err(format!("restore of session {name:?} diverged from its journal: {div}"))
            }
            None => {
                state.flight.record(
                    FlightKind::SessionRestore,
                    state.turns as u64,
                    (records.len() - 1) as u64,
                );
                self.restores.fetch_add(1, Ordering::Relaxed);
                pfdbg_obs::counter_add("serve.session_restores", 1);
                state.journal = Some(writer);
                Ok(())
            }
        }
    }

    /// Re-drive decoded journal records (meta already stripped) through
    /// `state`, diffing every fact against the recording. `Ok(None)` is
    /// a bit-identical replay; `Ok(Some(_))` the first divergence.
    fn replay_into(
        &self,
        name: &str,
        state: &mut SessionState,
        records: &[JournalRecord],
    ) -> Result<Option<Divergence>, String> {
        for (i, rec) in records.iter().enumerate() {
            let idx = i + 1; // meta was record 0
            let turn = state.turns as u64;
            match rec {
                JournalRecord::Meta(_) => {
                    return Ok(Some(Divergence {
                        record: idx,
                        turn,
                        field: "record".into(),
                        expected: "select/scrub/close".into(),
                        actual: "second meta record".into(),
                    }))
                }
                JournalRecord::Select(expected) => {
                    // A recorded deadline miss replays through the same
                    // path with an already-expired budget: the
                    // between-turn tick (and its SEUs) happens, no frame
                    // is written — exactly what the original turn did.
                    let deadline = match expected.outcome {
                        SelectOutcome::DeadlineMiss => Some((Instant::now(), Duration::ZERO)),
                        _ => None,
                    };
                    let _ = self.select_on(name, state, &expected.params, deadline);
                    let actual =
                        state.last_select_facts.take().ok_or("replay captured no select facts")?;
                    if let Some(d) = diff_select(idx, turn, expected, &actual) {
                        return Ok(Some(d));
                    }
                }
                JournalRecord::Scrub(expected) => {
                    if let Err(e) = self.scrub_on(name, state) {
                        return Ok(Some(Divergence {
                            record: idx,
                            turn,
                            field: "scrub".into(),
                            expected: "a scrub report".into(),
                            actual: format!("error: {e}"),
                        }));
                    }
                    let actual =
                        state.last_scrub_facts.take().ok_or("replay captured no scrub facts")?;
                    if let Some(d) = diff_scrub(idx, turn, expected, &actual) {
                        return Ok(Some(d));
                    }
                }
                JournalRecord::Close => break,
            }
        }
        Ok(None)
    }

    /// Verify a journal file against this server — the `replay` verb.
    /// Self-contained journals (generated/benchmark designs) rebuild
    /// their own engine via `pfdbg-replay`; `External` journals re-drive
    /// against this server's engine on a detached session state that
    /// never enters any shard's table. Returns `(session, records,
    /// divergence)`.
    pub(crate) fn replay_journal(
        &self,
        path: &Path,
    ) -> Result<(String, usize, Option<Divergence>), String> {
        let (records, _torn) = pfdbg_replay::read_records(path)?;
        let meta = pfdbg_replay::meta_of(&records)?;
        if !matches!(meta.design, DesignSpec::External) {
            let report = pfdbg_replay::verify_path(path)?;
            return Ok((report.session, report.records, report.divergence));
        }
        if meta.n_params != self.engine.n_params() {
            return Err(format!(
                "journal was recorded against a {}-parameter design; this engine has {} \
                 (start the server over the recorded design)",
                meta.n_params,
                self.engine.n_params()
            ));
        }
        let session = meta.session.clone();
        let mut state = self.fresh_state(&session);
        state.capture_facts = true;
        let div = self.replay_into(&session, &mut state, &records[1..])?;
        Ok((session, records.len(), div))
    }

    /// Map a signal selection to a parameter vector against `current`
    /// (each selected signal claims one free trace port; unrelated
    /// ports keep their previous selection). Pure — the shard calls it
    /// with the session's live parameters, making plan + select one
    /// atomic inbox job.
    fn plan_for(&self, current: &BitVec, signals: &[String]) -> Result<BitVec, String> {
        let mut params = current.clone();
        let inst = &self.engine.inst;
        let mut used = vec![false; inst.ports.len()];
        for sig in signals {
            let found = inst.ports.iter().enumerate().find_map(|(p, port)| {
                if used[p] {
                    return None;
                }
                port.select_for(sig).map(|v| (p, v))
            });
            let (p, v) =
                found.ok_or_else(|| format!("no free trace port can observe {sig} this turn"))?;
            used[p] = true;
            for (bit, name) in inst.ports[p].sel_params.iter().enumerate() {
                let idx = inst
                    .annotations
                    .params
                    .iter()
                    .position(|q| q == name)
                    .ok_or_else(|| format!("select parameter {name} not annotated"))?;
                params.set(idx, (v >> bit) & 1 == 1);
            }
        }
        Ok(params)
    }

    /// Append one turn's facts to the session journal and/or the
    /// capture slot the replay paths read back.
    fn journal_select(&self, state: &mut SessionState, facts: SelectFacts) {
        if let Some(journal) = state.journal.as_mut() {
            if journal.append(&JournalRecord::Select(facts.clone())).is_ok() {
                self.journal_records.fetch_add(1, Ordering::Relaxed);
            }
        }
        if state.capture_facts {
            state.last_select_facts = Some(facts);
        }
    }

    /// Record a shed request (shard inbox full, `overloaded` sent).
    pub(crate) fn note_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        self.overloaded_replies.fetch_add(1, Ordering::Relaxed);
        tel::SHED.add(1);
        tel::OVERLOADED.add(1);
    }

    /// The device session `name`'s channel routes through right now:
    /// the primary-hash assignment pushed through the redirect table.
    /// `0` when no fleet is configured (the implicit single device).
    fn device_of(&self, name: &str) -> usize {
        match &self.fleet {
            Some(f) => f.redirect[primary_device_of(name, f.primaries)].load(Ordering::Acquire),
            None => 0,
        }
    }

    /// Drain device `dead` and retarget its primaries onto a spare,
    /// migrating every affected session by re-driving its journal
    /// there. Idempotent per device (a drain latch), and safe to call
    /// from shard threads: migration jobs ride the unbounded internal
    /// lane of every inbox, so a select already queued behind the
    /// failover runs after its session has moved. `target` is the rung
    /// the drain is recorded at — `Failed` for kills and watchdog
    /// verdicts, `Quarantined` for operator drains.
    fn begin_failover(&self, dead: usize, target: DeviceHealth) {
        let Some(f) = &self.fleet else { return };
        if dead >= f.registry.len() || f.draining[dead].swap(1, Ordering::AcqRel) == 1 {
            return;
        }
        {
            let mut ladder = relock(&f.ladders[dead]);
            ladder.force(target);
            f.publish_health_gauge(dead, ladder.health());
        }
        if target == DeviceHealth::Failed {
            f.device_failures.fetch_add(1, Ordering::Relaxed);
            tel::DEVICE_FAILURES.add(1);
        }
        relock(&f.flight).record(FlightKind::DeviceFailed, dead as u64, target.score());
        pfdbg_obs::counter_add("serve.device_drains", 1);

        // Claim the next healthy spare. The cursor only moves forward:
        // a spare is consumed even if it died while idle (skipped).
        let spare = loop {
            let i = f.next_spare.fetch_add(1, Ordering::AcqRel);
            if i >= f.registry.len() {
                break None;
            }
            if f.draining[i].load(Ordering::Acquire) == 0 && f.device_mode(i) == DeviceMode::Ok {
                break Some(i);
            }
        };
        let Some(spare) = spare else {
            // Spare pool exhausted: the redirect stays, and sessions on
            // the dead device answer every turn with a device error
            // until an operator intervenes — loud, not silent.
            pfdbg_obs::counter_add("serve.failover_no_spare", 1);
            return;
        };

        // Retarget every primary currently mapped to the dead device
        // and flag it migrating; the server sheds new work for those
        // primaries' sessions with `overloaded` + `retry_after_ms`
        // until the journals have re-driven.
        let mut moved: Vec<usize> = Vec::new();
        for p in 0..f.primaries {
            if f.redirect[p].load(Ordering::Acquire) == dead {
                f.redirect[p].store(spare, Ordering::Release);
                f.migrating[p].store(1, Ordering::Release);
                moved.push(p);
            }
        }
        f.migrations.fetch_add(1, Ordering::Relaxed);
        tel::MIGRATIONS.add(1);
        relock(&f.flight).record(FlightKind::MigrationStart, dead as u64, spare as u64);

        // One migration job per shard, on the internal lane: each shard
        // rebuilds its own sessions of the dead device on the spare.
        // The last shard to finish closes the migration out (timing,
        // flags). A push can only fail during shutdown; decrementing
        // `pending` keeps the close-out correct for whoever did run.
        let inboxes = self.inboxes.get().cloned().unwrap_or_default();
        let started = Instant::now();
        let pending = Arc::new(AtomicUsize::new(inboxes.len()));
        let moved = Arc::new(moved);
        for inbox in &inboxes {
            let pending_c = pending.clone();
            let moved_c = moved.clone();
            if !inbox.push_internal(Job::Run(Box::new(move |sh| {
                sh.migrate_device(dead, spare, started, &pending_c, &moved_c);
            }))) {
                pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
        if inboxes.is_empty() {
            self.finish_migration(spare, started, &moved);
        }
    }

    /// Close a migration out: clear the migrating flags (new work for
    /// the moved primaries flows again), stamp the wall time into the
    /// `serve.migration_ms` histogram and its SLO, and record the
    /// device-flight event. Called by the last shard to finish.
    fn finish_migration(&self, spare: usize, started: Instant, moved: &[usize]) {
        let Some(f) = &self.fleet else { return };
        for &p in moved {
            f.migrating[p].store(0, Ordering::Release);
        }
        let elapsed = started.elapsed();
        tel::MIGRATION_MS.record_us(elapsed.as_secs_f64() * 1e3);
        tel::SLO_MIGRATION.observe_us(elapsed.as_secs_f64() * 1e3);
        relock(&f.flight).record(
            FlightKind::MigrationDone,
            spare as u64,
            elapsed.as_micros() as u64,
        );
    }
}

/// Whether this session's turns must produce replay facts (it journals,
/// or a restore/replay is comparing against a recording).
fn wants_facts(state: &SessionState) -> bool {
    state.journal.is_some() || state.capture_facts
}

impl ManagerCore {
    /// The turn body, run with exclusive access to the session's state
    /// (the owning shard thread's, or a detached state during journal
    /// restore/replay — all three drive the *same* code path a live
    /// client exercises: replay fidelity by construction, not by a
    /// parallel reimplementation). The turn itself is the session's
    /// [`TurnEngine`] — the standalone reconfigurator's turn; this layer
    /// adds the fleet gate, the tick, the LRU, the deadline gate, the
    /// journal facts, the flight events, telemetry and the watchdog.
    /// The LRU is looked up once, keyed by `params` itself: a hit
    /// shares the cached words' `Arc`.
    ///
    /// The deadline (when given as `(request start, budget)`) is
    /// checked between [`TurnEngine::stage`] and [`TurnEngine::commit`]:
    /// a missed deadline is a pure error — no turn counter advances, no
    /// cache entry is published, no frame is written. The start is the
    /// request's parse time, so time spent queued in a saturated inbox
    /// counts against the budget. Likewise an exhausted retry budget
    /// rolls the turn back, leaving only the armed resync behind.
    pub(crate) fn select_on(
        &self,
        session: &str,
        state: &mut SessionState,
        params: &BitVec,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<TurnOutcome, String> {
        let _s = pfdbg_obs::span("serve.select");
        if params.len() != self.engine.n_params() {
            return Err(format!(
                "parameter count mismatch: got {}, design has {}",
                params.len(),
                self.engine.n_params()
            ));
        }
        // Fleet gate: a session whose device is no longer serving never
        // ticks, commits, or journals — device-level failure is not
        // seed-reproducible, so the turn must leave no trace for the
        // journal re-drive on the spare to diverge over. The failover
        // (idempotent) starts here in case the mode flipped without a
        // commit observing it.
        if let Some(f) = &self.fleet {
            let mode = f.device_mode(state.device);
            if mode != DeviceMode::Ok {
                state.flight.record(
                    FlightKind::DeviceFailed,
                    state.turns as u64,
                    state.device as u64,
                );
                self.begin_failover(state.device, DeviceHealth::Failed);
                return Err(format!(
                    "device dev{} is {} — session is migrating to a spare; retry shortly",
                    state.device,
                    mode.as_str()
                ));
            }
        }
        let t0 = Instant::now();
        let ctx = self.turn_context();

        // Between-turn time passes before the turn touches the device:
        // the emulated fabric takes its SEUs now (no-op on a reliable
        // channel). Upsets in frames this turn does not write persist
        // until a scrub pass catches them.
        let flipped = state.channel.tick();
        let turn_no = state.turns as u64;
        if flipped > 0 {
            self.seu_bits_injected.fetch_add(flipped as u64, Ordering::Relaxed);
            state.flight.record(FlightKind::SeuStrike, turn_no, flipped as u64);
        }
        state.flight.record(FlightKind::TurnStart, turn_no, flipped as u64);

        let cached = relock(&self.cache).get(params).cloned();
        let cache_hit = cached.is_some();
        // Stage: a hit adopts the cached tunable words, a miss runs one
        // node-table sweep through the session's scratch; either way
        // the packed diff against the committed configuration follows.
        // Publication to the shared LRU waits until the commit
        // verifies: an aborted turn must leave no trace.
        let sp0 = Instant::now();
        state.turn.stage(&ctx, params, cached.as_deref())?;
        if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            tel::CACHE_HITS.add(1);
        } else {
            let sp_us = sp0.elapsed().as_secs_f64() * 1e6;
            tel::SPECIALIZE_US.record_us(sp_us);
            tel::SLO_SPECIALIZE.observe_us(sp_us);
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            tel::CACHE_MISSES.add(1);
        }

        // Deadline gate: all state mutation lies beyond this point.
        if let Some((started, budget)) = deadline {
            if started.elapsed() > budget {
                tel::DEADLINE_MISSES.add(1);
                state.flight.record(
                    FlightKind::DeadlineMiss,
                    turn_no,
                    started.elapsed().as_micros() as u64,
                );
                if wants_facts(state) {
                    // The miss left only the between-turn tick behind;
                    // journal exactly that so a replay reproduces it.
                    let facts = SelectFacts {
                        params: params.clone(),
                        outcome: SelectOutcome::DeadlineMiss,
                        bits_changed: 0,
                        frames_changed: 0,
                        retries: 0,
                        degradations: 0,
                        cache_hit,
                        seu_flips: flipped as u64,
                        readback_crc: device_crc(state.channel.as_ref()),
                    };
                    self.journal_select(state, facts);
                }
                return Err(format!(
                    "deadline exceeded: {:.1} ms spent, {:.1} ms allowed",
                    started.elapsed().as_secs_f64() * 1e3,
                    budget.as_secs_f64() * 1e3
                ));
            }
        }
        let eval_us = t0.elapsed().as_secs_f64() * 1e6;

        let t_commit = Instant::now();
        match state.turn.commit(&ctx, state.channel.as_mut(), &state.policy, params) {
            Ok(turn) => {
                let commit = turn.stats;
                if commit.retries > 0 {
                    state.flight.record(FlightKind::Retry, turn_no, commit.retries as u64);
                }
                if commit.degradations > 0 {
                    state.flight.record(
                        FlightKind::Degradation,
                        turn_no,
                        commit.degradations as u64,
                    );
                }
                if turn.resynced {
                    let frames = self.engine.layout.n_frames() as u64;
                    state.flight.record(FlightKind::Resync, turn_no, frames);
                }
                state.flight.record(FlightKind::TurnCommit, turn_no, turn.bits_changed as u64);
                state.turns += 1;
                let turn_index = state.turns - 1;
                if wants_facts(state) {
                    let facts = SelectFacts {
                        params: params.clone(),
                        outcome: SelectOutcome::Committed,
                        bits_changed: turn.bits_changed as u64,
                        frames_changed: turn.frames_changed as u64,
                        retries: commit.retries as u64,
                        degradations: commit.degradations as u64,
                        cache_hit,
                        seu_flips: flipped as u64,
                        readback_crc: device_crc(state.channel.as_ref()),
                    };
                    self.journal_select(state, facts);
                }
                // Cache publication happens from the owning shard — the
                // session→cache order scrub repairs already use.
                if !cache_hit {
                    let words = Arc::new(state.turn.committed_words().clone());
                    relock(&self.cache).put(params.clone(), words);
                }
                self.icap_retries.fetch_add(commit.retries as u64, Ordering::Relaxed);
                self.icap_degradations.fetch_add(commit.degradations as u64, Ordering::Relaxed);
                self.turns_total.fetch_add(1, Ordering::Relaxed);
                tel::TURNS.add(1);
                tel::RETRIES.add(commit.retries as u64);
                tel::DEGRADATIONS.add(commit.degradations as u64);
                let turn_us = t0.elapsed().as_secs_f64() * 1e6;
                tel::TURN_US.record_us(turn_us);
                tel::SLO_TURN.observe_us(turn_us);
                // Feed the device's health ladder: a commit that blew
                // its retry-scaled watchdog allowance counts as a trip
                // even though it verified — a wedged-but-alive port
                // must not hide behind eventual success.
                if let Some(f) = &self.fleet {
                    let verdict = f.watchdog.assess_commit(&commit, t_commit.elapsed());
                    let event = if verdict.tripped {
                        f.note_trip(
                            state.device,
                            &mut state.flight,
                            turn_no,
                            verdict.elapsed.as_micros() as u64,
                        );
                        HealthEvent::WatchdogTrip
                    } else if commit.degradations > 0 {
                        HealthEvent::Escalation(commit.degradations)
                    } else {
                        HealthEvent::CleanCommit
                    };
                    if let Some(to) = f.observe(state.device, event) {
                        if to.needs_drain() {
                            self.begin_failover(state.device, to);
                        }
                    }
                }
                Ok(TurnOutcome {
                    params: params.clone(),
                    bits_changed: turn.bits_changed,
                    frames_changed: turn.frames_changed,
                    eval_us,
                    transfer_us: commit.transfer_time.as_secs_f64() * 1e6,
                    verify_us: commit.verify_time.as_secs_f64() * 1e6,
                    retries: commit.retries,
                    degradations: commit.degradations,
                    cache_hit,
                    turn: turn_index,
                })
            }
            Err((commit, msg)) => {
                // The engine already undid the diff and armed the
                // resync. A device-mode failure mid-commit (killed,
                // stalled, or wedged under this very turn) is not the
                // session's rollback: it is never journaled — the
                // re-drive on the spare could not reproduce it, and an
                // unjournaled tick would desync the chaos streams — and
                // it starts the failover directly. The client retries
                // the turn on the spare, which replays every journaled
                // turn first.
                if let Some(f) = &self.fleet {
                    let mode = f.device_mode(state.device);
                    if mode != DeviceMode::Ok {
                        state.flight.record(FlightKind::DeviceFailed, turn_no, state.device as u64);
                        self.begin_failover(state.device, DeviceHealth::Failed);
                        return Err(format!(
                            "device dev{} went {} mid-commit — session is migrating; retry shortly",
                            state.device,
                            mode.as_str()
                        ));
                    }
                    // An honest rollback under seeded chaos: journaled
                    // below and fed to the ladder (with the watchdog's
                    // verdict taking precedence over the plain
                    // rollback).
                    let verdict = f.watchdog.assess_commit(&commit, t_commit.elapsed());
                    let event = if verdict.tripped {
                        f.note_trip(
                            state.device,
                            &mut state.flight,
                            turn_no,
                            verdict.elapsed.as_micros() as u64,
                        );
                        HealthEvent::WatchdogTrip
                    } else {
                        HealthEvent::Rollback
                    };
                    if let Some(to) = f.observe(state.device, event) {
                        if to.needs_drain() {
                            self.begin_failover(state.device, to);
                        }
                    }
                }
                state.flight.record(FlightKind::TurnRollback, turn_no, commit.retries as u64);
                if wants_facts(state) {
                    // Retry counts of an aborted commit are not part of
                    // the replay contract (see `pfdbg-replay`); the
                    // journaled facts are the outcome, the tick's SEU
                    // flips, and the post-rollback device digest.
                    let facts = SelectFacts {
                        params: params.clone(),
                        outcome: SelectOutcome::RolledBack,
                        bits_changed: 0,
                        frames_changed: 0,
                        retries: 0,
                        degradations: 0,
                        cache_hit,
                        seu_flips: flipped as u64,
                        readback_crc: device_crc(state.channel.as_ref()),
                    };
                    self.journal_select(state, facts);
                }
                // A rollback is exactly the moment a post-mortem is
                // wanted: snapshot the ring before anyone else turns.
                *relock(&self.last_dump) = Some((session.to_string(), state.flight.to_jsonl()));
                self.icap_retries.fetch_add(commit.retries as u64, Ordering::Relaxed);
                self.icap_degradations.fetch_add(commit.degradations as u64, Ordering::Relaxed);
                self.icap_rollbacks.fetch_add(1, Ordering::Relaxed);
                tel::ROLLBACKS.add(1);
                tel::RETRIES.add(commit.retries as u64);
                tel::DEGRADATIONS.add(commit.degradations as u64);
                Err(format!("reconfiguration rolled back: {msg}"))
            }
        }
    }

    /// One scrub pass against the PConf-evaluated golden frames for the
    /// session's current parameter vector. Like [`ManagerCore::select_on`],
    /// runs with exclusive state access on the owning shard (or a
    /// detached replay state); a repair invalidates the stale LRU entry.
    pub(crate) fn scrub_on(
        &self,
        session: &str,
        state: &mut SessionState,
    ) -> Result<ScrubReport, String> {
        let _s = pfdbg_obs::span("serve.scrub");
        let t0 = Instant::now();
        let engine = &self.engine;
        // Fleet gate — same contract as `select_on`: a scrub never
        // touches (or journals against) a dead device.
        let device = state.device;
        if let Some(f) = &self.fleet {
            let mode = f.device_mode(device);
            if mode != DeviceMode::Ok {
                self.begin_failover(device, DeviceHealth::Failed);
                return Err(format!(
                    "device dev{device} is {} — session is migrating to a spare; retry shortly",
                    mode.as_str()
                ));
            }
        }
        // Destructure so the scrubber and the channel borrow disjoint
        // fields of the same state.
        let SessionState { scrubber, channel, turn, flight, turns, .. } = state;
        let turn_no = *turns as u64;
        let report =
            scrubber.scrub_with_scg(channel.as_mut(), &engine.icap, &engine.scg, turn.params())?;
        flight.record(FlightKind::ScrubPass, turn_no, report.upset_frames as u64);
        if report.repaired_frames > 0 {
            // A repair rewrote device frames behind the cached
            // specialization's back: drop the entry for this vector so
            // the next select re-verifies through a fresh specialize
            // instead of trusting it.
            relock(&self.cache).remove(turn.params());
            flight.record(FlightKind::ScrubRepair, turn_no, report.repaired_frames as u64);
            tel::SCRUB_REPAIRS.add(report.repaired_frames as u64);
        }
        if report.quarantined_frames > 0 {
            // A frame refuses to heal: stop trusting the device. The
            // next commit rewrites everything (and will keep failing on
            // a truly stuck frame — degraded, loudly, rather than
            // serving corrupt trace data).
            turn.arm_resync();
            flight.record(FlightKind::Quarantine, turn_no, report.quarantined_frames as u64);
            tel::SCRUB_QUARANTINES.add(report.quarantined_frames as u64);
            // Quarantine is the fleet's "something is wrong here":
            // capture the post-mortem automatically.
            *relock(&self.last_dump) = Some((session.to_string(), flight.to_jsonl()));
        }
        // Feed the device ladder: quarantined frames climb it, a clean
        // pass builds the recovery streak, and a pass that blew its
        // repair-scaled watchdog allowance trips regardless of outcome.
        if let Some(f) = &self.fleet {
            let verdict = f.watchdog.assess_scrub(&report, t0.elapsed());
            let event = if verdict.tripped {
                f.note_trip(device, flight, turn_no, verdict.elapsed.as_micros() as u64);
                HealthEvent::WatchdogTrip
            } else if report.quarantined_frames > 0 {
                HealthEvent::ScrubQuarantine(report.quarantined_frames)
            } else {
                HealthEvent::ScrubClean
            };
            if let Some(to) = f.observe(device, event) {
                if to.needs_drain() {
                    self.begin_failover(device, to);
                }
            }
        }
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        self.scrub_upsets.fetch_add(report.upset_frames as u64, Ordering::Relaxed);
        self.scrub_bits_upset.fetch_add(report.upset_bits as u64, Ordering::Relaxed);
        self.scrub_repairs.fetch_add(report.repaired_frames as u64, Ordering::Relaxed);
        self.scrub_quarantined.fetch_add(report.quarantined_frames as u64, Ordering::Relaxed);
        if wants_facts(state) {
            let facts = ScrubFacts {
                frames_checked: report.frames_checked as u64,
                upset_frames: report.upset_frames as u64,
                upset_bits: report.upset_bits as u64,
                repaired_frames: report.repaired_frames as u64,
                failed_frames: report.failed_frames as u64,
                quarantined_frames: report.quarantined_frames as u64,
                readback_crc: device_crc(state.channel.as_ref()),
            };
            if let Some(journal) = state.journal.as_mut() {
                if journal.append(&JournalRecord::Scrub(facts)).is_ok() {
                    self.journal_records.fetch_add(1, Ordering::Relaxed);
                }
            }
            if state.capture_facts {
                state.last_scrub_facts = Some(facts);
            }
        }
        pfdbg_obs::gauge_set("serve.scrub_ms_last", t0.elapsed().as_secs_f64() * 1e3);
        Ok(report)
    }
}

/// The session operations a shard thread runs against the sessions it
/// owns. Implemented here (not in [`crate::shard`]) so `SessionState`
/// and the `ManagerCore` internals stay private to this module — the
/// shard loop only sees jobs and these methods.
impl Shard {
    /// Create a session; starts at the base configuration (params = 0).
    /// With journaling on, an existing journal for this name is
    /// **restored**: the recorded turns are re-driven through the
    /// normal select/scrub path and every fact is verified against the
    /// recording before the session goes live — a crash between turns
    /// loses nothing, and a divergence (wrong chaos flags, drifted
    /// design) refuses the restore loudly instead of serving a session
    /// in an unknown state.
    pub(crate) fn open(&mut self, name: &str) -> Result<usize, String> {
        if self.sessions.contains_key(name) {
            return Err(format!("session {name:?} already exists"));
        }
        let core = self.core.clone();
        let mut state = core.fresh_state(name);
        if let Some(path) = core.journal_path(name) {
            if path.exists() {
                core.restore_into(name, &mut state, &path)?;
            } else {
                state.journal = Some(JournalWriter::create(&path, &core.journal_meta(name))?);
            }
        }
        self.sessions.insert(name.to_string(), state);
        let open = core.session_count.fetch_add(1, Ordering::Relaxed) + 1;
        tel::OPEN_SESSIONS.set(open as f64);
        pfdbg_obs::counter_add("serve.sessions_opened", 1);
        Ok(core.engine.n_params())
    }

    /// Drop a session. With journaling on, its journal is closed with a
    /// terminal record — a later `open` of the same name starts fresh
    /// instead of restoring.
    pub(crate) fn close(&mut self, name: &str) -> Result<(), String> {
        let mut state =
            self.sessions.remove(name).ok_or_else(|| format!("no such session {name:?}"))?;
        if let Some(journal) = state.journal.as_mut() {
            if journal.append(&JournalRecord::Close).is_ok() {
                self.core.journal_records.fetch_add(1, Ordering::Relaxed);
            }
            let _ = journal.sync();
        }
        let open = self.core.session_count.fetch_sub(1, Ordering::Relaxed) - 1;
        tel::OPEN_SESSIONS.set(open as f64);
        Ok(())
    }

    /// Run `f`, a handler for session `name`, under the panic rule of
    /// every session verb, whether it came over the wire
    /// (`server::route_session`) or through the embedding facade: if `f`
    /// unwinds, the panic counts once in `serve.handler_panics`, the
    /// session is removed, and the result is `None`. Its state is
    /// suspect (the panic unwound out of an arbitrary point), so it is
    /// discarded without touching its journal — a journaled session
    /// restores from the last durably appended fact on the next `open`.
    pub(crate) fn run_for_session<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Shard) -> T,
    ) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(v) => Some(v),
            Err(_) => {
                tel::HANDLER_PANICS.add(1);
                if self.sessions.remove(name).is_some() {
                    let open = self.core.session_count.fetch_sub(1, Ordering::Relaxed) - 1;
                    tel::OPEN_SESSIONS.set(open as f64);
                }
                None
            }
        }
    }

    /// One debugging turn on an owned session. Signal selections plan
    /// against the session's live parameters here, on the shard thread,
    /// so plan + select are a single atomic job (the old pool resolved
    /// signals on one lock acquisition and selected on another).
    pub(crate) fn select(
        &mut self,
        session: &str,
        spec: SelectSpec,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<TurnOutcome, String> {
        let core = self.core.clone();
        let state =
            self.sessions.get_mut(session).ok_or_else(|| format!("no such session {session:?}"))?;
        // Failure injection for the panic-containment regression test:
        // with `PFDBG_TEST_PANIC=1` (latched at first use), a select on
        // an open session whose name starts with "panic" unwinds out of
        // the handler mid-turn, with the session state borrowed. Off by
        // default; the latch keeps the hot path to one bool load.
        static PANIC_INJECT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if *PANIC_INJECT.get_or_init(|| std::env::var("PFDBG_TEST_PANIC").as_deref() == Ok("1"))
            && session.starts_with("panic")
        {
            panic!("injected handler panic (PFDBG_TEST_PANIC)");
        }
        let params = match spec {
            SelectSpec::Params(params) => params,
            SelectSpec::Signals(signals) => core.plan_for(state.turn.params(), &signals)?,
        };
        core.select_on(session, state, &params, deadline)
    }

    /// One on-demand scrub pass on an owned session.
    pub(crate) fn scrub(&mut self, session: &str) -> Result<ScrubReport, String> {
        let core = self.core.clone();
        let state =
            self.sessions.get_mut(session).ok_or_else(|| format!("no such session {session:?}"))?;
        core.scrub_on(session, state)
    }

    /// A session's scrub status — the `health` verb's payload.
    pub(crate) fn health(&self, session: &str) -> Result<HealthReport, String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        let totals = state.scrubber.totals();
        Ok(HealthReport {
            verdict: state.scrubber.health(),
            scrubs: totals.passes,
            upsets_detected: totals.upset_frames,
            bits_upset: totals.upset_bits,
            frames_repaired: totals.repaired_frames,
            quarantine: state.scrubber.quarantined().iter().copied().collect(),
            needs_resync: state.turn.needs_resync(),
            turns: state.turns,
        })
    }

    /// A session's `(params, turns, needs_resync)` — the state the
    /// transactional-turn tests pin down.
    pub(crate) fn state_tuple(&self, session: &str) -> Result<(BitVec, usize, bool), String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        Ok((state.turn.params().clone(), state.turns, state.turn.needs_resync()))
    }

    /// Read a session's device configuration memory back through its
    /// channel — the ground truth the committed state must match.
    pub(crate) fn readback(&self, session: &str) -> Result<Bitstream, String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        Ok(readback_all(state.channel.as_ref()))
    }

    /// Map a signal selection to a parameter vector against the current
    /// session parameters, without running the turn.
    pub(crate) fn plan(&self, session: &str, signals: &[String]) -> Result<BitVec, String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        self.core.plan_for(state.turn.params(), signals)
    }

    /// A live dump of a session's flight-recorder ring as JSONL
    /// (`flight` events, oldest first) — the `dump` verb's payload.
    pub(crate) fn flight_dump(&self, session: &str) -> Result<String, String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        Ok(state.flight.to_jsonl())
    }

    /// The journal behind a live session — the `record` verb. Syncs the
    /// appender (a durability barrier the client can rely on) and
    /// returns `(path, file name, records appended this run)`. The bare
    /// file name is what the `replay` verb accepts: replays are
    /// confined to the server's own `--journal-dir`.
    pub(crate) fn journal_status(
        &mut self,
        session: &str,
    ) -> Result<(String, String, u64), String> {
        let state =
            self.sessions.get_mut(session).ok_or_else(|| format!("no such session {session:?}"))?;
        match state.journal.as_mut() {
            Some(j) => {
                j.sync()?;
                let file = j
                    .path()
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                Ok((j.path().display().to_string(), file, j.records_written()))
            }
            None => Err("journaling is disabled (start the server with --journal-dir)".into()),
        }
    }

    /// Rebuild every session this shard owns on dead device `dead` by
    /// re-driving its journal on `spare` — the failover's workhorse.
    /// The dead-device state is dropped first; its journal appender
    /// releases the file *without* a terminal record, so the restore
    /// resumes exactly where the last durably appended fact left off.
    /// Sessions without a journal to re-drive (journaling off, or a
    /// re-drive that diverges) are dropped and counted lost — loudly,
    /// never served from an unknown device state. The last shard to
    /// finish closes the migration out.
    pub(crate) fn migrate_device(
        &mut self,
        dead: usize,
        spare: usize,
        started: Instant,
        pending: &AtomicUsize,
        moved_primaries: &[usize],
    ) {
        let core = self.core.clone();
        let names: Vec<String> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.device == dead)
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            drop(self.sessions.remove(&name));
            let result = core
                .journal_path(&name)
                .filter(|p| p.exists())
                .ok_or_else(|| "no journal to re-drive (journaling disabled)".to_string())
                .and_then(|path| {
                    // `fresh_state` reads the redirect table, which
                    // already points at the spare — the rebuilt channel
                    // routes there and the journal re-drives through
                    // the exact same select/scrub path `open` uses.
                    let mut state = core.fresh_state(&name);
                    core.restore_into(&name, &mut state, &path)?;
                    state.flight.record(
                        FlightKind::MigrationDone,
                        state.turns as u64,
                        spare as u64,
                    );
                    self.sessions.insert(name.clone(), state);
                    Ok(())
                });
            let fleet = core.fleet.as_ref().expect("migrate_device only runs with a fleet");
            match result {
                Ok(()) => {
                    fleet.sessions_migrated.fetch_add(1, Ordering::Relaxed);
                    tel::SESSIONS_MIGRATED.add(1);
                }
                Err(e) => {
                    fleet.sessions_lost.fetch_add(1, Ordering::Relaxed);
                    tel::SESSIONS_LOST.add(1);
                    pfdbg_obs::counter_add("serve.sessions_lost", 1);
                    let open = core.session_count.fetch_sub(1, Ordering::Relaxed) - 1;
                    tel::OPEN_SESSIONS.set(open as f64);
                    let _ = e;
                }
            }
        }
        if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.core.finish_migration(spare, started, moved_primaries);
        }
    }

    /// Sessions this shard owns per device id (`len` = fleet size).
    pub(crate) fn device_session_counts(&self, n_devices: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_devices];
        for state in self.sessions.values() {
            if let Some(c) = counts.get_mut(state.device) {
                *c += 1;
            }
        }
        counts
    }

    /// Names of the sessions this shard owns.
    pub(crate) fn session_names(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    /// Per-session telemetry rows for the `metrics` verb, `(name, flat
    /// JSONL object)`. The owning shard builds them between jobs, so a
    /// row never describes a half-committed turn.
    pub(crate) fn metrics_rows(&self) -> Vec<(String, String)> {
        use pfdbg_obs::jsonl::{write_object, JsonValue};
        self.sessions
            .iter()
            .map(|(name, state)| {
                let totals = state.scrubber.totals();
                let fields = vec![
                    ("type", JsonValue::Str("session".into())),
                    ("name", JsonValue::Str(name.clone())),
                    ("turns", JsonValue::Num(state.turns as f64)),
                    ("health", JsonValue::Str(state.scrubber.health().as_str().to_string())),
                    ("needs_resync", JsonValue::Bool(state.turn.needs_resync())),
                    ("scrubs", JsonValue::Num(totals.passes as f64)),
                    ("quarantined", JsonValue::Num(state.scrubber.quarantined().len() as f64)),
                    ("flight_events", JsonValue::Num(state.flight.total_recorded() as f64)),
                ];
                (name.clone(), write_object(&fields))
            })
            .collect()
    }
}

/// Fleet shape: how many shards own the session space and how much
/// client work each shard's inbox admits before shedding. The derived
/// default (both zero) defers to the environment, then the built-ins.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetOptions {
    /// Shard (owner thread) count; `0` reads `PFDBG_SHARDS`, default 4.
    pub shards: usize,
    /// Client jobs a shard queues before replying `overloaded`;
    /// `0` reads `PFDBG_INBOX_CAP`, default 1024.
    pub inbox_capacity: usize,
}

impl FleetOptions {
    fn resolve(self) -> (usize, usize) {
        let env_usize = |key: &str| {
            std::env::var(key).ok().and_then(|s| s.parse::<usize>().ok()).filter(|&n| n > 0)
        };
        let shards =
            if self.shards > 0 { self.shards } else { env_usize("PFDBG_SHARDS").unwrap_or(4) };
        let capacity = if self.inbox_capacity > 0 {
            self.inbox_capacity
        } else {
            env_usize("PFDBG_INBOX_CAP").unwrap_or(1024)
        };
        (shards, capacity)
    }
}

/// The session fleet: N shard threads owning disjoint slices of the
/// session space, plus the shared `ManagerCore`. Every method routes
/// to the owning shard's inbox and blocks for the answer, so embedders
/// (tests, the bench harness) keep the mutex-era call surface while the
/// server talks to the inboxes directly (nonblocking, with shedding).
pub struct SessionManager {
    core: Arc<ManagerCore>,
    shards: Vec<ShardHandle>,
}

impl SessionManager {
    /// A manager over `engine` with an LRU of `cache_capacity`
    /// specializations (packed tunable words) and a reliable transport.
    pub fn new(engine: Arc<Engine>, cache_capacity: usize) -> SessionManager {
        Self::with_chaos(engine, cache_capacity, None, CommitPolicy::default())
    }

    /// Like [`SessionManager::new`], but each session's channel injects
    /// faults per `fault` (None = reliable) and commits retry per
    /// `policy`. Every session derives its own deterministic fault
    /// seed from `fault.seed` and the session name.
    pub fn with_chaos(
        engine: Arc<Engine>,
        cache_capacity: usize,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
    ) -> SessionManager {
        Self::with_chaos_scrub(engine, cache_capacity, fault, policy, None, ScrubPolicy::default())
    }

    /// The full chaos constructor: transport faults on the write path
    /// (`fault`), single-event upsets striking each session's
    /// configuration memory between turns (`seu`), and the scrub
    /// policy sessions repair themselves under. SEU injection is never
    /// read from the environment here — callers (CLI, bench, tests)
    /// decide, so a stray `PFDBG_SEU_RATE` cannot silently corrupt a
    /// manager built for reliable devices. Fleet shape comes from
    /// [`FleetOptions::default`] (env-overridable); use
    /// [`SessionManager::with_fleet`] to pin it.
    pub fn with_chaos_scrub(
        engine: Arc<Engine>,
        cache_capacity: usize,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
        seu: Option<SeuConfig>,
        scrub_policy: ScrubPolicy,
    ) -> SessionManager {
        Self::with_fleet(
            engine,
            cache_capacity,
            fault,
            policy,
            seu,
            scrub_policy,
            FleetOptions::default(),
        )
    }

    /// [`SessionManager::with_chaos_scrub`] with an explicit fleet
    /// shape (shard count, per-shard inbox capacity).
    pub fn with_fleet(
        engine: Arc<Engine>,
        cache_capacity: usize,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
        seu: Option<SeuConfig>,
        scrub_policy: ScrubPolicy,
        fleet: FleetOptions,
    ) -> SessionManager {
        Self::build(engine, cache_capacity, fault, policy, seu, scrub_policy, fleet, None)
    }

    /// The everything constructor: [`SessionManager::with_fleet`] plus
    /// a supervised device fleet. Sessions hash across
    /// `devices.devices` primary devices, commits and scrubs feed each
    /// device's health ladder and deadline watchdog, and a device that
    /// is killed, quarantined, or failed drains its sessions onto the
    /// spare pool by re-driving their journals. Without this
    /// constructor no fleet exists and the manager behaves exactly as
    /// before — one implicit, unsupervised device.
    #[allow(clippy::too_many_arguments)]
    pub fn with_devices(
        engine: Arc<Engine>,
        cache_capacity: usize,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
        seu: Option<SeuConfig>,
        scrub_policy: ScrubPolicy,
        fleet: FleetOptions,
        devices: DeviceOptions,
    ) -> SessionManager {
        Self::build(engine, cache_capacity, fault, policy, seu, scrub_policy, fleet, Some(devices))
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        engine: Arc<Engine>,
        cache_capacity: usize,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
        seu: Option<SeuConfig>,
        scrub_policy: ScrubPolicy,
        fleet: FleetOptions,
        devices: Option<DeviceOptions>,
    ) -> SessionManager {
        let tunables = TunableFrames::new(&engine.scg, &engine.layout);
        let image = Arc::new(engine.scg.generalized().base.clone());
        let core = Arc::new(ManagerCore {
            engine,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            fault,
            seu,
            policy,
            scrub_policy,
            tunables,
            image,
            fleet: devices.map(DeviceFleet::new),
            inboxes: OnceLock::new(),
            last_dump: Mutex::new(None),
            journal: Mutex::new(JournalCfg {
                dir: None,
                design: DesignSpec::External,
                build: (1, 4),
            }),
            turns_total: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            session_count: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            overloaded_replies: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            icap_retries: AtomicU64::new(0),
            icap_degradations: AtomicU64::new(0),
            icap_rollbacks: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
            scrub_upsets: AtomicU64::new(0),
            scrub_bits_upset: AtomicU64::new(0),
            scrub_repairs: AtomicU64::new(0),
            scrub_quarantined: AtomicU64::new(0),
            seu_bits_injected: AtomicU64::new(0),
        });
        let (n_shards, capacity) = fleet.resolve();
        let shards: Vec<ShardHandle> = (0..n_shards)
            .map(|id| ShardHandle::spawn(id, core.clone(), capacity).expect("spawn shard thread"))
            .collect();
        // Failovers fan migration jobs out through every inbox; the
        // core learns them once, right after the shards exist.
        let _ = core.inboxes.set(shards.iter().map(|h| h.inbox.clone()).collect());
        SessionManager { core, shards }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Engine {
        &self.core.engine
    }

    /// Shard (owner thread) count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns session `name`: a stable hash of the name.
    /// Deterministic in the name alone, so clients and tests can
    /// predict placement, and per-session operation order is identical
    /// at any shard count.
    pub fn shard_index(&self, name: &str) -> usize {
        (session_seed(0x5AD5, name) % self.shards.len() as u64) as usize
    }

    /// Per-shard client-inbox capacity (identical across shards).
    pub fn inbox_capacity(&self) -> usize {
        self.shards[0].inbox.capacity()
    }

    /// Active session count.
    pub fn n_sessions(&self) -> usize {
        self.core.session_count.load(Ordering::Relaxed) as usize
    }

    /// Names of the active sessions, gathered shard by shard. A
    /// snapshot: sessions may open or close afterwards.
    pub fn session_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for idx in 0..self.shards.len() {
            if let Ok(part) = self.on_shard(idx, |sh| sh.session_names()) {
                names.extend(part);
            }
        }
        names
    }

    /// Total turns served plus the fleet's cache `(hits, misses)` —
    /// all atomics, so `stats` never queues behind a shard.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.core.turns_total.load(Ordering::Relaxed),
            self.core.cache_hits.load(Ordering::Relaxed),
            self.core.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// `(requests shed at full inboxes, overloaded replies sent)`.
    pub fn shed_totals(&self) -> (u64, u64) {
        (
            self.core.shed_total.load(Ordering::Relaxed),
            self.core.overloaded_replies.load(Ordering::Relaxed),
        )
    }

    /// Running retry/degradation/rollback totals.
    pub fn icap_totals(&self) -> IcapTotals {
        IcapTotals {
            retries: self.core.icap_retries.load(Ordering::Relaxed),
            degradations: self.core.icap_degradations.load(Ordering::Relaxed),
            rollbacks: self.core.icap_rollbacks.load(Ordering::Relaxed),
        }
    }

    /// Running scrub/SEU totals across all sessions.
    pub fn scrub_stats(&self) -> ScrubStats {
        ScrubStats {
            passes: self.core.scrub_passes.load(Ordering::Relaxed),
            upsets_detected: self.core.scrub_upsets.load(Ordering::Relaxed),
            bits_upset: self.core.scrub_bits_upset.load(Ordering::Relaxed),
            repairs: self.core.scrub_repairs.load(Ordering::Relaxed),
            quarantined: self.core.scrub_quarantined.load(Ordering::Relaxed),
            seu_bits_injected: self.core.seu_bits_injected.load(Ordering::Relaxed),
        }
    }

    /// The per-frame upset rate sessions are born with (0 without SEU
    /// injection).
    pub fn seu_rate(&self) -> f64 {
        self.core.seu.map_or(0.0, |s| s.rate)
    }

    /// Enable session journaling: every session opened afterwards
    /// appends its turns to a `PFDJ` journal under `dir`, and `open`
    /// restores crash-interrupted sessions from their journals. Call
    /// before the manager starts serving.
    pub fn set_journal_dir(&mut self, dir: PathBuf) {
        relock(&self.core.journal).dir = Some(dir);
    }

    /// Record the design's provenance plus the `(coverage, k)` it was
    /// instrumented with, making this server's journals self-contained
    /// (replayable by `pfdbg replay` without the server). Without this,
    /// journals carry [`DesignSpec::External`] and replay only through
    /// the `replay` verb of a server holding the same engine.
    pub fn set_journal_design(&mut self, design: DesignSpec, coverage: usize, k: usize) {
        let mut cfg = relock(&self.core.journal);
        cfg.design = design;
        cfg.build = (coverage, k);
    }

    /// `(journal records appended, sessions restored from journals)`.
    pub fn journal_totals(&self) -> (u64, u64) {
        (
            self.core.journal_records.load(Ordering::Relaxed),
            self.core.restores.load(Ordering::Relaxed),
        )
    }

    /// Run `f` on the shard thread owning index `idx` and wait for its
    /// result. Internal lane — never sheds, so the embedding API can't
    /// spuriously fail under client load.
    fn on_shard<T: Send + 'static>(
        &self,
        idx: usize,
        f: impl FnOnce(&mut Shard) -> T + Send + 'static,
    ) -> Result<T, String> {
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job::Run(Box::new(move |sh| {
            let _ = tx.send(f(sh));
        }));
        if !self.shards[idx].inbox.push_internal(job) {
            return Err("server is shutting down".into());
        }
        rx.recv().map_err(|_| "shard request failed (handler panicked)".into())
    }

    /// Run `f` for `session` on its owning shard under the session panic
    /// rule (`Shard::run_for_session`): a handler that panics costs the
    /// session and answers `Err`.
    fn on_session<T: Send + 'static>(
        &self,
        session: &str,
        f: impl FnOnce(&mut Shard, &str) -> Result<T, String> + Send + 'static,
    ) -> Result<T, String> {
        let name = session.to_string();
        let job = move |sh: &mut Shard| sh.run_for_session(&name, |sh| f(sh, &name));
        match self.on_shard(self.shard_index(session), job)? {
            Some(result) => result,
            None => Err(format!("session {session:?} dropped: its handler panicked")),
        }
    }

    /// Create a session — see `Shard::open`.
    pub fn open(&self, name: &str) -> Result<usize, String> {
        self.on_session(name, |sh, name| sh.open(name))
    }

    /// Drop a session — see `Shard::close`.
    pub fn close(&self, name: &str) -> Result<(), String> {
        self.on_session(name, |sh, name| sh.close(name))
    }

    /// Read a session's device configuration memory back through its
    /// channel — the ground truth the committed state must match.
    pub fn readback(&self, session: &str) -> Result<Bitstream, String> {
        self.on_session(session, |sh, name| sh.readback(name))
    }

    /// A session's `(params, turns, needs_resync)` — the state the
    /// transactional-turn tests pin down.
    pub fn session_state(&self, session: &str) -> Result<(BitVec, usize, bool), String> {
        self.on_session(session, |sh, name| sh.state_tuple(name))
    }

    /// A session's scrub status — the `health` verb's payload.
    pub fn health(&self, session: &str) -> Result<HealthReport, String> {
        self.on_session(session, |sh, name| sh.health(name))
    }

    /// Map a signal selection to a parameter vector against the current
    /// session parameters (each selected signal claims one free trace
    /// port; unrelated ports keep their previous selection).
    pub fn plan(&self, session: &str, signals: &[String]) -> Result<BitVec, String> {
        let sigs = signals.to_vec();
        self.on_session(session, move |sh, name| sh.plan(name, &sigs))
    }

    /// One debugging turn with no deadline — see
    /// [`SessionManager::select_within`].
    pub fn select(&self, session: &str, params: &BitVec) -> Result<TurnOutcome, String> {
        self.select_within(session, params, None)
    }

    /// One debugging turn: specialize the session for `params`, commit
    /// the changed frames transactionally, and account the cost, on the
    /// owning shard's thread. The turn is the session's [`TurnEngine`]:
    /// one memoized node-table sweep through its scratch on an LRU
    /// miss, the cached tunable words on a hit. See
    /// `ManagerCore::select_on` for deadline semantics.
    pub fn select_within(
        &self,
        session: &str,
        params: &BitVec,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<TurnOutcome, String> {
        let spec = SelectSpec::Params(params.clone());
        self.on_session(session, move |sh, name| sh.select(name, spec, deadline))
    }

    /// One scrub pass for `session` against the PConf-evaluated golden
    /// frames for its current parameter vector, run by the owning
    /// shard. Queues behind in-flight selects instead of racing (or
    /// skipping) them — there is no lock to contend.
    pub fn scrub_session(&self, session: &str) -> Result<ScrubReport, String> {
        self.on_session(session, |sh, name| sh.scrub(name))
    }

    /// Kick one background scrub walk: each shard whose previous walk
    /// has finished gets a `ScrubAll`, which it expands into one scrub
    /// job per owned session (interleaving with queued selects). A
    /// shard still working through the previous walk is left alone —
    /// armed walks always finish, so no session is ever starved; the
    /// cadence just stretches on an overloaded shard instead of piling
    /// up.
    pub fn scrub_walk(&self) {
        use std::sync::atomic::Ordering as O;
        for handle in &self.shards {
            let armed = &handle.inbox.scrub_armed;
            if armed.compare_exchange(false, true, O::AcqRel, O::Acquire).is_ok()
                && !handle.inbox.push_internal(Job::ScrubAll)
            {
                armed.store(false, O::Release);
            }
        }
    }

    /// The journal behind a live session — the `record` verb. Returns
    /// `(path, file name, records appended this run)`.
    pub fn journal_status(&self, session: &str) -> Result<(String, String, u64), String> {
        self.on_session(session, |sh, name| sh.journal_status(name))
    }

    /// The configured journal directory, if journaling is on. The
    /// `replay` verb resolves its (relative) argument against this.
    pub fn journal_dir(&self) -> Option<PathBuf> {
        relock(&self.core.journal).dir.clone()
    }

    /// `(total devices, primaries)` — `(1, 1)` when no fleet is
    /// configured (the implicit single device).
    pub fn device_counts(&self) -> (usize, usize) {
        match &self.core.fleet {
            Some(f) => (f.registry.len(), f.primaries),
            None => (1, 1),
        }
    }

    /// The device session `name` routes to right now: its primary-hash
    /// assignment pushed through the failover redirect table.
    pub fn device_of(&self, name: &str) -> usize {
        self.core.device_of(name)
    }

    /// The chaos control block of device `id` — kill, stall, or wedge
    /// it (tests, the bench harness's `--kill-device-at`).
    pub fn device_control(&self, id: usize) -> Option<Arc<DeviceControl>> {
        self.core.fleet.as_ref().and_then(|f| f.registry.get(id)).map(|d| d.control().clone())
    }

    /// `(mode, health)` of device `id`, or `None` if it does not exist.
    pub fn device_status(&self, id: usize) -> Option<(DeviceMode, DeviceHealth)> {
        let f = self.core.fleet.as_ref()?;
        f.registry.get(id)?;
        Some((f.device_mode(id), f.health_of(id)))
    }

    /// Kill device `id` and fail its sessions over to a spare — the
    /// `fail` protocol verb. The device stops serving immediately
    /// (in-flight commits on it abort); sessions migrate by journal
    /// re-drive.
    pub fn fail_device(&self, id: usize) -> Result<(), String> {
        let f = self
            .core
            .fleet
            .as_ref()
            .ok_or("no device fleet configured (start with --devices N)")?;
        let device = f.registry.get(id).ok_or_else(|| format!("no such device {id}"))?;
        device.control().kill();
        self.core.begin_failover(id, DeviceHealth::Failed);
        Ok(())
    }

    /// Gracefully drain device `id` — the `drain` protocol verb. The
    /// device keeps serving (mode stays `ok`) while its sessions
    /// migrate off by journal re-drive; it is quarantined and never
    /// reassigned. Sessions without a journal cannot move and are
    /// dropped, so drain wants `--journal-dir` on.
    pub fn drain_device(&self, id: usize) -> Result<(), String> {
        let f = self
            .core
            .fleet
            .as_ref()
            .ok_or("no device fleet configured (start with --devices N)")?;
        f.registry.get(id).ok_or_else(|| format!("no such device {id}"))?;
        self.core.begin_failover(id, DeviceHealth::Quarantined);
        Ok(())
    }

    /// `true` while session `name`'s primary is mid-migration; the
    /// server sheds its new work with `overloaded` + `retry_after_ms`
    /// instead of queueing behind the journal re-drive.
    pub fn session_migrating(&self, name: &str) -> bool {
        match &self.core.fleet {
            Some(f) => {
                f.migrating[primary_device_of(name, f.primaries)].load(Ordering::Acquire) == 1
            }
            None => false,
        }
    }

    /// Fleet-wide device totals — the `stats`/`devices` verbs.
    pub fn device_totals(&self) -> DeviceTotals {
        match &self.core.fleet {
            Some(f) => DeviceTotals {
                devices: f.registry.len() as u64,
                primaries: f.primaries as u64,
                migrations: f.migrations.load(Ordering::Relaxed),
                watchdog_trips: f.watchdog_trips.load(Ordering::Relaxed),
                device_failures: f.device_failures.load(Ordering::Relaxed),
                sessions_migrated: f.sessions_migrated.load(Ordering::Relaxed),
                sessions_lost: f.sessions_lost.load(Ordering::Relaxed),
            },
            None => DeviceTotals { devices: 1, primaries: 1, ..DeviceTotals::default() },
        }
    }

    /// Per-device rows for the `devices` and `metrics` verbs: one flat
    /// JSONL object per device (`"type":"device"`), with live session
    /// counts gathered shard by shard. Empty without a fleet.
    pub fn devices_metrics_jsonl(&self) -> String {
        use pfdbg_obs::jsonl::{write_object, JsonValue};
        let Some(f) = &self.core.fleet else { return String::new() };
        let n = f.registry.len();
        let mut counts = vec![0usize; n];
        for idx in 0..self.shards.len() {
            if let Ok(part) = self.on_shard(idx, move |sh| sh.device_session_counts(n)) {
                for (total, part) in counts.iter_mut().zip(part) {
                    *total += part;
                }
            }
        }
        let mut out = String::new();
        for device in f.registry.iter() {
            let id = device.id;
            let redirect =
                if id < f.primaries { f.redirect[id].load(Ordering::Acquire) } else { id };
            out.push_str(&write_object(&[
                ("type", JsonValue::Str("device".into())),
                ("id", JsonValue::Num(id as f64)),
                ("name", JsonValue::Str(device.name.clone())),
                ("role", JsonValue::Str(if id < f.primaries { "primary" } else { "spare" }.into())),
                ("mode", JsonValue::Str(f.device_mode(id).as_str().into())),
                ("health", JsonValue::Str(f.health_of(id).as_str().into())),
                ("sessions", JsonValue::Num(counts[id] as f64)),
                ("redirect", JsonValue::Num(redirect as f64)),
                ("writes", JsonValue::Num(device.control().writes() as f64)),
                ("draining", JsonValue::Bool(f.draining[id].load(Ordering::Acquire) == 1)),
            ]));
            out.push('\n');
        }
        out
    }

    /// The device-level flight ring (watchdog trips, failures,
    /// migrations) as JSONL. Events use `turn` = device id. Empty
    /// without a fleet.
    pub fn device_flight_jsonl(&self) -> String {
        match &self.core.fleet {
            Some(f) => relock(&f.flight).to_jsonl(),
            None => String::new(),
        }
    }

    /// Verify a journal file against this server — the `replay` verb.
    /// Runs on a detached session state that never enters any shard.
    pub fn replay_journal(
        &self,
        path: &Path,
    ) -> Result<(String, usize, Option<Divergence>), String> {
        self.core.replay_journal(path)
    }

    /// A live dump of `session`'s flight-recorder ring as JSONL
    /// (`flight` events, oldest first) — the `dump` verb's payload.
    pub fn flight_dump(&self, session: &str) -> Result<String, String> {
        self.on_session(session, |sh, name| sh.flight_dump(name))
    }

    /// The most recent automatic dump — `(session name, JSONL)` —
    /// captured when a turn rolled back or a scrub quarantined a
    /// frame. `None` until something went wrong.
    pub fn last_flight_dump(&self) -> Option<(String, String)> {
        relock(&self.core.last_dump).clone()
    }

    /// Per-session telemetry rows for the `metrics` verb: one flat
    /// JSONL object per session (`"type":"session"`), gathered from
    /// every shard and sorted by name. Each shard builds its rows
    /// between jobs, so a dashboard poll waits for queued work to drain
    /// rather than skipping a session mid-turn.
    pub fn sessions_metrics_jsonl(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for idx in 0..self.shards.len() {
            if let Ok(part) = self.on_shard(idx, |sh| sh.metrics_rows()) {
                rows.extend(part);
            }
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (_, row) in rows {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    /// Park shard `idx` until the returned hold drops (test hook).
    /// Blocks until the shard has actually parked, so everything
    /// pushed afterwards verifiably queues.
    pub fn hold_shard(&self, idx: usize) -> ShardHold {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let pushed = self.shards[idx]
            .inbox
            .push_internal(Job::Hold { entered: entered_tx, release: release_rx });
        if pushed {
            let _ = entered_rx.recv();
        }
        ShardHold { _release: release_tx }
    }

    /// Reserve a client-inbox slot on shard `idx`; `false` means the
    /// request must be shed with an `overloaded` reply.
    pub(crate) fn try_reserve_client(&self, idx: usize) -> bool {
        self.shards[idx].inbox.try_reserve_client()
    }

    /// Enqueue a client job under a successful reservation.
    pub(crate) fn push_client(&self, idx: usize, job: Job) -> bool {
        self.shards[idx].inbox.push_client(job)
    }

    /// Queued jobs on shard `idx` right now.
    pub fn inbox_depth(&self, idx: usize) -> usize {
        self.shards[idx].inbox.depth()
    }

    /// Record a shed request in the fleet totals and telemetry.
    pub(crate) fn note_shed(&self) {
        self.core.note_shed();
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        // Close every inbox first (so no shard can route work to
        // another mid-teardown), then join: shards drain what is
        // already queued before exiting.
        for handle in &self.shards {
            handle.close();
        }
        for handle in &mut self.shards {
            handle.join();
        }
    }
}
