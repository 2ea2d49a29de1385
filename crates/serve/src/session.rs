//! Session state: many concurrent debugging sessions over one shared
//! compiled design.
//!
//! The expensive, read-only products of the offline flow (SCG, layout,
//! ICAP model, instrumented netlist, base configuration) are shared
//! behind `Arc`; each session owns only its [`Session`] — the struct
//! the standalone reconfigurator, `pfdbg record` and `pfdbg replay` run
//! too: its turn state (parameter assignment, evaluation scratch with
//! the committed packed tunable words), a (possibly faulty)
//! reconfiguration channel whose device copies only the frames it
//! writes over the shared base, a scrubber and a commit policy, all
//! built from the manager's [`ChaosSpec`] — so turns from different
//! clients proceed independently. A shared LRU of
//! packed tunable words, keyed by the parameter `BitVec` itself,
//! short-circuits the SCG sweep for repeated selections across *all*
//! sessions: each select looks it up once, under the LRU's own lock, and
//! a hit shares the cached words' `Arc`.
//!
//! Turns are **transactional** and are the standalone engine's turn:
//! [`Session::stage`] diffs the selection against the committed
//! configuration, and [`Session::commit`] pushes the changed frames
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
//! engine, cache, chaos config, and the manager's counter table —
//! everything a shard thread needs), the shard-side session operations
//! (`impl Shard` here, so `SessionState` stays private to the crate),
//! and the [`SessionManager`] facade, which routes each call to the
//! owning shard and blocks for the answer — the embedding API is
//! unchanged from the mutex era.

use crate::lru::LruCache;
use crate::shard::{relock, Inbox, Job, SelectSpec, Shard, ShardHandle, ShardHold};
use crate::telemetry as tel;
use pfdbg_arch::Bitstream;
use pfdbg_core::CompiledDesign;
use pfdbg_emu::{DeviceControl, DeviceMode, DeviceRegistry, IcapFaultConfig, SeuConfig};
use pfdbg_obs::{Counter, FlightKind, FlightRecorder};
use pfdbg_pconf::health::{
    DeviceHealth, HealthEvent, HealthLadder, HealthPolicy, WatchdogPolicy, WatchdogVerdict,
};
use pfdbg_pconf::icap::{readback_all, CommitPolicy, IcapChannel};
use pfdbg_pconf::scrub::{ScrubHealth, ScrubPolicy, ScrubReport};
use pfdbg_pconf::{Session, TunableFrames, TurnContext};
use pfdbg_replay::{
    scrub_facts, select_facts, session_seed, verify_with_driver, ChaosSpec, DesignSpec, Divergence,
    JournalRecord, JournalWriter, Redrive, ScrubFacts, SelectFacts, SelectOutcome, SessionMeta,
};
use pfdbg_util::BitVec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The compiled design a server instance runs against, shared by every
/// session behind the manager's one `Arc`. An alias that goes with the
/// next change to the benchmark, whose locked build still names it.
pub type Engine = CompiledDesign;

/// One client session: the [`Session`] every journal re-drive runs
/// too (its turn state, chaos channel, scrubber and commit policy),
/// plus what only serve keeps. Owned by exactly one shard thread — no
/// lock.
pub(crate) struct SessionState {
    /// **Per-session** turn state, evaluation scratch included — the
    /// shared design's SCG is immutable behind its `Arc`, and every
    /// mutable buffer lives here, on the owning shard's thread, so
    /// concurrent sessions never observe each other's sweeps
    /// (DESIGN.md §12).
    session: Session,
    /// Committed turns.
    turns: usize,
    /// Fixed-size ring of the session's recent structured events — the
    /// post-mortem that survives to a `dump`.
    flight: FlightRecorder,
    /// Session journal appender when the server records sessions
    /// (`--journal-dir`); every turn's facts append here as they commit.
    journal: Option<JournalWriter>,
    /// The fleet device this session's channel routes through: `None`
    /// when no device fleet is configured, and for the detached session
    /// the `replay` verb re-drives, which must not act on the live
    /// fleet. Every turn consults the device's mode; a session whose
    /// device drains is rebuilt on a spare by re-driving its journal.
    device: Option<usize>,
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

/// Device-fleet shape and supervision thresholds. Setting
/// [`ManagerOptions::devices`] opts the manager into fleet
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
}

impl DeviceFleet {
    fn new(opts: DeviceOptions) -> DeviceFleet {
        let primaries = opts.devices.max(1);
        let total = primaries + opts.spares;
        DeviceFleet {
            registry: DeviceRegistry::new(total),
            primaries,
            ladders: (0..total).map(|_| Mutex::new(HealthLadder::new(opts.health))).collect(),
            redirect: (0..primaries).map(AtomicUsize::new).collect(),
            draining: (0..total).map(|_| AtomicU64::new(0)).collect(),
            migrating: (0..primaries).map(|_| AtomicU64::new(0)).collect(),
            next_spare: AtomicUsize::new(primaries),
            watchdog: opts.watchdog,
            flight: Mutex::new(FlightRecorder::new(DEVICE_FLIGHT_CAP)),
        }
    }

    fn device_mode(&self, id: usize) -> DeviceMode {
        self.registry.get(id).map(|d| d.mode()).unwrap_or(DeviceMode::Killed)
    }

    fn health_of(&self, id: usize) -> DeviceHealth {
        relock(&self.ladders[id]).health()
    }

    /// Feed one event to a device's ladder; returns the new rung when
    /// the event moved it.
    fn observe(&self, id: usize, event: HealthEvent) -> Option<DeviceHealth> {
        relock(&self.ladders[id]).observe(event).map(|t| t.to)
    }
}

/// The primary device a session name hashes to: a pure function of the
/// name and the primary count (the same FNV fold as shard placement,
/// under its own base), so assignment is stable across restarts and
/// independent of shard count.
pub fn primary_device_of(name: &str, primaries: usize) -> usize {
    (session_seed(0xDE1C, name) % primaries.max(1) as u64) as usize
}

/// A specialization as the LRU holds it: the packed tunable words of
/// one parameter vector (bit `i` = value of `gbs.tunable[i]`).
pub(crate) type CachedWords = Arc<BitVec>;

/// Declares the manager's counter table from one list: each entry's
/// field name is its wire name — the `stats` key, and with a `serve.`
/// prefix the `metrics` counter name.
macro_rules! count_table {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// One manager's event counters. Each event adds to exactly one
        /// entry, once, on whichever thread saw it.
        #[derive(Default)]
        pub(crate) struct CountTable {
            $(pub(crate) $name: Counter,)+
        }

        impl CountTable {
            fn snapshot(&self) -> Counts {
                Counts { $($name: self.$name.value(),)+ }
            }
        }

        /// A snapshot of one manager's counter table
        /// ([`SessionManager::counts`]): what `stats`, `devices` and
        /// `metrics` render. Each field is named as its `stats` key.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counts {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Counts {
            /// Every entry as `(wire name, value)`, in table order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

count_table! {
    /// Committed debugging turns.
    turns,
    /// Selects that found their specialization in the LRU.
    cache_hits,
    /// Selects that specialized on an LRU miss.
    cache_misses,
    /// Client requests shed with an `overloaded` reply (full shard
    /// inbox, or a session whose device is migrating).
    shed_total,
    /// Handlers that panicked and were contained.
    handler_panics,
    /// Frame-write retries.
    icap_retries,
    /// Commit escalations (partial diff → full-frame rewrite → full
    /// reconfiguration).
    icap_degradations,
    /// Turns rolled back after exhausting every escalation level.
    icap_rollbacks,
    /// Scrub passes completed.
    scrub_passes,
    /// Divergent (upset) frames scrub passes detected.
    scrub_upsets_detected,
    /// Divergent bits scrub passes detected.
    scrub_bits_upset,
    /// Frames scrub passes repaired back to golden.
    scrub_repairs,
    /// Frames scrub passes quarantined as stuck.
    scrub_quarantined,
    /// Configuration bits the emulated fabric flipped via injected SEUs
    /// (0 on a reliable device).
    seu_bits_injected,
    /// Journal records appended.
    journal_records,
    /// Sessions restored by re-driving their journals.
    restores,
    /// Device migrations started (operator drains and failovers).
    migrations,
    /// Commit/scrub watchdog trips.
    watchdog_trips,
    /// Devices declared failed.
    device_failures,
    /// Sessions re-driven onto a spare.
    sessions_migrated,
    /// Sessions dropped by a migration (no journal to re-drive, or the
    /// re-drive diverged).
    sessions_lost,
    /// Drains that found no healthy spare: the dead device's sessions
    /// answer every turn with a device error.
    failovers_without_spare,
}

/// Everything the shard threads share: the engine, the specialization
/// LRU, the chaos configuration sessions are born with, and the
/// manager's counter table (atomics — the `stats` verb never blocks on
/// a shard).
pub(crate) struct ManagerCore {
    engine: Arc<CompiledDesign>,
    /// The specialization LRU, keyed by the parameter vector itself.
    cache: Mutex<LruCache<BitVec, CachedWords>>,
    /// The chaos every session is built from and every journal meta
    /// records, so a journal describes exactly what ran.
    chaos: ChaosSpec,
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
    /// Session journaling, `None` when off. Behind a lock only so that
    /// [`SessionManager::set_journal_dir`] can set it after the shards
    /// hold the core.
    journal: Mutex<Option<JournalOptions>>,
    pub(crate) counts: CountTable,
    /// Open sessions: a level, not an event count.
    session_count: AtomicU64,
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
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .take(48)
            .collect();
        let file = format!("{safe}-{:016x}.pfdj", session_seed(0x1757, name));
        Some(relock(&self.journal).as_ref()?.dir.join(file))
    }

    /// The meta record for a fresh journal of session `name`.
    fn journal_meta(&self, name: &str) -> SessionMeta {
        let (design, coverage, k) = relock(&self.journal)
            .as_ref()
            .map_or((DesignSpec::External, 1, 4), |j| (j.design.clone(), j.coverage, j.k));
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
            chaos: self.chaos.clone(),
            threads: 1,
            note: "recorded by pfdbg-serve".into(),
        }
    }

    /// A brand-new session's state on fleet device `device`:
    /// [`ChaosSpec::session`] of the manager's chaos with seeds salted
    /// by `name`, at the base configuration (params = 0). Shared by
    /// `open`, restore, and the detached `replay` verb (on no device)
    /// so all three rebuild the same session byte-for-byte.
    fn fresh_state(&self, name: &str, device: Option<usize>) -> SessionState {
        // On a fleet device, the device wraps the whole chaos stack:
        // kill/stall/wedge verdicts apply at the outermost write, and a
        // dead device stops ticking (it takes no upsets). The wrapper is
        // inert while the device stays `Ok`, so fleet and non-fleet
        // sessions replay bit-identically.
        let attach = |channel: Box<dyn IcapChannel>| -> Box<dyn IcapChannel> {
            match self.fleet_device(device) {
                Some((f, id)) => Box::new(
                    f.registry
                        .get(id)
                        .expect("redirect targets a registered device")
                        .attach(channel),
                ),
                None => channel,
            }
        };
        let (scg, frame_bits) = (&self.engine.scg, self.engine.layout.frame_bits);
        SessionState {
            session: self.chaos.session(scg, self.image.clone(), frame_bits, Some(name), attach),
            turns: 0,
            flight: FlightRecorder::new(FLIGHT_CAP),
            journal: None,
            device,
        }
    }

    /// Rebuild a session from its journal: re-drive every recorded
    /// operation through the select/scrub path clients use
    /// ([`verify_with_driver`] over a [`Redriven`] session), verifying
    /// each fact, then attach the journal in append mode (its torn
    /// tail, if any, already truncated). A journal ending in `close` is
    /// spent and is restarted fresh.
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
        let report = verify_with_driver(&mut Redriven { core: self, name, state }, &records, name);
        match report.divergence {
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
                self.counts.restores.add(1);
                state.journal = Some(writer);
                Ok(())
            }
        }
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
        // The re-drive runs on no fleet device: it must neither write
        // through the live device the name maps to nor feed its health
        // ladder, and a dead device must not turn it into a failover.
        let name = meta.session.as_str();
        let mut state = self.fresh_state(name, None);
        let redriven = &mut Redriven { core: self, name, state: &mut state };
        let report = verify_with_driver(redriven, &records, name);
        Ok((report.session, report.records, report.divergence))
    }

    /// Append `record` to the session's journal, when it keeps one.
    fn append(&self, state: &mut SessionState, record: &JournalRecord) {
        if let Some(journal) = state.journal.as_mut() {
            if journal.append(record).is_ok() {
                self.counts.journal_records.add(1);
            }
        }
    }

    /// The journal facts `facts` builds, appended to the session's
    /// journal — built only when the session journals or a re-drive
    /// (`redrive`) wants them back, since they read the whole device.
    fn record_select(
        &self,
        state: &mut SessionState,
        redrive: bool,
        facts: impl FnOnce(&Session) -> SelectFacts,
    ) -> Option<SelectFacts> {
        if !redrive && state.journal.is_none() {
            return None;
        }
        let facts = facts(&state.session);
        self.append(state, &JournalRecord::Select(facts.clone()));
        Some(facts)
    }

    /// The fleet device session `name`'s channel routes through right
    /// now: the primary-hash assignment pushed through the redirect
    /// table. `None` when no fleet is configured.
    fn device_of(&self, name: &str) -> Option<usize> {
        let f = self.fleet.as_ref()?;
        Some(f.redirect[primary_device_of(name, f.primaries)].load(Ordering::Acquire))
    }

    /// The fleet and the device of a session on fleet device `device`:
    /// `None` — no fleet gate, watchdog or health ladder — without a
    /// fleet, or for a session on no device.
    fn fleet_device(&self, device: Option<usize>) -> Option<(&DeviceFleet, usize)> {
        Some((self.fleet.as_ref()?, device?))
    }

    /// Feed fleet device `device`'s health ladder one observation of a
    /// commit or scrub pass: `event`, unless the pass blew its watchdog
    /// allowance (`verdict`) — a trip regardless of outcome, so a
    /// wedged-but-alive port cannot hide behind eventual success, noted
    /// in the session's `flight` ring at `turn_no`, the device ring and
    /// the counter table. A rung that calls for a drain starts the
    /// failover.
    fn observe_device(
        &self,
        f: &DeviceFleet,
        device: usize,
        verdict: WatchdogVerdict,
        event: HealthEvent,
        flight: &mut FlightRecorder,
        turn_no: u64,
    ) {
        let event = if verdict.tripped {
            let elapsed_us = verdict.elapsed.as_micros() as u64;
            flight.record(FlightKind::WatchdogTrip, turn_no, elapsed_us);
            relock(&f.flight).record(FlightKind::WatchdogTrip, device as u64, elapsed_us);
            self.counts.watchdog_trips.add(1);
            HealthEvent::WatchdogTrip
        } else {
            event
        };
        if let Some(to) = f.observe(device, event) {
            if to.needs_drain() {
                self.begin_failover(device, to);
            }
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
        relock(&f.ladders[dead]).force(target);
        if target == DeviceHealth::Failed {
            self.counts.device_failures.add(1);
        }
        relock(&f.flight).record(FlightKind::DeviceFailed, dead as u64, target.score());

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
            self.counts.failovers_without_spare.add(1);
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
        self.counts.migrations.add(1);
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

/// A serve session under journal re-drive: [`verify_with_driver`] runs
/// each recorded operation through [`ManagerCore::select_on`] and
/// [`ManagerCore::scrub_on`] — the code that serves clients, not a copy
/// of it.
struct Redriven<'a> {
    core: &'a ManagerCore,
    name: &'a str,
    state: &'a mut SessionState,
}

impl Redrive for Redriven<'_> {
    fn redrive_select(&mut self, params: &BitVec, expired: bool) -> Result<SelectFacts, String> {
        let deadline = expired.then(|| (Instant::now(), Duration::ZERO));
        let (reply, facts) = self.core.select_on(self.name, self.state, params, deadline, true);
        facts.ok_or_else(|| reply.err().unwrap_or_default())
    }

    fn redrive_scrub(&mut self) -> Result<ScrubFacts, String> {
        let report = self.core.scrub_on(self.name, self.state)?;
        Ok(scrub_facts(&self.state.session, &report))
    }
}

impl ManagerCore {
    /// The turn body, run with exclusive access to the session's state
    /// (the owning shard thread's, or a detached state during journal
    /// restore/replay — all three drive the *same* code path a live
    /// client exercises: replay fidelity by construction, not by a
    /// parallel reimplementation). The turn itself is the steps of the
    /// session's [`Session`] — the one `pfdbg record` and `pfdbg
    /// replay` run; this layer adds the fleet gate, the LRU, the
    /// deadline gate, the flight events, telemetry and the watchdog
    /// between them. The LRU is looked up once, keyed by `params`
    /// itself: a hit shares the cached words' `Arc`.
    ///
    /// The deadline (when given as `(request start, budget)`) is
    /// checked between [`Session::stage`] and [`Session::commit`]:
    /// a missed deadline is a pure error — no turn counter advances, no
    /// cache entry is published, no frame is written. The start is the
    /// request's parse time, so time spent queued in a saturated inbox
    /// counts against the budget. Likewise an exhausted retry budget
    /// rolls the turn back, leaving only the armed resync behind.
    ///
    /// Returns the client's reply and the turn's journal facts: `Some`
    /// for a turn that committed, rolled back or missed its deadline,
    /// when the session journals or `redrive` asks for them.
    pub(crate) fn select_on(
        &self,
        session: &str,
        state: &mut SessionState,
        params: &BitVec,
        deadline: Option<(Instant, Duration)>,
        redrive: bool,
    ) -> (Result<TurnOutcome, String>, Option<SelectFacts>) {
        let _s = pfdbg_obs::span("serve.select");
        if params.len() != self.engine.n_params() {
            let msg = format!(
                "parameter count mismatch: got {}, design has {}",
                params.len(),
                self.engine.n_params()
            );
            return (Err(msg), None);
        }
        // Fleet gate: a session whose device is no longer serving never
        // ticks, commits, or journals — device-level failure is not
        // seed-reproducible, so the turn must leave no trace for the
        // journal re-drive on the spare to diverge over. The failover
        // (idempotent) starts here in case the mode flipped without a
        // commit observing it.
        if let Some((f, device)) = self.fleet_device(state.device) {
            let mode = f.device_mode(device);
            if mode != DeviceMode::Ok {
                state.flight.record(FlightKind::DeviceFailed, state.turns as u64, device as u64);
                self.begin_failover(device, DeviceHealth::Failed);
                let msg = format!(
                    "device dev{device} is {} — session is migrating to a spare; retry shortly",
                    mode.as_str()
                );
                return (Err(msg), None);
            }
        }
        let t0 = Instant::now();
        let ctx = self.turn_context();

        // Between-turn time passes before the turn touches the device:
        // the emulated fabric takes its SEUs now (no-op on a reliable
        // channel). Upsets in frames this turn does not write persist
        // until a scrub pass catches them.
        let flipped = state.session.tick();
        let turn_no = state.turns as u64;
        if flipped > 0 {
            self.counts.seu_bits_injected.add(flipped as u64);
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
        if let Err(e) = state.session.stage(&ctx, params, cached.as_deref()) {
            return (Err(e), None);
        }
        if cache_hit {
            self.counts.cache_hits.add(1);
        } else {
            let sp_us = sp0.elapsed().as_secs_f64() * 1e6;
            tel::SPECIALIZE_US.record_us(sp_us);
            tel::SLO_SPECIALIZE.observe_us(sp_us);
            self.counts.cache_misses.add(1);
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
                // The miss left only the between-turn tick behind;
                // journal exactly that so a replay reproduces it.
                let facts = self.record_select(state, redrive, |s| {
                    select_facts(s, params, SelectOutcome::DeadlineMiss, None, flipped, cache_hit)
                });
                let msg = format!(
                    "deadline exceeded: {:.1} ms spent, {:.1} ms allowed",
                    started.elapsed().as_secs_f64() * 1e3,
                    budget.as_secs_f64() * 1e3
                );
                return (Err(msg), facts);
            }
        }
        let eval_us = t0.elapsed().as_secs_f64() * 1e6;

        let t_commit = Instant::now();
        match state.session.commit(&ctx, params) {
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
                let facts = self.record_select(state, redrive, |s| {
                    let outcome = SelectOutcome::Committed;
                    select_facts(s, params, outcome, Some(&turn), flipped, cache_hit)
                });
                // Cache publication happens from the owning shard, after
                // the commit verified.
                if !cache_hit {
                    let words = Arc::new(state.session.committed_words().clone());
                    relock(&self.cache).put(params.clone(), words);
                }
                self.counts.icap_retries.add(commit.retries as u64);
                self.counts.icap_degradations.add(commit.degradations as u64);
                self.counts.turns.add(1);
                let turn_us = t0.elapsed().as_secs_f64() * 1e6;
                tel::TURN_US.record_us(turn_us);
                tel::SLO_TURN.observe_us(turn_us);
                // Feed the device's health ladder: a commit that blew
                // its retry-scaled watchdog allowance counts as a trip
                // even though it verified — a wedged-but-alive port
                // must not hide behind eventual success.
                if let Some((f, device)) = self.fleet_device(state.device) {
                    let verdict = f.watchdog.assess_commit(&commit, t_commit.elapsed());
                    let event = match commit.degradations {
                        0 => HealthEvent::CleanCommit,
                        n => HealthEvent::Escalation(n),
                    };
                    self.observe_device(f, device, verdict, event, &mut state.flight, turn_no);
                }
                let outcome = TurnOutcome {
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
                };
                (Ok(outcome), facts)
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
                if let Some((f, device)) = self.fleet_device(state.device) {
                    let mode = f.device_mode(device);
                    if mode != DeviceMode::Ok {
                        state.flight.record(FlightKind::DeviceFailed, turn_no, device as u64);
                        self.begin_failover(device, DeviceHealth::Failed);
                        let msg = format!(
                            "device dev{device} went {} mid-commit — session is migrating; retry shortly",
                            mode.as_str()
                        );
                        return (Err(msg), None);
                    }
                    // An honest rollback under seeded chaos: journaled
                    // below and fed to the ladder.
                    let verdict = f.watchdog.assess_commit(&commit, t_commit.elapsed());
                    let event = HealthEvent::Rollback;
                    self.observe_device(f, device, verdict, event, &mut state.flight, turn_no);
                }
                state.flight.record(FlightKind::TurnRollback, turn_no, commit.retries as u64);
                // Retry counts of an aborted commit are not part of the
                // replay contract (see `pfdbg-replay`); the journaled
                // facts are the outcome, the tick's SEU flips, and the
                // post-rollback device digest.
                let facts = self.record_select(state, redrive, |s| {
                    select_facts(s, params, SelectOutcome::RolledBack, None, flipped, cache_hit)
                });
                // A rollback is exactly the moment a post-mortem is
                // wanted: snapshot the ring before anyone else turns.
                *relock(&self.last_dump) = Some((session.to_string(), state.flight.to_jsonl()));
                self.counts.icap_retries.add(commit.retries as u64);
                self.counts.icap_degradations.add(commit.degradations as u64);
                self.counts.icap_rollbacks.add(1);
                (Err(format!("reconfiguration rolled back: {msg}")), facts)
            }
        }
    }

    /// One scrub pass against the PConf-evaluated golden frames for the
    /// session's current parameter vector. Like [`ManagerCore::select_on`],
    /// runs with exclusive state access on the owning shard (or a
    /// detached replay state). A repair leaves the LRU alone: cached
    /// entries are packed tunable words, a pure function of their
    /// parameter vector, and a repair rewrites device frames only,
    /// verifying each write itself.
    pub(crate) fn scrub_on(
        &self,
        session: &str,
        state: &mut SessionState,
    ) -> Result<ScrubReport, String> {
        let _s = pfdbg_obs::span("serve.scrub");
        let t0 = Instant::now();
        // Fleet gate — same contract as `select_on`: a scrub never
        // touches (or journals against) a dead device.
        let fleet = self.fleet_device(state.device);
        if let Some((f, device)) = fleet {
            let mode = f.device_mode(device);
            if mode != DeviceMode::Ok {
                self.begin_failover(device, DeviceHealth::Failed);
                return Err(format!(
                    "device dev{device} is {} — session is migrating to a spare; retry shortly",
                    mode.as_str()
                ));
            }
        }
        let turn_no = state.turns as u64;
        // A quarantined frame arms the session's resync inside the
        // pass: the next commit rewrites everything (and will keep
        // failing on a truly stuck frame — degraded, loudly, rather
        // than serving corrupt trace data).
        let report = state.session.scrub(&self.turn_context())?;
        let flight = &mut state.flight;
        flight.record(FlightKind::ScrubPass, turn_no, report.upset_frames as u64);
        if report.repaired_frames > 0 {
            flight.record(FlightKind::ScrubRepair, turn_no, report.repaired_frames as u64);
        }
        if report.quarantined_frames > 0 {
            flight.record(FlightKind::Quarantine, turn_no, report.quarantined_frames as u64);
            // Quarantine is the fleet's "something is wrong here":
            // capture the post-mortem automatically.
            *relock(&self.last_dump) = Some((session.to_string(), flight.to_jsonl()));
        }
        // Feed the device ladder: quarantined frames climb it, a clean
        // pass builds the recovery streak, and a pass that blew its
        // repair-scaled watchdog allowance trips regardless of outcome.
        if let Some((f, device)) = fleet {
            let verdict = f.watchdog.assess_scrub(&report, t0.elapsed());
            let event = match report.quarantined_frames {
                0 => HealthEvent::ScrubClean,
                n => HealthEvent::ScrubQuarantine(n),
            };
            self.observe_device(f, device, verdict, event, flight, turn_no);
        }
        self.counts.scrub_passes.add(1);
        self.counts.scrub_upsets_detected.add(report.upset_frames as u64);
        self.counts.scrub_bits_upset.add(report.upset_bits as u64);
        self.counts.scrub_repairs.add(report.repaired_frames as u64);
        self.counts.scrub_quarantined.add(report.quarantined_frames as u64);
        if state.journal.is_some() {
            let facts = scrub_facts(&state.session, &report);
            self.append(state, &JournalRecord::Scrub(facts));
        }
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
        let mut state = core.fresh_state(name, core.device_of(name));
        if let Some(path) = core.journal_path(name) {
            if path.exists() {
                core.restore_into(name, &mut state, &path)?;
            } else {
                state.journal = Some(JournalWriter::create(&path, &core.journal_meta(name))?);
            }
        }
        self.sessions.insert(name.to_string(), state);
        core.session_count.fetch_add(1, Ordering::Relaxed);
        Ok(core.engine.n_params())
    }

    /// Drop a session. With journaling on, its journal is closed with a
    /// terminal record — a later `open` of the same name starts fresh
    /// instead of restoring.
    pub(crate) fn close(&mut self, name: &str) -> Result<(), String> {
        let mut state =
            self.sessions.remove(name).ok_or_else(|| format!("no such session {name:?}"))?;
        self.core.append(&mut state, &JournalRecord::Close);
        if let Some(journal) = state.journal.as_mut() {
            let _ = journal.sync();
        }
        self.core.session_count.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Run `f`, a handler for session `name`, under the panic rule of
    /// every session verb, whether it came over the wire
    /// (`server::route_session`) or through the embedding facade: if `f`
    /// unwinds, the panic counts once in `handler_panics`, the
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
                self.core.counts.handler_panics.add(1);
                if self.sessions.remove(name).is_some() {
                    self.core.session_count.fetch_sub(1, Ordering::Relaxed);
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
            SelectSpec::Signals(signals) => {
                core.engine.inst.plan(state.session.params(), &signals)?.params
            }
        };
        core.select_on(session, state, &params, deadline, false).0
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
        let scrubber = state.session.scrubber();
        let totals = scrubber.totals();
        Ok(HealthReport {
            verdict: scrubber.health(),
            scrubs: totals.passes,
            upsets_detected: totals.upset_frames,
            bits_upset: totals.upset_bits,
            frames_repaired: totals.repaired_frames,
            quarantine: scrubber.quarantined().iter().copied().collect(),
            needs_resync: state.session.needs_resync(),
            turns: state.turns,
        })
    }

    /// A session's `(params, turns, needs_resync)` — the state the
    /// transactional-turn tests pin down.
    pub(crate) fn state_tuple(&self, session: &str) -> Result<(BitVec, usize, bool), String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        let session = &state.session;
        Ok((session.params().clone(), state.turns, session.needs_resync()))
    }

    /// Read a session's device configuration memory back through its
    /// channel — the ground truth the committed state must match.
    pub(crate) fn readback(&self, session: &str) -> Result<Bitstream, String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        Ok(readback_all(state.session.channel()))
    }

    /// Map a signal selection to a parameter vector against the current
    /// session parameters, without running the turn.
    pub(crate) fn plan(&self, session: &str, signals: &[String]) -> Result<BitVec, String> {
        let state =
            self.sessions.get(session).ok_or_else(|| format!("no such session {session:?}"))?;
        Ok(self.core.engine.inst.plan(state.session.params(), signals)?.params)
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
            .filter(|(_, s)| s.device == Some(dead))
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            drop(self.sessions.remove(&name));
            let result = core
                .journal_path(&name)
                .filter(|p| p.exists())
                .ok_or_else(|| "no journal to re-drive (journaling disabled)".to_string())
                .and_then(|path| {
                    // `device_of` reads the redirect table, which
                    // already points at the spare — the rebuilt channel
                    // routes there and the journal re-drives through
                    // the exact same select/scrub path `open` uses.
                    let mut state = core.fresh_state(&name, core.device_of(&name));
                    core.restore_into(&name, &mut state, &path)?;
                    state.flight.record(
                        FlightKind::MigrationDone,
                        state.turns as u64,
                        spare as u64,
                    );
                    self.sessions.insert(name.clone(), state);
                    Ok(())
                });
            match result {
                Ok(()) => core.counts.sessions_migrated.add(1),
                Err(_) => {
                    core.counts.sessions_lost.add(1);
                    core.session_count.fetch_sub(1, Ordering::Relaxed);
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
            if let Some(c) = state.device.and_then(|d| counts.get_mut(d)) {
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
                let scrubber = state.session.scrubber();
                let totals = scrubber.totals();
                let fields = vec![
                    ("type", JsonValue::Str("session".into())),
                    ("name", JsonValue::Str(name.clone())),
                    ("turns", JsonValue::Num(state.turns as f64)),
                    ("health", JsonValue::Str(scrubber.health().as_str().to_string())),
                    ("needs_resync", JsonValue::Bool(state.session.needs_resync())),
                    ("scrubs", JsonValue::Num(totals.passes as f64)),
                    ("quarantined", JsonValue::Num(scrubber.quarantined().len() as f64)),
                    ("flight_events", JsonValue::Num(state.flight.total_recorded() as f64)),
                ];
                (name.clone(), write_object(&fields))
            })
            .collect()
    }
}

/// Fleet shape: how many shards own the session space and how much
/// client work each shard's inbox admits before shedding. A zero field
/// takes its default.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetOptions {
    /// Shard (owner thread) count; `0` reads `PFDBG_SHARDS`, default 4.
    pub shards: usize,
    /// Client jobs a shard queues before replying `overloaded`;
    /// `0` means 1024.
    pub inbox_capacity: usize,
}

impl FleetOptions {
    fn resolve(self) -> (usize, usize) {
        let shards = match self.shards {
            0 => std::env::var("PFDBG_SHARDS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(4),
            n => n,
        };
        let capacity = match self.inbox_capacity {
            0 => 1024,
            n => n,
        };
        (shards, capacity)
    }
}

/// Session journaling: every session appends its turns to a `PFDJ`
/// journal under `dir`, and `open` restores a crash-interrupted session
/// by re-driving its journal.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// The journal directory.
    pub dir: PathBuf,
    /// Design provenance written into journal metas. `External` marks
    /// journals replayable only against an embedder holding the same
    /// engine; a generator, benchmark or file spec makes them
    /// replayable standalone by `pfdbg replay`.
    pub design: DesignSpec,
    /// Instrumentation coverage of the engine build, recorded into
    /// journal metas so self-contained journals rebuild the same design.
    pub coverage: usize,
    /// LUT size of the engine build, recorded likewise.
    pub k: usize,
}

impl JournalOptions {
    /// Journals under `dir` that name no design: `External`, with the
    /// `(coverage, k) = (1, 4)` every such meta has recorded.
    pub fn external(dir: PathBuf) -> JournalOptions {
        JournalOptions { dir, design: DesignSpec::External, coverage: 1, k: 4 }
    }
}

/// Everything a [`SessionManager`] is built from.
#[derive(Debug, Clone)]
pub struct ManagerOptions {
    /// LRU capacity, in specializations (packed tunable words).
    pub cache_capacity: usize,
    /// The chaos every session is built from and every journal meta
    /// records, so a journal describes exactly what ran. Sessions salt
    /// its seeds with their names; turns and scrub repairs both commit
    /// under its policy.
    pub chaos: ChaosSpec,
    /// Shard count and per-shard inbox capacity.
    pub fleet: FleetOptions,
    /// A supervised device fleet: sessions hash across its primaries,
    /// commits and scrubs feed each device's health ladder and
    /// watchdog, and a killed, quarantined or failed device drains its
    /// sessions onto a spare by re-driving their journals. `None` routes
    /// every session through one implicit, unsupervised device.
    pub devices: Option<DeviceOptions>,
    /// Session journaling; `None` records nothing.
    pub journal: Option<JournalOptions>,
}

impl Default for ManagerOptions {
    /// 64 LRU entries, a reliable transport, the default fleet, no
    /// device supervision and no journal.
    fn default() -> Self {
        ManagerOptions {
            cache_capacity: 64,
            chaos: ChaosSpec::reliable(),
            fleet: FleetOptions::default(),
            devices: None,
            journal: None,
        }
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
    /// A manager over `engine`, configured by `opts`. SEU injection is
    /// never read from the environment here: callers (CLI, bench,
    /// tests) decide, so a stray `PFDBG_SEU_RATE` cannot silently
    /// corrupt a manager built for reliable devices.
    pub fn new(engine: Arc<CompiledDesign>, opts: ManagerOptions) -> SessionManager {
        let ManagerOptions { cache_capacity, chaos, fleet, devices, journal } = opts;
        let tunables = TunableFrames::new(&engine.scg, &engine.layout);
        let image = Arc::new(engine.scg.generalized().base.clone());
        let core = Arc::new(ManagerCore {
            engine,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            chaos,
            tunables,
            image,
            fleet: devices.map(DeviceFleet::new),
            inboxes: OnceLock::new(),
            last_dump: Mutex::new(None),
            journal: Mutex::new(journal),
            counts: CountTable::default(),
            session_count: AtomicU64::new(0),
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

    /// [`SessionManager::new`] with its chaos assembled by
    /// [`ChaosSpec::from_parts`], so of `scrub_policy` only
    /// `max_repair_attempts` counts. pfbench is its last caller; it goes
    /// with the benchmark change.
    pub fn with_fleet(
        engine: Arc<CompiledDesign>,
        cache_capacity: usize,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
        seu: Option<SeuConfig>,
        scrub_policy: ScrubPolicy,
        fleet: FleetOptions,
    ) -> SessionManager {
        Self::new(
            engine,
            ManagerOptions {
                cache_capacity,
                chaos: ChaosSpec::from_parts(fault, seu, &policy, &scrub_policy),
                fleet,
                ..ManagerOptions::default()
            },
        )
    }

    /// [`SessionManager::with_fleet`] over a supervised device fleet.
    /// pfbench is its last caller; it goes with the benchmark change.
    #[allow(clippy::too_many_arguments)]
    pub fn with_devices(
        engine: Arc<CompiledDesign>,
        cache_capacity: usize,
        fault: Option<IcapFaultConfig>,
        policy: CommitPolicy,
        seu: Option<SeuConfig>,
        scrub_policy: ScrubPolicy,
        fleet: FleetOptions,
        devices: DeviceOptions,
    ) -> SessionManager {
        Self::new(
            engine,
            ManagerOptions {
                cache_capacity,
                chaos: ChaosSpec::from_parts(fault, seu, &policy, &scrub_policy),
                fleet,
                devices: Some(devices),
                ..ManagerOptions::default()
            },
        )
    }

    /// The shared compiled design.
    pub fn engine(&self) -> &CompiledDesign {
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

    /// This manager's counter table — all atomics, so `stats` never
    /// queues behind a shard.
    pub fn counts(&self) -> Counts {
        self.core.counts.snapshot()
    }

    /// The live counter table, for the events the server sees itself
    /// (shed requests, handler panics on an IO thread).
    pub(crate) fn table(&self) -> &CountTable {
        &self.core.counts
    }

    /// The per-frame upset rate sessions are born with (0 without SEU
    /// injection).
    pub fn seu_rate(&self) -> f64 {
        self.core.chaos.seu.map_or(0.0, |s| s.rate)
    }

    /// Journal every session opened afterwards under `dir`, as
    /// [`JournalOptions::external`] configures it. Call before the
    /// manager starts serving. pfbench is its last caller; it goes with
    /// the benchmark change, and with it the lock around the manager's
    /// journal options.
    pub fn set_journal_dir(&mut self, dir: PathBuf) {
        *relock(&self.core.journal) = Some(JournalOptions::external(dir));
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
    /// owning shard's thread. The turn is the session's [`Session`]:
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
        relock(&self.core.journal).as_ref().map(|j| j.dir.clone())
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
    /// assignment pushed through the failover redirect table. `0` when
    /// no fleet is configured (the implicit single device).
    pub fn device_of(&self, name: &str) -> usize {
        self.core.device_of(name).unwrap_or(0)
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
