//! Rebuilding a recorded session: design → engine → a fresh
//! [`DebugSession`] over the journal's chaos environment.
//!
//! The driver is the single execution engine used by both the recorder
//! (`Recorder`) and the verifier ([`crate::verify`]): a recorded
//! session and its replay go through the *same* tick → stage → commit
//! path (`DebugSession::apply_params` →
//! `OnlineReconfigurator::try_apply` → `pfdbg_pconf::TurnEngine`), so
//! every observable fact — bit/frame diffs, retry and escalation
//! counts, SEU flips, readback CRC — is reproducible by construction.
//! A serve session's turn is that same `TurnEngine` turn over a channel
//! from the same `pfdbg_emu::channel_stack`, so serve journals verify
//! here too.

use crate::record::{DesignSpec, SelectFacts, SelectOutcome, SessionMeta};
use pfdbg_arch::Bitstream;
use pfdbg_core::{prepare_instrumented, DebugSession, InstrumentConfig, OfflineConfig};
use pfdbg_emu::{channel_stack, IcapFaultConfig, SeuConfig};
use pfdbg_pconf::{IcapChannel, OnlineReconfigurator, Scrubber};
use std::sync::Arc;

/// A session's private seed: deterministic in the configured base seed
/// and the session name (FNV-1a). The serve layer derives its sessions'
/// fault, SEU, and jitter seeds with this very function, so a serve
/// journal replays the exact streams its session saw; under their own
/// bases the same hash places sessions on shards and devices.
pub fn session_seed(base: u64, name: &str) -> u64 {
    name.bytes()
        .fold(base ^ 0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// 64-bit content CRC of a bitstream (FxHash over its packed words and
/// length) — the device-state digest recorded after every journaled
/// operation and re-checked on replay.
pub fn bitstream_crc(bs: &Bitstream) -> u64 {
    use std::hash::Hasher;
    let mut h = pfdbg_util::hash::FxHasher::default();
    for &w in bs.words() {
        h.write_u64(w);
    }
    h.write_u64(bs.len() as u64);
    h.finish()
}

/// The compiled products a replay runs against.
pub struct BuiltDesign {
    /// Instrumented design.
    pub inst: pfdbg_core::Instrumented,
    /// SCG over the generalized bitstream, threads already set.
    pub scg: pfdbg_pconf::Scg,
    /// Bitstream layout.
    pub layout: pfdbg_arch::BitstreamLayout,
    /// Reconfiguration-port model.
    pub icap: pfdbg_arch::IcapModel,
}

/// Rebuild the compiled design a journal's meta describes, running the
/// full offline flow (synth → map → TPaR → generalized bitstream).
/// Deterministic: the offline products are identical at every thread
/// count, so the rebuilt engine matches the recorded one exactly.
pub fn build_design(meta: &SessionMeta) -> Result<BuiltDesign, String> {
    let nw = match &meta.design {
        DesignSpec::Generated { n_inputs, n_outputs, n_gates, depth, n_latches, seed } => {
            pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
                n_inputs: *n_inputs,
                n_outputs: *n_outputs,
                n_gates: *n_gates,
                depth: *depth,
                n_latches: *n_latches,
                seed: *seed,
            })
        }
        DesignSpec::Bench { name } => pfdbg_circuits::build(name)
            .ok_or_else(|| format!("unknown benchmark {name:?} in journal meta"))?,
        DesignSpec::File { path } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("journal design {path}: {e}"))?;
            if path.ends_with(".v") || path.ends_with(".sv") {
                pfdbg_netlist::verilog::parse(&text).map_err(|e| e.to_string())?
            } else {
                pfdbg_netlist::blif::parse(&text).map_err(|e| e.to_string())?
            }
        }
        DesignSpec::External => {
            return Err("journal is not self-contained (design lives in the recording server); \
                 replay it through the server's `replay` verb"
                .into())
        }
    };
    let (_, _, inst) = prepare_instrumented(
        &nw,
        &InstrumentConfig { n_ports: meta.ports, coverage: meta.coverage, max_signals: None },
        meta.k,
    )?;
    let off = pfdbg_core::offline(&inst, &OfflineConfig { k: meta.k, ..OfflineConfig::default() })?;
    let mut scg = off.scg.ok_or("offline flow produced no SCG")?;
    scg.set_threads(meta.threads);
    let layout = off.layout.ok_or("offline flow produced no layout")?;
    if meta.n_params != 0 && scg.generalized().n_params != meta.n_params {
        return Err(format!(
            "rebuilt design has {} parameters, journal recorded {} — design drifted",
            scg.generalized().n_params,
            meta.n_params
        ));
    }
    Ok(BuiltDesign { inst, scg, layout, icap: off.icap })
}

/// A live re-driven session: a [`DebugSession`] over the journal's
/// chaos environment plus the scrubber that serviced it.
pub struct OnlineDriver {
    session: DebugSession,
    scrubber: Scrubber,
}

impl OnlineDriver {
    /// Build the design and the driver in one step.
    pub fn build(meta: &SessionMeta) -> Result<OnlineDriver, String> {
        let built = build_design(meta)?;
        Ok(Self::from_built(built, meta, |c| c))
    }

    /// Like [`OnlineDriver::build`] but with a hook that may wrap the
    /// assembled channel (the fuzzer's test-only nondeterminism
    /// injector enters here).
    pub fn build_wrapped(
        meta: &SessionMeta,
        wrap: impl FnOnce(Box<dyn IcapChannel>) -> Box<dyn IcapChannel>,
    ) -> Result<OnlineDriver, String> {
        let built = build_design(meta)?;
        Ok(Self::from_built(built, meta, wrap))
    }

    /// Assemble the driver from already-compiled products (lets callers
    /// reuse one expensive offline build across several drivers).
    pub fn from_built(
        built: BuiltDesign,
        meta: &SessionMeta,
        wrap: impl FnOnce(Box<dyn IcapChannel>) -> Box<dyn IcapChannel>,
    ) -> OnlineDriver {
        let chaos = &meta.chaos;
        let derive = |base: u64| {
            if meta.derive_seeds {
                session_seed(base, &meta.session)
            } else {
                base
            }
        };
        // The serve layer's channel stack, from the same constructor and
        // the same per-session seeds.
        let channel = wrap(channel_stack(
            Arc::new(built.scg.generalized().base.clone()),
            built.layout.frame_bits,
            chaos.seu.map(|s| SeuConfig { seed: derive(s.seed), ..s }),
            chaos.fault.map(|f| IcapFaultConfig { seed: derive(f.seed), ..f }),
        ));
        let jitter = derive(chaos.jitter_seed);
        let online = OnlineReconfigurator::with_channel(
            built.scg,
            built.layout,
            built.icap,
            channel,
            chaos.commit_policy(jitter),
        );
        let scrubber = Scrubber::new(chaos.scrub_policy(jitter));
        OnlineDriver { session: DebugSession::new(built.inst, Some(online)), scrubber }
    }

    /// PConf parameter count of the driven design.
    pub fn n_params(&self) -> usize {
        self.session.instrumented().annotations.len()
    }

    /// The underlying session (turn log, instrumented design).
    pub fn session(&self) -> &DebugSession {
        &self.session
    }

    fn online(&self) -> &OnlineReconfigurator {
        self.session.online().expect("driver always attaches a device")
    }

    /// CRC of the full device readback.
    pub fn readback_crc(&self) -> u64 {
        bitstream_crc(&self.online().readback())
    }

    /// CRC of the golden (oracle) specialization for `params` — what
    /// the device must hold after a committed turn, independent of any
    /// driver state.
    pub fn specialize_crc(&self, params: &pfdbg_util::BitVec) -> u64 {
        bitstream_crc(&self.online().scg().specialize(params))
    }

    /// One select turn: tick the device (SEUs strike), then apply the
    /// parameter vector transactionally. Never fails — a rolled-back
    /// commit is itself an observable outcome.
    pub fn select(&mut self, params: &pfdbg_util::BitVec) -> SelectFacts {
        let seu_flips = self.session.tick() as u64;
        match self.session.apply_params(params) {
            Ok(stats) => {
                let stats = stats.expect("driver always attaches a device");
                SelectFacts {
                    params: params.clone(),
                    outcome: SelectOutcome::Committed,
                    bits_changed: stats.bits_changed as u64,
                    frames_changed: stats.frames_changed as u64,
                    retries: stats.retries as u64,
                    degradations: stats.degradations as u64,
                    cache_hit: false,
                    seu_flips,
                    readback_crc: self.readback_crc(),
                }
            }
            Err(_) => SelectFacts {
                params: params.clone(),
                outcome: SelectOutcome::RolledBack,
                // Retry/degradation counts of a rolled-back commit are
                // not surfaced structurally by `try_apply`; rollback
                // facts compare on outcome, SEU flips, and readback CRC.
                bits_changed: 0,
                frames_changed: 0,
                retries: 0,
                degradations: 0,
                cache_hit: false,
                seu_flips,
                readback_crc: self.readback_crc(),
            },
        }
    }

    /// Replay a recorded deadline miss: the miss was a wall-clock event
    /// at the serve layer, and everything observable it did to the
    /// device was the between-turn tick — so that is what replays.
    pub fn deadline_miss(&mut self, params: &pfdbg_util::BitVec) -> SelectFacts {
        let seu_flips = self.session.tick() as u64;
        SelectFacts {
            params: params.clone(),
            outcome: SelectOutcome::DeadlineMiss,
            bits_changed: 0,
            frames_changed: 0,
            retries: 0,
            degradations: 0,
            cache_hit: false,
            seu_flips,
            readback_crc: self.readback_crc(),
        }
    }

    /// One scrub pass against the golden oracle for the session's
    /// current parameters.
    pub fn scrub(&mut self) -> Result<crate::record::ScrubFacts, String> {
        let report = self
            .session
            .online_mut()
            .expect("driver always attaches a device")
            .scrub(&mut self.scrubber)?;
        Ok(crate::record::ScrubFacts {
            frames_checked: report.frames_checked as u64,
            upset_frames: report.upset_frames as u64,
            upset_bits: report.upset_bits as u64,
            repaired_frames: report.repaired_frames as u64,
            failed_frames: report.failed_frames as u64,
            quarantined_frames: report.quarantined_frames as u64,
            readback_crc: self.readback_crc(),
        })
    }
}

/// A journaling wrapper over [`OnlineDriver`]: every operation's facts
/// are appended to the journal as they happen. This is what
/// `pfdbg record` drives.
pub struct Recorder {
    driver: OnlineDriver,
    writer: crate::journal::JournalWriter,
}

impl Recorder {
    /// Build the driver from `meta` and open a fresh journal at `path`.
    pub fn create(meta: &SessionMeta, path: &std::path::Path) -> Result<Recorder, String> {
        let mut meta = meta.clone();
        let driver = OnlineDriver::build(&meta)?;
        meta.n_params = driver.n_params();
        let writer = crate::journal::JournalWriter::create(path, &meta)?;
        Ok(Recorder { driver, writer })
    }

    /// One journaled select turn.
    pub fn select(&mut self, params: &pfdbg_util::BitVec) -> Result<SelectFacts, String> {
        let facts = self.driver.select(params);
        self.writer.append(&crate::record::JournalRecord::Select(facts.clone()))?;
        Ok(facts)
    }

    /// One journaled scrub pass.
    pub fn scrub(&mut self) -> Result<crate::record::ScrubFacts, String> {
        let facts = self.driver.scrub()?;
        self.writer.append(&crate::record::JournalRecord::Scrub(facts))?;
        Ok(facts)
    }

    /// PConf parameter count.
    pub fn n_params(&self) -> usize {
        self.driver.n_params()
    }

    /// The driver underneath.
    pub fn driver(&self) -> &OnlineDriver {
        &self.driver
    }

    /// Append the close record and sync; consumes the recorder.
    pub fn finish(mut self) -> Result<(), String> {
        self.writer.append(&crate::record::JournalRecord::Close)?;
        self.writer.sync()
    }
}
