//! Journal record types and their binary codec.
//!
//! A session journal is a sequence of [`JournalRecord`]s framed by
//! `pfdbg-store`'s append-only journal format
//! ([`pfdbg_store::journal`]): the first record is always
//! [`JournalRecord::Meta`] (everything needed to rebuild the session —
//! design provenance, chaos configuration with seeds),
//! followed by one record per observable operation. Records hold the
//! turn's *inputs* (the parameter vector) and its *observable outputs*
//! (commit/rollback/deadline outcome, bits and frames changed, retry
//! and escalation counts, SEU flips, and a readback CRC of the whole
//! device) — never wall-clock times, which no replay can reproduce.

use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_pconf::{CommitPolicy, ScrubPolicy};
use pfdbg_store::bytes::{ByteReader, ByteWriter};
use pfdbg_util::BitVec;
use std::time::Duration;

/// How the recorded design can be rebuilt for a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignSpec {
    /// The design lives in the embedding process (a server compiled it
    /// from a file); the journal is not self-contained and must be
    /// replayed by an embedder holding the same engine.
    External,
    /// A `pfdbg-circuits` synthetic design, reproducible from its
    /// generator parameters.
    Generated {
        /// Primary inputs.
        n_inputs: usize,
        /// Primary outputs.
        n_outputs: usize,
        /// Internal gates.
        n_gates: usize,
        /// Logic depth target.
        depth: usize,
        /// Latches.
        n_latches: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A named benchmark from the `pfdbg-circuits` suite.
    Bench {
        /// Benchmark name (as accepted by `pfdbg_circuits::build`).
        name: String,
    },
    /// A netlist file on disk (`.v` / `.blif`), replayable as long as
    /// the file still exists at the recorded path.
    File {
        /// Path the design was loaded from.
        path: String,
    },
}

/// The chaos configuration a session ran under — transport faults,
/// SEUs, and the commit/scrub policies, seeds included. Everything a
/// replay needs to reproduce the exact fault pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// ICAP transport fault injection (None = reliable writes).
    pub fault: Option<IcapFaultConfig>,
    /// Between-turn single-event upsets (None = inert memory).
    pub seu: Option<SeuConfig>,
    /// Commit retry budget per escalation level.
    pub max_retries: u32,
    /// Minimum retry backoff, nanoseconds.
    pub backoff_ns: u64,
    /// Backoff cap, nanoseconds.
    pub backoff_cap_ns: u64,
    /// Modeled stall penalty, nanoseconds.
    pub stall_penalty_ns: u64,
    /// Jitter-generator seed of the commit policy.
    pub jitter_seed: u64,
    /// Scrub passes a frame may fail repair before quarantine.
    pub max_repair_attempts: u32,
}

impl ChaosSpec {
    /// A reliable-device spec with default policies.
    pub fn reliable() -> ChaosSpec {
        ChaosSpec::from_parts(None, None, &CommitPolicy::default(), &ScrubPolicy::default())
    }

    /// Capture a running configuration.
    pub fn from_parts(
        fault: Option<IcapFaultConfig>,
        seu: Option<SeuConfig>,
        policy: &CommitPolicy,
        scrub: &ScrubPolicy,
    ) -> ChaosSpec {
        ChaosSpec {
            fault,
            seu,
            max_retries: policy.max_retries,
            backoff_ns: policy.backoff.as_nanos() as u64,
            backoff_cap_ns: policy.backoff_cap.as_nanos() as u64,
            stall_penalty_ns: policy.stall_penalty.as_nanos() as u64,
            jitter_seed: policy.jitter_seed,
            max_repair_attempts: scrub.max_repair_attempts,
        }
    }

    /// Rebuild the commit policy with an explicit jitter seed (callers
    /// substitute the per-session derived seed here).
    pub fn commit_policy(&self, jitter_seed: u64) -> CommitPolicy {
        CommitPolicy {
            max_retries: self.max_retries,
            backoff: Duration::from_nanos(self.backoff_ns),
            backoff_cap: Duration::from_nanos(self.backoff_cap_ns),
            jitter_seed,
            stall_penalty: Duration::from_nanos(self.stall_penalty_ns),
        }
    }

    /// Rebuild the scrub policy (repairs commit under the same jittered
    /// policy as turns).
    pub fn scrub_policy(&self, jitter_seed: u64) -> ScrubPolicy {
        ScrubPolicy {
            max_repair_attempts: self.max_repair_attempts,
            commit: self.commit_policy(jitter_seed),
        }
    }
}

/// The journal's opening record: everything needed to rebuild the
/// session's engine and chaos environment.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Session name. When `derive_seeds` is set, the per-session fault,
    /// SEU and jitter seeds are derived from the configured base seeds
    /// and this name exactly like the serve layer does.
    pub session: String,
    /// Whether channel/jitter seeds are salted with the session name
    /// (serve journals) or used raw (standalone recordings).
    pub derive_seeds: bool,
    /// How to rebuild the design.
    pub design: DesignSpec,
    /// Trace ports instrumented.
    pub ports: usize,
    /// Signal coverage per port.
    pub coverage: usize,
    /// LUT input count of the mapping.
    pub k: usize,
    /// PConf parameter count — a cheap consistency check that the
    /// rebuilt design matches the recorded one.
    pub n_params: usize,
    /// Chaos environment, seeds included.
    pub chaos: ChaosSpec,
    /// Informational only, never read back: `pfdbg-serve` writes 1 and
    /// `pfdbg record` writes 0. The SCG evaluates serially; the field
    /// stays so that every existing journal still reads.
    pub threads: usize,
    /// Free-form provenance note.
    pub note: String,
}

/// How one select turn ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectOutcome {
    /// The commit verified and session state advanced.
    Committed,
    /// The retry/escalation budget was exhausted; state rolled back and
    /// the next commit resyncs every frame.
    RolledBack,
    /// The deadline gate fired before any frame was written. Replayed
    /// as a tick-only step: the miss itself was a wall-clock event.
    DeadlineMiss,
}

impl SelectOutcome {
    /// Stable wire/debug name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SelectOutcome::Committed => "committed",
            SelectOutcome::RolledBack => "rolled_back",
            SelectOutcome::DeadlineMiss => "deadline_miss",
        }
    }
}

/// Observable facts of one select turn.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectFacts {
    /// The requested parameter vector (the turn's input).
    pub params: BitVec,
    /// How the turn ended.
    pub outcome: SelectOutcome,
    /// Configuration bits changed (committed turns).
    pub bits_changed: u64,
    /// Frames rewritten via DPR (committed turns).
    pub frames_changed: u64,
    /// Frame writes retried.
    pub retries: u64,
    /// Escalation levels degraded through.
    pub degradations: u64,
    /// Whether the shared LRU served the specialization. Informational
    /// only: the cache is shared across sessions, so this depends on
    /// interleaving and is never compared during replay.
    pub cache_hit: bool,
    /// Configuration bits the between-turn tick flipped (SEUs).
    pub seu_flips: u64,
    /// CRC of the full device readback after the turn.
    pub readback_crc: u64,
}

/// Observable facts of one scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubFacts {
    /// Frames read back and compared.
    pub frames_checked: u64,
    /// Frames that diverged from the golden oracle.
    pub upset_frames: u64,
    /// Bits those frames diverged by.
    pub upset_bits: u64,
    /// Frames repaired back to golden.
    pub repaired_frames: u64,
    /// Repairs that failed this pass.
    pub failed_frames: u64,
    /// Frames newly quarantined.
    pub quarantined_frames: u64,
    /// CRC of the full device readback after the pass.
    pub readback_crc: u64,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Session provenance; always the first record.
    Meta(SessionMeta),
    /// One select turn.
    Select(SelectFacts),
    /// One scrub pass.
    Scrub(ScrubFacts),
    /// Clean end of session; restore treats the journal as spent.
    Close,
}

const TAG_META: u8 = 1;
const TAG_SELECT: u8 = 2;
const TAG_SCRUB: u8 = 3;
const TAG_CLOSE: u8 = 4;

const DESIGN_EXTERNAL: u8 = 0;
const DESIGN_GENERATED: u8 = 1;
const DESIGN_BENCH: u8 = 2;
const DESIGN_FILE: u8 = 3;

const OUTCOME_COMMITTED: u8 = 0;
const OUTCOME_ROLLED_BACK: u8 = 1;
const OUTCOME_DEADLINE_MISS: u8 = 2;

impl JournalRecord {
    /// Encode to the journal's record payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            JournalRecord::Meta(m) => {
                w.u8(TAG_META);
                w.str(&m.session);
                w.u8(m.derive_seeds as u8);
                match &m.design {
                    DesignSpec::External => w.u8(DESIGN_EXTERNAL),
                    DesignSpec::Generated {
                        n_inputs,
                        n_outputs,
                        n_gates,
                        depth,
                        n_latches,
                        seed,
                    } => {
                        w.u8(DESIGN_GENERATED);
                        w.size(*n_inputs);
                        w.size(*n_outputs);
                        w.size(*n_gates);
                        w.size(*depth);
                        w.size(*n_latches);
                        w.u64(*seed);
                    }
                    DesignSpec::Bench { name } => {
                        w.u8(DESIGN_BENCH);
                        w.str(name);
                    }
                    DesignSpec::File { path } => {
                        w.u8(DESIGN_FILE);
                        w.str(path);
                    }
                }
                w.size(m.ports);
                w.size(m.coverage);
                w.size(m.k);
                w.size(m.n_params);
                match &m.chaos.fault {
                    None => w.u8(0),
                    Some(f) => {
                        w.u8(1);
                        w.u64(f.write_error_rate.to_bits());
                        w.u64(f.stall_rate.to_bits());
                        w.u64(f.corrupt_rate.to_bits());
                        w.u64(f.seed);
                    }
                }
                match &m.chaos.seu {
                    None => w.u8(0),
                    Some(s) => {
                        w.u8(1);
                        w.u64(s.rate.to_bits());
                        w.size(s.burst);
                        w.u64(s.seed);
                    }
                }
                w.u32(m.chaos.max_retries);
                w.u64(m.chaos.backoff_ns);
                w.u64(m.chaos.backoff_cap_ns);
                w.u64(m.chaos.stall_penalty_ns);
                w.u64(m.chaos.jitter_seed);
                w.u32(m.chaos.max_repair_attempts);
                w.size(m.threads);
                w.str(&m.note);
            }
            JournalRecord::Select(s) => {
                w.u8(TAG_SELECT);
                w.u64_list(s.params.words());
                w.size(s.params.len());
                w.u8(match s.outcome {
                    SelectOutcome::Committed => OUTCOME_COMMITTED,
                    SelectOutcome::RolledBack => OUTCOME_ROLLED_BACK,
                    SelectOutcome::DeadlineMiss => OUTCOME_DEADLINE_MISS,
                });
                w.u64(s.bits_changed);
                w.u64(s.frames_changed);
                w.u64(s.retries);
                w.u64(s.degradations);
                w.u8(s.cache_hit as u8);
                w.u64(s.seu_flips);
                w.u64(s.readback_crc);
            }
            JournalRecord::Scrub(s) => {
                w.u8(TAG_SCRUB);
                w.u64(s.frames_checked);
                w.u64(s.upset_frames);
                w.u64(s.upset_bits);
                w.u64(s.repaired_frames);
                w.u64(s.failed_frames);
                w.u64(s.quarantined_frames);
                w.u64(s.readback_crc);
            }
            JournalRecord::Close => w.u8(TAG_CLOSE),
        }
        w.into_bytes()
    }

    /// Decode one record payload.
    pub fn decode(bytes: &[u8]) -> Result<JournalRecord, String> {
        let mut r = ByteReader::new(bytes);
        let rec = match r.u8()? {
            TAG_META => {
                let session = r.str()?;
                let derive_seeds = r.u8()? != 0;
                let design = match r.u8()? {
                    DESIGN_EXTERNAL => DesignSpec::External,
                    DESIGN_GENERATED => DesignSpec::Generated {
                        n_inputs: r.size()?,
                        n_outputs: r.size()?,
                        n_gates: r.size()?,
                        depth: r.size()?,
                        n_latches: r.size()?,
                        seed: r.u64()?,
                    },
                    DESIGN_BENCH => DesignSpec::Bench { name: r.str()? },
                    DESIGN_FILE => DesignSpec::File { path: r.str()? },
                    t => return Err(format!("unknown design spec tag {t}")),
                };
                let ports = r.size()?;
                let coverage = r.size()?;
                let k = r.size()?;
                let n_params = r.size()?;
                let fault = match r.u8()? {
                    0 => None,
                    _ => Some(IcapFaultConfig {
                        write_error_rate: f64::from_bits(r.u64()?),
                        stall_rate: f64::from_bits(r.u64()?),
                        corrupt_rate: f64::from_bits(r.u64()?),
                        seed: r.u64()?,
                    }),
                };
                let seu = match r.u8()? {
                    0 => None,
                    _ => Some(SeuConfig {
                        rate: f64::from_bits(r.u64()?),
                        burst: r.size()?,
                        seed: r.u64()?,
                    }),
                };
                let chaos = ChaosSpec {
                    fault,
                    seu,
                    max_retries: r.u32()?,
                    backoff_ns: r.u64()?,
                    backoff_cap_ns: r.u64()?,
                    stall_penalty_ns: r.u64()?,
                    jitter_seed: r.u64()?,
                    max_repair_attempts: r.u32()?,
                };
                JournalRecord::Meta(SessionMeta {
                    session,
                    derive_seeds,
                    design,
                    ports,
                    coverage,
                    k,
                    n_params,
                    chaos,
                    threads: r.size()?,
                    note: r.str()?,
                })
            }
            TAG_SELECT => {
                let words = r.u64_list()?;
                let len = r.size()?;
                let params = BitVec::from_words(words, len)?;
                let outcome = match r.u8()? {
                    OUTCOME_COMMITTED => SelectOutcome::Committed,
                    OUTCOME_ROLLED_BACK => SelectOutcome::RolledBack,
                    OUTCOME_DEADLINE_MISS => SelectOutcome::DeadlineMiss,
                    t => return Err(format!("unknown select outcome tag {t}")),
                };
                JournalRecord::Select(SelectFacts {
                    params,
                    outcome,
                    bits_changed: r.u64()?,
                    frames_changed: r.u64()?,
                    retries: r.u64()?,
                    degradations: r.u64()?,
                    cache_hit: r.u8()? != 0,
                    seu_flips: r.u64()?,
                    readback_crc: r.u64()?,
                })
            }
            TAG_SCRUB => JournalRecord::Scrub(ScrubFacts {
                frames_checked: r.u64()?,
                upset_frames: r.u64()?,
                upset_bits: r.u64()?,
                repaired_frames: r.u64()?,
                failed_frames: r.u64()?,
                quarantined_frames: r.u64()?,
                readback_crc: r.u64()?,
            }),
            TAG_CLOSE => JournalRecord::Close,
            t => return Err(format!("unknown journal record tag {t}")),
        };
        r.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SessionMeta {
        SessionMeta {
            session: "s-1".into(),
            derive_seeds: true,
            design: DesignSpec::Generated {
                n_inputs: 6,
                n_outputs: 4,
                n_gates: 24,
                depth: 4,
                n_latches: 2,
                seed: 7,
            },
            ports: 2,
            coverage: 1,
            k: 4,
            n_params: 8,
            chaos: ChaosSpec::from_parts(
                Some(IcapFaultConfig::uniform(0.05, 11)),
                Some(SeuConfig { rate: 0.01, burst: 2, seed: 13 }),
                &CommitPolicy { jitter_seed: 17, ..CommitPolicy::default() },
                &ScrubPolicy::default(),
            ),
            threads: 8,
            note: "unit".into(),
        }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = vec![
            JournalRecord::Meta(meta()),
            JournalRecord::Select(SelectFacts {
                params: BitVec::from_bits([true, false, true, true, false, false, true, false]),
                outcome: SelectOutcome::Committed,
                bits_changed: 9,
                frames_changed: 3,
                retries: 1,
                degradations: 0,
                cache_hit: true,
                seu_flips: 2,
                readback_crc: 0xDEAD_BEEF_CAFE_F00D,
            }),
            JournalRecord::Select(SelectFacts {
                params: BitVec::zeros(8),
                outcome: SelectOutcome::DeadlineMiss,
                bits_changed: 0,
                frames_changed: 0,
                retries: 0,
                degradations: 0,
                cache_hit: false,
                seu_flips: 0,
                readback_crc: 1,
            }),
            JournalRecord::Scrub(ScrubFacts {
                frames_checked: 40,
                upset_frames: 2,
                upset_bits: 3,
                repaired_frames: 2,
                failed_frames: 0,
                quarantined_frames: 0,
                readback_crc: 42,
            }),
            JournalRecord::Close,
        ];
        for rec in &records {
            let decoded = JournalRecord::decode(&rec.encode()).unwrap();
            assert_eq!(&decoded, rec);
        }
    }

    #[test]
    fn decode_rejects_trailing_and_unknown_bytes() {
        let mut bytes = JournalRecord::Close.encode();
        bytes.push(0);
        assert!(JournalRecord::decode(&bytes).is_err(), "trailing byte must fail");
        assert!(JournalRecord::decode(&[99]).is_err(), "unknown tag must fail");
        assert!(JournalRecord::decode(&[]).is_err(), "empty payload must fail");
    }
}
