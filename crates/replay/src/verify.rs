//! Replay verification: re-drive a journal against a fresh session and
//! diff every observable fact bit-for-bit.

use crate::driver::OnlineDriver;
use crate::journal::meta_of;
use crate::record::{JournalRecord, ScrubFacts, SelectFacts, SelectOutcome};
use std::path::Path;

/// The first point where a replay stopped matching its journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the diverging record within the journal (meta = 0).
    pub record: usize,
    /// Turn number at the divergence (selects counted so far).
    pub turn: u64,
    /// Which fact diverged (`outcome`, `bits_changed`, `readback_crc`, ...).
    pub field: String,
    /// The journaled value.
    pub expected: String,
    /// The re-driven value.
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {} (turn {}): {} diverged — journal {}, replay {}",
            self.record, self.turn, self.field, self.expected, self.actual
        )
    }
}

/// The outcome of one verification run.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Session name from the journal meta.
    pub session: String,
    /// Records examined (including meta and close).
    pub records: usize,
    /// Select turns re-driven.
    pub turns: usize,
    /// Scrub passes re-driven.
    pub scrubs: usize,
    /// Whether the journal had a torn tail (skipped, not fatal).
    pub torn: bool,
    /// The first divergence, if any. `None` = bit-identical replay.
    pub divergence: Option<Divergence>,
}

impl VerifyReport {
    /// True when the replay matched the journal bit-for-bit.
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Verify a journal file.
pub fn verify_path(path: &Path) -> Result<VerifyReport, String> {
    let (records, torn) = crate::journal::read_records(path)?;
    let mut report = verify_records(&records)?;
    report.torn = torn;
    Ok(report)
}

/// Verify already-decoded records (see [`verify_path`]).
pub fn verify_records(records: &[JournalRecord]) -> Result<VerifyReport, String> {
    let meta = meta_of(records)?;
    let mut driver = OnlineDriver::build(meta)?;
    Ok(verify_with_driver(&mut driver, records, &meta.session))
}

/// Re-drive `records` through an existing driver and diff every fact.
/// Stops at the first divergence (state is unreliable beyond it).
pub fn verify_with_driver(
    driver: &mut OnlineDriver,
    records: &[JournalRecord],
    session: &str,
) -> VerifyReport {
    let mut report = VerifyReport {
        session: session.to_string(),
        records: records.len(),
        turns: 0,
        scrubs: 0,
        torn: false,
        divergence: None,
    };
    for (i, rec) in records.iter().enumerate() {
        match rec {
            JournalRecord::Meta(_) if i == 0 => {}
            JournalRecord::Meta(_) => {
                report.divergence = Some(Divergence {
                    record: i,
                    turn: report.turns as u64,
                    field: "record".into(),
                    expected: "select/scrub/close".into(),
                    actual: "second meta record".into(),
                });
            }
            JournalRecord::Select(expected) => {
                let actual = match expected.outcome {
                    SelectOutcome::DeadlineMiss => driver.deadline_miss(&expected.params),
                    _ => driver.select(&expected.params),
                };
                report.divergence = diff_select(i, report.turns as u64, expected, &actual);
                report.turns += 1;
            }
            JournalRecord::Scrub(expected) => {
                report.divergence = match driver.scrub() {
                    Ok(actual) => diff_scrub(i, report.turns as u64, expected, &actual),
                    Err(e) => Some(Divergence {
                        record: i,
                        turn: report.turns as u64,
                        field: "scrub".into(),
                        expected: "a scrub report".into(),
                        actual: format!("error: {e}"),
                    }),
                };
                report.scrubs += 1;
            }
            JournalRecord::Close => break,
        }
        if report.divergence.is_some() {
            break;
        }
    }
    report
}

/// Diff one select turn's facts. The comparison set is exactly the
/// deterministic one: outcome kind, SEU flips, readback CRC always;
/// bit/frame/retry/degradation counts when the turn committed.
/// `cache_hit` is interleaving-dependent (shared LRU) and wall-times
/// are unreproducible — neither is compared. Rolled-back turns do not
/// surface retry counts structurally, so they compare on outcome,
/// flips, and CRC (the post-rollback device state).
pub fn diff_select(
    record: usize,
    turn: u64,
    expected: &SelectFacts,
    actual: &SelectFacts,
) -> Option<Divergence> {
    let mk = |field: &str, e: String, a: String| {
        Some(Divergence { record, turn, field: field.into(), expected: e, actual: a })
    };
    if expected.outcome != actual.outcome {
        return mk("outcome", expected.outcome.as_str().into(), actual.outcome.as_str().into());
    }
    if expected.seu_flips != actual.seu_flips {
        return mk("seu_flips", expected.seu_flips.to_string(), actual.seu_flips.to_string());
    }
    if expected.outcome == SelectOutcome::Committed {
        if expected.bits_changed != actual.bits_changed {
            return mk(
                "bits_changed",
                expected.bits_changed.to_string(),
                actual.bits_changed.to_string(),
            );
        }
        if expected.frames_changed != actual.frames_changed {
            return mk(
                "frames_changed",
                expected.frames_changed.to_string(),
                actual.frames_changed.to_string(),
            );
        }
        if expected.retries != actual.retries {
            return mk("retries", expected.retries.to_string(), actual.retries.to_string());
        }
        if expected.degradations != actual.degradations {
            return mk(
                "degradations",
                expected.degradations.to_string(),
                actual.degradations.to_string(),
            );
        }
    }
    if expected.readback_crc != actual.readback_crc {
        return mk(
            "readback_crc",
            format!("{:#018x}", expected.readback_crc),
            format!("{:#018x}", actual.readback_crc),
        );
    }
    None
}

/// Diff one scrub pass's facts (all fields are deterministic).
pub fn diff_scrub(
    record: usize,
    turn: u64,
    expected: &ScrubFacts,
    actual: &ScrubFacts,
) -> Option<Divergence> {
    let fields: [(&str, u64, u64); 7] = [
        ("frames_checked", expected.frames_checked, actual.frames_checked),
        ("upset_frames", expected.upset_frames, actual.upset_frames),
        ("upset_bits", expected.upset_bits, actual.upset_bits),
        ("repaired_frames", expected.repaired_frames, actual.repaired_frames),
        ("failed_frames", expected.failed_frames, actual.failed_frames),
        ("quarantined_frames", expected.quarantined_frames, actual.quarantined_frames),
        ("readback_crc", expected.readback_crc, actual.readback_crc),
    ];
    for (name, e, a) in fields {
        if e != a {
            return Some(Divergence {
                record,
                turn,
                field: format!("scrub.{name}"),
                expected: e.to_string(),
                actual: a.to_string(),
            });
        }
    }
    None
}
