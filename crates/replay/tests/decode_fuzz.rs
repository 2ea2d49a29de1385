//! Journal decoder fuzzing: arbitrary bytes, truncations and bit flips
//! of a committed corpus journal through `JournalRecord::decode` and
//! through `read_records`, framing included. Journals are read from
//! disk by `pfdbg replay`, by serve's restores and by its `replay`
//! verb. A frame checksum stops most flips, so some mutations re-seal
//! it to reach the record decoder behind it. Each input must decode or
//! give an error, never panic.

use pfdbg_replay::{read_records, JournalRecord};
use pfdbg_store::bytes::checksum;
use pfdbg_store::journal::{scan_journal_bytes, JOURNAL_HEADER_LEN, RECORD_FRAME_LEN};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

/// A corpus journal holding meta, select (committed and rolled-back),
/// scrub and close records.
fn journal_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/faulty-gen33.pfdj");
        std::fs::read(path).expect("corpus journal")
    })
}

/// `(payload start, payload length)` of every record frame.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN as usize;
    while pos < bytes.len() {
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        let start = pos + RECORD_FRAME_LEN as usize;
        out.push((start, len));
        pos = start + len;
    }
    out
}

fn next(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// One mutation of `bytes` per family: a truncation, a bit flip, junk
/// of any length, or an 8-byte word overwritten with an extreme value
/// (a length prefix, a count, a tag).
fn mutate(seed: &mut u64, family: usize, mut bytes: Vec<u8>) -> Vec<u8> {
    match family {
        0 => {
            bytes.truncate(next(seed) as usize % (bytes.len() + 1));
            bytes
        }
        1 if !bytes.is_empty() => {
            let bit = next(seed) as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        }
        2 => (0..next(seed) % 96).map(|_| next(seed) as u8).collect(),
        _ if bytes.len() >= 8 => {
            let at = next(seed) as usize % (bytes.len() - 7);
            let word = [0, 1, u32::MAX as u64, u64::MAX, 1 << 40][next(seed) as usize % 5];
            bytes[at..at + 8].copy_from_slice(&u64::to_le_bytes(word));
            bytes
        }
        _ => bytes,
    }
}

/// Decode one record payload; an error is a rejection, a panic fails.
fn decode(payload: &[u8]) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| JournalRecord::decode(payload)));
    prop_assert!(outcome.is_ok(), "decoding {:?} panicked", payload);
    Ok(())
}

/// Read a journal file; an error is a rejection, a panic fails.
fn read(bytes: &[u8], path: &Path) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| read_records(path)));
    prop_assert!(outcome.is_ok(), "reading a {}-byte journal panicked", bytes.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn every_mutated_record_decodes_or_errs(seed in any::<u64>(), family in 0usize..4) {
        let scan = scan_journal_bytes(journal_bytes()).unwrap();
        let mut seed = seed;
        let record = scan.records[next(&mut seed) as usize % scan.records.len()].clone();
        decode(&mutate(&mut seed, family, record))?;
    }

    /// Whole-file mutations, and (families 4–7) a record's payload
    /// mutated with its frame checksum re-sealed.
    #[test]
    fn every_mutated_journal_reads_or_errs(seed in any::<u64>(), family in 0usize..8) {
        let path = std::env::temp_dir()
            .join(format!("pfdbg-decode-fuzz-{}.pfdj", std::process::id()));
        let mut seed = seed;
        let mut bytes = journal_bytes().to_vec();
        let bytes = if family < 4 {
            mutate(&mut seed, family, bytes)
        } else {
            let all = frames(&bytes);
            let (start, len) = all[next(&mut seed) as usize % all.len()];
            let payload = bytes[start..start + len].to_vec();
            let mutated = mutate(&mut seed, family - 4, payload);
            let frame = start - RECORD_FRAME_LEN as usize;
            bytes[frame..frame + 8].copy_from_slice(&(mutated.len() as u64).to_le_bytes());
            bytes[frame + 8..start].copy_from_slice(&checksum(&mutated).to_le_bytes());
            bytes.splice(start..start + len, mutated);
            bytes
        };
        let result = read(&bytes, &path);
        std::fs::remove_file(&path).ok();
        result?;
    }
}

/// The unmutated journal reads: the mutations start from a good one.
#[test]
fn the_unmutated_journal_reads() {
    let path = std::env::temp_dir().join(format!("pfdbg-decode-good-{}.pfdj", std::process::id()));
    std::fs::write(&path, journal_bytes()).unwrap();
    let (records, torn) = read_records(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!torn && records.len() > 3, "{} records", records.len());
    assert!(records.iter().any(|r| matches!(r, JournalRecord::Scrub(_))));
}
