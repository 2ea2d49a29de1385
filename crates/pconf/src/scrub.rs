//! Configuration-memory scrubbing: SEU detection and self-repair
//! against the PConf golden oracle.
//!
//! PR 4's transactional commit guarantees that what a turn *writes* is
//! what landed. Nothing, however, defends configuration memory
//! *between* turns: a single-event upset silently corrupts a frame and
//! every subsequent trace readout of the mux network lies. Because the
//! generalized bitstream is a set of Boolean functions of the
//! parameters, this repo uniquely has a cheap golden oracle — the
//! expected frame contents for the current parameter vector are
//! re-derivable at any time. [`Scrubber::scrub_with_scg`] derives them
//! the way a turn's commit does: one memoized sweep of the SCG for the
//! packed tunable words, each golden frame built from the shared base
//! with those words laid over it, and no configuration built.
//!
//! A [`Scrubber`] walks every frame through the channel's readback,
//! diffs it against the golden frame, and classifies divergence:
//!
//! * **Transient SEU** — the repair write verifies and the frame heals;
//!   only the upset counters remember it.
//! * **Persistent / stuck** — the frame fails its repair for
//!   [`ScrubPolicy::max_repair_attempts`] consecutive passes and is
//!   **quarantined**: later passes skip it, [`Scrubber::health`] turns
//!   [`ScrubHealth::Degraded`], and [`crate::Session::scrub`] arms the
//!   session's resync rather than serve trace data through a frame
//!   that refuses to heal.

use crate::icap::{
    frame_len_bits, frame_words_into, write_frame_verified, Backoff, CommitPolicy, CommitStats,
    FrameBuf, FrameSource, IcapChannel,
};
use crate::session::{frame_starts, PackedFrames};
use crate::Scg;
use pfdbg_arch::{Bitstream, IcapModel};
use pfdbg_obs::{LazyCounter, LazyHistogram};
use pfdbg_util::{BitVec, FxHashMap};
use std::collections::BTreeSet;
use std::time::Duration;

// Always-on scrub telemetry for the serve `metrics` verb and the
// `pfdbg top` dashboard — live whether or not profiling is enabled.
static PASSES: LazyCounter = LazyCounter::new("scrub.passes");
static UPSET_FRAMES: LazyCounter = LazyCounter::new("scrub.upset_frames");
static UPSET_BITS: LazyCounter = LazyCounter::new("scrub.upset_bits");
static REPAIRED_FRAMES: LazyCounter = LazyCounter::new("scrub.repaired_frames");
static QUARANTINED_FRAMES: LazyCounter = LazyCounter::new("scrub.quarantined_frames");
/// Modeled on-device time per scrub pass (readbacks + repair writes).
static PASS_US: LazyHistogram = LazyHistogram::new("scrub.pass_us");

/// When to give up on a frame and how hard to try repairing it.
#[derive(Debug, Clone, Copy)]
pub struct ScrubPolicy {
    /// Consecutive scrub passes a frame may fail its repair before it
    /// is declared stuck and quarantined.
    pub max_repair_attempts: u32,
    /// Write/verify retry policy for each repair (a repair is a
    /// single-frame commit through the same verified-write path as
    /// [`crate::icap::commit_frames`]).
    pub commit: CommitPolicy,
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        ScrubPolicy { max_repair_attempts: 3, commit: CommitPolicy::default() }
    }
}

/// The verdict [`Scrubber::health`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubHealth {
    /// No quarantined frames: every frame either matched the golden
    /// oracle on the last pass or was repaired back to it.
    Clean,
    /// At least one frame refused to heal and is quarantined; its
    /// content is untrusted and so is any trace data routed through it.
    Degraded,
}

impl ScrubHealth {
    /// Wire-friendly lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScrubHealth::Clean => "clean",
            ScrubHealth::Degraded => "degraded",
        }
    }
}

/// What one scrub pass found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Frames read back and compared (quarantined frames are skipped).
    pub frames_checked: usize,
    /// Frames that diverged from the golden oracle.
    pub upset_frames: usize,
    /// Total bits those frames diverged by.
    pub upset_bits: usize,
    /// Divergent frames whose repair write verified.
    pub repaired_frames: usize,
    /// Divergent frames whose repair failed this pass (still below the
    /// quarantine threshold).
    pub failed_frames: usize,
    /// Frames newly quarantined this pass.
    pub quarantined_frames: usize,
    /// Modeled port time the pass spent (readbacks, repair writes,
    /// verification, backoff).
    pub scrub_time: Duration,
}

/// Lifetime totals across every pass of one [`Scrubber`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTotals {
    /// Scrub passes completed.
    pub passes: u64,
    /// Divergent frames detected (a frame upset in two passes counts
    /// twice — each detection is a distinct upset event).
    pub upset_frames: u64,
    /// Divergent bits detected.
    pub upset_bits: u64,
    /// Repairs that verified.
    pub repaired_frames: u64,
    /// Repairs that failed.
    pub failed_repairs: u64,
    /// Modeled port time spent scrubbing.
    pub scrub_time: Duration,
}

/// Walks configuration frames, diffs them against the golden oracle,
/// repairs transient upsets, and quarantines frames that refuse to
/// heal. One scrubber per session/device — it carries the per-frame
/// fail streaks and the quarantine set across passes.
pub struct Scrubber {
    policy: ScrubPolicy,
    /// Consecutive failed repair attempts per frame; cleared the moment
    /// a frame verifies (either by repair or by matching golden).
    fail_streak: FxHashMap<usize, u32>,
    quarantined: BTreeSet<usize>,
    totals: ScrubTotals,
}

impl Scrubber {
    /// A scrubber with no history.
    pub fn new(policy: ScrubPolicy) -> Self {
        Scrubber {
            policy,
            fail_streak: FxHashMap::default(),
            quarantined: BTreeSet::new(),
            totals: ScrubTotals::default(),
        }
    }

    /// The policy this scrubber runs under.
    pub fn policy(&self) -> &ScrubPolicy {
        &self.policy
    }

    /// Frames declared stuck — skipped by every later pass.
    pub fn quarantined(&self) -> &BTreeSet<usize> {
        &self.quarantined
    }

    /// Lifetime totals across all passes.
    pub fn totals(&self) -> ScrubTotals {
        self.totals
    }

    /// [`ScrubHealth::Degraded`] iff any frame is quarantined.
    pub fn health(&self) -> ScrubHealth {
        if self.quarantined.is_empty() {
            ScrubHealth::Clean
        } else {
            ScrubHealth::Degraded
        }
    }

    /// One scrub pass against an explicit golden bitstream: read every
    /// non-quarantined frame back, repair divergence, update streaks
    /// and the quarantine set. Errors only on a geometry mismatch
    /// between `golden` and the channel. The reference form of
    /// [`Scrubber::scrub_with_scg`], which the tests hold it to.
    pub fn scrub(
        &mut self,
        channel: &mut dyn IcapChannel,
        icap: &IcapModel,
        golden: &Bitstream,
    ) -> Result<ScrubReport, String> {
        check_geometry(golden, channel)?;
        Ok(self.pass(channel, icap, golden))
    }

    /// One scrub pass with the golden frames evaluated from the PConf
    /// for `params` — the oracle form every caller with an [`Scg`]
    /// should use. One memoized sweep gives the packed tunable words;
    /// each golden frame is the shared base with its range of those
    /// words laid over it, built by the same frame source a turn's
    /// commit writes from. The frame ranges come from one merge walk
    /// over the tunable list. Equal, report for report and write for
    /// write, to [`Scrubber::scrub`] against [`Scg::try_specialize`] of
    /// `params`; errors on a wrong parameter count or a geometry
    /// mismatch.
    pub fn scrub_with_scg(
        &mut self,
        channel: &mut dyn IcapChannel,
        icap: &IcapModel,
        scg: &Scg,
        params: &BitVec,
    ) -> Result<ScrubReport, String> {
        let mut packed = BitVec::new();
        scg.sweep(params, &mut packed)?;
        let gbs = scg.generalized();
        check_geometry(&gbs.base, channel)?;
        let starts = frame_starts(&gbs.tunable, channel.frame_bits(), channel.n_frames());
        let golden = PackedFrames {
            base: &gbs.base,
            tunable: &gbs.tunable,
            starts: &starts,
            packed: &packed,
        };
        Ok(self.pass(channel, icap, &golden))
    }

    /// The pass itself, against any source of golden frames of the
    /// channel's geometry.
    fn pass(
        &mut self,
        channel: &mut dyn IcapChannel,
        icap: &IcapModel,
        golden: &dyn FrameSource,
    ) -> ScrubReport {
        let _s = pfdbg_obs::span("scrub.pass");
        let frame_bits = channel.frame_bits();
        let n_bits = channel.n_bits();
        // Same per-frame cost model as the commit engine: one frame
        // through the port minus the one-off command overhead.
        let readback_cost =
            icap.partial_reconfig(1, frame_bits) - icap.command_overhead - icap.per_frame_overhead;
        let mut report = ScrubReport::default();
        // One set of frame-word buffers serves the whole pass: golden
        // extraction, readback, and any repair writes all fill in place.
        let mut want: Vec<u64> = Vec::new();
        let mut got: Vec<u64> = Vec::new();
        let mut buf = FrameBuf::default();
        for frame in 0..channel.n_frames() {
            if self.quarantined.contains(&frame) {
                continue;
            }
            report.frames_checked += 1;
            report.scrub_time += readback_cost;
            golden.frame_into(frame_bits, frame, &mut want);
            channel.read_frame_into(frame, &mut got);
            if got == want {
                self.fail_streak.remove(&frame);
                continue;
            }
            report.upset_frames += 1;
            report.upset_bits += diff_bits(&got, &want, frame_len_bits(n_bits, frame_bits, frame));
            // Repair: a single-frame verified write, salted per frame
            // so repairs within a pass do not share a backoff schedule.
            let mut cstats = CommitStats::default();
            let mut backoff = Backoff::new(&self.policy.commit, frame as u64 + 1);
            let healed = write_frame_verified(
                channel,
                icap,
                golden,
                frame,
                &self.policy.commit,
                &mut backoff,
                &mut cstats,
                &mut buf,
            );
            report.scrub_time += cstats.transfer_time + cstats.verify_time;
            if healed {
                report.repaired_frames += 1;
                self.fail_streak.remove(&frame);
                REPAIRED_FRAMES.add(1);
            } else {
                report.failed_frames += 1;
                let streak = self.fail_streak.entry(frame).or_insert(0);
                *streak += 1;
                if *streak >= self.policy.max_repair_attempts {
                    self.quarantined.insert(frame);
                    report.quarantined_frames += 1;
                    QUARANTINED_FRAMES.add(1);
                }
            }
        }
        self.totals.passes += 1;
        self.totals.upset_frames += report.upset_frames as u64;
        self.totals.upset_bits += report.upset_bits as u64;
        self.totals.repaired_frames += report.repaired_frames as u64;
        self.totals.failed_repairs += report.failed_frames as u64;
        self.totals.scrub_time += report.scrub_time;
        PASSES.add(1);
        UPSET_FRAMES.add(report.upset_frames as u64);
        UPSET_BITS.add(report.upset_bits as u64);
        PASS_US.record_us(report.scrub_time.as_secs_f64() * 1e6);
        pfdbg_obs::gauge_set("scrub.pass_us_last", report.scrub_time.as_secs_f64() * 1e6);
        report
    }

    /// The frames this scrubber vouches for that in fact diverge from
    /// `golden` — the "undetected divergence" probe of the acceptance
    /// suite. Quarantined frames are excluded (the scrubber explicitly
    /// does *not* vouch for them); an empty result means every frame
    /// reported clean is bit-identical to the golden oracle.
    pub fn undetected_divergence(
        &self,
        channel: &dyn IcapChannel,
        golden: &Bitstream,
    ) -> Vec<usize> {
        let frame_bits = channel.frame_bits();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        (0..channel.n_frames())
            .filter(|&frame| {
                if self.quarantined.contains(&frame) {
                    return false;
                }
                channel.read_frame_into(frame, &mut got);
                frame_words_into(golden, frame_bits, frame, &mut want);
                got != want
            })
            .collect()
    }
}

/// A golden configuration must cover exactly the bits behind the port.
fn check_geometry(golden: &Bitstream, channel: &dyn IcapChannel) -> Result<(), String> {
    if golden.len() != channel.n_bits() {
        return Err(format!(
            "golden bitstream is {} bits but the device holds {}",
            golden.len(),
            channel.n_bits()
        ));
    }
    Ok(())
}

/// Hamming distance between two packed frames of `len_bits` bits.
fn diff_bits(a: &[u64], b: &[u64], len_bits: usize) -> usize {
    (0..len_bits.div_ceil(64))
        .map(|w| {
            let mask = if (w + 1) * 64 <= len_bits { !0u64 } else { (1u64 << (len_bits % 64)) - 1 };
            let x = a.get(w).copied().unwrap_or(0) & mask;
            let y = b.get(w).copied().unwrap_or(0) & mask;
            (x ^ y).count_ones() as usize
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icap::{frame_words, readback_all, IcapError, MemoryIcap};
    use pfdbg_util::BitVec;

    fn stream(n: usize, ones: &[usize]) -> Bitstream {
        let mut b = Bitstream::from_bits(BitVec::zeros(n));
        for &i in ones {
            b.set(i, true);
        }
        b
    }

    #[test]
    fn clean_device_scrubs_clean() {
        let golden = stream(300, &[1, 200]);
        let mut ch = MemoryIcap::new(golden.clone(), 128);
        let mut s = Scrubber::new(ScrubPolicy::default());
        let rep = s.scrub(&mut ch, &IcapModel::virtex5(), &golden).unwrap();
        assert_eq!(rep.frames_checked, 3);
        assert_eq!(rep.upset_frames, 0);
        assert_eq!(s.health(), ScrubHealth::Clean);
        assert!(rep.scrub_time > Duration::ZERO, "readback time must be accounted");
        assert!(s.undetected_divergence(&ch, &golden).is_empty());
    }

    #[test]
    fn transient_upsets_are_detected_and_repaired() {
        let golden = stream(300, &[1, 200]);
        let mut ch = MemoryIcap::new(golden.clone(), 128);
        // Upset two frames: one bit in frame 0, two bits in frame 2.
        ch.write_frame(0, &{
            let mut w = frame_words(&golden, 128, 0);
            w[0] ^= 1 << 7;
            w
        })
        .unwrap();
        ch.write_frame(2, &{
            let mut w = frame_words(&golden, 128, 2);
            w[0] ^= 0b11;
            w
        })
        .unwrap();
        let mut s = Scrubber::new(ScrubPolicy::default());
        let rep = s.scrub(&mut ch, &IcapModel::virtex5(), &golden).unwrap();
        assert_eq!(rep.upset_frames, 2);
        assert_eq!(rep.upset_bits, 3);
        assert_eq!(rep.repaired_frames, 2);
        assert_eq!(rep.quarantined_frames, 0);
        assert_eq!(readback_all(&ch), golden, "repair must restore the golden content");
        assert_eq!(s.health(), ScrubHealth::Clean);
        // A second pass finds nothing.
        let rep2 = s.scrub(&mut ch, &IcapModel::virtex5(), &golden).unwrap();
        assert_eq!(rep2.upset_frames, 0);
        assert_eq!(s.totals().passes, 2);
        assert_eq!(s.totals().upset_frames, 2);
    }

    /// A device whose `stuck` frame ignores writes — the persistent
    /// failure mode the quarantine exists for.
    struct StuckFrame {
        inner: MemoryIcap,
        stuck: usize,
    }

    impl IcapChannel for StuckFrame {
        fn frame_bits(&self) -> usize {
            self.inner.frame_bits()
        }
        fn n_bits(&self) -> usize {
            self.inner.n_bits()
        }
        fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
            if frame == self.stuck {
                return Ok(()); // silently dropped: only readback can tell
            }
            self.inner.write_frame(frame, data)
        }
        fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
            self.inner.read_frame_into(frame, out)
        }
    }

    #[test]
    fn stuck_frame_is_quarantined_after_repeated_failures() {
        let golden = stream(300, &[1, 140, 200]);
        // The device powers up with frame 1 wrong and stuck that way.
        let mut corrupt = golden.clone();
        corrupt.set(140, false);
        let mut ch = StuckFrame { inner: MemoryIcap::new(corrupt, 128), stuck: 1 };
        let policy = ScrubPolicy { max_repair_attempts: 3, ..Default::default() };
        let mut s = Scrubber::new(policy);
        let icap = IcapModel::virtex5();
        for pass in 1..=2 {
            let rep = s.scrub(&mut ch, &icap, &golden).unwrap();
            assert_eq!(rep.failed_frames, 1, "pass {pass} must fail the stuck frame");
            assert_eq!(rep.quarantined_frames, 0, "pass {pass} is below the threshold");
            assert_eq!(s.health(), ScrubHealth::Clean);
        }
        let rep = s.scrub(&mut ch, &icap, &golden).unwrap();
        assert_eq!(rep.quarantined_frames, 1, "third straight failure quarantines");
        assert_eq!(s.health(), ScrubHealth::Degraded);
        assert!(s.quarantined().contains(&1));
        // Later passes skip the quarantined frame entirely...
        let rep = s.scrub(&mut ch, &icap, &golden).unwrap();
        assert_eq!(rep.frames_checked, 2);
        assert_eq!(rep.upset_frames, 0);
        // ...and the divergence probe knows the scrubber never vouched
        // for it.
        assert!(s.undetected_divergence(&ch, &golden).is_empty());
    }

    #[test]
    fn a_heal_resets_the_fail_streak() {
        // Fails twice, then the frame heals; the streak must reset so a
        // later transient failure does not instantly quarantine.
        let golden = stream(256, &[5]);
        let mut corrupt = golden.clone();
        corrupt.set(5, false);
        let mut ch = StuckFrame { inner: MemoryIcap::new(corrupt, 128), stuck: 0 };
        let policy = ScrubPolicy { max_repair_attempts: 3, ..Default::default() };
        let mut s = Scrubber::new(policy);
        let icap = IcapModel::virtex5();
        for _ in 0..2 {
            let rep = s.scrub(&mut ch, &icap, &golden).unwrap();
            assert_eq!(rep.failed_frames, 1);
        }
        // The port un-sticks; the next pass repairs and clears history.
        ch.stuck = usize::MAX;
        let rep = s.scrub(&mut ch, &icap, &golden).unwrap();
        assert_eq!(rep.repaired_frames, 1);
        assert!(s.fail_streak.is_empty(), "a verified repair must clear the streak");
        assert_eq!(s.health(), ScrubHealth::Clean);
    }

    #[test]
    fn geometry_mismatch_is_an_error() {
        let golden = stream(300, &[]);
        let mut ch = MemoryIcap::new(stream(200, &[]), 128);
        let mut s = Scrubber::new(ScrubPolicy::default());
        assert!(s.scrub(&mut ch, &IcapModel::virtex5(), &golden).is_err());
    }

    #[test]
    fn diff_bits_counts_within_partial_frames() {
        assert_eq!(diff_bits(&[0b1010], &[0b0110], 64), 2);
        // Bits beyond len_bits are masked off.
        assert_eq!(diff_bits(&[1 << 50], &[0], 44), 0);
        assert_eq!(diff_bits(&[1 << 40], &[0], 44), 1);
        assert_eq!(diff_bits(&[!0, !0], &[0, 0], 65), 65);
    }
}
