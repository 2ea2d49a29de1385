//! Fault-tolerant reconfiguration transport: the [`IcapChannel`]
//! abstraction and the transactional frame-commit engine.
//!
//! Earlier revisions modeled the HWICAP as an infallible wire: a frame
//! write always landed, so the reconfigurator's `current` bitstream and
//! the fabric's configuration memory could never disagree. Real
//! configuration ports drop writes, corrupt frames and stall — and a
//! debug overlay that silently diverges from what the session believes
//! is worse than no overlay at all. This module makes the transport
//! explicit and fallible:
//!
//! * [`IcapChannel`] is the write/readback interface to configuration
//!   memory. Frame writes can fail; readback is the ground truth.
//! * [`MemoryIcap`] is the reliable in-memory device model: frames
//!   copied on write over a power-up image that many devices share.
//!   The fault injector wrapping it with transient errors lives in
//!   `pfdbg-emu` (`FaultyIcap`), next to the design-fault machinery.
//! * [`commit_frames`] is the transactional commit: per-frame CRC,
//!   post-write readback-verify, bounded retry with backoff, and
//!   graceful degradation — partial diff → full rewrite of the tunable
//!   region → full reconfiguration — with every escalation counted
//!   through `pfdbg-obs`. Either every frame of the write set verifies
//!   (commit) or the caller rolls back its session state.

use pfdbg_arch::{bitfile, Bitstream, IcapModel};
use pfdbg_obs::{LazyCounter, LazyHistogram};
use std::sync::Arc;
use std::time::Duration;

// Always-on transport telemetry: these feed the serve `metrics` verb
// and `pfdbg top` with zero registry locking after first touch, so
// they stay live when profiling is off (unlike the gated span layer).
static WRITE_ERRORS: LazyCounter = LazyCounter::new("icap.write_errors");
static STALLS: LazyCounter = LazyCounter::new("icap.stalls");
static CRC_MISMATCHES: LazyCounter = LazyCounter::new("icap.crc_mismatches");
static RETRIES: LazyCounter = LazyCounter::new("icap.retries");
static DEGRADATIONS: LazyCounter = LazyCounter::new("icap.degradations");
static ESCALATIONS_REGION: LazyCounter = LazyCounter::new("icap.escalations_region");
static ESCALATIONS_FULL: LazyCounter = LazyCounter::new("icap.escalations_full");
/// Modeled on-device time (transfer + verify) per successful commit.
static COMMIT_MODELED_US: LazyHistogram = LazyHistogram::new("icap.commit_modeled_us");

/// A transport-level failure of one frame write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcapError {
    /// The port rejected the write (transient bus error); nothing was
    /// written.
    WriteFailed,
    /// The port did not accept data within its timeout; nothing was
    /// written.
    Stalled,
}

impl std::fmt::Display for IcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IcapError::WriteFailed => write!(f, "frame write rejected"),
            IcapError::Stalled => write!(f, "configuration port stalled"),
        }
    }
}

/// An ICAP-like configuration port with explicit, fallible frame
/// writes and (reliable) frame readback.
///
/// Frame data travels as LSB-first packed `u64` words covering the
/// frame's bits (the last frame of a device may be shorter than
/// `frame_bits`). Readback is modeled reliable: on real hardware reads
/// go through the same port, but they do not mutate configuration
/// memory, and the per-frame CRC cross-check in [`commit_frames`]
/// catches a corrupted readback the same way it catches a corrupted
/// write — by failing verification and retrying.
pub trait IcapChannel: Send {
    /// Bits per frame.
    fn frame_bits(&self) -> usize;
    /// Total configuration bits behind the port.
    fn n_bits(&self) -> usize;
    /// Number of frames (last one possibly partial).
    fn n_frames(&self) -> usize {
        self.n_bits().div_ceil(self.frame_bits().max(1))
    }
    /// Write one frame. May fail transiently; may also *silently*
    /// corrupt (the contract readback-verify exists to police).
    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError>;
    /// Read one frame back from configuration memory into a
    /// caller-owned buffer (cleared first), so hot loops (verify, scrub)
    /// reuse one allocation across frames.
    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>);
    /// Advance the device's between-turn clock by one step. On an ideal
    /// device configuration memory is inert between writes, so the
    /// default is a no-op; emulated fabrics override this to take their
    /// single-event upsets here (`pfdbg-emu`'s `SeuIcap`). Returns the
    /// number of configuration bits that flipped during the step.
    fn tick(&mut self) -> usize {
        0
    }
}

// Boxed channels are channels too, so adapters generic over
// `C: IcapChannel` (fault injectors, the replay fuzzer's test-only
// nondeterminism hook) can wrap an already-erased `Box<dyn IcapChannel>`.
impl IcapChannel for Box<dyn IcapChannel> {
    fn frame_bits(&self) -> usize {
        (**self).frame_bits()
    }

    fn n_bits(&self) -> usize {
        (**self).n_bits()
    }

    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        (**self).write_frame(frame, data)
    }

    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        (**self).read_frame_into(frame, out)
    }

    fn tick(&mut self) -> usize {
        (**self).tick()
    }
}

/// Number of bits frame `frame` holds in a device of `n_bits`.
pub fn frame_len_bits(n_bits: usize, frame_bits: usize, frame: usize) -> usize {
    let base = frame * frame_bits;
    frame_bits.min(n_bits.saturating_sub(base))
}

/// Extract frame `frame` of `bs` into `out` (cleared first) as
/// LSB-first packed words — word-level shifts, not a bit loop, and no
/// allocation once `out` has its working capacity.
pub fn frame_words_into(bs: &Bitstream, frame_bits: usize, frame: usize, out: &mut Vec<u64>) {
    let base = frame * frame_bits;
    let len = frame_len_bits(bs.len(), frame_bits, frame);
    bs.extract_words(base, len, out);
}

/// Extract frame `frame` of `bs` as LSB-first packed words.
pub fn frame_words(bs: &Bitstream, frame_bits: usize, frame: usize) -> Vec<u64> {
    let mut words = Vec::new();
    frame_words_into(bs, frame_bits, frame, &mut words);
    words
}

/// CRC-32 of a frame's packed words — the per-frame integrity check
/// appended to every write and recomputed over the readback. Equal to
/// [`bitfile::crc32`] of the words' little-endian bytes, folded word by
/// word so the turn path allocates no byte buffer.
pub fn frame_crc(words: &[u64]) -> u32 {
    !words.iter().fold(0xFFFF_FFFF, |crc, w| bitfile::crc32_update(crc, &w.to_le_bytes()))
}

/// Where a commit or a scrub pass gets the words each frame must hold:
/// a whole [`Bitstream`], or a design's shared base with packed tunable
/// values laid over it (`crate::turn`), which builds each frame on
/// demand instead of keeping a configuration per session or per pass.
pub(crate) trait FrameSource {
    /// Fill `out` (cleared first) with frame `frame`'s target words,
    /// exactly as [`frame_words_into`] would extract them.
    fn frame_into(&self, frame_bits: usize, frame: usize, out: &mut Vec<u64>);
}

impl FrameSource for Bitstream {
    fn frame_into(&self, frame_bits: usize, frame: usize, out: &mut Vec<u64>) {
        frame_words_into(self, frame_bits, frame, out);
    }
}

/// The reliable in-memory configuration port: every write lands, every
/// readback reflects memory. This is the channel [`crate::OnlineReconfigurator`]
/// uses by default, and the inner device `pfdbg-emu`'s fault injector
/// wraps.
///
/// Memory is copy-on-write per frame over a power-up image that any
/// number of devices may share ([`MemoryIcap::shared`]): a frame's first
/// write gives this device its own copy, and a frame never written reads
/// from the image. A device whose turns touch only the tunable region
/// therefore holds those frames and nothing else.
pub struct MemoryIcap {
    /// The configuration shifted in at power-up, read through for every
    /// frame not yet written.
    image: Arc<Bitstream>,
    /// Per frame, this device's copy once written (`None`: the image's).
    written: Vec<Option<Box<[u64]>>>,
    frame_bits: usize,
}

impl MemoryIcap {
    /// A port over configuration memory pre-loaded with `initial` (the
    /// base configuration shifted in at power-up, before any debug
    /// turn).
    pub fn new(initial: Bitstream, frame_bits: usize) -> Self {
        Self::shared(Arc::new(initial), frame_bits)
    }

    /// A port over the power-up `image` shared with other devices;
    /// writes land in this device's frame copies and never reach the
    /// image.
    pub fn shared(image: Arc<Bitstream>, frame_bits: usize) -> Self {
        assert!(frame_bits > 0, "frame_bits must be positive");
        let written = vec![None; image.len().div_ceil(frame_bits)];
        MemoryIcap { image, written, frame_bits }
    }
}

impl IcapChannel for MemoryIcap {
    fn frame_bits(&self) -> usize {
        self.frame_bits
    }

    fn n_bits(&self) -> usize {
        self.image.len()
    }

    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        let Some(slot) = self.written.get_mut(frame) else {
            return Err(IcapError::WriteFailed);
        };
        let len = frame_len_bits(self.image.len(), self.frame_bits, frame);
        // A write replaces the whole frame, so the first one allocates
        // the copy without reading the image. As in `splice_words`,
        // missing source words read as zero and bits past the frame
        // are dropped.
        let words = slot.get_or_insert_with(|| vec![0; len.div_ceil(64)].into_boxed_slice());
        for (j, w) in words.iter_mut().enumerate() {
            *w = data.get(j).copied().unwrap_or(0);
        }
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        Ok(())
    }

    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        match self.written.get(frame) {
            Some(Some(words)) => {
                out.clear();
                out.extend_from_slice(words);
            }
            _ => frame_words_into(&self.image, self.frame_bits, frame, out),
        }
    }
}

/// Read the entire configuration memory back through the port — the
/// ground truth the chaos suite compares against the fault-free golden
/// specialization.
pub fn readback_all(channel: &dyn IcapChannel) -> Bitstream {
    let mut bs = Bitstream::from_bits(pfdbg_util::BitVec::zeros(channel.n_bits()));
    let mut words = Vec::new();
    for frame in 0..channel.n_frames() {
        let base = frame * channel.frame_bits();
        let len = frame_len_bits(channel.n_bits(), channel.frame_bits(), frame);
        channel.read_frame_into(frame, &mut words);
        bs.splice_words(base, len, &words);
    }
    bs
}

/// Retry and escalation policy for one transactional commit.
#[derive(Debug, Clone, Copy)]
pub struct CommitPolicy {
    /// Write attempts per frame *per escalation level* before giving
    /// up on that level (so a frame gets `max_retries + 1` tries).
    pub max_retries: u32,
    /// Minimum modeled backoff before a retry. Each retry sleeps an
    /// amount in `[backoff, backoff_cap]` drawn from a
    /// decorrelated-jitter schedule seeded by `jitter_seed`.
    pub backoff: Duration,
    /// Upper bound on one jittered backoff sleep.
    pub backoff_cap: Duration,
    /// Seed of the jitter generator. Deterministic: the same seed
    /// replays the same backoff schedule, so chaos runs stay
    /// reproducible. Concurrent sessions should derive distinct seeds
    /// (the serve layer salts this with the session name) so they do
    /// not retry in lockstep against a stalling device.
    pub jitter_seed: u64,
    /// Modeled cost of one port stall (timeout spent waiting before
    /// the write is retried).
    pub stall_penalty: Duration,
}

impl Default for CommitPolicy {
    fn default() -> Self {
        CommitPolicy {
            max_retries: 3,
            backoff: Duration::from_micros(2),
            backoff_cap: Duration::from_micros(64),
            jitter_seed: 0,
            stall_penalty: Duration::from_micros(20),
        }
    }
}

/// SplitMix64 step — the whole PRNG the jittered backoff needs, inline
/// because `pfdbg-pconf` deliberately has no `rand` dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decorrelated-jitter backoff: each sleep is drawn uniformly from
/// `[base, min(cap, prev * 3)]`. Unlike the old deterministic
/// `backoff * attempt` ramp, two sessions hammering a stalling port
/// with different seeds spread their retries out instead of colliding
/// on every attempt — while a fixed seed still replays the exact same
/// schedule for reproducible chaos runs.
pub(crate) struct Backoff {
    base_ns: u64,
    cap_ns: u64,
    prev_ns: u64,
    state: u64,
}

impl Backoff {
    /// A fresh schedule for one commit (or one scrub repair). `salt`
    /// decorrelates schedules sharing a policy seed — e.g. per frame.
    pub(crate) fn new(policy: &CommitPolicy, salt: u64) -> Self {
        let base_ns = (policy.backoff.as_nanos() as u64).max(1);
        Backoff {
            base_ns,
            cap_ns: (policy.backoff_cap.as_nanos() as u64).max(base_ns),
            prev_ns: base_ns,
            state: policy.jitter_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next modeled sleep of the schedule.
    pub(crate) fn next(&mut self) -> Duration {
        let hi = self.prev_ns.saturating_mul(3).clamp(self.base_ns, self.cap_ns);
        let span = hi - self.base_ns + 1;
        let sleep = self.base_ns + splitmix64(&mut self.state) % span;
        self.prev_ns = sleep;
        Duration::from_nanos(sleep)
    }
}

/// What one transactional commit cost and survived.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitStats {
    /// Frames that verified (including re-verification after an
    /// escalation rewrote them).
    pub frames_verified: usize,
    /// Total frame-write attempts issued.
    pub writes_attempted: usize,
    /// Re-attempts after a failed write or failed verification.
    pub retries: u32,
    /// Writes the port rejected outright.
    pub write_errors: u32,
    /// Writes the port stalled on.
    pub stalls: u32,
    /// Readbacks whose CRC/bit compare failed (silent corruption
    /// caught by verification).
    pub crc_mismatches: u32,
    /// Escalation levels entered: 0 = clean partial diff, 1 = full
    /// rewrite of the tunable region, 2 = full reconfiguration.
    pub degradations: u32,
    /// Modeled forward transfer time (frame writes, command overheads,
    /// retried writes) — comparable to the paper's partial-DPR cost.
    pub transfer_time: Duration,
    /// Modeled verification overhead (readbacks, backoff, stall
    /// timeouts) on top of the forward transfers.
    pub verify_time: Duration,
}

/// Reusable frame-word buffers for one commit or scrub pass: the
/// target frame's words and the readback, each filled in place so the
/// per-frame/per-attempt allocations of the old path disappear.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    pub(crate) words: Vec<u64>,
    pub(crate) back: Vec<u64>,
}

/// Write one frame until it verifies or the per-level retry budget is
/// spent. Returns whether the frame verified. Shared with the scrubber
/// (`crate::scrub`), whose repairs are single-frame commits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_frame_verified(
    channel: &mut dyn IcapChannel,
    icap: &IcapModel,
    target: &dyn FrameSource,
    frame: usize,
    policy: &CommitPolicy,
    backoff: &mut Backoff,
    stats: &mut CommitStats,
    buf: &mut FrameBuf,
) -> bool {
    let frame_bits = channel.frame_bits();
    target.frame_into(frame_bits, frame, &mut buf.words);
    let crc = frame_crc(&buf.words);
    let write_cost = icap.partial_reconfig(1, frame_bits) - icap.command_overhead;
    let readback_cost =
        icap.partial_reconfig(1, frame_bits) - icap.command_overhead - icap.per_frame_overhead;
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            stats.retries += 1;
            stats.verify_time += backoff.next();
        }
        stats.writes_attempted += 1;
        stats.transfer_time += write_cost;
        match channel.write_frame(frame, &buf.words) {
            Err(IcapError::WriteFailed) => {
                stats.write_errors += 1;
                WRITE_ERRORS.add(1);
                continue;
            }
            Err(IcapError::Stalled) => {
                stats.stalls += 1;
                stats.verify_time += policy.stall_penalty;
                STALLS.add(1);
                continue;
            }
            Ok(()) => {}
        }
        // Readback-verify: CRC first (what hardware streams back),
        // then the full bit compare that makes the model airtight.
        stats.verify_time += readback_cost;
        channel.read_frame_into(frame, &mut buf.back);
        if frame_crc(&buf.back) == crc && buf.back == buf.words {
            stats.frames_verified += 1;
            return true;
        }
        stats.crc_mismatches += 1;
        CRC_MISMATCHES.add(1);
    }
    false
}

/// Transactionally push `target` through the port.
///
/// Escalation ladder, each level with a fresh per-frame retry budget:
///
/// 1. **Partial diff** — write only `changed_frames`.
/// 2. **Full-frame rewrite** — rewrite `changed_frames` plus the whole
///    `region_frames` set (every frame holding a tunable bit), wiping
///    out any corruption verification could not localize.
/// 3. **Full reconfiguration** — rewrite every frame of the device.
///
/// `Ok` means every frame of the final write set verified against its
/// CRC and readback; the caller may commit its view of the device.
/// `Err` carries the stats spent plus a message; the device may hold
/// arbitrary content in the attempted frames and the caller must roll
/// back and force a resync on the next turn.
pub fn commit_frames(
    channel: &mut dyn IcapChannel,
    icap: &IcapModel,
    target: &Bitstream,
    changed_frames: &[usize],
    region_frames: &[usize],
    policy: &CommitPolicy,
) -> Result<CommitStats, (CommitStats, String)> {
    commit_frames_from(channel, icap, target, changed_frames, region_frames, policy)
}

/// [`commit_frames`] over any [`FrameSource`]: a session's commit,
/// whose target frames are built from the shared base on demand.
pub(crate) fn commit_frames_from(
    channel: &mut dyn IcapChannel,
    icap: &IcapModel,
    target: &dyn FrameSource,
    changed_frames: &[usize],
    region_frames: &[usize],
    policy: &CommitPolicy,
) -> Result<CommitStats, (CommitStats, String)> {
    let mut stats = CommitStats::default();
    if changed_frames.is_empty() {
        return Ok(stats);
    }
    // Escalation sets materialize lazily: the clean level-0 commit (the
    // overwhelmingly common case) allocates no frame lists at all.
    let mut escalation_set: Vec<usize> = Vec::new();
    let mut backoff = Backoff::new(policy, 0);
    let mut buf = FrameBuf::default();
    let mut last_failed = 0usize;
    for level in 0..3usize {
        let set: &[usize] = match level {
            0 => changed_frames,
            1 => {
                escalation_set = changed_frames.iter().chain(region_frames).copied().collect();
                escalation_set.sort_unstable();
                escalation_set.dedup();
                &escalation_set
            }
            _ => {
                escalation_set.clear();
                escalation_set.extend(0..channel.n_frames());
                &escalation_set
            }
        };
        if level > 0 {
            stats.degradations += 1;
            DEGRADATIONS.add(1);
            if level == 1 {
                ESCALATIONS_REGION.add(1)
            } else {
                ESCALATIONS_FULL.add(1)
            }
        }
        stats.transfer_time += icap.command_overhead;
        let mut ok = true;
        last_failed = 0;
        for &frame in set {
            if !write_frame_verified(
                channel,
                icap,
                target,
                frame,
                policy,
                &mut backoff,
                &mut stats,
                &mut buf,
            ) {
                ok = false;
                last_failed += 1;
            }
        }
        if ok {
            RETRIES.add(stats.retries as u64);
            COMMIT_MODELED_US
                .record_us((stats.transfer_time + stats.verify_time).as_secs_f64() * 1e6);
            return Ok(stats);
        }
    }
    Err((
        stats,
        format!(
            "{last_failed} frame(s) failed verification even under full reconfiguration \
             ({} write attempts, {} retries)",
            stats.writes_attempted, stats.retries
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_util::BitVec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stream(n: usize, ones: &[usize]) -> Bitstream {
        let mut b = Bitstream::from_bits(BitVec::zeros(n));
        for &i in ones {
            b.set(i, true);
        }
        b
    }

    #[test]
    fn memory_icap_write_read_roundtrip() {
        let mut ch = MemoryIcap::new(stream(300, &[]), 128);
        assert_eq!(ch.n_frames(), 3);
        let target = stream(300, &[1, 130, 131, 299]);
        let mut back = Vec::new();
        for f in 0..3 {
            let words = frame_words(&target, 128, f);
            ch.write_frame(f, &words).unwrap();
            ch.read_frame_into(f, &mut back);
            assert_eq!(back, words);
        }
        assert_eq!(readback_all(&ch), target);
    }

    #[test]
    fn last_partial_frame_has_short_length() {
        assert_eq!(frame_len_bits(300, 128, 0), 128);
        assert_eq!(frame_len_bits(300, 128, 2), 44);
        let bs = stream(300, &[299]);
        let w = frame_words(&bs, 128, 2);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0] >> 43, 1);
    }

    #[test]
    fn frame_crc_is_crc32_of_the_little_endian_bytes() {
        let frames: [&[u64]; 4] =
            [&[], &[0], &[0xDEAD_BEEF_0123_4567], &[u64::MAX, 1, 0x8000_0000_0000_0000, 42]];
        for words in frames {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(frame_crc(words), bitfile::crc32(&bytes), "{words:x?}");
        }
        assert_eq!(frame_crc(&[]), 0, "CRC-32 of no bytes");
    }

    #[test]
    fn crc_distinguishes_corruption() {
        let a = frame_crc(&[0xDEAD_BEEF, 0x1234]);
        let b = frame_crc(&[0xDEAD_BEEF, 0x1235]);
        assert_ne!(a, b);
        assert_eq!(a, frame_crc(&[0xDEAD_BEEF, 0x1234]));
    }

    #[test]
    fn out_of_range_frame_write_fails() {
        let mut ch = MemoryIcap::new(stream(256, &[]), 128);
        assert_eq!(ch.write_frame(2, &[0]), Err(IcapError::WriteFailed));
    }

    #[test]
    fn commit_over_reliable_channel_is_exact_and_clean() {
        let icap = IcapModel::virtex5();
        let mut ch = MemoryIcap::new(stream(400, &[]), 100);
        let target = stream(400, &[5, 105, 399]);
        let stats =
            commit_frames(&mut ch, &icap, &target, &[0, 1, 3], &[0, 1], &Default::default())
                .unwrap();
        assert_eq!(stats.frames_verified, 3);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.degradations, 0);
        assert!(stats.transfer_time > Duration::ZERO);
        // Frame 2 was not in the write set and stays untouched.
        assert_eq!(readback_all(&ch), target);
    }

    #[test]
    fn empty_write_set_costs_nothing() {
        let icap = IcapModel::virtex5();
        let mut ch = MemoryIcap::new(stream(256, &[7]), 128);
        let stats =
            commit_frames(&mut ch, &icap, &stream(256, &[7]), &[], &[0], &Default::default())
                .unwrap();
        assert_eq!(stats.writes_attempted, 0);
        assert_eq!(stats.transfer_time, Duration::ZERO);
    }

    /// A channel that fails the first `fail_first` write attempts, then
    /// behaves; lets the tests drive every escalation level
    /// deterministically.
    struct Flaky {
        inner: MemoryIcap,
        fail_first: usize,
        seen: usize,
    }

    impl IcapChannel for Flaky {
        fn frame_bits(&self) -> usize {
            self.inner.frame_bits()
        }
        fn n_bits(&self) -> usize {
            self.inner.n_bits()
        }
        fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
            self.seen += 1;
            if self.seen <= self.fail_first {
                return Err(IcapError::WriteFailed);
            }
            self.inner.write_frame(frame, data)
        }
        fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
            self.inner.read_frame_into(frame, out)
        }
    }

    #[test]
    fn transient_failures_retry_to_success() {
        let icap = IcapModel::virtex5();
        let mut ch =
            Flaky { inner: MemoryIcap::new(stream(256, &[]), 128), fail_first: 2, seen: 0 };
        let target = stream(256, &[3, 200]);
        let stats =
            commit_frames(&mut ch, &icap, &target, &[0, 1], &[0, 1], &Default::default()).unwrap();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.write_errors, 2);
        assert_eq!(stats.degradations, 0, "retries absorb transients without escalating");
        assert_eq!(readback_all(&ch), target);
        assert!(stats.verify_time > Duration::ZERO, "backoff and readback are accounted");
    }

    #[test]
    fn persistent_failure_escalates_then_recovers() {
        let icap = IcapModel::virtex5();
        // Fail the whole level-0 budget for the first frame (4 attempts)
        // so the commit must degrade, then succeed.
        let mut ch =
            Flaky { inner: MemoryIcap::new(stream(256, &[]), 128), fail_first: 4, seen: 0 };
        let target = stream(256, &[3]);
        let stats =
            commit_frames(&mut ch, &icap, &target, &[0], &[0, 1], &Default::default()).unwrap();
        assert_eq!(stats.degradations, 1, "one escalation to the region rewrite");
        assert_eq!(readback_all(&ch), target);
    }

    #[test]
    fn jittered_backoff_is_bounded_and_seeded() {
        let policy = CommitPolicy {
            backoff: Duration::from_micros(2),
            backoff_cap: Duration::from_micros(64),
            jitter_seed: 42,
            ..Default::default()
        };
        let schedule = |seed: u64, salt: u64| -> Vec<Duration> {
            let mut b = Backoff::new(&CommitPolicy { jitter_seed: seed, ..policy }, salt);
            (0..32).map(|_| b.next()).collect()
        };
        let a = schedule(42, 0);
        assert_eq!(a, schedule(42, 0), "same seed must replay the same schedule");
        assert_ne!(a, schedule(43, 0), "different seeds must decorrelate");
        assert_ne!(a, schedule(42, 1), "different salts must decorrelate");
        for &sleep in &a {
            assert!(sleep >= policy.backoff, "sleep {sleep:?} under the base");
            assert!(sleep <= policy.backoff_cap, "sleep {sleep:?} over the cap");
        }
        // The schedule actually jitters: not every sleep is identical.
        assert!(a.iter().any(|&s| s != a[0]), "no jitter in {a:?}");
    }

    #[test]
    fn degenerate_backoff_policy_stays_sane() {
        // base == cap pins every sleep; zero base clamps to 1 ns.
        let pinned = CommitPolicy {
            backoff: Duration::from_micros(5),
            backoff_cap: Duration::from_micros(5),
            ..Default::default()
        };
        let mut b = Backoff::new(&pinned, 0);
        assert_eq!(b.next(), Duration::from_micros(5));
        assert_eq!(b.next(), Duration::from_micros(5));
        let zero = CommitPolicy {
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            ..Default::default()
        };
        let mut b = Backoff::new(&zero, 0);
        assert_eq!(b.next(), Duration::from_nanos(1));
    }

    #[test]
    fn default_tick_is_inert() {
        let mut ch = MemoryIcap::new(stream(256, &[3]), 128);
        assert_eq!(ch.tick(), 0);
        assert_eq!(readback_all(&ch), stream(256, &[3]), "a tick must not move memory");
    }

    #[test]
    fn unrecoverable_failure_reports_rollback() {
        let icap = IcapModel::virtex5();
        let mut ch = Flaky {
            inner: MemoryIcap::new(stream(256, &[]), 128),
            fail_first: usize::MAX,
            seen: 0,
        };
        let target = stream(256, &[3]);
        let err = commit_frames(&mut ch, &icap, &target, &[0], &[0], &Default::default());
        let (stats, msg) = err.expect_err("a dead port cannot commit");
        assert_eq!(stats.degradations, 2, "both escalation levels were attempted");
        assert!(msg.contains("full reconfiguration"), "{msg}");
    }

    /// The device model the copy-on-write one replaced: one whole
    /// `Bitstream`, every write spliced in.
    struct WholeIcap {
        mem: Bitstream,
        frame_bits: usize,
    }

    impl IcapChannel for WholeIcap {
        fn frame_bits(&self) -> usize {
            self.frame_bits
        }
        fn n_bits(&self) -> usize {
            self.mem.len()
        }
        fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
            if frame >= self.n_frames() {
                return Err(IcapError::WriteFailed);
            }
            let len = frame_len_bits(self.mem.len(), self.frame_bits, frame);
            self.mem.splice_words(frame * self.frame_bits, len, data);
            Ok(())
        }
        fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
            frame_words_into(&self.mem, self.frame_bits, frame, out)
        }
    }

    fn random_stream(rng: &mut StdRng, n_bits: usize) -> Bitstream {
        Bitstream::from_bits((0..n_bits).map(|_| rng.gen_bool(0.5)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random writes (whole frames, missing words, junk past the
        /// frame end, out-of-range frames), reads and SEU-style upsets
        /// — `SeuIcap::tick`'s read, flip a burst within the frame,
        /// write back — leave a copy-on-write device reading exactly
        /// like a whole-bitstream one at every step, short last frame
        /// included, and never touch the shared image.
        #[test]
        fn copy_on_write_device_matches_a_whole_bitstream(
            frames in 1usize..10,
            frame_bits in 1usize..200,
            short in 0usize..200,
            seed in any::<u64>(),
        ) {
            let n_bits = frames * frame_bits - short % frame_bits;
            let mut rng = StdRng::seed_from_u64(seed);
            let image = random_stream(&mut rng, n_bits);
            let shared = Arc::new(image.clone());
            let mut cow = MemoryIcap::shared(shared.clone(), frame_bits);
            let mut model = WholeIcap { mem: image.clone(), frame_bits };
            let n_frames = model.n_frames();
            prop_assert_eq!(cow.n_frames(), n_frames);
            let (mut words, mut want) = (Vec::new(), Vec::new());
            for step in 0..40 {
                let frame = rng.gen_range(0..n_frames + 1);
                let len = frame_len_bits(n_bits, frame_bits, frame);
                match rng.gen_range(0..3u32) {
                    0 => {
                        let full = len.div_ceil(64).max(1);
                        let n = match rng.gen_range(0..3u32) {
                            0 => full,
                            1 => rng.gen_range(0..full),
                            _ => full + rng.gen_range(1..3usize),
                        };
                        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                        prop_assert_eq!(
                            cow.write_frame(frame, &data),
                            model.write_frame(frame, &data),
                            "step {} write", step
                        );
                    }
                    1 if len > 0 => {
                        cow.read_frame_into(frame, &mut words);
                        let start = rng.gen_range(0..len);
                        for j in 0..rng.gen_range(1..4usize) {
                            let bit = (start + j) % len;
                            words[bit / 64] ^= 1 << (bit % 64);
                        }
                        cow.write_frame(frame, &words).unwrap();
                        model.write_frame(frame, &words).unwrap();
                    }
                    _ => {}
                }
                cow.read_frame_into(frame, &mut words);
                model.read_frame_into(frame, &mut want);
                prop_assert_eq!(&words, &want, "step {}", step);
                prop_assert_eq!(readback_all(&cow), readback_all(&model), "step {}", step);
            }
            prop_assert_eq!(&*shared, &image, "writes never reach the shared image");
        }
    }

    #[test]
    fn devices_over_one_image_never_see_each_others_writes() {
        let image = Arc::new(stream(300, &[2, 150, 299]));
        let mut a = MemoryIcap::shared(image.clone(), 128);
        let mut b = MemoryIcap::shared(image.clone(), 128);
        let (want_a, want_b) = (stream(300, &[1, 131, 298]), stream(300, &[2, 140, 299]));
        for f in [0, 2] {
            a.write_frame(f, &frame_words(&want_a, 128, f)).unwrap();
        }
        b.write_frame(1, &frame_words(&want_b, 128, 1)).unwrap();
        // Each device reads its own writes and the image elsewhere.
        let mut expect_a = want_a.clone();
        expect_a.splice_words(128, 128, &frame_words(&image, 128, 1));
        assert_eq!(readback_all(&a), expect_a);
        let mut expect_b = (*image).clone();
        expect_b.splice_words(128, 128, &frame_words(&want_b, 128, 1));
        assert_eq!(readback_all(&b), expect_b);
        assert_eq!(*image, stream(300, &[2, 150, 299]), "the image is untouched");
        assert_eq!(readback_all(&MemoryIcap::shared(image, 128)), stream(300, &[2, 150, 299]));
    }
}
