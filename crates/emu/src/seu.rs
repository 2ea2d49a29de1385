//! Seeded single-event-upset injection into the emulated configuration
//! memory — the adversary the scrubber (`pfdbg-pconf::scrub`) exists to
//! defeat.
//!
//! [`crate::FaultyIcap`] attacks the *write path*: faults strike while
//! a commit is in flight and readback-verify catches them immediately.
//! [`SeuIcap`] attacks the *memory itself* between turns: on every
//! [`IcapChannel::tick`] each frame independently takes an upset with
//! probability [`SeuConfig::rate`], flipping `1..=burst` adjacent bits.
//! Nothing on the write path notices — only a scrub pass diffing
//! readback against the PConf golden oracle can.
//!
//! The two injectors are independent (separate configs, separate seeded
//! generators) and compose: wrap the device as
//! `FaultyIcap<SeuIcap<MemoryIcap>>` so SEUs strike the reliable memory
//! model while transport faults harass the writes that try to fix them.

use pfdbg_pconf::icap::{frame_len_bits, IcapChannel, IcapError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upset rate, burst shape, and generator seed of one SEU injector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuConfig {
    /// Per-frame, per-tick probability of one upset event.
    pub rate: f64,
    /// Maximum adjacent bits one upset flips (`1` = single-bit upsets;
    /// larger values draw `1..=burst` uniformly per event, modeling
    /// multi-cell upsets from one particle strike).
    pub burst: usize,
    /// Seed of the deterministic generator — a fixed seed replays the
    /// exact same upset pattern.
    pub seed: u64,
}

impl Default for SeuConfig {
    fn default() -> Self {
        SeuConfig { rate: 0.0, burst: 1, seed: 0 }
    }
}

impl SeuConfig {
    /// Single-bit upsets at `rate` from `seed`.
    pub fn new(rate: f64, seed: u64) -> Self {
        SeuConfig { rate: rate.clamp(0.0, 1.0), burst: 1, seed }
    }

    /// Read `PFDBG_SEU_RATE` (and optionally `PFDBG_SEU_SEED`,
    /// `PFDBG_SEU_BURST`) from the environment — how the scrub pass in
    /// `check.sh` dials the whole suite up without code changes.
    /// Returns `None` when the rate variable is unset or unparsable.
    pub fn from_env() -> Option<Self> {
        let rate: f64 = std::env::var("PFDBG_SEU_RATE").ok()?.parse().ok()?;
        let seed = std::env::var("PFDBG_SEU_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_05E0);
        let burst =
            std::env::var("PFDBG_SEU_BURST").ok().and_then(|s| s.parse().ok()).unwrap_or(1usize);
        Some(SeuConfig { rate: rate.clamp(0.0, 1.0), burst: burst.max(1), seed })
    }
}

/// A configuration port whose memory takes seeded single-event upsets
/// on every [`IcapChannel::tick`]. Reads and writes pass straight
/// through; only time hurts.
pub struct SeuIcap<C: IcapChannel> {
    inner: C,
    cfg: SeuConfig,
    rng: StdRng,
    upsets: u64,
    bits_flipped: u64,
    /// The struck frame's words, reused across upsets.
    words: Vec<u64>,
}

impl<C: IcapChannel> SeuIcap<C> {
    /// Wrap `inner` with upset injection per `cfg`.
    pub fn new(inner: C, cfg: SeuConfig) -> Self {
        let cfg = SeuConfig { rate: cfg.rate.clamp(0.0, 1.0), burst: cfg.burst.max(1), ..cfg };
        let rng = StdRng::seed_from_u64(cfg.seed);
        SeuIcap { inner, cfg, rng, upsets: 0, bits_flipped: 0, words: Vec::new() }
    }

    /// The wrapped channel.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Lifetime `(upset events, bits flipped)` injected so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.upsets, self.bits_flipped)
    }
}

impl<C: IcapChannel> IcapChannel for SeuIcap<C> {
    fn frame_bits(&self) -> usize {
        self.inner.frame_bits()
    }

    fn n_bits(&self) -> usize {
        self.inner.n_bits()
    }

    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        self.inner.write_frame(frame, data)
    }

    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        self.inner.read_frame_into(frame, out)
    }

    fn tick(&mut self) -> usize {
        let mut flipped = self.inner.tick();
        if self.cfg.rate <= 0.0 {
            return flipped;
        }
        // Frames are visited in ascending order and every draw comes
        // from the one seeded generator, so a fixed seed replays the
        // exact same upset pattern.
        for frame in 0..self.inner.n_frames() {
            if !self.rng.gen_bool(self.cfg.rate) {
                continue;
            }
            let len = frame_len_bits(self.inner.n_bits(), self.inner.frame_bits(), frame);
            if len == 0 {
                continue;
            }
            self.inner.read_frame_into(frame, &mut self.words);
            let start = self.rng.gen_range(0..len);
            let k = if self.cfg.burst <= 1 { 1 } else { 1 + self.rng.gen_range(0..self.cfg.burst) };
            for j in 0..k {
                let bit = (start + j) % len;
                if let Some(w) = self.words.get_mut(bit / 64) {
                    *w ^= 1u64 << (bit % 64);
                }
            }
            // Upsets strike configuration memory directly; the inner
            // device model is reliable, so this cannot fail.
            self.inner
                .write_frame(frame, &self.words)
                .expect("SEU injection writes to the reliable device model");
            self.upsets += 1;
            self.bits_flipped += k as u64;
            flipped += k;
            pfdbg_obs::counter_add("seu.upsets_injected", 1);
            pfdbg_obs::counter_add("seu.bits_flipped", k as u64);
        }
        flipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_arch::Bitstream;
    use pfdbg_pconf::icap::{readback_all, MemoryIcap};
    use pfdbg_util::BitVec;

    fn mem(n_bits: usize, frame_bits: usize) -> MemoryIcap {
        MemoryIcap::new(Bitstream::from_bits(BitVec::zeros(n_bits)), frame_bits)
    }

    #[test]
    fn zero_rate_never_upsets() {
        let mut ch = SeuIcap::new(mem(512, 128), SeuConfig::default());
        for _ in 0..16 {
            assert_eq!(ch.tick(), 0);
        }
        assert_eq!(ch.totals(), (0, 0));
        assert_eq!(readback_all(&ch), Bitstream::from_bits(BitVec::zeros(512)));
    }

    #[test]
    fn rate_one_upsets_every_frame_every_tick() {
        let mut ch = SeuIcap::new(mem(512, 128), SeuConfig::new(1.0, 9));
        let flipped = ch.tick();
        assert_eq!(flipped, 4, "one single-bit upset per frame");
        assert_eq!(ch.totals(), (4, 4));
        assert_eq!(readback_all(&ch).count_ones(), 4);
    }

    #[test]
    fn upsets_are_deterministic_per_seed() {
        let run = |seed: u64| -> (Vec<usize>, Bitstream) {
            let mut ch = SeuIcap::new(mem(2048, 128), SeuConfig::new(0.3, seed));
            let flips = (0..8).map(|_| ch.tick()).collect();
            (flips, readback_all(&ch))
        };
        assert_eq!(run(5), run(5), "same seed, same upset pattern");
        assert_ne!(run(5).1, run(6).1, "different seeds diverge");
    }

    #[test]
    fn bursts_flip_adjacent_bits_within_the_frame() {
        let cfg = SeuConfig { rate: 1.0, burst: 4, seed: 3 };
        let mut ch = SeuIcap::new(mem(256, 128), cfg);
        let flipped = ch.tick();
        let (events, bits) = ch.totals();
        assert_eq!(events, 2);
        assert_eq!(bits as usize, flipped);
        assert!((2..=8).contains(&flipped), "2 frames x 1..=4 bits, got {flipped}");
        assert_eq!(readback_all(&ch).count_ones(), flipped, "bursts wrap within their frame");
    }

    #[test]
    fn writes_and_reads_pass_through() {
        let mut ch = SeuIcap::new(mem(256, 128), SeuConfig::new(1.0, 1));
        let mut target = Bitstream::from_bits(BitVec::zeros(256));
        target.set(7, true);
        let words = pfdbg_pconf::icap::frame_words(&target, 128, 0);
        ch.write_frame(0, &words).unwrap();
        let mut back = Vec::new();
        ch.read_frame_into(0, &mut back);
        assert_eq!(back, words, "no upset without a tick");
    }

    #[test]
    fn env_parsing_clamps() {
        // Only exercises the clamping logic, not the env (tests must
        // not mutate process-global state under a parallel harness).
        let cfg = SeuIcap::new(mem(128, 128), SeuConfig { rate: 7.0, burst: 0, seed: 1 }).cfg;
        assert_eq!(cfg.rate, 1.0);
        assert_eq!(cfg.burst, 1);
    }
}
