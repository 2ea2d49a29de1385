//! Fault injection for the *reconfiguration transport* — the adversarial
//! counterpart of [`crate::fault`], which injects faults into the
//! design. Here the victim is the ICAP itself: frame writes can be
//! rejected, silently corrupted, or stalled, at configurable rates from
//! a seeded generator, so chaos runs are reproducible bit for bit.
//!
//! [`FaultyIcap`] wraps any [`IcapChannel`] (normally
//! [`pfdbg_pconf::MemoryIcap`]); the transactional commit in
//! `pfdbg-pconf::icap` is what turns these injected faults into
//! retries, escalations, or clean rollbacks instead of a fabric that
//! silently disagrees with the debug session.

use crate::seu::{SeuConfig, SeuIcap};
use pfdbg_arch::Bitstream;
use pfdbg_pconf::icap::{IcapChannel, IcapError, MemoryIcap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The channel stack every emulated session reconfigures through:
/// reliable configuration memory powered up with `image` (shared with
/// every other stack over it; each device copies only the frames it
/// writes), SEUs striking that memory between turns when `seu` is set,
/// and transport faults wrapping the writes outside it when `fault` is
/// set. Upsets therefore always land, while the writes that repair them
/// still suffer; the two injectors run on their own seeds. Callers
/// derive per-session seeds before passing the configs in.
pub fn channel_stack(
    image: Arc<Bitstream>,
    frame_bits: usize,
    seu: Option<SeuConfig>,
    fault: Option<IcapFaultConfig>,
) -> Box<dyn IcapChannel> {
    let mem = MemoryIcap::shared(image, frame_bits);
    match (seu, fault) {
        (Some(s), Some(f)) => Box::new(FaultyIcap::new(SeuIcap::new(mem, s), f)),
        (Some(s), None) => Box::new(SeuIcap::new(mem, s)),
        (None, Some(f)) => Box::new(FaultyIcap::new(mem, f)),
        (None, None) => Box::new(mem),
    }
}

/// Injection rates (each per frame write, drawn independently in the
/// order write-error → stall → corruption) plus the seed of the
/// deterministic generator behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcapFaultConfig {
    /// Probability a write is rejected outright ([`IcapError::WriteFailed`]).
    pub write_error_rate: f64,
    /// Probability a write stalls past its timeout ([`IcapError::Stalled`]).
    pub stall_rate: f64,
    /// Probability a write lands with 1–3 flipped bits and *reports
    /// success* — the case only readback-verify can catch.
    pub corrupt_rate: f64,
    /// Seed of the fault generator.
    pub seed: u64,
}

impl Default for IcapFaultConfig {
    fn default() -> Self {
        IcapFaultConfig { write_error_rate: 0.0, stall_rate: 0.0, corrupt_rate: 0.0, seed: 0 }
    }
}

impl IcapFaultConfig {
    /// Split a total fault `rate` across the three modes (half rejected
    /// writes, the rest stalls and silent corruption) — the shape the
    /// `--icap-fault-rate` CLI knob uses.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        IcapFaultConfig {
            write_error_rate: rate * 0.5,
            stall_rate: rate * 0.2,
            corrupt_rate: rate * 0.3,
            seed,
        }
    }

    /// Total per-write fault probability (upper bound; draws are
    /// sequential).
    pub fn total_rate(&self) -> f64 {
        self.write_error_rate + self.stall_rate + self.corrupt_rate
    }

    /// Read `PFDBG_ICAP_FAULT_RATE` (and optionally `PFDBG_ICAP_SEED`)
    /// from the environment — how the chaos pass in `check.sh` dials
    /// the whole suite up without code changes. Returns `None` when the
    /// variable is unset or unparsable.
    pub fn from_env() -> Option<Self> {
        let rate: f64 = std::env::var("PFDBG_ICAP_FAULT_RATE").ok()?.parse().ok()?;
        let seed = std::env::var("PFDBG_ICAP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x1CAB_FA17);
        Some(Self::uniform(rate, seed))
    }
}

/// A configuration port that injects transport faults in front of an
/// inner channel. Readback passes through untouched (reads do not
/// mutate configuration memory; corrupted *writes* are what readback
/// exists to expose).
pub struct FaultyIcap<C: IcapChannel> {
    inner: C,
    cfg: IcapFaultConfig,
    rng: StdRng,
}

impl<C: IcapChannel> FaultyIcap<C> {
    /// Wrap `inner` with fault injection per `cfg`.
    pub fn new(inner: C, cfg: IcapFaultConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        FaultyIcap { inner, cfg, rng }
    }

    /// The wrapped channel.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: IcapChannel> IcapChannel for FaultyIcap<C> {
    fn frame_bits(&self) -> usize {
        self.inner.frame_bits()
    }

    fn n_bits(&self) -> usize {
        self.inner.n_bits()
    }

    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        if self.rng.gen_bool(self.cfg.write_error_rate) {
            pfdbg_obs::counter_add("icap.injected_write_errors", 1);
            return Err(IcapError::WriteFailed);
        }
        if self.rng.gen_bool(self.cfg.stall_rate) {
            pfdbg_obs::counter_add("icap.injected_stalls", 1);
            return Err(IcapError::Stalled);
        }
        if self.rng.gen_bool(self.cfg.corrupt_rate) {
            let len_bits = pfdbg_pconf::icap::frame_len_bits(
                self.inner.n_bits(),
                self.inner.frame_bits(),
                frame,
            );
            if len_bits > 0 {
                let mut corrupted = data.to_vec();
                let flips = 1 + self.rng.gen_range(0..3usize);
                for _ in 0..flips {
                    let bit = self.rng.gen_range(0..len_bits);
                    if let Some(w) = corrupted.get_mut(bit / 64) {
                        *w ^= 1u64 << (bit % 64);
                    }
                }
                pfdbg_obs::counter_add("icap.injected_corruptions", 1);
                // The port reports success: only readback can tell.
                return self.inner.write_frame(frame, &corrupted);
            }
        }
        self.inner.write_frame(frame, data)
    }

    fn read_frame(&self, frame: usize) -> Vec<u64> {
        self.inner.read_frame(frame)
    }

    fn tick(&mut self) -> usize {
        // Transport faults strike writes, not time: forward the tick so
        // a wrapped SEU injector underneath still takes its upsets.
        self.inner.tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_pconf::icap::readback_all;
    use pfdbg_util::BitVec;

    fn mem(n_bits: usize, frame_bits: usize) -> MemoryIcap {
        MemoryIcap::new(Bitstream::from_bits(BitVec::zeros(n_bits)), frame_bits)
    }

    fn target(n_bits: usize, ones: &[usize]) -> Bitstream {
        let mut b = Bitstream::from_bits(BitVec::zeros(n_bits));
        for &i in ones {
            b.set(i, true);
        }
        b
    }

    #[test]
    fn zero_rate_is_transparent() {
        let mut ch = FaultyIcap::new(mem(256, 128), IcapFaultConfig::default());
        let t = target(256, &[3, 130]);
        for f in 0..2 {
            let words = pfdbg_pconf::icap::frame_words(&t, 128, f);
            ch.write_frame(f, &words).unwrap();
        }
        assert_eq!(readback_all(&ch), t);
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut ch = FaultyIcap::new(mem(256, 128), IcapFaultConfig::uniform(0.5, seed));
            (0..64).map(|_| ch.write_frame(0, &[0xFFu64, 0]).is_ok()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same fault pattern");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn corruption_is_silent_but_visible_in_readback() {
        // Corruption only: every write reports Ok, but some land wrong.
        let cfg = IcapFaultConfig { corrupt_rate: 1.0, ..Default::default() };
        let mut ch = FaultyIcap::new(mem(128, 128), cfg);
        let t = target(128, &[5]);
        let words = pfdbg_pconf::icap::frame_words(&t, 128, 0);
        ch.write_frame(0, &words).unwrap();
        assert_ne!(ch.read_frame(0), words, "silent corruption must be visible in readback");
    }

    #[test]
    fn channel_stack_layers_upsets_under_transport_faults() {
        let base = Arc::new(target(256, &[3]));
        let mut plain = channel_stack(base.clone(), 128, None, None);
        assert_eq!(plain.tick(), 0, "a reliable stack takes no upsets");
        assert_eq!(readback_all(plain.as_ref()), *base);
        let dead_port = IcapFaultConfig { write_error_rate: 1.0, ..Default::default() };
        let seu = Some(SeuConfig::new(1.0, 5));
        let mut both = channel_stack(base.clone(), 128, seu, Some(dead_port));
        assert!(both.tick() > 0, "upsets strike through the fault layer");
        assert_eq!(both.write_frame(0, &[0, 0]), Err(IcapError::WriteFailed));
        assert_eq!(readback_all(plain.as_ref()), *base, "stacks share the image, not upsets");
    }

    #[test]
    fn uniform_splits_and_env_parses() {
        let cfg = IcapFaultConfig::uniform(0.1, 42);
        assert!((cfg.total_rate() - 0.1).abs() < 1e-12);
        assert!(cfg.write_error_rate > cfg.stall_rate);
        // Out-of-range rates clamp instead of breaking Bernoulli draws.
        assert!(IcapFaultConfig::uniform(7.0, 0).total_rate() <= 1.0 + 1e-12);
    }
}
