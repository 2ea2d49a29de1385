//! A deliberately *nondeterministic* ICAP wrapper — a test-only hook.
//!
//! Every other channel in this crate is seeded and replays
//! bit-identically; `NondetIcap` exists to violate that contract on
//! purpose, so the differential fuzzer and the replay verifier can
//! prove they *catch* nondeterminism instead of merely never seeing
//! it. After a configurable number of device ticks it flips one
//! configuration bit that no seeded generator accounts for — exactly
//! the kind of silent divergence (un-modeled hardware state, a stray
//! write, a forgotten RNG) record/replay is meant to flush out.
//!
//! Do not wire this into any production path.

use pfdbg_pconf::IcapChannel;

/// Wraps a channel and injects one unseeded bit flip after
/// `after_ticks` ticks (see module docs; test-only).
pub struct NondetIcap<C> {
    inner: C,
    after_ticks: usize,
    ticks: usize,
    fired: bool,
}

impl<C: IcapChannel> NondetIcap<C> {
    /// Wrap `inner`; the rogue flip lands on the tick numbered
    /// `after_ticks` (1-based: `after_ticks == 1` fires on the first
    /// tick).
    pub fn new(inner: C, after_ticks: usize) -> Self {
        NondetIcap { inner, after_ticks: after_ticks.max(1), ticks: 0, fired: false }
    }

    /// Whether the rogue flip has happened yet.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl<C: IcapChannel> IcapChannel for NondetIcap<C> {
    fn frame_bits(&self) -> usize {
        self.inner.frame_bits()
    }

    fn n_bits(&self) -> usize {
        self.inner.n_bits()
    }

    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), pfdbg_pconf::IcapError> {
        self.inner.write_frame(frame, data)
    }

    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        self.inner.read_frame_into(frame, out)
    }

    fn tick(&mut self) -> usize {
        let mut flips = self.inner.tick();
        self.ticks += 1;
        if !self.fired && self.ticks >= self.after_ticks {
            self.fired = true;
            // Flip the device's very last configuration bit: a frame
            // rarely touched by diff commits, so the flip survives
            // until a readback or scrub observes it.
            let frame = self.inner.n_frames().saturating_sub(1);
            let len_bits = pfdbg_pconf::icap::frame_len_bits(
                self.inner.n_bits(),
                self.inner.frame_bits(),
                frame,
            );
            if len_bits > 0 {
                let mut words = Vec::new();
                self.inner.read_frame_into(frame, &mut words);
                let bit = len_bits - 1;
                words[bit / 64] ^= 1u64 << (bit % 64);
                self.inner
                    .write_frame(frame, &words)
                    .expect("nondet flip write must not fail on the wrapped channel");
                flips += 1;
            }
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_arch::Bitstream;
    use pfdbg_pconf::MemoryIcap;
    use pfdbg_util::BitVec;

    fn mem(bits: usize, frame_bits: usize) -> MemoryIcap {
        MemoryIcap::new(Bitstream::from_bits(BitVec::zeros(bits)), frame_bits)
    }

    #[test]
    fn flips_exactly_one_bit_on_the_configured_tick() {
        let mut ch = NondetIcap::new(mem(100, 32), 3);
        assert_eq!(ch.tick(), 0);
        assert_eq!(ch.tick(), 0);
        assert!(!ch.fired());
        assert_eq!(ch.tick(), 1, "third tick fires the rogue flip");
        assert!(ch.fired());
        assert_eq!(ch.tick(), 0, "the flip is one-shot");
        // The flipped bit is the device's last one.
        let mut last = Vec::new();
        ch.read_frame_into(3, &mut last);
        assert_eq!(last[0] >> 3 & 1, 1, "bit 99 = frame 3 bit 3 must be set");
    }
}
