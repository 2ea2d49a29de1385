//! Property tests for the SEU injector: for any configuration, the
//! upset pattern is a pure function of the seed — bit-identical no
//! matter how many worker threads the rest of the flow runs with. The
//! scrub acceptance runs lean on this: replaying a chaos session at a
//! different `--threads` must replay the exact same upsets. And over a
//! copy-on-write device sharing its power-up image, the injector
//! behaves exactly as over a whole-bitstream device.

use pfdbg_arch::Bitstream;
use pfdbg_emu::{SeuConfig, SeuIcap};
use pfdbg_pconf::icap::{
    frame_len_bits, frame_words, readback_all, IcapChannel, IcapError, MemoryIcap,
};
use pfdbg_util::BitVec;
use proptest::prelude::*;
use std::sync::Arc;

/// Run `ticks` upset rounds and return the per-tick flip counts plus
/// the final configuration memory.
fn upset_run(
    n_bits: usize,
    frame_bits: usize,
    cfg: SeuConfig,
    ticks: usize,
) -> (Vec<usize>, Bitstream) {
    let mem = MemoryIcap::new(Bitstream::from_bits(BitVec::zeros(n_bits)), frame_bits);
    let mut ch = SeuIcap::new(mem, cfg);
    let flips = (0..ticks).map(|_| ch.tick()).collect();
    (flips, readback_all(&ch))
}

/// The device model the copy-on-write `MemoryIcap` replaced: one whole
/// bitstream, every write spliced in.
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
    fn read_frame(&self, frame: usize) -> Vec<u64> {
        frame_words(&self.mem, self.frame_bits, frame)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// SEU ticks interleaved with frame writes: the injector over a
    /// copy-on-write device sharing its power-up image takes the same
    /// upsets and reads back exactly like the same seeded injector over
    /// a whole-bitstream device, and a second device over the image
    /// never sees any of it.
    #[test]
    fn upsets_over_a_shared_image_match_a_whole_bitstream(
        rate in 0.0f64..1.0,
        burst in 1usize..4,
        seed in any::<u64>(),
        frames in 1usize..12,
        ticks in 1usize..8,
    ) {
        let frame_bits = 96;
        let n_bits = frames * frame_bits - 17; // ragged tail frame
        let bits: BitVec = (0..n_bits).map(|i| (seed >> (i % 61)) & 1 == 1).collect();
        let image = Arc::new(Bitstream::from_bits(bits));
        let cfg = SeuConfig { rate, burst, seed };
        let mut cow = SeuIcap::new(MemoryIcap::shared(image.clone(), frame_bits), cfg);
        let whole = WholeIcap { mem: (*image).clone(), frame_bits };
        let mut whole = SeuIcap::new(whole, cfg);
        let bystander = MemoryIcap::shared(image.clone(), frame_bits);
        for t in 0..ticks {
            prop_assert_eq!(cow.tick(), whole.tick(), "tick {}", t);
            // A write between ticks, junk past the frame end included.
            let frame = t % cow.n_frames();
            let data = [seed.rotate_left(t as u32), !seed];
            prop_assert_eq!(cow.write_frame(frame, &data), whole.write_frame(frame, &data));
            prop_assert_eq!(readback_all(&cow), readback_all(&whole), "tick {}", t);
        }
        prop_assert_eq!(readback_all(&bystander), (*image).clone());
    }

    #[test]
    fn upsets_are_bit_identical_across_thread_counts(
        rate in 0.0f64..1.0,
        burst in 1usize..4,
        seed in any::<u64>(),
        frames in 1usize..12,
        ticks in 1usize..6,
    ) {
        let frame_bits = 96;
        let n_bits = frames * frame_bits - 17; // ragged tail frame
        let cfg = SeuConfig { rate, burst, seed };
        // The global worker-thread policy drives every parallel stage of
        // the flow; the injector must not see it at all.
        let baseline = upset_run(n_bits, frame_bits, cfg, ticks);
        for threads in [1usize, 2, 8] {
            pfdbg_util::par::set_threads(threads);
            let run = upset_run(n_bits, frame_bits, cfg, ticks);
            pfdbg_util::par::set_threads(0);
            prop_assert_eq!(
                &run, &baseline,
                "upset pattern diverged at {} threads", threads
            );
        }
        // And per-seed determinism holds regardless of rate.
        prop_assert_eq!(&upset_run(n_bits, frame_bits, cfg, ticks), &baseline);
    }
}
