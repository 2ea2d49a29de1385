//! The transactional debugging turn — one implementation, run by the
//! standalone [`crate::OnlineReconfigurator`] and by every serve
//! session alike.
//!
//! A [`TurnEngine`] holds only what belongs to one session: the loaded
//! configuration, the parameters it was specialized for, the resync
//! flag, the evaluation scratch and the turn's frame lists. What the
//! sessions of one design share — the SCG, the frame geometry, the port
//! model and the escalation region — is borrowed on each call through a
//! [`TurnContext`], so a session keeps no copy of it.
//!
//! A turn is two steps:
//!
//! 1. [`TurnEngine::stage`] evaluates the new parameters in one
//!    memoized sweep, or adopts packed tunable words cached from an
//!    earlier evaluation of them, and takes the packed XOR diff against
//!    the committed baseline. It touches only the scratch, so the
//!    caller may still abandon the turn (the serve layer's deadline gate
//!    sits between the steps).
//! 2. [`TurnEngine::commit`] applies the diff to the loaded bitstream in
//!    place and pushes the changed frames through [`commit_frames`] —
//!    every frame when a rolled-back turn left the device untrusted. On
//!    success the scratch baseline advances; on failure the diff is
//!    undone and the next commit resyncs the whole device.

use crate::icap::{commit_frames, CommitPolicy, CommitStats, IcapChannel};
use crate::scg::{Scg, SpecializeScratch};
use pfdbg_arch::{Bitstream, BitstreamLayout, IcapModel};
use pfdbg_util::BitVec;

/// The read-only half of a turn: one design's SCG, frame geometry, port
/// model and escalation region, shared by all of its sessions.
#[derive(Clone, Copy)]
pub struct TurnContext<'a> {
    /// The SCG over the generalized bitstream.
    pub scg: &'a Scg,
    /// Frame geometry.
    pub layout: &'a BitstreamLayout,
    /// Reconfiguration-port model.
    pub icap: &'a IcapModel,
    /// Frames holding a tunable bit ([`region_frames`]).
    pub region_frames: &'a [usize],
}

/// Frames containing at least one tunable bit, ascending — the
/// escalation set of a commit's tunable-region rewrite level.
pub fn region_frames(scg: &Scg, layout: &BitstreamLayout) -> Vec<usize> {
    let mut frames: Vec<usize> =
        scg.generalized().tunable.iter().map(|&(addr, _)| layout.frame_of(addr)).collect();
    frames.sort_unstable();
    frames.dedup();
    frames
}

/// What a committed turn changed and what its commit cost.
#[derive(Debug, Clone, Copy)]
pub struct TurnCommit {
    /// The frame commit's accounting.
    pub stats: CommitStats,
    /// Configuration bits that changed.
    pub bits_changed: usize,
    /// Frames holding a changed bit.
    pub frames_changed: usize,
    /// Whether the commit rewrote every frame because an earlier turn
    /// rolled back.
    pub resynced: bool,
}

/// One session's side of the transactional turn (see the module docs).
#[derive(Debug)]
pub struct TurnEngine {
    /// The configuration the device holds after the last committed turn.
    loaded: Bitstream,
    /// The parameters `loaded` was specialized for.
    params: BitVec,
    /// A previous commit rolled back (or a scrub quarantined a frame),
    /// so configuration memory is untrusted: the next commit rewrites
    /// every frame.
    needs_resync: bool,
    /// Memoized-evaluation scratch; its baseline tracks `params`.
    scratch: SpecializeScratch,
    /// The turn's changed frames and, when resyncing, its write set —
    /// reused across turns.
    frames: Vec<usize>,
    write_set: Vec<usize>,
}

impl TurnEngine {
    /// A session at the base configuration (params = 0) — what the
    /// device's channel holds before the first turn.
    pub fn new(scg: &Scg) -> Self {
        let gbs = scg.generalized();
        TurnEngine {
            loaded: gbs.base.clone(),
            params: BitVec::zeros(gbs.n_params),
            needs_resync: false,
            scratch: SpecializeScratch::new(),
            frames: Vec::new(),
            write_set: Vec::new(),
        }
    }

    /// The loaded configuration — the session's *belief*, equal to the
    /// device readback after every committed turn.
    pub fn loaded(&self) -> &Bitstream {
        &self.loaded
    }

    /// The parameters the loaded configuration was specialized for.
    pub fn params(&self) -> &BitVec {
        &self.params
    }

    /// Whether the next commit rewrites every frame.
    pub fn needs_resync(&self) -> bool {
        self.needs_resync
    }

    /// Stop trusting the device: the next commit rewrites every frame.
    pub fn arm_resync(&mut self) {
        self.needs_resync = true;
    }

    /// The committed parameters' packed tunable values (bit `i` = value
    /// of `gbs.tunable[i]`) — what a cache of specializations stores.
    /// Describes [`TurnEngine::params`] once a turn has committed.
    pub fn committed_words(&self) -> &BitVec {
        &self.scratch.prev_packed
    }

    /// Step 1: evaluate `params` — or adopt `cached`, the packed tunable
    /// words of an earlier evaluation of `params` — next to the packed
    /// words of the committed configuration, whose XOR is the turn's
    /// diff. Mutates only the scratch: dropping the turn here leaves the
    /// session as it was.
    pub fn stage(
        &mut self,
        ctx: &TurnContext<'_>,
        params: &BitVec,
        cached: Option<&BitVec>,
    ) -> Result<(), String> {
        ctx.scg.stage_packed(&self.params, params, cached, &mut self.scratch)
    }

    /// Step 2: apply the staged diff to the loaded bitstream and commit
    /// the changed frames through `channel`. `params` must be the vector
    /// of the preceding [`TurnEngine::stage`]. On failure the diff is
    /// undone, the resync armed, and the commit's stats returned with
    /// the error.
    pub fn commit(
        &mut self,
        ctx: &TurnContext<'_>,
        channel: &mut dyn IcapChannel,
        policy: &CommitPolicy,
        params: &BitVec,
    ) -> Result<TurnCommit, (CommitStats, String)> {
        let (new, old) = (&self.scratch.packed, &self.scratch.prev_packed);
        // The changes come ascending by bit address, so frames arrive
        // in order and an adjacent-duplicate check builds the list.
        self.frames.clear();
        let mut bits_changed = 0;
        for (addr, v) in ctx.scg.packed_changes(new, old) {
            self.loaded.set(addr, v);
            bits_changed += 1;
            let frame = ctx.layout.frame_of(addr);
            if self.frames.last() != Some(&frame) {
                self.frames.push(frame);
            }
        }
        let resynced = self.needs_resync;
        let write_set = if resynced {
            self.write_set.clear();
            self.write_set.extend(0..ctx.layout.n_frames());
            &self.write_set
        } else {
            &self.frames
        };
        match commit_frames(channel, ctx.icap, &self.loaded, write_set, ctx.region_frames, policy) {
            Ok(stats) => {
                self.scratch.commit(params);
                self.params.clone_from(params);
                self.needs_resync = false;
                Ok(TurnCommit { stats, bits_changed, frames_changed: self.frames.len(), resynced })
            }
            Err(failed) => {
                // Every change flipped its bit, so flipping back restores
                // the configuration the scratch baseline still describes.
                for (addr, v) in ctx.scg.packed_changes(new, old) {
                    self.loaded.set(addr, !v);
                }
                self.needs_resync = true;
                Err(failed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::BddManager;
    use crate::genbits::Builder;
    use crate::icap::{readback_all, IcapError, MemoryIcap};
    use pfdbg_arch::{build_rrg, ArchSpec, Device};

    /// A small SCG over a 4×4 device: 400 tunable bits over 8
    /// parameters, spread over several frames.
    fn design() -> (Scg, BitstreamLayout, Vec<usize>) {
        let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 4, 4);
        let rrg = build_rrg(&dev);
        let layout = BitstreamLayout::new(&dev, &rrg, 1312);
        let mut m = BddManager::new();
        let mut b = Builder::new(&layout, 8);
        for i in 0..400usize {
            let v1 = m.var((i % 8) as u32);
            let v2 = m.var(((i + 3) % 8) as u32);
            let f = if i % 2 == 0 { m.and(v1, v2) } else { m.xor(v1, v2) };
            b.set_func(&m, i * 7, f);
        }
        let scg = Scg::new(m, b.build().unwrap());
        let region = region_frames(&scg, &layout);
        (scg, layout, region)
    }

    fn vector(seed: u32) -> BitVec {
        (0..8).map(|i| (i * 5 + seed * 3) % 7 < 3).collect()
    }

    /// A port whose writes fail while `dead` is set.
    struct Switchable {
        inner: MemoryIcap,
        dead: bool,
    }

    impl IcapChannel for Switchable {
        fn frame_bits(&self) -> usize {
            self.inner.frame_bits()
        }
        fn n_bits(&self) -> usize {
            self.inner.n_bits()
        }
        fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
            if self.dead {
                return Err(IcapError::WriteFailed);
            }
            self.inner.write_frame(frame, data)
        }
        fn read_frame(&self, frame: usize) -> Vec<u64> {
            self.inner.read_frame(frame)
        }
    }

    #[test]
    fn sessions_sharing_one_scg_commit_their_own_golden_configurations() {
        let (scg, layout, region) = design();
        let icap = IcapModel::virtex5();
        let ctx = TurnContext { scg: &scg, layout: &layout, icap: &icap, region_frames: &region };
        let policy = CommitPolicy::default();
        let mut engines = [TurnEngine::new(&scg), TurnEngine::new(&scg)];
        let mut channels = [
            MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits),
            MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits),
        ];
        for t in 0..6u32 {
            for (s, (engine, channel)) in engines.iter_mut().zip(&mut channels).enumerate() {
                let p = vector(t * 2 + s as u32);
                let want = scg.try_specialize(&p).unwrap();
                let reference = engine.loaded().words().iter().zip(want.words());
                let flips: u32 = reference.map(|(a, b)| (a ^ b).count_ones()).sum();
                engine.stage(&ctx, &p, None).unwrap();
                let turn = engine.commit(&ctx, channel, &policy, &p).unwrap();
                assert_eq!(turn.bits_changed, flips as usize, "the reference difference");
                assert_eq!(engine.loaded(), &want, "session {s} turn {t}");
                assert_eq!(&readback_all(channel), &want);
                assert_eq!(engine.params(), &p);
            }
        }
    }

    #[test]
    fn adopting_cached_words_equals_evaluating() {
        let (scg, layout, region) = design();
        let icap = IcapModel::virtex5();
        let ctx = TurnContext { scg: &scg, layout: &layout, icap: &icap, region_frames: &region };
        let policy = CommitPolicy::default();
        let (mut evaluated, mut adopted) = (TurnEngine::new(&scg), TurnEngine::new(&scg));
        let mut ch_e = MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits);
        let mut ch_a = MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits);
        for t in 0..5u32 {
            let p = vector(t);
            evaluated.stage(&ctx, &p, None).unwrap();
            let turn = evaluated.commit(&ctx, &mut ch_e, &policy, &p).unwrap();
            let words = evaluated.committed_words().clone();
            adopted.stage(&ctx, &p, Some(&words)).unwrap();
            let cached = adopted.commit(&ctx, &mut ch_a, &policy, &p).unwrap();
            assert_eq!(cached.bits_changed, turn.bits_changed);
            assert_eq!(cached.frames_changed, turn.frames_changed);
            assert_eq!(adopted.loaded(), evaluated.loaded());
            assert_eq!(adopted.committed_words(), &words);
        }
        let short = BitVec::zeros(3);
        assert!(adopted.stage(&ctx, &vector(9), Some(&short)).is_err(), "wrong word count");
    }

    #[test]
    fn abandoned_and_failed_turns_leave_the_session_unchanged() {
        let (scg, layout, region) = design();
        let icap = IcapModel::virtex5();
        let ctx = TurnContext { scg: &scg, layout: &layout, icap: &icap, region_frames: &region };
        let policy = CommitPolicy { max_retries: 0, ..CommitPolicy::default() };
        let mut engine = TurnEngine::new(&scg);
        let base = scg.generalized().base.clone();
        let mut channel =
            Switchable { inner: MemoryIcap::new(base, layout.frame_bits), dead: false };
        engine.stage(&ctx, &vector(1), None).unwrap();
        engine.commit(&ctx, &mut channel, &policy, &vector(1)).unwrap();
        let before = engine.loaded().clone();

        // Staged, never committed (a missed deadline).
        engine.stage(&ctx, &vector(2), None).unwrap();
        assert_eq!(engine.loaded(), &before);
        assert_eq!(engine.params(), &vector(1));

        // Committed over a dead port: undone, resync armed.
        engine.stage(&ctx, &vector(3), None).unwrap();
        channel.dead = true;
        let (stats, _) = engine.commit(&ctx, &mut channel, &policy, &vector(3)).unwrap_err();
        assert_eq!(stats.degradations, 2, "the failed commit's stats come back");
        assert_eq!(engine.loaded(), &before);
        assert_eq!(engine.params(), &vector(1));
        assert!(engine.needs_resync());

        // The next turn rewrites every frame and lands on golden.
        channel.dead = false;
        engine.stage(&ctx, &vector(4), None).unwrap();
        let turn = engine.commit(&ctx, &mut channel, &policy, &vector(4)).unwrap();
        assert!(turn.resynced);
        assert_eq!(turn.stats.frames_verified, layout.n_frames());
        assert!(!engine.needs_resync());
        let want = scg.try_specialize(&vector(4)).unwrap();
        assert_eq!(engine.loaded(), &want);
        assert_eq!(readback_all(&channel), want);
    }
}
