//! One debugging session and its transactional turn — one
//! implementation, run by the standalone [`crate::OnlineReconfigurator`],
//! every serve session, `pfdbg record`/`replay` and the fuzzer alike.
//!
//! A [`Session`] holds only what belongs to one session: the parameters
//! it last committed, the resync flag, the evaluation scratch (whose
//! packed tunable words describe the committed configuration), the
//! turn's frame lists, and the channel it reconfigures through with the
//! scrubber and commit policy that channel is driven under. What the
//! sessions of one design share — the SCG with its base configuration,
//! the frame geometry, the port model and the escalation region — is
//! borrowed on each call through a [`TurnContext`], so a session keeps
//! no copy of it, and no configuration bitstream of its own either.
//!
//! A turn is [`Session::tick`] (between-turn time passes) and two
//! steps, exposed apart so a caller can keep its gates between them:
//!
//! 1. [`Session::stage`] evaluates the new parameters in one memoized
//!    sweep, or adopts packed tunable words cached from an earlier
//!    evaluation of them, and takes the packed XOR diff against the
//!    committed baseline. It touches only the scratch, so the caller
//!    may still abandon the turn (the serve layer's deadline gate sits
//!    between the steps).
//! 2. [`Session::commit`] pushes the changed frames through the commit
//!    loop of [`crate::icap::commit_frames`] — every frame when a
//!    rolled-back turn left the device untrusted — building each target
//!    frame from the shared base plus the staged packed words. On
//!    success the scratch baseline advances; a failure has changed
//!    nothing but the device, so it only arms the resync.
//!
//! [`Session::scrub`] repairs the device against the golden frames of
//! the committed parameters, under the same commit policy as the turns.

use crate::bdd::Bdd;
use crate::icap::{
    commit_frames_from, frame_words_into, CommitPolicy, CommitStats, FrameSource, IcapChannel,
};
use crate::scg::{Scg, SpecializeScratch};
use crate::scrub::{ScrubPolicy, ScrubReport, Scrubber};
use pfdbg_arch::{BitAddr, Bitstream, BitstreamLayout, IcapModel};
use pfdbg_util::BitVec;

/// The read-only half of a turn: one design's SCG, frame geometry, port
/// model and tunable-bit placement, shared by all of its sessions.
#[derive(Clone, Copy)]
pub struct TurnContext<'a> {
    /// The SCG over the generalized bitstream.
    pub scg: &'a Scg,
    /// Frame geometry.
    pub layout: &'a BitstreamLayout,
    /// Reconfiguration-port model.
    pub icap: &'a IcapModel,
    /// Where the SCG's tunable bits sit in the frames.
    pub tunables: &'a TunableFrames,
}

/// Where a design's tunable bits sit in its frames, computed once per
/// design: the frames holding any, and each frame's range of tunable
/// indices (`gbs.tunable` is sorted by address, so a frame's tunables
/// are one contiguous range).
#[derive(Debug, Clone)]
pub struct TunableFrames {
    /// Frames holding a tunable bit, ascending.
    region: Vec<usize>,
    /// Frame `f`'s tunables are `gbs.tunable[starts[f]..starts[f + 1]]`.
    starts: Vec<usize>,
}

impl TunableFrames {
    /// Place `scg`'s tunable bits in `layout`'s frames.
    pub fn new(scg: &Scg, layout: &BitstreamLayout) -> Self {
        let tunable = &scg.generalized().tunable;
        let starts = frame_starts(tunable, layout.frame_bits, layout.n_frames());
        let region = (0..layout.n_frames()).filter(|&f| starts[f] < starts[f + 1]).collect();
        TunableFrames { region, starts }
    }

    /// Frames holding a tunable bit, ascending — the escalation set of a
    /// commit's tunable-region rewrite level.
    pub fn region(&self) -> &[usize] {
        &self.region
    }
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

/// Each frame's range of tunable indices in one merge walk over the
/// address-sorted `tunable` list: frame `f`'s tunables are
/// `tunable[starts[f]..starts[f + 1]]`, for `n_frames` frames of
/// `frame_bits` bits.
pub(crate) fn frame_starts(
    tunable: &[(BitAddr, Bdd)],
    frame_bits: usize,
    n_frames: usize,
) -> Vec<usize> {
    let mut starts = Vec::with_capacity(n_frames + 1);
    let mut i = 0;
    for f in 0..=n_frames {
        while tunable.get(i).is_some_and(|&(addr, _)| addr < f * frame_bits) {
            i += 1;
        }
        starts.push(i);
    }
    starts
}

/// The configuration packed tunable words select, frame by frame: the
/// design's shared base with `packed` laid over its tunable bits — the
/// frames of [`Scg::try_specialize`] of the parameters `packed` was
/// evaluated for, with no bitstream built. The turn's commit and the
/// scrubber's golden frames both come from here.
pub(crate) struct PackedFrames<'a> {
    pub(crate) base: &'a Bitstream,
    pub(crate) tunable: &'a [(BitAddr, Bdd)],
    /// From [`frame_starts`] for the frame geometry in use.
    pub(crate) starts: &'a [usize],
    /// Bit `i` is the value of `tunable[i]`.
    pub(crate) packed: &'a BitVec,
}

impl FrameSource for PackedFrames<'_> {
    fn frame_into(&self, frame_bits: usize, frame: usize, out: &mut Vec<u64>) {
        frame_words_into(self.base, frame_bits, frame, out);
        let (Some(&lo), Some(&hi)) = (self.starts.get(frame), self.starts.get(frame + 1)) else {
            return;
        };
        let (start, packed) = (frame * frame_bits, self.packed.words());
        for (i, &(addr, _)) in (lo..hi).zip(&self.tunable[lo..hi]) {
            let (off, v) = (addr - start, (packed[i / 64] >> (i % 64)) & 1);
            let word = &mut out[off / 64];
            *word = (*word & !(1 << (off % 64))) | (v << (off % 64));
        }
    }
}

/// One session's state, channel, scrubber and commit policy (see the
/// module docs).
pub struct Session {
    /// The parameters of the configuration the device holds after the
    /// last committed turn.
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
    /// The (possibly faulty) reconfiguration transport.
    channel: Box<dyn IcapChannel>,
    scrubber: Scrubber,
    policy: CommitPolicy,
}

impl Session {
    /// A session at the base configuration (params = 0) of `scg`, over
    /// `channel`, whose memory must hold that configuration. Turns
    /// commit under `policy`, and so do scrub repairs: a frame is
    /// quarantined after `max_repair_attempts` consecutive failed
    /// repairs.
    pub fn new(
        scg: &Scg,
        channel: Box<dyn IcapChannel>,
        policy: CommitPolicy,
        max_repair_attempts: u32,
    ) -> Session {
        Session {
            params: BitVec::zeros(scg.generalized().n_params),
            needs_resync: false,
            scratch: SpecializeScratch::new(),
            frames: Vec::new(),
            write_set: Vec::new(),
            channel,
            scrubber: Scrubber::new(ScrubPolicy { max_repair_attempts, commit: policy }),
            policy,
        }
    }

    /// The loaded configuration — the session's *belief*, equal to the
    /// device readback after every committed turn. Built on each call
    /// from `scg`'s base and the committed packed words.
    pub fn loaded(&self, scg: &Scg) -> Bitstream {
        let gbs = scg.generalized();
        let mut bits = gbs.base.clone();
        let words = self.committed_words();
        // An empty baseline means no turn has been staged yet: the
        // session still holds the base configuration.
        if words.len() == gbs.tunable.len() {
            for (i, &(addr, _)) in gbs.tunable.iter().enumerate() {
                bits.set(addr, words.get(i));
            }
        }
        bits
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
    pub(crate) fn arm_resync(&mut self) {
        self.needs_resync = true;
    }

    /// The committed parameters' packed tunable values (bit `i` = value
    /// of `gbs.tunable[i]`) — what a cache of specializations stores.
    /// Describes [`Session::params`] once a turn has committed.
    pub fn committed_words(&self) -> &BitVec {
        &self.scratch.prev_packed
    }

    /// The channel the session reconfigures through, for reading the
    /// device frame by frame.
    pub fn channel(&self) -> &dyn IcapChannel {
        self.channel.as_ref()
    }

    /// The scrubber: lifetime totals, quarantine set, health verdict.
    pub fn scrubber(&self) -> &Scrubber {
        &self.scrubber
    }

    /// Between-turn time passes: the emulated fabric takes its SEUs (a
    /// no-op over a reliable channel). Returns the configuration bits
    /// that flipped.
    pub fn tick(&mut self) -> usize {
        self.channel.tick()
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

    /// Step 2: commit the frames the staged diff changes through the
    /// session's channel under its policy, each built from the shared
    /// base and the staged words. `params` must be the vector of the
    /// preceding [`Session::stage`]. On failure the session is
    /// unchanged but for the armed resync, and the commit's stats come
    /// back with the error.
    pub fn commit(
        &mut self,
        ctx: &TurnContext<'_>,
        params: &BitVec,
    ) -> Result<TurnCommit, (CommitStats, String)> {
        let (new, old) = (&self.scratch.packed, &self.scratch.prev_packed);
        // The changes come ascending by bit address, so frames arrive
        // in order and an adjacent-duplicate check builds the list.
        self.frames.clear();
        let mut bits_changed = 0;
        for (addr, _) in ctx.scg.packed_changes(new, old) {
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
        let gbs = ctx.scg.generalized();
        let target = PackedFrames {
            base: &gbs.base,
            tunable: &gbs.tunable,
            starts: &ctx.tunables.starts,
            packed: new,
        };
        let region = ctx.tunables.region();
        let channel = self.channel.as_mut();
        match commit_frames_from(channel, ctx.icap, &target, write_set, region, &self.policy) {
            Ok(stats) => {
                self.scratch.commit(params);
                self.params.clone_from(params);
                self.needs_resync = false;
                Ok(TurnCommit { stats, bits_changed, frames_changed: self.frames.len(), resynced })
            }
            Err(failed) => {
                self.needs_resync = true;
                Err(failed)
            }
        }
    }

    /// One scrub pass against the golden frames of the committed
    /// parameters (see [`crate::scrub`]). A quarantined frame arms the
    /// resync, so the session degrades visibly — the next commit
    /// rewrites the whole device — instead of serving trace data
    /// through a frame that refuses to heal.
    pub fn scrub(&mut self, ctx: &TurnContext<'_>) -> Result<ScrubReport, String> {
        let report =
            self.scrubber.scrub_with_scg(self.channel.as_mut(), ctx.icap, ctx.scg, &self.params)?;
        if report.quarantined_frames > 0 {
            self.arm_resync();
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::BddManager;
    use crate::genbits::Builder;
    use crate::icap::{frame_words, readback_all, IcapError, MemoryIcap};
    use pfdbg_arch::{build_rrg, ArchSpec, Device};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    /// A small SCG over a 4×4 device: 402 tunable bits over 8
    /// parameters, spread over several frames, one on each side of the
    /// first frame boundary among them. Every fifth is negated, so the
    /// base holds ones as well as zeros at tunable addresses.
    fn design() -> (Scg, BitstreamLayout, TunableFrames) {
        let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 4, 4);
        let rrg = build_rrg(&dev);
        let layout = BitstreamLayout::new(&dev, &rrg, 1312);
        let mut m = BddManager::new();
        let mut b = Builder::new(&layout, 8);
        for i in 0..400usize {
            let v1 = m.var((i % 8) as u32);
            let v2 = m.var(((i + 3) % 8) as u32);
            let f = if i % 2 == 0 { m.and(v1, v2) } else { m.xor(v1, v2) };
            let f = if i % 5 == 0 { m.not(f) } else { f };
            b.set_func(&m, i * 7, f);
        }
        for (addr, var) in [(1311, 1), (1312, 6)] {
            let f = m.var(var);
            b.set_func(&m, addr, f);
        }
        let scg = Scg::new(m, b.build().unwrap());
        let tunables = TunableFrames::new(&scg, &layout);
        (scg, layout, tunables)
    }

    fn vector(seed: u32) -> BitVec {
        (0..8).map(|i| (i * 5 + seed * 3) % 7 < 3).collect()
    }

    /// A port whose writes fail while its switch is dead, logging every
    /// frame write it is offered — the commit's target frames.
    struct Switchable {
        inner: MemoryIcap,
        switch: Switch,
    }

    /// Frame writes as `(frame, words)`, in the order offered.
    type WriteLog = Vec<(usize, Vec<u64>)>;

    /// The test's hold on a [`Switchable`] port it handed to a session.
    #[derive(Clone, Default)]
    struct Switch {
        dead: Arc<AtomicBool>,
        writes: Arc<Mutex<WriteLog>>,
    }

    impl Switch {
        fn port(&self, inner: MemoryIcap) -> Box<dyn IcapChannel> {
            Box::new(Switchable { inner, switch: self.clone() })
        }

        fn set_dead(&self, dead: bool) {
            self.dead.store(dead, Ordering::Relaxed);
        }

        fn is_dead(&self) -> bool {
            self.dead.load(Ordering::Relaxed)
        }

        /// The writes logged since the last call.
        fn take_writes(&self) -> WriteLog {
            std::mem::take(&mut *self.writes.lock().unwrap())
        }
    }

    impl IcapChannel for Switchable {
        fn frame_bits(&self) -> usize {
            self.inner.frame_bits()
        }
        fn n_bits(&self) -> usize {
            self.inner.n_bits()
        }
        fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
            self.switch.writes.lock().unwrap().push((frame, data.to_vec()));
            if self.switch.is_dead() {
                return Err(IcapError::WriteFailed);
            }
            self.inner.write_frame(frame, data)
        }
        fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
            self.inner.read_frame_into(frame, out)
        }
    }

    #[test]
    fn sessions_sharing_one_scg_commit_their_own_golden_configurations() {
        let (scg, layout, tunables) = design();
        let icap = IcapModel::virtex5();
        let ctx = TurnContext { scg: &scg, layout: &layout, icap: &icap, tunables: &tunables };
        let image = Arc::new(scg.generalized().base.clone());
        let mut sessions = [(); 2].map(|_| {
            let channel = MemoryIcap::shared(image.clone(), layout.frame_bits);
            Session::new(&scg, Box::new(channel), CommitPolicy::default(), 3)
        });
        for t in 0..6u32 {
            for (s, session) in sessions.iter_mut().enumerate() {
                let p = vector(t * 2 + s as u32);
                let want = scg.try_specialize(&p).unwrap();
                let loaded = session.loaded(&scg);
                let reference = loaded.words().iter().zip(want.words());
                let flips: u32 = reference.map(|(a, b)| (a ^ b).count_ones()).sum();
                session.stage(&ctx, &p, None).unwrap();
                let turn = session.commit(&ctx, &p).unwrap();
                assert_eq!(turn.bits_changed, flips as usize, "the reference difference");
                assert_eq!(session.loaded(&scg), want, "session {s} turn {t}");
                assert_eq!(&readback_all(session.channel()), &want);
                assert_eq!(session.params(), &p);
            }
        }
    }

    #[test]
    fn adopting_cached_words_equals_evaluating() {
        let (scg, layout, tunables) = design();
        let icap = IcapModel::virtex5();
        let ctx = TurnContext { scg: &scg, layout: &layout, icap: &icap, tunables: &tunables };
        let session = || {
            let channel = MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits);
            Session::new(&scg, Box::new(channel), CommitPolicy::default(), 3)
        };
        let (mut evaluated, mut adopted) = (session(), session());
        for t in 0..5u32 {
            let p = vector(t);
            evaluated.stage(&ctx, &p, None).unwrap();
            let turn = evaluated.commit(&ctx, &p).unwrap();
            let words = evaluated.committed_words().clone();
            adopted.stage(&ctx, &p, Some(&words)).unwrap();
            let cached = adopted.commit(&ctx, &p).unwrap();
            assert_eq!(cached.bits_changed, turn.bits_changed);
            assert_eq!(cached.frames_changed, turn.frames_changed);
            assert_eq!(adopted.loaded(&scg), evaluated.loaded(&scg));
            assert_eq!(adopted.committed_words(), &words);
        }
        let short = BitVec::zeros(3);
        assert!(adopted.stage(&ctx, &vector(9), Some(&short)).is_err(), "wrong word count");
    }

    #[test]
    fn abandoned_and_failed_turns_leave_the_session_unchanged() {
        let (scg, layout, tunables) = design();
        let icap = IcapModel::virtex5();
        let ctx = TurnContext { scg: &scg, layout: &layout, icap: &icap, tunables: &tunables };
        let policy = CommitPolicy { max_retries: 0, ..CommitPolicy::default() };
        let switch = Switch::default();
        let base = scg.generalized().base.clone();
        let mut session =
            Session::new(&scg, switch.port(MemoryIcap::new(base, layout.frame_bits)), policy, 3);
        session.stage(&ctx, &vector(1), None).unwrap();
        session.commit(&ctx, &vector(1)).unwrap();
        let before = session.loaded(&scg);

        // Staged, never committed (a missed deadline).
        session.stage(&ctx, &vector(2), None).unwrap();
        assert_eq!(session.loaded(&scg), before);
        assert_eq!(session.params(), &vector(1));

        // Committed over a dead port: undone, resync armed.
        session.stage(&ctx, &vector(3), None).unwrap();
        switch.set_dead(true);
        let (stats, _) = session.commit(&ctx, &vector(3)).unwrap_err();
        assert_eq!(stats.degradations, 2, "the failed commit's stats come back");
        assert_eq!(session.loaded(&scg), before);
        assert_eq!(session.params(), &vector(1));
        assert!(session.needs_resync());

        // The next turn rewrites every frame and lands on golden.
        switch.set_dead(false);
        session.stage(&ctx, &vector(4), None).unwrap();
        let turn = session.commit(&ctx, &vector(4)).unwrap();
        assert!(turn.resynced);
        assert_eq!(turn.stats.frames_verified, layout.n_frames());
        assert!(!session.needs_resync());
        let want = scg.try_specialize(&vector(4)).unwrap();
        assert_eq!(session.loaded(&scg), want);
        assert_eq!(readback_all(session.channel()), want);
    }

    /// The swept scrub finds and repairs exactly what the reference
    /// scrub against `try_specialize` does, on a design with tunables on
    /// both sides of a frame boundary: devices powered up with bits
    /// flipped across the tunable frames, both boundary tunables
    /// included, end identical and golden.
    #[test]
    fn swept_scrub_matches_the_reference_across_frame_boundaries() {
        let (scg, layout, _) = design();
        let icap = IcapModel::virtex5();
        let mut image = scg.generalized().base.clone();
        for addr in [5, 1311, 1312, 1313, 2700] {
            image.set(addr, !image.get(addr));
        }
        for &(addr, _) in scg.generalized().tunable.iter().step_by(37) {
            image.set(addr, !image.get(addr));
        }
        let image = Arc::new(image);
        for t in 0..6u32 {
            let p = vector(t);
            let mut swept = MemoryIcap::shared(image.clone(), layout.frame_bits);
            let mut reference = MemoryIcap::shared(image.clone(), layout.frame_bits);
            let mut scrubber = Scrubber::new(ScrubPolicy::default());
            let got = scrubber.scrub_with_scg(&mut swept, &icap, &scg, &p).unwrap();
            let want = scg.try_specialize(&p).unwrap();
            let mut scrubber = Scrubber::new(ScrubPolicy::default());
            assert_eq!(got, scrubber.scrub(&mut reference, &icap, &want).unwrap(), "vector {t}");
            assert!(got.upset_frames >= 3, "vector {t}: {got:?}");
            assert_eq!(readback_all(&swept), want, "vector {t}");
        }
    }

    /// Every logged write carries the frame of `want` it targets.
    fn writes_match(
        writes: &[(usize, Vec<u64>)],
        want: &Bitstream,
        frame_bits: usize,
    ) -> Result<(), TestCaseError> {
        for (frame, words) in writes {
            prop_assert_eq!(words, &frame_words(want, frame_bits, *frame), "frame {}", frame);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// On random walks — some turns adopting cached words, some
        /// commits failing over a dead port — every frame the commit's
        /// frame source yields is the golden specialization's frame,
        /// the resync after a failure included, which covers the device.
        #[test]
        fn target_frames_are_golden_on_random_walks(seed in any::<u64>()) {
            let (scg, layout, tunables) = design();
            let icap = IcapModel::virtex5();
            let ctx =
                TurnContext { scg: &scg, layout: &layout, icap: &icap, tunables: &tunables };
            let policy = CommitPolicy { max_retries: 0, ..CommitPolicy::default() };
            let image = Arc::new(scg.generalized().base.clone());
            let switch = Switch::default();
            let port = switch.port(MemoryIcap::shared(image, layout.frame_bits));
            let mut session = Session::new(&scg, port, policy, 3);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for turn in 0..16 {
                let word = next();
                let p: BitVec = (0..8).map(|i| (word >> i) & 1 == 1).collect();
                let want = scg.try_specialize(&p).unwrap();
                let cached = (word >> 8) % 3 == 0;
                let words = cached.then(|| {
                    let mut scratch = SpecializeScratch::new();
                    scg.stage_packed(&p, &p, None, &mut scratch).unwrap();
                    scratch.packed.clone()
                });
                let resync = session.needs_resync();
                switch.set_dead((word >> 10) % 5 == 0);
                switch.take_writes();
                session.stage(&ctx, &p, words.as_ref()).unwrap();
                let result = session.commit(&ctx, &p);
                let writes = switch.take_writes();
                writes_match(&writes, &want, layout.frame_bits)?;
                let failed = switch.is_dead() && !writes.is_empty();
                prop_assert_eq!(result.is_err(), failed, "turn {}", turn);
                if resync {
                    let mut written: Vec<usize> = writes.iter().map(|w| w.0).collect();
                    written.sort_unstable();
                    written.dedup();
                    prop_assert_eq!(written.len(), layout.n_frames(), "resync covers the device");
                }
                if !failed {
                    prop_assert_eq!(readback_all(session.channel()), want);
                }
            }
        }
    }
}
