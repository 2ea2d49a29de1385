//! The Specialized Configuration Generator (SCG) and the online
//! reconfiguration loop.
//!
//! Per debugging turn, the SCG evaluates the Boolean functions of the
//! generalized bitstream for the chosen parameter values and produces a
//! specialized bitstream; the reconfigurator then swaps only the changed
//! frames into configuration memory through the (modeled) HWICAP. The
//! paper bounds the evaluation at 50 µs and reports specialization to be
//! three orders of magnitude faster than the 176 ms full reconfiguration
//! — [`Scg::specialize_timed_batch`] measures our evaluation for the
//! benchmark harness, and [`OnlineReconfigurator::try_apply`] adds the
//! modeled transfer. The turn itself is the one [`Session`]'s, the
//! struct every serve session and journal re-drive runs too.
//!
//! The SCG has one evaluator, the memoized sweep
//! ([`BddManager::eval_all_into`]) that every turn and scrub runs, and
//! one reference, [`Scg::try_specialize`]: a [`BddManager::eval`] walk
//! per function that shares no evaluation code with the sweep, for
//! tests and oracles to check it against.

use crate::bdd::{Bdd, BddManager};
use crate::genbits::GeneralizedBitstream;
use crate::icap::{CommitPolicy, IcapChannel, MemoryIcap};
use crate::scrub::{ScrubPolicy, ScrubReport, Scrubber};
use crate::session::{Session, TunableFrames, TurnContext};
use pfdbg_arch::{Bitstream, BitstreamLayout, IcapModel};
use pfdbg_util::BitVec;
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-BDD-node values of the sweep in flight on this thread
    /// ([`BddManager::eval_all_into`]). Valid only within one
    /// evaluation, so one buffer per thread serves every session that
    /// thread runs (a serve shard's sessions included) instead of one
    /// per session: a byte per node is 4 KB on diffeq1.
    static NODE_VALS: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Reusable per-session scratch for the memoized batch evaluator.
///
/// Holds the packed tunable values of the current and previous turn
/// and a diff buffer — so a steady-state turn allocates nothing. (The
/// per-node values of a sweep live in a per-thread buffer instead.) A
/// scratch belongs to exactly one session (one [`Session`]): its
/// `prev_packed`/`prev_params` baseline mirrors that session's
/// committed state and must never be shared across sessions (see
/// DESIGN.md §12).
#[derive(Debug, Default)]
pub struct SpecializeScratch {
    /// Tunable values (indexed like `gbs.tunable`) for the parameters
    /// of the evaluation in flight.
    pub(crate) packed: BitVec,
    /// Tunable values for the session's committed parameters — the
    /// XOR baseline of the packed diff.
    pub(crate) prev_packed: BitVec,
    /// The parameters `prev_packed` was evaluated for; `None` until the
    /// first baseline evaluation.
    prev_params: Option<BitVec>,
    /// The DPR write set [`Scg::specialize_diff_from_batch`] returns,
    /// reused across calls. (A session's commit walks the packed words
    /// instead, so a serve session never grows this buffer.)
    diffs: Vec<(usize, bool)>,
}

impl SpecializeScratch {
    /// An empty scratch; buffers grow to their working size on first use.
    pub fn new() -> Self {
        SpecializeScratch::default()
    }

    /// Promote the evaluation in flight to the committed baseline.
    /// Called only after the frame commit succeeded — on rollback the
    /// baseline must keep describing the still-loaded configuration.
    pub fn commit(&mut self, params: &BitVec) {
        std::mem::swap(&mut self.packed, &mut self.prev_packed);
        match &mut self.prev_params {
            Some(p) => p.clone_from(params),
            None => self.prev_params = Some(params.clone()),
        }
    }
}

/// The SCG: owns the parameter functions and produces specialized
/// bitstreams. (In the paper this runs on an embedded processor next to
/// the HWICAP.)
pub struct Scg {
    manager: BddManager,
    gbs: GeneralizedBitstream,
}

impl Scg {
    /// Wrap a generalized bitstream and the manager holding its BDDs.
    /// The SCG keeps only the nodes reachable from the tunable functions
    /// (see [`BddManager::eval_all_into`]), so `gbs.tunable`'s roots are
    /// renumbered into that compacted table.
    pub fn new(manager: BddManager, mut gbs: GeneralizedBitstream) -> Self {
        let roots: Vec<Bdd> = gbs.tunable.iter().map(|&(_, f)| f).collect();
        let (manager, roots) = manager.compact(&roots);
        for (t, f) in gbs.tunable.iter_mut().zip(roots) {
            t.1 = f;
        }
        Scg { manager, gbs }
    }

    /// The evaluation thread count: always 1, as the SCG evaluates
    /// serially. It goes with the next change to the benchmark, which
    /// still records it in its journal meta.
    pub fn effective_threads(&self) -> usize {
        1
    }

    /// The generalized bitstream.
    pub fn generalized(&self) -> &GeneralizedBitstream {
        &self.gbs
    }

    /// Borrow the BDD manager.
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Memoized batch evaluation of every tunable function under
    /// `params`: one linear node-table sweep
    /// ([`BddManager::eval_all_into`], into this thread's node-value
    /// buffer) costs each shared BDD node exactly once, then the root
    /// values are packed into `packed` (bit `i` = value of
    /// `gbs.tunable[i]`), shifted in without a branch.
    fn eval_packed(&self, params: &BitVec, packed: &mut BitVec) {
        let mut vals = NODE_VALS.take();
        self.manager.eval_all_into(params, &mut vals);
        packed.reset_zeroed(self.gbs.tunable.len());
        for (wi, chunk) in self.gbs.tunable.chunks(64).enumerate() {
            let mut w = 0u64;
            for (b, &(_, f)) in chunk.iter().enumerate() {
                w |= u64::from(self.manager.value_of(f, &vals)) << b;
            }
            packed.set_word(wi, w);
        }
        NODE_VALS.set(vals);
    }

    /// The packed tunable words of `params` (bit `i` = value of
    /// `gbs.tunable[i]`) from one memoized sweep — the golden
    /// configuration the scrubber lays over the shared base.
    pub(crate) fn sweep(&self, params: &BitVec, packed: &mut BitVec) -> Result<(), String> {
        self.check_params(params)?;
        self.eval_packed(params, packed);
        Ok(())
    }

    /// The DPR write set for moving a session whose loaded bitstream is
    /// the specialization of `prev_params` to `params`, computed by
    /// XOR-ing the packed tunable words of the two memoized evaluations.
    /// Ascending by bit address, bit-identical to the difference of two
    /// [`Scg::try_specialize`] results.
    ///
    /// The returned slice borrows `scratch` and is valid until the next
    /// call; after the frames commit, promote the baseline with
    /// [`SpecializeScratch::commit`] — on rollback, don't, and the
    /// scratch keeps describing the still-loaded configuration.
    pub fn specialize_diff_from_batch<'s>(
        &self,
        prev_params: &BitVec,
        params: &BitVec,
        scratch: &'s mut SpecializeScratch,
    ) -> Result<&'s [(usize, bool)], String> {
        self.stage_packed(prev_params, params, None, scratch)?;
        scratch.diffs.clear();
        scratch.diffs.extend(self.packed_changes(&scratch.packed, &scratch.prev_packed));
        Ok(&scratch.diffs)
    }

    /// The evaluation step of a turn: bring `scratch`'s baseline to the
    /// committed parameters, then fill its in-flight packed words — by
    /// one memoized sweep for `params`, or by adopting `cached`, the
    /// packed words of an earlier evaluation of `params`. Touches
    /// nothing but `scratch`.
    pub(crate) fn stage_packed(
        &self,
        committed: &BitVec,
        params: &BitVec,
        cached: Option<&BitVec>,
        scratch: &mut SpecializeScratch,
    ) -> Result<(), String> {
        self.check_params(committed)?;
        self.check_params(params)?;
        if scratch.prev_params.as_ref() != Some(committed) {
            // Cold scratch (a session's first turn): derive the
            // committed baseline.
            self.eval_packed(committed, &mut scratch.prev_packed);
            match &mut scratch.prev_params {
                Some(p) => p.clone_from(committed),
                None => scratch.prev_params = Some(committed.clone()),
            }
        }
        match cached {
            Some(words) if words.len() != self.gbs.tunable.len() => {
                return Err(format!(
                    "cached tunable words cover {} bits, design has {}",
                    words.len(),
                    self.gbs.tunable.len()
                ))
            }
            Some(words) => scratch.packed.clone_from(words),
            None => {
                self.eval_packed(params, &mut scratch.packed);
                if pfdbg_obs::enabled() {
                    pfdbg_obs::counter_add("scg.batch_evals", 1);
                    pfdbg_obs::counter_add("scg.nodes_swept", self.manager.n_nodes() as u64);
                }
            }
        }
        Ok(())
    }

    /// The write set between two packed evaluations: `(address, value in
    /// new)` of every tunable whose value differs. Word-level: XOR packs
    /// 64 tunable-bit compares into one op, and ascending tunable index
    /// means ascending bit address (the tunable list is sorted), so the
    /// write set comes out sorted with no sort. Tail words beyond the
    /// tunable count are zero in both.
    pub(crate) fn packed_changes<'a>(
        &'a self,
        new: &'a BitVec,
        old: &'a BitVec,
    ) -> impl Iterator<Item = (usize, bool)> + 'a {
        new.words().iter().zip(old.words()).enumerate().flat_map(move |(wi, (&a, &b))| {
            let mut x = a ^ b;
            std::iter::from_fn(move || {
                if x == 0 {
                    return None;
                }
                let bit = x.trailing_zeros() as usize;
                x &= x - 1;
                Some((self.gbs.tunable[wi * 64 + bit].0, (a >> bit) & 1 == 1))
            })
        })
    }

    /// The full specialization of `params` starting from any previously
    /// specialized bitstream, with one memoized sweep instead of a walk
    /// per function. Bit-identical to [`Scg::try_specialize`].
    pub fn specialize_from_batch(
        &self,
        prev_bits: &Bitstream,
        params: &BitVec,
        scratch: &mut SpecializeScratch,
    ) -> Result<Bitstream, String> {
        self.check_params(params)?;
        if prev_bits.len() != self.gbs.base.len() {
            return Err(format!(
                "bitstream size mismatch: got {}, layout has {}",
                prev_bits.len(),
                self.gbs.base.len()
            ));
        }
        self.eval_packed(params, &mut scratch.packed);
        let mut out = prev_bits.clone();
        for (i, &(addr, _)) in self.gbs.tunable.iter().enumerate() {
            out.set(addr, scratch.packed.get(i));
        }
        Ok(out)
    }

    fn check_params(&self, params: &BitVec) -> Result<(), String> {
        if params.len() != self.gbs.n_params {
            return Err(format!(
                "parameter count mismatch: got {}, design has {}",
                params.len(),
                self.gbs.n_params
            ));
        }
        Ok(())
    }

    /// The reference specialization of `params`: the base bitstream with
    /// every tunable bit set by its own [`BddManager::eval`] walk. A
    /// wrong parameter count is an error, not a panic. No turn runs it;
    /// it is the oracle the sweep is checked against.
    pub fn try_specialize(&self, params: &BitVec) -> Result<Bitstream, String> {
        self.check_params(params)?;
        let mut out = self.gbs.base.clone();
        for &(addr, f) in &self.gbs.tunable {
            out.set(addr, self.manager.eval(f, params));
        }
        Ok(out)
    }

    /// The full specialization of `params` by the memoized sweep, timed.
    /// The paper's ≤ 50 µs budget is [`SpecializeTiming::eval`]: the
    /// node sweep, the packing and the tunable writes into an
    /// already-allocated configuration. It excludes the base clone (an
    /// artifact of this API returning an owned bitstream; the online
    /// turn applies its diff to the loaded bitstream in place).
    pub fn specialize_timed_batch(
        &self,
        params: &BitVec,
        scratch: &mut SpecializeScratch,
    ) -> (Bitstream, SpecializeTiming) {
        let t0 = Instant::now();
        let mut out = self.gbs.base.clone();
        let t1 = Instant::now();
        self.eval_packed(params, &mut scratch.packed);
        for (i, &(addr, _)) in self.gbs.tunable.iter().enumerate() {
            out.set(addr, scratch.packed.get(i));
        }
        let eval = t1.elapsed();
        (out, SpecializeTiming { eval, total: t0.elapsed() })
    }
}

/// How a [`Scg::specialize_timed_batch`] call spent its time.
#[derive(Debug, Clone, Copy)]
pub struct SpecializeTiming {
    /// Pure evaluation: computing the tunable values and writing them
    /// into configuration bits. This is the paper's ≤ 50 µs quantity.
    pub eval: Duration,
    /// Whole call, including allocating/cloning the output bitstream.
    pub total: Duration,
}

/// Statistics of one online reconfiguration turn.
#[derive(Debug, Clone, Copy)]
pub struct TurnStats {
    /// Wall-clock time of the SCG evaluation (measured).
    pub eval_time: Duration,
    /// Configuration bits that changed.
    pub bits_changed: usize,
    /// Frames rewritten via DPR.
    pub frames_changed: usize,
    /// Modeled ICAP transfer time for those frames (forward writes,
    /// including any retried or escalated ones).
    pub transfer_time: Duration,
    /// Modeled readback-verify overhead (readbacks, retry backoff,
    /// stall timeouts) on top of the forward transfer.
    pub verify_time: Duration,
    /// Frame writes re-attempted after a transport error or a failed
    /// verification.
    pub retries: u32,
    /// Escalation levels the commit degraded through (0 = clean
    /// partial diff, 1 = tunable-region rewrite, 2 = full
    /// reconfiguration).
    pub degradations: u32,
}

impl TurnStats {
    /// Total turn latency (evaluation + transfer + verification).
    pub fn total(&self) -> Duration {
        self.eval_time + self.transfer_time + self.verify_time
    }
}

/// Fold one turn's costs into the observability registry.
fn record_turn(stats: &TurnStats, frame_bits: usize) {
    if !pfdbg_obs::enabled() {
        return;
    }
    pfdbg_obs::counter_add("scg.turns", 1);
    pfdbg_obs::counter_add("scg.bits_changed", stats.bits_changed as u64);
    pfdbg_obs::counter_add("scg.frames_changed", stats.frames_changed as u64);
    pfdbg_obs::counter_add("scg.icap_bytes", (stats.frames_changed * frame_bits / 8) as u64);
    pfdbg_obs::counter_add("scg.icap_retries", stats.retries as u64);
    pfdbg_obs::counter_add("scg.icap_degradations", stats.degradations as u64);
    pfdbg_obs::gauge_set("scg.eval_us_last", stats.eval_time.as_secs_f64() * 1e6);
    pfdbg_obs::gauge_set("scg.transfer_us_last", stats.transfer_time.as_secs_f64() * 1e6);
}

/// The online side: the standalone session — the design it owns plus
/// one [`Session`], the struct every serve session and journal re-drive
/// runs too.
///
/// Turns are atomic: the loaded configuration and its parameters
/// advance only after every written frame passed readback-verify
/// through the channel. If the commit exhausts its retry and
/// escalation budget, the turn rolls back — the session state is
/// unchanged — and the next turn starts with a full resync, because
/// the fabric's configuration memory may hold arbitrary content in the
/// frames the failed commit touched.
pub struct OnlineReconfigurator {
    scg: Scg,
    layout: BitstreamLayout,
    icap: IcapModel,
    /// Where the tunable bits sit in the frames.
    tunables: TunableFrames,
    session: Session,
}

impl OnlineReconfigurator {
    /// Load the base (params = 0) configuration as the starting state,
    /// over a reliable in-memory channel, with the default commit and
    /// scrub policies.
    pub fn new(scg: Scg, layout: BitstreamLayout, icap: IcapModel) -> Self {
        let channel = Box::new(MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits));
        let attempts = ScrubPolicy::default().max_repair_attempts;
        let session = Session::new(&scg, channel, CommitPolicy::default(), attempts);
        Self::with_session(scg, layout, icap, session)
    }

    /// Like [`OnlineReconfigurator::new`] but over an explicit session —
    /// its channel (e.g. a `pfdbg-emu` channel stack injecting faults and
    /// upsets) and its policies. The session must be at the base
    /// configuration of `scg`.
    pub fn with_session(
        scg: Scg,
        layout: BitstreamLayout,
        icap: IcapModel,
        session: Session,
    ) -> Self {
        let tunables = TunableFrames::new(&scg, &layout);
        OnlineReconfigurator { scg, layout, icap, tunables, session }
    }

    /// The currently loaded bitstream (the session's *belief* — equal to
    /// the device readback after every committed turn), built on each
    /// call from the base configuration and the committed parameters.
    pub fn current(&self) -> Bitstream {
        self.session.loaded(&self.scg)
    }

    /// Read the device's configuration memory back through the channel —
    /// the ground truth `current` must match after a commit.
    pub fn readback(&self) -> Bitstream {
        crate::icap::readback_all(self.session.channel())
    }

    /// The channel the session reconfigures through, for reading the
    /// device frame by frame.
    pub fn channel(&self) -> &dyn IcapChannel {
        self.session.channel()
    }

    /// The session's scrubber: lifetime totals, quarantine set, health
    /// verdict.
    pub fn scrubber(&self) -> &Scrubber {
        self.session.scrubber()
    }

    /// Whether the next turn will rewrite the whole device because a
    /// rolled-back commit left configuration memory untrusted.
    pub fn needs_resync(&self) -> bool {
        self.session.needs_resync()
    }

    /// Borrow the SCG.
    pub fn scg(&self) -> &Scg {
        &self.scg
    }

    /// The parameters the loaded bitstream was specialized for.
    pub fn params(&self) -> &BitVec {
        self.session.params()
    }

    /// The design's half of a turn and the session, borrowed apart — how
    /// a caller runs the session's steps with its own gates between them
    /// (the journal re-drive stops a turn whose deadline passed after
    /// its stage).
    pub fn parts(&mut self) -> (TurnContext<'_>, &mut Session) {
        let ctx = TurnContext {
            scg: &self.scg,
            layout: &self.layout,
            icap: &self.icap,
            tunables: &self.tunables,
        };
        (ctx, &mut self.session)
    }

    /// Advance the device's between-turn clock by one step — on an
    /// emulated fabric this is where single-event upsets strike (a
    /// no-op over the default reliable channel). Returns the number of
    /// configuration bits that flipped.
    pub fn tick(&mut self) -> usize {
        self.session.tick()
    }

    /// One scrub pass of the session's scrubber against the PConf golden
    /// oracle for the current parameters — see [`Session::scrub`].
    pub fn scrub(&mut self) -> Result<ScrubReport, String> {
        let (ctx, session) = self.parts();
        session.scrub(&ctx)
    }

    /// Frames the session's scrubber vouches for that in fact diverge
    /// from the reference specialization ([`Scg::try_specialize`]) of
    /// the current parameters — must be empty after every scrubbed run
    /// (the zero-undetected-divergence invariant).
    pub fn undetected_divergence(&self) -> Result<Vec<usize>, String> {
        let golden = self.scg.try_specialize(self.session.params())?;
        Ok(self.session.scrubber().undetected_divergence(self.session.channel(), &golden))
    }

    /// One debugging turn: evaluate the new parameter assignment, rewrite
    /// the changed frames, report the costs. A malformed parameter
    /// vector or an exhausted ICAP retry budget is an error reply, not a
    /// process abort — the contract the debug service relies on. On
    /// error the turn rolls back: the loaded bitstream, its parameters
    /// and the turn accounting are unchanged.
    pub fn try_apply(&mut self, params: &BitVec) -> Result<TurnStats, String> {
        let _turn_span = pfdbg_obs::span("scg.turn");
        let t0 = Instant::now();
        let frame_bits = self.layout.frame_bits;
        let (ctx, session) = self.parts();
        session.stage(&ctx, params, None)?;
        let eval_time = t0.elapsed();
        match session.commit(&ctx, params) {
            Ok(turn) => {
                let stats = TurnStats {
                    eval_time,
                    bits_changed: turn.bits_changed,
                    frames_changed: turn.frames_changed,
                    transfer_time: turn.stats.transfer_time,
                    verify_time: turn.stats.verify_time,
                    retries: turn.stats.retries,
                    degradations: turn.stats.degradations,
                };
                record_turn(&stats, frame_bits);
                Ok(stats)
            }
            Err((commit, msg)) => {
                pfdbg_obs::counter_add("icap.rollbacks", 1);
                Err(format!("reconfiguration rolled back after {} retries: {msg}", commit.retries))
            }
        }
    }

    /// The modeled cost of a *full* reconfiguration of this device — the
    /// baseline the paper compares against.
    pub fn full_reconfig_time(&self) -> Duration {
        self.icap.full_reconfig(self.scg.generalized().base.len(), self.layout.frame_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::BddManager;
    use crate::genbits::Builder;
    use pfdbg_arch::{build_rrg, ArchSpec, Device};

    fn setup() -> (BitstreamLayout, Scg) {
        let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 2, 2);
        let rrg = build_rrg(&dev);
        let layout = BitstreamLayout::new(&dev, &rrg, 1312);
        let mut m = BddManager::new();
        let mut b = Builder::new(&layout, 2);
        b.set_const(0, true);
        let p0 = m.var(0);
        let p1 = m.var(1);
        let both = m.and(p0, p1);
        let either = m.or(p0, p1);
        b.set_func(&m, 10, p0);
        b.set_func(&m, 11, both);
        b.set_func(&m, 12, either);
        let g = b.build().unwrap();
        (layout.clone(), Scg::new(m, g))
    }

    fn params(bits: &[bool]) -> BitVec {
        bits.iter().copied().collect()
    }

    fn layout_frames(online: &OnlineReconfigurator) -> f64 {
        online.layout.n_frames() as f64
    }

    /// The reference write set: every address where the reference
    /// specializations of `from` and `to` differ, ascending, with the
    /// value under `to`.
    fn reference_diff(scg: &Scg, from: &BitVec, to: &BitVec) -> Vec<(usize, bool)> {
        let (a, b) = (scg.try_specialize(from).unwrap(), scg.try_specialize(to).unwrap());
        (0..b.len()).filter(|&i| a.get(i) != b.get(i)).map(|i| (i, b.get(i))).collect()
    }

    #[test]
    fn specialize_evaluates_functions() {
        let (_, scg) = setup();
        let bs = scg.try_specialize(&params(&[true, false])).unwrap();
        assert!(bs.get(0), "constant preserved");
        assert!(bs.get(10));
        assert!(!bs.get(11));
        assert!(bs.get(12));
        let bs2 = scg.try_specialize(&params(&[true, true])).unwrap();
        assert!(bs2.get(11));
    }

    #[test]
    fn diff_reports_only_changes() {
        let (_, scg) = setup();
        let mut scratch = SpecializeScratch::new();
        let (zeros, p0) = (params(&[false, false]), params(&[true, false]));
        let changes = scg.specialize_diff_from_batch(&zeros, &p0, &mut scratch).unwrap().to_vec();
        // p0: 0->1 flips addr 10 and 12 (or), not 11 (and stays 0).
        let addrs: Vec<usize> = changes.iter().map(|&(a, _)| a).collect();
        assert_eq!(addrs, vec![10, 12]);
        assert_eq!(changes, reference_diff(&scg, &zeros, &p0));
        // No changes when params are identical.
        assert!(scg.specialize_diff_from_batch(&zeros, &zeros, &mut scratch).unwrap().is_empty());
    }

    #[test]
    fn online_turns_accumulate_correctly() {
        let (layout, scg) = setup();
        let icap = IcapModel::virtex5();
        let mut online = OnlineReconfigurator::new(scg, layout, icap);
        let s1 = online.try_apply(&params(&[true, true])).unwrap();
        assert_eq!(s1.bits_changed, 3);
        assert!(s1.frames_changed >= 1);
        assert!(online.current().get(10));
        assert!(online.current().get(11));
        // Re-applying the same parameters is a no-op.
        let s2 = online.try_apply(&params(&[true, true])).unwrap();
        assert_eq!(s2.bits_changed, 0);
        assert_eq!(s2.frames_changed, 0);
    }

    #[test]
    fn partial_much_faster_than_full() {
        let (layout, scg) = setup();
        // Calibrate so a full reconfiguration of *this* device takes the
        // paper's 176 ms; partial turns must then be orders faster.
        let icap = IcapModel::calibrated_to(layout.n_bits, Duration::from_millis(176));
        let mut online = OnlineReconfigurator::new(scg, layout, icap);
        let stats = online.try_apply(&params(&[true, false])).unwrap();
        let full = online.full_reconfig_time();
        // On this toy device one frame is a sizeable fraction of the whole
        // stream, so only the structural claim is asserted here; the
        // three-orders-of-magnitude ratio at Virtex-5 scale is covered by
        // `pfdbg_arch::icap` tests and the runtime-overhead bench.
        assert!(
            stats.transfer_time.as_secs_f64() * 3.0 < full.as_secs_f64(),
            "partial {:?} vs full {:?}",
            stats.transfer_time,
            full
        );
        let frame_fraction = stats.frames_changed as f64 / layout_frames(&online);
        assert!(frame_fraction < 0.4, "rewrote {frame_fraction} of all frames");
    }

    #[test]
    fn try_specialize_rejects_wrong_parameter_count() {
        let (_, scg) = setup();
        assert!(scg.try_specialize(&params(&[true])).is_err(), "too few params");
        assert!(scg.try_specialize(&params(&[true, false, true])).is_err(), "too many params");
        assert!(scg.try_specialize(&params(&[true, false])).is_ok());
    }

    #[test]
    fn try_apply_surfaces_errors_without_state_change() {
        let (layout, scg) = setup();
        let mut online = OnlineReconfigurator::new(scg, layout, IcapModel::virtex5());
        let before = online.current();
        assert!(online.try_apply(&params(&[true])).is_err());
        assert_eq!(online.current(), before, "failed turn must not mutate state");
        // The reconfigurator still works afterwards.
        assert!(online.try_apply(&params(&[true, false])).is_ok());
    }

    /// A large synthetic SCG (thousands of tunables).
    fn large_scg() -> Scg {
        let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 4, 4);
        let rrg = build_rrg(&dev);
        let layout = BitstreamLayout::new(&dev, &rrg, 1312);
        let mut m = BddManager::new();
        let n_params = 16;
        let mut b = Builder::new(&layout, n_params);
        for i in 0..5000usize {
            let v1 = m.var((i % n_params) as u32);
            let v2 = m.var(((i + 7) % n_params) as u32);
            let f = if i % 3 == 0 { m.and(v1, v2) } else { m.or(v1, v2) };
            b.set_func(&m, i, f);
        }
        Scg::new(m, b.build().unwrap())
    }

    #[test]
    fn eval_time_is_microseconds_scale() {
        // Even thousands of tunable bits evaluate in far under a
        // millisecond — the paper's 50 µs bound is conservative.
        let scg = large_scg();
        let asg: BitVec = (0..16).map(|i| i % 3 == 0).collect();
        // Warm up, then measure the reference walk.
        let _ = scg.try_specialize(&asg).unwrap();
        let t0 = Instant::now();
        let want = scg.try_specialize(&asg).unwrap();
        let total = t0.elapsed();
        assert!(total < Duration::from_millis(5), "5000-bit specialization took {total:?}");
        // The batch path reports how its time splits and is at least as
        // fast asymptotically; only the structural property is asserted
        // here.
        let mut scratch = SpecializeScratch::new();
        let (bits, bt) = scg.specialize_timed_batch(&asg, &mut scratch);
        assert_eq!(bits, want);
        assert!(bt.eval <= bt.total, "pure-eval time cannot exceed the whole call");
    }

    #[test]
    fn batch_diff_matches_per_function_diff() {
        // The packed word-diff must reproduce the reference diff of two
        // per-function specializations exactly — same addresses, same
        // values, same order — across a parameter walk.
        let scg = large_scg();
        let mut scratch = SpecializeScratch::new();
        let mut prev: BitVec = BitVec::zeros(16);
        let mut cur = scg.try_specialize(&prev).unwrap();
        let walk: Vec<BitVec> = (0..6u32)
            .map(|s| (0..16).map(|i| (i * 7 + s * 3) % 5 < 2).collect::<BitVec>())
            .collect();
        for next in walk {
            let old = reference_diff(&scg, &prev, &next);
            let new = scg.specialize_diff_from_batch(&prev, &next, &mut scratch).unwrap().to_vec();
            assert_eq!(old, new, "prev={prev:?} next={next:?}");
            for &(addr, v) in &new {
                cur.set(addr, v);
            }
            assert_eq!(cur, scg.try_specialize(&next).unwrap(), "write set reaches the target");
            scratch.commit(&next);
            prev = next;
        }
    }

    #[test]
    fn batch_specialize_from_matches_full() {
        let scg = large_scg();
        let mut scratch = SpecializeScratch::new();
        let zeros = BitVec::zeros(16);
        let base = scg.try_specialize(&zeros).unwrap();
        for s in 0..4u32 {
            let p: BitVec = (0..16).map(|i| (i + s) % 3 == 0).collect();
            let batch = scg.specialize_from_batch(&base, &p, &mut scratch).unwrap();
            assert_eq!(batch, scg.try_specialize(&p).unwrap(), "diverged at shift {s}");
        }
    }

    #[test]
    fn batch_scratch_survives_rollback() {
        // A rolled-back turn must leave the scratch baseline on the
        // still-loaded configuration, so the next diff from the same
        // state stays correct.
        let scg = large_scg();
        let mut scratch = SpecializeScratch::new();
        let zeros = BitVec::zeros(16);
        let p1: BitVec = (0..16).map(|i| i % 2 == 0).collect();
        let p2: BitVec = (0..16).map(|i| i % 5 == 0).collect();
        // Turn toward p1 evaluated but NOT committed (rollback).
        let _ = scg.specialize_diff_from_batch(&zeros, &p1, &mut scratch).unwrap();
        // Next turn from the unchanged state toward p2.
        let diff = scg.specialize_diff_from_batch(&zeros, &p2, &mut scratch).unwrap().to_vec();
        assert_eq!(diff, reference_diff(&scg, &zeros, &p2));
    }

    #[test]
    fn batch_diff_rejects_wrong_parameter_count() {
        let (_, scg) = setup();
        let mut scratch = SpecializeScratch::new();
        assert!(scg
            .specialize_diff_from_batch(&params(&[true]), &params(&[true, false]), &mut scratch)
            .is_err());
        assert!(scg
            .specialize_diff_from_batch(&params(&[true, false]), &params(&[true]), &mut scratch)
            .is_err());
        let wrong = Bitstream::from_bits(pfdbg_util::BitVec::zeros(8));
        assert!(scg.specialize_from_batch(&wrong, &params(&[true, false]), &mut scratch).is_err());
    }

    #[test]
    fn committed_turns_match_device_readback() {
        let (layout, scg) = setup();
        let mut online = OnlineReconfigurator::new(scg, layout, IcapModel::virtex5());
        for p in [[true, false], [true, true], [false, true]] {
            online.try_apply(&params(&p)).unwrap();
            assert_eq!(
                online.readback(),
                online.current(),
                "belief and fabric diverged after a committed turn"
            );
        }
    }

    /// A channel whose writes always fail — forces every turn into a
    /// rollback.
    struct DeadIcap {
        n_bits: usize,
        frame_bits: usize,
    }

    impl crate::icap::IcapChannel for DeadIcap {
        fn frame_bits(&self) -> usize {
            self.frame_bits
        }
        fn n_bits(&self) -> usize {
            self.n_bits
        }
        fn write_frame(&mut self, _: usize, _: &[u64]) -> Result<(), crate::icap::IcapError> {
            Err(crate::icap::IcapError::WriteFailed)
        }
        fn read_frame_into(&self, _: usize, out: &mut Vec<u64>) {
            out.clear();
        }
    }

    #[test]
    fn exhausted_retries_roll_back_and_flag_resync() {
        let (layout, scg) = setup();
        let dead = Box::new(DeadIcap { n_bits: layout.n_bits, frame_bits: layout.frame_bits });
        let policy = CommitPolicy { max_retries: 1, ..Default::default() };
        let session = Session::new(&scg, dead, policy, 3);
        let mut online =
            OnlineReconfigurator::with_session(scg, layout, IcapModel::virtex5(), session);
        let before = online.current();
        let before_params = online.params().clone();
        let err = online.try_apply(&params(&[true, true]));
        assert!(err.unwrap_err().contains("rolled back"));
        assert_eq!(online.current(), before, "rollback must not advance the bitstream");
        assert_eq!(online.params(), &before_params, "rollback must not advance params");
        assert!(online.needs_resync(), "a failed commit leaves the fabric untrusted");
        // A no-change turn still forces the resync write set, which the
        // dead channel keeps failing.
        assert!(online.try_apply(&params(&[false, false])).is_err());
    }

    #[test]
    fn resync_after_rollback_rewrites_everything_then_recovers() {
        let (layout, scg) = setup();
        let mut online = OnlineReconfigurator::new(scg, layout, IcapModel::virtex5());
        online.try_apply(&params(&[true, false])).unwrap();
        // Simulate a rollback flag without an actual failure: the next
        // turn must rewrite every frame and clear the flag.
        online.session.arm_resync();
        let stats = online.try_apply(&params(&[true, true])).unwrap();
        assert!(!online.needs_resync());
        assert_eq!(online.readback(), online.current());
        // The resync wrote all frames even though the diff was tiny.
        assert!(stats.transfer_time >= online.icap.partial_reconfig(1, online.layout.frame_bits));
    }

    #[test]
    fn diff_is_sorted_by_bit_index() {
        // Regression: the DPR write set must come back ascending by bit
        // address.
        let scg = large_scg();
        let mut scratch = SpecializeScratch::new();
        let prev: BitVec = BitVec::zeros(16);
        let next: BitVec = (0..16).map(|i| i % 2 == 0).collect();
        let diff = scg.specialize_diff_from_batch(&prev, &next, &mut scratch).unwrap();
        assert!(!diff.is_empty(), "expected changes for {next:?}");
        assert!(diff.windows(2).all(|w| w[0].0 < w[1].0), "diff not strictly ascending");
    }
}
