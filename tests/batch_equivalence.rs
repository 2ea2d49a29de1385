//! Equivalence of the memoized **batch** turn path with the reference
//! per-function evaluator: across random generalized bitstreams and
//! random multi-turn parameter walks, `specialize_from_batch`,
//! `specialize_timed_batch` and the packed word-XOR diff
//! (`specialize_diff_from_batch`) must be **bit-identical** to
//! `try_specialize` — the diff to the difference of two reference
//! specializations — including across scratch reuse, cold-scratch
//! re-derivation and rolled-back (evaluated but never committed)
//! turns. Downstream, every frame a session's commit
//! writes from the packed words must be that frame of `try_specialize`,
//! and a scrub pass against the packed words of one sweep must be the
//! reference scrub against `try_specialize`.

use parameterized_fpga_debug::arch::{build_rrg, ArchSpec, Bitstream, BitstreamLayout, Device};
use parameterized_fpga_debug::circuits::build as build_design;
use parameterized_fpga_debug::core::{
    offline, prepare_instrumented, InstrumentConfig, OfflineConfig, OfflineResult, PAPER_K,
};
use parameterized_fpga_debug::emu::{channel_stack, IcapFaultConfig, SeuConfig};
use parameterized_fpga_debug::pconf::icap::{frame_words, readback_all};
use parameterized_fpga_debug::pconf::{
    BddManager, CommitPolicy, GeneralizedBuilder, IcapChannel, IcapError, MemoryIcap, Scg,
    ScrubPolicy, Scrubber, Session, SpecializeScratch, TunableFrames, TurnContext,
};
use parameterized_fpga_debug::util::BitVec;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::{Arc, Mutex};

/// One random scenario: a generalized bitstream (shape scalars plus a
/// seed that derives the tunable functions) and a walk seed that
/// derives the turn sequence. Strides > 1 leave untunable gaps between
/// tunable bits, exercising packing against non-dense addresses.
#[derive(Debug, Clone, Copy)]
struct Case {
    n_params: usize,
    stride: usize,
    n_funcs: usize,
    gbs_seed: u64,
    walk_seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..12, 1usize..4, 1usize..200, any::<u64>(), any::<u64>()).prop_map(
        |(n_params, stride, n_funcs, gbs_seed, walk_seed)| Case {
            n_params,
            stride,
            n_funcs,
            gbs_seed,
            walk_seed,
        },
    )
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Each tunable function folds 1–4 random variables with random
/// and/or/xor steps — enough shared subgraphs that the memoized sweep
/// really skips repeated nodes.
fn build(case: &Case) -> Scg {
    let mut seed = case.gbs_seed | 1;
    let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 4, 4);
    let rrg = build_rrg(&dev);
    let layout = BitstreamLayout::new(&dev, &rrg, 1312);
    let mut m = BddManager::new();
    let mut b = GeneralizedBuilder::new(&layout, case.n_params);
    for i in 0..case.n_funcs {
        let mut f = m.var((xorshift(&mut seed) as usize % case.n_params) as u32);
        for _ in 0..xorshift(&mut seed) % 4 {
            let v = m.var((xorshift(&mut seed) as usize % case.n_params) as u32);
            f = match xorshift(&mut seed) % 3 {
                0 => m.and(f, v),
                1 => m.or(f, v),
                _ => m.xor(f, v),
            };
        }
        b.set_func(&m, i * case.stride, f);
    }
    Scg::new(m, b.build().expect("random gbs builds"))
}

/// A walk of 1–8 turns; each turn flips 0–3 parameter bits of a
/// running assignment — adjacent turns differ in just a few bits, like
/// a real debug session (and unlike independent random vectors).
fn walk_of(case: &Case) -> Vec<Vec<(usize, bool)>> {
    let mut seed = case.walk_seed | 1;
    let turns = 1 + (xorshift(&mut seed) as usize) % 8;
    (0..turns)
        .map(|_| {
            let flips = (xorshift(&mut seed) as usize) % 4;
            (0..flips)
                .map(|_| {
                    let i = xorshift(&mut seed) as usize % case.n_params;
                    let v = xorshift(&mut seed) % 2 == 1;
                    (i, v)
                })
                .collect()
        })
        .collect()
}

/// The reference write set: every address where two reference
/// specializations differ, ascending, with the target's value.
fn reference_diff(from: &Bitstream, to: &Bitstream) -> Vec<(usize, bool)> {
    (0..to.len()).filter(|&a| from.get(a) != to.get(a)).map(|a| (a, to.get(a))).collect()
}

/// Full-turn walk: the batch specializers and the packed diff agree
/// bit-for-bit with the reference evaluator. Turn `rollback` evaluates
/// without committing; the next turn's diff must still describe the
/// loaded configuration.
fn check_walk(
    scg: &Scg,
    case: &Case,
    walk: &[Vec<(usize, bool)>],
    rollback: usize,
) -> Result<(), TestCaseError> {
    let mut scratch = SpecializeScratch::new();
    let mut params = BitVec::zeros(case.n_params);
    let mut prev_params = params.clone();
    let mut current = scg.specialize(&params);
    for (turn, flips) in walk.iter().enumerate() {
        for &(i, v) in flips {
            params.set(i, v);
        }
        // Ground truth: fresh per-function specialization.
        let want = scg.specialize(&params);

        // Batch full specialization from an arbitrary prior bitstream,
        // and the timed variant.
        let got = scg.specialize_from_batch(&current, &params, &mut scratch).unwrap();
        prop_assert_eq!(&got, &want, "specialize_from_batch");
        let (timed, _) = scg.specialize_timed_batch(&params, &mut scratch);
        prop_assert_eq!(&timed, &want, "specialize_timed_batch");

        // Packed word-XOR diff vs the reference diff.
        let serial_diff = reference_diff(&scg.try_specialize(&prev_params).unwrap(), &want);
        let batch_diff =
            scg.specialize_diff_from_batch(&prev_params, &params, &mut scratch).unwrap().to_vec();
        prop_assert_eq!(&batch_diff, &serial_diff, "diff");

        if turn == rollback {
            // Rolled-back turn: evaluation happened, commit did not.
            continue;
        }
        for &(addr, v) in &batch_diff {
            current.set(addr, v);
        }
        prop_assert_eq!(&current, &want, "diff write-set reaches the target");
        scratch.commit(&params);
        prev_params.clone_from(&params);
    }
    Ok(())
}

/// The diff write set is the *minimal* one: strictly ascending
/// addresses, no duplicates, and every entry really flips a loaded bit.
fn check_minimal(scg: &Scg, case: &Case, walk: &[Vec<(usize, bool)>]) -> Result<(), TestCaseError> {
    let mut scratch = SpecializeScratch::new();
    let mut params = BitVec::zeros(case.n_params);
    let mut prev_params = params.clone();
    let mut current = scg.specialize(&params);
    for flips in walk {
        for &(i, v) in flips {
            params.set(i, v);
        }
        let diff =
            scg.specialize_diff_from_batch(&prev_params, &params, &mut scratch).unwrap().to_vec();
        let mut last = None;
        for &(addr, v) in &diff {
            prop_assert!(last < Some(addr), "addresses strictly ascending");
            last = Some(addr);
            prop_assert_ne!(current.get(addr), v);
            current.set(addr, v);
        }
        prop_assert_eq!(&current, &scg.specialize(&params));
        scratch.commit(&params);
        prev_params.clone_from(&params);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn batch_paths_match_per_function_paths(case in arb_case()) {
        let walk = walk_of(&case);
        let rollback = (case.walk_seed >> 32) as usize % walk.len();
        check_walk(&build(&case), &case, &walk, rollback)?;
    }

    #[test]
    fn batch_diff_is_minimal_and_sorted(case in arb_case()) {
        check_minimal(&build(&case), &case, &walk_of(&case))?;
    }
}

/// A port that logs every frame write it is offered — the turn
/// engine's target frames — and fails them while `dead`.
struct Logging {
    inner: MemoryIcap,
    dead: bool,
    writes: Vec<(usize, Vec<u64>)>,
}

impl IcapChannel for Logging {
    fn frame_bits(&self) -> usize {
        self.inner.frame_bits()
    }
    fn n_bits(&self) -> usize {
        self.inner.n_bits()
    }
    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        self.writes.push((frame, data.to_vec()));
        if self.dead {
            return Err(IcapError::WriteFailed);
        }
        self.inner.write_frame(frame, data)
    }
    fn read_frame(&self, frame: usize) -> Vec<u64> {
        self.inner.read_frame(frame)
    }
}

/// A device the test keeps a hold on while a session commits through
/// it: every channel call goes to the one device behind the lock.
struct Shared<C>(Arc<Mutex<C>>);

impl<C: IcapChannel> IcapChannel for Shared<C> {
    fn frame_bits(&self) -> usize {
        self.0.lock().unwrap().frame_bits()
    }
    fn n_bits(&self) -> usize {
        self.0.lock().unwrap().n_bits()
    }
    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        self.0.lock().unwrap().write_frame(frame, data)
    }
    fn read_frame(&self, frame: usize) -> Vec<u64> {
        self.0.lock().unwrap().read_frame(frame)
    }
    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        self.0.lock().unwrap().read_frame_into(frame, out)
    }
    fn tick(&mut self) -> usize {
        self.0.lock().unwrap().tick()
    }
}

/// A session over `device` that commits under `policy`, and the test's
/// hold on the device.
fn session_over<C: IcapChannel + 'static>(
    scg: &Scg,
    device: C,
    policy: CommitPolicy,
) -> (Session, Arc<Mutex<C>>) {
    let device = Arc::new(Mutex::new(device));
    let session = Session::new(scg, Box::new(Shared(device.clone())), policy, 3);
    (session, device)
}

/// stereov at paper instrumentation through the offline flow.
fn stereov() -> OfflineResult {
    let design = build_design("stereov.").expect("suite member");
    let (_, _, inst) =
        prepare_instrumented(&design, &InstrumentConfig::paper(), PAPER_K).expect("instrument");
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    offline(&inst, &cfg).expect("offline flow")
}

/// On stereov at paper instrumentation, a random parameter walk through
/// a session — every fifth commit over a dead port — writes only
/// golden frames: each frame the commit's frame source yields equals
/// that frame of `try_specialize` of the turn's parameters, and the
/// resync after each failed commit covers the whole device.
#[test]
fn engine_target_frames_are_golden_on_stereov() {
    let off = stereov();
    let (scg, layout) = (off.scg.expect("scg"), off.layout.expect("layout"));
    let tunables = TunableFrames::new(&scg, &layout);
    let ctx = TurnContext { scg: &scg, layout: &layout, icap: &off.icap, tunables: &tunables };
    let policy = CommitPolicy { max_retries: 0, ..CommitPolicy::default() };
    let image = Arc::new(scg.generalized().base.clone());
    let (mut engine, device) = session_over(
        &scg,
        Logging {
            inner: MemoryIcap::shared(image, layout.frame_bits),
            dead: false,
            writes: Vec::new(),
        },
        policy,
    );
    let mut seed = 0x5e55_1017_u64;
    let (mut failed_commits, mut resyncs) = (0, 0);
    for turn in 0..40 {
        let p: BitVec =
            (0..scg.generalized().n_params).map(|_| xorshift(&mut seed) & 1 == 1).collect();
        let want = scg.try_specialize(&p).unwrap();
        let resync = engine.needs_resync();
        {
            let mut channel = device.lock().unwrap();
            channel.dead = turn % 5 == 3;
            channel.writes.clear();
        }
        engine.stage(&ctx, &p, None).unwrap();
        let result = engine.commit(&ctx, &p);
        let channel = device.lock().unwrap();
        for (frame, words) in &channel.writes {
            let golden = frame_words(&want, layout.frame_bits, *frame);
            assert_eq!(words, &golden, "turn {turn}, frame {frame}");
        }
        let failed = channel.dead && !channel.writes.is_empty();
        assert_eq!(result.is_err(), failed, "turn {turn}");
        failed_commits += usize::from(failed);
        if resync {
            resyncs += 1;
            let mut written: Vec<usize> = channel.writes.iter().map(|w| w.0).collect();
            written.sort_unstable();
            written.dedup();
            assert_eq!(
                written.len(),
                layout.n_frames(),
                "turn {turn}: the resync covers the device"
            );
        }
        if !failed {
            assert_eq!(readback_all(&*channel), want, "turn {turn}");
        }
    }
    assert!(failed_commits > 0 && resyncs > 0, "{failed_commits} failures, {resyncs} resyncs");
}

/// A device whose `refused` frame rejects every write, so only its
/// readback shows what it holds.
struct Refusing {
    inner: Box<dyn IcapChannel>,
    refused: usize,
}

impl IcapChannel for Refusing {
    fn frame_bits(&self) -> usize {
        self.inner.frame_bits()
    }
    fn n_bits(&self) -> usize {
        self.inner.n_bits()
    }
    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        if frame == self.refused {
            return Err(IcapError::WriteFailed);
        }
        self.inner.write_frame(frame, data)
    }
    fn read_frame(&self, frame: usize) -> Vec<u64> {
        self.inner.read_frame(frame)
    }
    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        self.inner.read_frame_into(frame, out)
    }
    fn tick(&mut self) -> usize {
        self.inner.tick()
    }
}

/// On stereov, two identically seeded devices — upsets under a faulty
/// port, one frame outside the tunable region powered up wrong and
/// refusing every write — take the same turns and upsets. One is
/// scrubbed against the packed words of one sweep
/// (`Scrubber::scrub_with_scg`), the other against the reference golden
/// bitstream (`Scrubber::scrub` of `try_specialize`): every pass must
/// report the same, quarantine the same frames and leave the same
/// device, and the refusing frame must reach quarantine.
#[test]
fn swept_scrub_is_the_reference_scrub_on_stereov() {
    let off = stereov();
    let (scg, layout) = (off.scg.expect("scg"), off.layout.expect("layout"));
    let tunables = TunableFrames::new(&scg, &layout);
    let ctx = TurnContext { scg: &scg, layout: &layout, icap: &off.icap, tunables: &tunables };
    let n_params = scg.generalized().n_params;
    let refused =
        (0..layout.n_frames()).find(|f| !tunables.region().contains(f)).expect("an untuned frame");
    let mut image = scg.generalized().base.clone();
    let bit = refused * layout.frame_bits;
    image.set(bit, !image.get(bit));
    let image = Arc::new(image);
    let seu = SeuConfig { rate: 0.05, burst: 2, seed: 0x5eed };
    let fault =
        IcapFaultConfig { write_error_rate: 0.05, stall_rate: 0.02, corrupt_rate: 0.05, seed: 7 };
    let policy = CommitPolicy::default();
    let scrub_policy = ScrubPolicy {
        max_repair_attempts: 3,
        commit: CommitPolicy { max_retries: 1, ..CommitPolicy::default() },
    };
    let device = || Refusing {
        inner: channel_stack(image.clone(), layout.frame_bits, Some(seu), Some(fault)),
        refused,
    };
    let (mut swept_turns, swept) = session_over(&scg, device(), policy);
    let (mut reference_turns, reference) = session_over(&scg, device(), policy);
    let (mut swept_scrub, mut reference_scrub) =
        (Scrubber::new(scrub_policy), Scrubber::new(scrub_policy));
    let mut seed = 0x5c2b_u64;
    let (mut passes, mut repaired) = (0, 0);
    for turn in 0..36 {
        let upsets = (swept.lock().unwrap().tick(), reference.lock().unwrap().tick());
        assert_eq!(upsets.0, upsets.1, "turn {turn}: upsets");
        let p: BitVec = (0..n_params).map(|_| xorshift(&mut seed) & 1 == 1).collect();
        for engine in [&mut swept_turns, &mut reference_turns] {
            engine.stage(&ctx, &p, None).unwrap();
            engine.commit(&ctx, &p).expect("the turn commits");
        }
        if turn % 2 == 1 {
            let (mut swept, mut reference) = (swept.lock().unwrap(), reference.lock().unwrap());
            let got = swept_scrub
                .scrub_with_scg(&mut *swept, &off.icap, &scg, swept_turns.params())
                .unwrap();
            let golden = scg.try_specialize(reference_turns.params()).unwrap();
            let want = reference_scrub.scrub(&mut *reference, &off.icap, &golden).unwrap();
            assert_eq!(got, want, "turn {turn}: scrub reports");
            assert_eq!(swept_scrub.quarantined(), reference_scrub.quarantined(), "turn {turn}");
            assert_eq!(readback_all(&*swept), readback_all(&*reference), "turn {turn}");
            passes += 1;
            repaired += got.repaired_frames;
        }
    }
    assert_eq!(swept_scrub.totals(), reference_scrub.totals());
    assert!(swept_scrub.quarantined().contains(&refused), "the refusing frame is quarantined");
    assert!(repaired > 0, "{passes} passes repaired no upset");
    for wrong in [n_params - 1, n_params + 1] {
        let params = BitVec::zeros(wrong);
        let mut swept = swept.lock().unwrap();
        assert!(swept_scrub.scrub_with_scg(&mut *swept, &off.icap, &scg, &params).is_err());
    }
}
