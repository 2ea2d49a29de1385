//! Allocation budget of a committed debugging turn, and the heap a
//! session holds. After warm-up, a session reuses its evaluation
//! scratch and frame lists, and the device has copied the frames its
//! turns write, so the only heap allocations left are the two
//! frame-word buffers `commit_frames` creates per commit (the words
//! sent and the readback). Both callers are pinned: the standalone
//! `OnlineReconfigurator::try_apply`, and `Session::stage` + `commit`
//! the way serve sessions drive it — several sessions over one
//! shared `Scg`, some turns adopting cached packed words. A session
//! over the shared base configuration must hold less heap than one
//! configuration bitstream. Reading a device through the chaos channel
//! stack — frame by frame, or as the journal's streamed digest — must
//! not allocate at all. This binary installs a counting global
//! allocator, so it holds only these allocation tests.

use parameterized_fpga_debug::circuits::build;
use parameterized_fpga_debug::core::{
    offline, prepare_instrumented, InstrumentConfig, OfflineConfig, OfflineResult, PAPER_K,
};
use parameterized_fpga_debug::emu::{channel_stack, IcapFaultConfig, SeuConfig};
use parameterized_fpga_debug::pconf::{
    CommitPolicy, IcapChannel, MemoryIcap, Session, TunableFrames, TurnContext,
};
use parameterized_fpga_debug::replay::device_crc;
use parameterized_fpga_debug::util::BitVec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts allocations and live bytes (allocated minus freed) per
/// thread, so work on other threads (the test harness, the offline
/// flow's workers) never lands in a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Record one allocation that changes this thread's live heap by
/// `delta` bytes.
fn count(delta: i64) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting only touches
// const-initialized thread-local `Cell`s, which never allocate, so the
// allocator is never re-entered.
unsafe impl GlobalAlloc for Counting {
    /// # Safety
    /// The caller upholds [`GlobalAlloc::alloc`]'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::alloc_zeroed`]'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::realloc`]'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::dealloc`]'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn stereov() -> OfflineResult {
    let design = build("stereov.").expect("suite member");
    let (_, _, inst) =
        prepare_instrumented(&design, &InstrumentConfig::paper(), PAPER_K).expect("instrument");
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    offline(&inst, &cfg).expect("offline flow")
}

/// A fixed walk of `n`-parameter vectors, built before anything is
/// measured.
fn walk(n: usize) -> Vec<BitVec> {
    let mut seed = 0x7a11_u64;
    (0..24)
        .map(|_| {
            (0..n)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed & 1 == 1
                })
                .collect()
        })
        .collect()
}

#[test]
fn committed_turn_allocates_only_the_commit_frame_buffers() {
    let mut online = stereov().into_online().expect("online");
    let walk = walk(online.params().len());

    // Warm-up: every buffer grows to its working size.
    for p in &walk {
        online.try_apply(p).expect("warm-up turn");
    }

    let mut writing_turns = 0;
    for p in &walk {
        let before = allocations();
        let stats = online.try_apply(p).expect("turn");
        let spent = allocations() - before;
        assert!(spent <= 2, "a committed turn allocated {spent} times ({stats:?})");
        writing_turns += usize::from(stats.frames_changed > 0);
    }
    assert!(writing_turns > walk.len() / 2, "only {writing_turns} turns wrote frames");
}

#[test]
fn interleaved_engine_turns_allocate_only_the_commit_frame_buffers() {
    let off = stereov();
    let (scg, layout) = (off.scg.expect("scg"), off.layout.expect("layout"));
    let tunables = TunableFrames::new(&scg, &layout);
    let ctx = TurnContext { scg: &scg, layout: &layout, icap: &off.icap, tunables: &tunables };
    let policy = CommitPolicy::default();
    let walk = walk(scg.generalized().n_params);
    let base = &scg.generalized().base;
    let mut sessions: Vec<Session> = (0..2)
        .map(|_| {
            let channel = Box::new(MemoryIcap::new(base.clone(), layout.frame_bits));
            Session::new(&scg, channel, policy, 3)
        })
        .collect();
    // The packed words of every walk vector, as a serve LRU would hold
    // them after one evaluation each.
    let cache: Vec<BitVec> = walk
        .iter()
        .map(|p| {
            let session = &mut sessions[0];
            session.stage(&ctx, p, None).expect("stage");
            session.commit(&ctx, p).expect("commit");
            session.committed_words().clone()
        })
        .collect();

    // The two sessions interleave turn by turn, each on its own offset
    // through the walk; every third turn adopts the cached words. The
    // first pass is the warm-up, the second is measured.
    let mut writing_turns = 0;
    for pass in 0..2 {
        for k in 0..walk.len() {
            for (s, session) in sessions.iter_mut().enumerate() {
                let i = (k + 7 * s) % walk.len();
                let cached = (k % 3 == s).then(|| &cache[i]);
                let before = allocations();
                session.stage(&ctx, &walk[i], cached).expect("stage");
                let turn = session.commit(&ctx, &walk[i]).expect("commit");
                let spent = allocations() - before;
                if pass == 1 {
                    assert!(spent <= 2, "session {s} turn {k} allocated {spent} times ({turn:?})");
                    writing_turns += usize::from(turn.frames_changed > 0);
                }
            }
        }
    }
    assert!(writing_turns > walk.len(), "only {writing_turns} turns wrote frames");
}

#[test]
fn a_session_over_the_shared_base_holds_less_than_one_configuration() {
    let off = stereov();
    let (scg, layout) = (off.scg.expect("scg"), off.layout.expect("layout"));
    let tunables = TunableFrames::new(&scg, &layout);
    let ctx = TurnContext { scg: &scg, layout: &layout, icap: &off.icap, tunables: &tunables };
    let policy = CommitPolicy::default();
    let walk = walk(scg.generalized().n_params);
    let image = Arc::new(scg.generalized().base.clone());
    let configuration_bytes = (image.words().len() * 8) as i64;
    // A serve session without upsets: its turn state, scrubber and the
    // channel stack over the image every session shares.
    let session = || {
        let channel = channel_stack(image.clone(), layout.frame_bits, None, None);
        Session::new(&scg, channel, policy, 3)
    };
    let drive = |session: &mut Session| {
        for p in &walk {
            session.stage(&ctx, p, None).expect("stage");
            session.commit(&ctx, p).expect("commit");
        }
    };
    // A first session builds whatever the turn path initializes once
    // per process (telemetry handles), so it is not charged to the
    // measured one.
    drive(&mut session());

    let before = live_bytes();
    let mut measured = session();
    drive(&mut measured);
    let held = live_bytes() - before;
    assert!(
        held < configuration_bytes,
        "a warmed-up session holds {held} heap bytes, one configuration is {configuration_bytes}"
    );
}

#[test]
fn reads_and_digests_through_the_chaos_stack_allocate_nothing() {
    let off = stereov();
    let (scg, layout) = (off.scg.expect("scg"), off.layout.expect("layout"));
    let image = Arc::new(scg.generalized().base.clone());
    let seu = SeuConfig { rate: 0.2, burst: 3, seed: 11 };
    let mut channel = channel_stack(
        image,
        layout.frame_bits,
        Some(seu),
        Some(IcapFaultConfig::uniform(0.05, 12)),
    );
    // Upsets give the device copies of some frames; the rest still
    // read from the shared image.
    let flipped: usize = (0..4).map(|_| channel.tick()).sum();
    assert!(flipped > 0, "no upset landed");
    let mut words = Vec::new();
    let read_all = |words: &mut Vec<u64>| {
        for frame in 0..channel.n_frames() {
            channel.read_frame_into(frame, words);
        }
        device_crc(channel.as_ref())
    };
    // Warm-up: the read buffer and the digest's frame buffer grow to a
    // frame.
    let digest = read_all(&mut words);

    let before = allocations();
    let again = read_all(&mut words);
    let spent = allocations() - before;
    assert_eq!(spent, 0, "reading the device allocated {spent} times");
    assert_eq!(again, digest);
}
