//! Allocation budget of a committed debugging turn. After warm-up, the
//! turn engine reuses its evaluation scratch, loaded bitstream and frame
//! lists, so the only heap allocations left are the two frame-word
//! buffers `commit_frames` creates per commit (the words sent and the
//! readback). Both callers are pinned: the standalone
//! `OnlineReconfigurator::try_apply`, and `TurnEngine::stage` +
//! `commit` the way serve sessions drive it — several sessions over one
//! shared `Scg`, some turns adopting cached packed words. This binary
//! installs a counting global allocator, so it holds only these
//! allocation tests.

use parameterized_fpga_debug::circuits::build;
use parameterized_fpga_debug::core::{
    offline, prepare_instrumented, InstrumentConfig, OfflineConfig, OfflineResult, PAPER_K,
};
use parameterized_fpga_debug::pconf::{
    region_frames, CommitPolicy, MemoryIcap, TurnContext, TurnEngine,
};
use parameterized_fpga_debug::util::BitVec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations per thread, so work on other threads (the test
/// harness, the offline flow's workers) never lands in a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting only touches a
// const-initialized thread-local `Cell`, which never allocates, so the
// allocator is never re-entered.
unsafe impl GlobalAlloc for Counting {
    /// # Safety
    /// The caller upholds [`GlobalAlloc::alloc`]'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::alloc_zeroed`]'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::realloc`]'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::dealloc`]'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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
    let region = region_frames(&scg, &layout);
    let ctx = TurnContext { scg: &scg, layout: &layout, icap: &off.icap, region_frames: &region };
    let policy = CommitPolicy::default();
    let walk = walk(scg.generalized().n_params);
    let base = &scg.generalized().base;
    let mut sessions: Vec<(TurnEngine, MemoryIcap)> = (0..2)
        .map(|_| (TurnEngine::new(&scg), MemoryIcap::new(base.clone(), layout.frame_bits)))
        .collect();
    // The packed words of every walk vector, as a serve LRU would hold
    // them after one evaluation each.
    let cache: Vec<BitVec> = walk
        .iter()
        .map(|p| {
            let (engine, channel) = &mut sessions[0];
            engine.stage(&ctx, p, None).expect("stage");
            engine.commit(&ctx, channel, &policy, p).expect("commit");
            engine.committed_words().clone()
        })
        .collect();

    // The two sessions interleave turn by turn, each on its own offset
    // through the walk; every third turn adopts the cached words. The
    // first pass is the warm-up, the second is measured.
    let mut writing_turns = 0;
    for pass in 0..2 {
        for k in 0..walk.len() {
            for (s, (engine, channel)) in sessions.iter_mut().enumerate() {
                let i = (k + 7 * s) % walk.len();
                let cached = (k % 3 == s).then(|| &cache[i]);
                let before = allocations();
                engine.stage(&ctx, &walk[i], cached).expect("stage");
                let turn = engine.commit(&ctx, channel, &policy, &walk[i]).expect("commit");
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
