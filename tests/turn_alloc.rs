//! Allocation budget of a committed debugging turn. After warm-up,
//! `OnlineReconfigurator::try_apply` reuses its evaluation scratch,
//! staging bitstream and frame lists, so the only heap allocations left
//! are the two frame-word buffers `commit_frames` creates per commit
//! (the words sent and the readback). This binary installs a counting
//! global allocator, so it holds no other test.

use parameterized_fpga_debug::circuits::build;
use parameterized_fpga_debug::core::{
    offline, prepare_instrumented, InstrumentConfig, OfflineConfig, PAPER_K,
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

#[test]
fn committed_turn_allocates_only_the_commit_frame_buffers() {
    let design = build("stereov.").expect("suite member");
    let (_, _, inst) =
        prepare_instrumented(&design, &InstrumentConfig::paper(), PAPER_K).expect("instrument");
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    let mut online = offline(&inst, &cfg).expect("offline flow").into_online().expect("online");

    // A fixed walk of parameter vectors, built before anything is
    // measured.
    let n = online.params().len();
    let mut seed = 0x7a11_u64;
    let walk: Vec<BitVec> = (0..24)
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
        .collect();

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
