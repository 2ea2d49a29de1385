//! Allocation budget of a select that hits the shared LRU, through the
//! embedding facade. After warm-up, `SessionManager::select` on a
//! one-shard manager allocates only for the facade's round trip to the
//! shard thread, the commit's two frame-word buffers and the
//! `TurnOutcome`'s parameter copy. The LRU lookup, keyed by the
//! parameter vector itself, adds nothing: a hit shares the cached
//! words' `Arc`. The select runs on the shard thread, so this binary
//! installs a counting global allocator over all threads and holds only
//! this test.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_pconf::{CommitPolicy, ScrubPolicy};
use pfdbg_serve::session::{Engine, FleetOptions, SessionManager};
use pfdbg_util::BitVec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocations on every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting only bumps an
// atomic, which never allocates, so the allocator is never re-entered.
unsafe impl GlobalAlloc for Counting {
    /// # Safety
    /// The caller upholds [`GlobalAlloc::alloc`]'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::alloc_zeroed`]'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    /// # Safety
    /// The caller upholds [`GlobalAlloc::realloc`]'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations a warmed-up select that hits the LRU may make. Six are
/// the facade's round trip: the session name, the parameter copy, the
/// reply channel's two blocks, the boxed job, and the waiter the
/// channel registers when the caller blocks for the reply (skipped when
/// the reply is already there). Two are the commit's frame-word buffers
/// and one is the `TurnOutcome`'s parameter copy.
const HIT_SELECT_ALLOCATIONS: u64 = 9;

fn build_engine() -> Engine {
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 8,
        n_outputs: 6,
        n_gates: 40,
        depth: 5,
        n_latches: 2,
        seed: 33,
    });
    let (_, _, inst) = prepare_instrumented(
        &design,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        6,
    )
    .unwrap();
    let off = pfdbg_core::offline(&inst, &OfflineConfig::default()).unwrap();
    Engine::new(inst, off.scg.unwrap(), off.layout.unwrap(), off.icap)
}

#[test]
fn a_cached_select_allocates_only_for_the_round_trip_and_the_commit() {
    let manager = SessionManager::with_fleet(
        Arc::new(build_engine()),
        16,
        None,
        CommitPolicy::default(),
        None,
        ScrubPolicy::default(),
        FleetOptions { shards: 1, inbox_capacity: 64 },
    );
    manager.open("alloc").unwrap();
    let n = manager.engine().n_params();
    let zeros = BitVec::zeros(n);
    let mut one = BitVec::zeros(n);
    one.set(0, true);
    let vectors = [one, zeros];

    // Warm-up: both vectors enter the LRU, and every buffer on the turn
    // path (scratch, frame lists, the device's frame copies, telemetry
    // handles) grows to its working size.
    for turn in 0..8 {
        manager.select("alloc", &vectors[turn % 2]).unwrap();
    }

    for turn in 0..100 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let outcome = manager.select("alloc", &vectors[turn % 2]).unwrap();
        let spent = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert!(outcome.cache_hit, "turn {turn} missed the LRU");
        assert!(outcome.frames_changed > 0, "turn {turn} committed no frames");
        assert!(
            spent <= HIT_SELECT_ALLOCATIONS,
            "turn {turn}: a cached select allocated {spent} times ({outcome:?})"
        );
    }
}
