//! `pfdbg-par`: a zero-dependency data-parallel layer over
//! [`std::thread::scope`].
//!
//! The offline flow (cut enumeration, cone matching, BDD construction)
//! and the SCG's per-function reference evaluation are all shaped the
//! same way: a list of independent work items whose results must be
//! recombined *in item order* so the output is bit-identical to the
//! serial run. This module provides exactly that shape and nothing
//! more:
//!
//! * [`map`] / [`map_in`] — parallel map with a deterministic merge:
//!   items are claimed in chunks from an atomic cursor (dynamic
//!   self-scheduling, i.e. idle workers steal the next chunk), and the
//!   per-chunk results are stitched back together by chunk index, so
//!   the output order never depends on thread scheduling.
//! * [`map_init_in`] — the same, with a per-worker scratch state
//!   (e.g. a shard-local `BddManager`).
//! * [`threads`] / [`set_threads`] / [`resolve`] — thread-count policy:
//!   an explicit programmatic override beats the `PFDBG_THREADS`
//!   environment variable, which beats [`std::thread::available_parallelism`].
//! * [`shard_ranges`] — fixed-size index shards that are a function of
//!   the *work size only*, never the thread count, so shard-structured
//!   algorithms (per-shard BDD managers) produce identical output for
//!   any thread count, including the single-thread fallback.
//!
//! With one worker the pool is bypassed entirely: the closure runs on
//! the caller's thread with no spawning, so `threads = 1` is the serial
//! code path, not a degenerate parallel one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable consulted by [`threads`] when no programmatic
/// override is set.
pub const THREADS_ENV: &str = "PFDBG_THREADS";

/// Process-wide programmatic override (0 = unset). Set by the CLI's
/// global `--threads` flag; tests pass explicit counts through config
/// structs instead so parallel test processes never race on this.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached default so the env var + `available_parallelism` probe runs
/// once per process.
static DEFAULT: OnceLock<usize> = OnceLock::new();

/// Set the process-wide thread count (0 clears the override and
/// returns to `PFDBG_THREADS` / available parallelism).
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The effective worker count: programmatic override, else
/// `PFDBG_THREADS`, else [`std::thread::available_parallelism`]
/// (1 when even that is unavailable). Always at least 1.
pub fn threads() -> usize {
    let over = OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    *DEFAULT.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Resolve a config-level thread request: `0` means "use the global
/// policy" ([`threads`]); any other value is taken literally.
pub fn resolve(requested: usize) -> usize {
    if requested == 0 {
        threads()
    } else {
        requested
    }
}

/// Split `0..len` into contiguous shards of at most `shard_size`
/// elements. The shard boundaries depend only on `len` and
/// `shard_size` — never on the thread count — so algorithms that keep
/// per-shard state (e.g. one `BddManager` per shard, merged in shard
/// order) produce identical results at every thread count.
pub fn shard_ranges(len: usize, shard_size: usize) -> Vec<std::ops::Range<usize>> {
    let shard = shard_size.max(1);
    (0..len.div_ceil(shard)).map(|i| i * shard..((i + 1) * shard).min(len)).collect()
}

/// Pick a chunk size for `len` items over `workers` threads: small
/// enough that the atomic cursor load-balances uneven items (~4 chunks
/// per worker), large enough to amortize the claim.
fn chunk_size(len: usize, workers: usize) -> usize {
    len.div_ceil(workers * 4).max(1)
}

/// Parallel map over `items` using the global thread policy; results
/// are returned in item order. See [`map_in`].
pub fn map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_in(threads(), items, f)
}

/// Parallel map over `items` with an explicit worker count (0 = global
/// policy); results are returned in item order regardless of which
/// worker computed them.
pub fn map_in<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_init_in(workers, items, || (), |(), item| f(item))
}

/// Parallel map with per-worker scratch state: `init` runs once on
/// each worker thread and the resulting state is threaded through
/// every call that worker makes. With one worker everything runs on
/// the calling thread (no spawn). Results are in item order.
pub fn map_init_in<T, U, S, I, F>(workers: usize, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let workers = resolve(workers).min(items.len()).max(1);
    if workers == 1 || items.len() <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk = chunk_size(items.len(), workers);
    let n_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    // Workers claim chunk indices from the shared cursor and return
    // `(chunk_index, results)`; sorting by chunk index afterwards makes
    // the merge deterministic without any unsafe shared-slice writes.
    let mut buckets: Vec<(usize, Vec<U>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                let init = &init;
                scope.spawn(move || {
                    let mut state = init();
                    let mut mine: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let lo = c * chunk;
                        let hi = (lo + chunk).min(items.len());
                        mine.push((c, items[lo..hi].iter().map(|it| f(&mut state, it)).collect()));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("pfdbg-par worker panicked")).collect()
    });
    buckets.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(items.len());
    for (_, mut b) in buckets {
        out.append(&mut b);
    }
    out
}

/// Run one closure per shard of `0..len` (shards from
/// [`shard_ranges`]), in parallel, returning the per-shard results in
/// shard order. The shard structure is thread-count independent, so
/// callers that merge shard results in order get identical output at
/// every worker count.
pub fn map_shards<U, F>(workers: usize, len: usize, shard_size: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    let shards = shard_ranges(len, shard_size);
    map_in(workers, &shards, |r| f(r.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_policy() {
        assert_eq!(resolve(3), 3);
        assert!(resolve(0) >= 1);
    }

    #[test]
    fn map_preserves_order_at_every_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = map_in(workers, &items, |&x| x * x);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert_eq!(map_in(8, &[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(map_in(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_init_threads_state_per_worker() {
        // Each worker counts its own calls; the total must equal the
        // item count even though the per-worker split is nondeterministic.
        use std::sync::atomic::AtomicUsize;
        let total = AtomicUsize::new(0);
        let items: Vec<u32> = (0..500).collect();
        let out = map_init_in(
            4,
            &items,
            || 0usize,
            |calls, &x| {
                *calls += 1;
                total.fetch_add(1, Ordering::Relaxed);
                x
            },
        );
        assert_eq!(out, items);
        assert_eq!(total.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for (len, size) in [(0, 8), (1, 8), (8, 8), (9, 8), (100, 7)] {
            let shards = shard_ranges(len, size);
            let mut covered = 0;
            for (i, r) in shards.iter().enumerate() {
                assert_eq!(r.start, covered, "len={len} size={size} shard={i}");
                assert!(r.len() <= size.max(1));
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn shard_structure_is_thread_count_independent() {
        // map_shards must produce the same shard decomposition (and
        // therefore the same merged result) at every worker count.
        let expect = map_shards(1, 103, 16, |r| (r.start, r.end));
        for workers in [2, 8] {
            assert_eq!(map_shards(workers, 103, 16, |r| (r.start, r.end)), expect);
        }
    }
}
