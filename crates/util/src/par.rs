//! Fixed work shards and the host's thread count.
//!
//! The offline flow builds the generalized bitstream's BDDs in
//! fixed-size shards, each in its own manager, merged in shard order:
//! [`shard_ranges`] is that decomposition. It depends on the work size
//! only, so the merged node table is a pure function of the design.

/// The host's hardware thread count ([`std::thread::available_parallelism`],
/// 1 when unavailable). Nothing in the library runs on it; it goes
/// with the next change to the benchmark, which still reports it as
/// `util.par.threads`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Split `0..len` into contiguous shards of at most `shard_size`
/// elements. The shard boundaries depend only on `len` and
/// `shard_size`, so algorithms that keep per-shard state (e.g. one
/// `BddManager` per shard, merged in shard order) produce the same
/// result on every run.
pub fn shard_ranges(len: usize, shard_size: usize) -> Vec<std::ops::Range<usize>> {
    let shard = shard_size.max(1);
    (0..len.div_ceil(shard)).map(|i| i * shard..((i + 1) * shard).min(len)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
