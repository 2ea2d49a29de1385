//! The host's thread count. Every stage of the library runs serially,
//! so only the benchmark reads it.

/// The host's hardware thread count ([`std::thread::available_parallelism`],
/// 1 when unavailable). Nothing in the library runs on it; it goes
/// with the next change to the benchmark, which still reports it as
/// `util.par.threads`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
