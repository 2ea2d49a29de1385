//! Pinning a run to one CPU.
//!
//! On the shared 2-vCPU machine the baseline was recorded on, a serve
//! run spread over both vCPUs read up to a third faster or slower from
//! one minute to the next, as the second vCPU's share of the physical
//! machine came and went; over the same minutes, the quartile spread of
//! runs pinned to one vCPU was 6% against 20%. Every thread a run
//! starts inherits the pin, and the program sizes its thread pools from
//! the CPUs it may use, so a pinned run measures the program as a
//! one-CPU host runs it.

/// Where a run is pinned.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    pub cpu: usize,
    /// CPUs the process was allowed to use before it was pinned.
    pub allowed: usize,
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words in glibc's `cpu_set_t` (1024 CPUs, one bit each).
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Pin the calling thread — and so every thread it starts afterwards —
/// to the highest-numbered CPU it may run on. Call it before starting
/// any thread.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<Pin, String> {
    let mut mask = [0u64; sys::WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let allowed: Vec<usize> =
        (0..sys::WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
    let &cpu = allowed.last().ok_or("the process may run on no CPU")?;
    let mut one = [0u64; sys::WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sys::sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(Pin { cpu, allowed: allowed.len() })
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<Pin, String> {
    Err("pinning to a CPU is implemented for Linux only".into())
}
