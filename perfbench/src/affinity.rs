//! Rotating the measuring thread over the CPUs it may run on.
//!
//! On a shared virtual machine the slow phases are per virtual CPU: while
//! one CPU runs the simulator 1.7x slower for seconds on end, the other
//! often runs it at full speed (measured with one probe pinned to each of
//! two CPUs). A run that pins successive rounds to successive CPUs gives
//! every request repeats on each of them, so its fastest repeat is slow
//! only when all CPUs are slow at once.

/// Bits in glibc's `cpu_set_t`.
const MAX_CPUS: usize = 1024;
type CpuMask = [u64; MAX_CPUS / 64];

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs the calling thread may run on (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; MAX_CPUS / 64];
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a writable buffer of exactly the length passed,
        // the size of glibc's `cpu_set_t`; pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
    }
    (0..MAX_CPUS)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; returns whether that worked.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; MAX_CPUS / 64];
    for &c in cpus.iter().filter(|&&c| c < MAX_CPUS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a readable buffer of exactly the length passed,
        // the size of glibc's `cpu_set_t`; pid 0 names the calling thread.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips() {
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            return;
        }
        assert!(pin(&cpus[..1]));
        assert_eq!(allowed_cpus(), cpus[..1]);
        assert!(pin(&cpus));
        assert_eq!(allowed_cpus(), cpus);
        assert!(!pin(&[]));
    }
}
