//! Pins the benchmark to one CPU.
//!
//! The acceptance host is a 2-vCPU guest whose vCPUs share physical cores
//! with other tenants: a busy sibling hyperthread slows port-bound code
//! (Montgomery multiplication) by up to 1.8x for seconds to minutes, and
//! the guest's own two vCPUs may be each other's siblings, so two busy
//! threads sometimes buy nothing. Timings taken on every core therefore
//! measure the neighbours. On one CPU the other vCPU idles, the workload's
//! thread count no longer depends on the host (`available_parallelism`
//! follows the affinity mask, so `msm()` inside `pcs` runs one thread too),
//! and the numbers compare across hosts with different core counts.
//!
//! Threads inherit the mask of the thread that spawns them, so pinning the
//! main thread before set-up pins the service's threads as well.

/// The affinity mask the process started with, kept so the per-layer
/// ledger's parallel probes can have every core back.
pub struct Pinned {
    #[cfg(target_os = "linux")]
    original: linux::Mask,
    /// The CPU the process was pinned to.
    pub cpu: usize,
}

/// Restricts the calling thread (and every thread it spawns from now on)
/// to the highest-numbered CPU it may run on; interrupts are usually
/// routed to the lowest. `None` when the platform has no such call or the
/// call is refused.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    #[cfg(target_os = "linux")]
    {
        let original = linux::get()?;
        let cpu = linux::highest(&original)?;
        linux::set(&linux::only(cpu)).then_some(Pinned { original, cpu })
    }
    #[cfg(not(target_os = "linux"))]
    None
}

impl Pinned {
    /// Gives the calling thread its original mask back. Returns whether
    /// the call succeeded.
    pub fn release(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            linux::set(&self.original)
        }
        #[cfg(not(target_os = "linux"))]
        false
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// glibc's `cpu_set_t`: 1024 bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `size_of_val(&mask)` bytes passed as its size; pid 0 is the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the
        // `size_of_val(mask)` bytes passed as its size, only read by the
        // call; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }

    pub fn highest(mask: &Mask) -> Option<usize> {
        mask.iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn mask_helpers() {
        let mut mask: linux::Mask = [0; 16];
        assert_eq!(linux::highest(&mask), None);
        mask[0] = 0b1011;
        assert_eq!(linux::highest(&mask), Some(3));
        mask[1] = 1;
        assert_eq!(linux::highest(&mask), Some(64));
        assert_eq!(linux::highest(&linux::only(70)), Some(70));
    }

    /// Pinning narrows what `available_parallelism` reports to one, and
    /// releasing restores it. Runs on a thread of its own so the test
    /// harness's other threads keep their mask.
    #[test]
    fn pin_and_release_round_trip() {
        std::thread::spawn(|| {
            let before = std::thread::available_parallelism().map_or(1, |n| n.get());
            let Some(pinned) = pin_to_one_cpu() else {
                return;
            };
            let during = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert_eq!(during, 1);
            assert!(pinned.release());
            let after = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert_eq!(after, before);
        })
        .join()
        .expect("pinning thread");
    }
}
