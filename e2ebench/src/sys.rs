//! Process facts the harness reads: CPU clocks, peak resident memory,
//! and a counting global allocator for the exact `*_allocs` metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) of the whole process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + system) of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u8; 128];

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 128];
    // SAFETY: `mask` is writable for its whole length; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 8)
        .filter(|c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// The CPUs this process may run on, as first asked: pinning narrows a
/// thread's own set, so the first answer is kept.
pub fn process_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(allowed_cpus)
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to `cpu`; false if the kernel refused.
pub fn pin_to(cpu: usize) -> bool {
    let mut one: CpuSet = [0; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is readable for its whole length; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) == 0 }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every heap acquisition (alloc, alloc_zeroed, realloc) made by
/// a thread inside [`count_allocs`]. Frees are not counted: the metric
/// is allocations performed per call.
pub struct CountingAlloc;

fn tally() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every operation delegates to `System` unchanged; the only
// addition is a thread-local counter with const initialisation and no
// destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f`, returning how many allocations the calling thread made in it.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_counts_are_exact() {
        let (n, v) = count_allocs(|| vec![1u8; 64]);
        assert_eq!(n, 1);
        let (n, _) = count_allocs(|| v.len());
        assert_eq!(n, 0);
    }

    #[test]
    fn thread_cpu_advances() {
        let a = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > a);
        assert!(process_cpu_ns() >= thread_cpu_ns());
        assert!(peak_rss_mb() > 0.0);
    }
}
