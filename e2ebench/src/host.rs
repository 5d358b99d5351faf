//! Host speed, as the live workloads feel it: the time to hand a wake-up
//! back and forth between two threads on one CPU.
//!
//! The live topologies are dozens of threads passing each message along
//! by waking one another, so their cost is mostly context switches. On a
//! shared host that cost moves between two levels about half again
//! apart for minutes at a time, with the load of the host's other
//! tenants, and every time metric of the closed loop moves with it: ten
//! 50 s `rpc_relay` runs read 19.1k–27.4k calls/s as measured, an IQR
//! over median of 0.23–0.29 on throughput, latency and CPU per call. The
//! hand-off below is the harness's own code, so a change to the program
//! never moves it, and it moves with the host: over those runs its
//! correlation with throughput was -0.98, and the metrics restated at
//! [`NOMINAL_HANDOFF_US`] spread 0.022–0.027.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::sys::pin_to;

/// [`handoff_us`] on an uncontended core of the 2-vCPU 2.1 GHz Xeon VM
/// the benchmark was calibrated on. Only its ratio to the measured
/// hand-off matters; it keeps restated values close to the times that
/// host shows when it is quiet.
pub const NOMINAL_HANDOFF_US: f64 = 700.0;
/// Round trips per hand-off run.
const TRIPS: u64 = 300;
/// Runs per measurement; the fastest counts, so a preemption inside one
/// run does not.
const RUNS: usize = 3;

/// µs for [`TRIPS`] round trips of a wake-up between the calling thread
/// and a peer it starts (on the calling thread's CPU set), fastest of
/// [`RUNS`].
pub fn handoff_us() -> f64 {
    (0..RUNS)
        .map(|_| {
            let turn = AtomicU64::new(0);
            let t = Instant::now();
            std::thread::scope(|s| {
                let me = std::thread::current();
                let turn = &turn;
                let peer = s.spawn(move || {
                    for i in 0..TRIPS {
                        while turn.load(Ordering::Acquire) != 2 * i + 1 {
                            std::thread::park();
                        }
                        turn.store(2 * i + 2, Ordering::Release);
                        me.unpark();
                    }
                });
                for i in 0..TRIPS {
                    turn.store(2 * i + 1, Ordering::Release);
                    peer.thread().unpark();
                    while turn.load(Ordering::Acquire) != 2 * i + 2 {
                        std::thread::park();
                    }
                }
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Pins the calling thread (and the threads it starts afterwards) to the
/// one of `cpus` with the fastest hand-off just now, and returns it with
/// that hand-off time; if the kernel refuses every pin, no CPU and the
/// hand-off time where the thread runs. The virtual CPUs of a shared host
/// do not run at one speed: on the 2-vCPU VM above, one piece of work
/// took 36–38 ms on one CPU while it took 54–58 ms on the other, and the
/// two switched levels independently within seconds.
pub fn pin_to_fastest(cpus: &[usize]) -> (Option<usize>, f64) {
    let mut best: Option<(usize, f64)> = None;
    for &cpu in cpus {
        if !pin_to(cpu) {
            continue;
        }
        let took = handoff_us();
        if best.is_none_or(|(_, b)| took < b) {
            best = Some((cpu, took));
        }
    }
    match best {
        Some((cpu, took)) if pin_to(cpu) => (Some(cpu), took),
        _ => (None, handoff_us()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_an_allowed_cpu() {
        let cpus = crate::sys::process_cpus();
        assert!(!cpus.is_empty());
        let (cpu, took) = pin_to_fastest(cpus);
        let cpu = cpu.expect("pinned");
        assert!(cpus.contains(&cpu));
        assert!(took > 0.0);
        assert_eq!(crate::sys::allowed_cpus(), vec![cpu]);
    }
}
