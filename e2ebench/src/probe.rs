//! Windowed sampling of completed operations and CPU, with the
//! harness's own threads (generators and this sampler) taken out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{median, ratio};
use crate::sys::{process_cpu_ns, thread_cpu_ns};

/// Load shape of every live workload: at most this many generator
/// threads, each holding at most one client connection.
pub const MAX_GENERATORS: usize = 2;

/// Shared between the generator threads and the sampler.
pub struct Probe {
    /// Operations completed (replies picked up, responses checked,
    /// deliveries counted).
    pub ops: AtomicU64,
    gen_cpu: Vec<AtomicU64>,
}

impl Probe {
    pub fn new(generators: usize) -> Probe {
        assert!(
            (1..=MAX_GENERATORS).contains(&generators),
            "{generators} generator threads; the load shape allows at most {MAX_GENERATORS}"
        );
        Probe {
            ops: AtomicU64::new(0),
            gen_cpu: (0..generators).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publishes the calling generator thread's CPU time so far.
    pub fn publish(&self, generator: usize) {
        self.gen_cpu[generator].store(thread_cpu_ns(), Ordering::Relaxed);
    }

    fn gen_cpu_ns(&self) -> u64 {
        self.gen_cpu.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Clone, Copy)]
struct Sample {
    at: Instant,
    ops: u64,
    process: u64,
    harness: u64,
}

fn sample(probe: &Probe) -> Sample {
    Sample {
        at: Instant::now(),
        ops: probe.ops.load(Ordering::Relaxed),
        process: process_cpu_ns(),
        harness: probe.gen_cpu_ns() + thread_cpu_ns(),
    }
}

/// What the sampler saw between `from` and `until`: one value per
/// window, plus CPU totals.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations per second, per window.
    pub tput: Vec<f64>,
    /// System CPU per operation in µs, per window that completed any.
    pub cpu: Vec<f64>,
    /// CPU of the harness's own threads over the whole interval, ns.
    pub harness_ns: u64,
    /// CPU of the whole process over the whole interval, ns.
    pub process_ns: u64,
}

impl Window {
    /// Median over windows of operations per second.
    pub fn throughput(&self) -> f64 {
        if self.tput.is_empty() {
            0.0
        } else {
            median(&self.tput)
        }
    }

    /// Median over windows of system CPU per operation, µs.
    pub fn cpu_us_per_op(&self) -> f64 {
        if self.cpu.is_empty() {
            0.0
        } else {
            median(&self.cpu)
        }
    }

    /// The harness threads' share of process CPU.
    pub fn gen_cpu_share(&self) -> f64 {
        ratio(self.harness_ns as f64, self.process_ns as f64)
    }

    pub fn absorb(&mut self, other: Window) {
        self.tput.extend(other.tput);
        self.cpu.extend(other.cpu);
        self.harness_ns += other.harness_ns;
        self.process_ns += other.process_ns;
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Samples `probe` in windows of up to 0.1 s from `from` to `until`
/// (called on the sampling thread, which is not a generator).
pub fn measure(probe: &Probe, from: Instant, until: Instant) -> Window {
    let span = until.saturating_duration_since(from);
    let step = Duration::from_millis(100)
        .min(span / 2)
        .max(Duration::from_millis(1));
    sleep_until(from);
    let first = sample(probe);
    let mut prev = first;
    let mut w = Window::default();
    while prev.at + step <= until {
        sleep_until(prev.at + step);
        let s = sample(probe);
        let ops = (s.ops - prev.ops) as f64;
        w.tput.push(ops / (s.at - prev.at).as_secs_f64());
        let system = (s.process - prev.process).saturating_sub(s.harness - prev.harness);
        if ops > 0.0 {
            w.cpu.push(system as f64 / ops / 1e3);
        }
        prev = s;
    }
    w.harness_ns = prev.harness - first.harness;
    w.process_ns = prev.process - first.process;
    w
}
