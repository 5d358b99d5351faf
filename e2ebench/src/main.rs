//! End-to-end benchmark of the dispatcher's paper paths, with a per-layer
//! breakdown from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <msg_mailbox|rpc_relay> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the topology exactly as users start it and prints
//! the end-to-end metrics. `--trace 1` splits the time between an
//! untraced run and a traced one (telemetry-scoped assembly plus
//! client-side spans), then replays the traced run's recorded inputs
//! through each layer, runs the fleet simulation as one more replayed
//! layer (`sim.fleet_ns_per_delivered` and its exact counts), and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object; the exit code is non-zero when any output check failed.
//!
//! Every thread of a topology runs on one CPU: the one with the fastest
//! thread hand-off when the topology is set up. On a small share of a
//! shared host, threads spread over several virtual CPUs wait on the
//! host's scheduler at every hand-off between them, and that wait, not
//! the program, set the figures; on one CPU the hand-offs are context
//! switches and the figures measure the program's cost per message.
//!
//! On the closed loop (`rpc_relay`) the end-to-end time metrics are
//! restated at nominal host speed: each is scaled by the ratio of the
//! host's hand-off time, measured at every set-up, to
//! [`host::NOMINAL_HANDOFF_US`] (see `host` for why); the values as
//! measured and the ratio go to standard error. The open loop
//! (`msg_mailbox`) is reported as measured: its throughput is the offered
//! rate, and its CPU per message does not follow the hand-off (over ten
//! 50 s runs it stayed within 173–201 µs while the hand-off moved from
//! 1.14 to 1.49 times nominal), so restating would only add the
//! hand-off's own noise.
//!
//! End-to-end metrics (live workloads: a fresh topology for each second
//! of the run, the first tenth of each unmeasured):
//!
//! * `throughput_per_s` — median over 0.1 s windows of operations
//!   completed per second (replies picked up, responses checked); on the
//!   open loop, the offered rate.
//! * `latency_p50_us` — median over 0.1 s windows of each window's median
//!   latency: from due time to pickup, call to response.
//! * `cpu_us_per_op` — median over windows of process CPU per operation,
//!   minus the CPU of the harness's own threads (generators, sampler).
//! * `setup_s` — median time to start the topology, register services,
//!   create mailboxes and open client connections.

mod fleet;
mod host;
mod inputs;
mod live;
mod probe;
mod replay;
mod spans;
mod stats;
mod sys;
mod topo;

use std::process::ExitCode;
use std::sync::Arc;

use live::{Live, Run};
use stats::{median, ratio, Metrics};

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

const WORKLOADS: [&str; 2] = ["msg_mailbox", "rpc_relay"];

/// Share of a traced invocation spent on the untraced comparison run.
const UNTRACED_SHARE: f64 = 0.4;
/// Seconds each fresh topology of an untraced live run is loaded for.
/// Cost per message differs between topologies (each starts its threads
/// anew) far more than within one, so many short topologies give a
/// steadier median than a few long ones.
const SEGMENT_S: f64 = 1.0;
/// Set-ups per segment; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 2;
/// Messages whose spans are written out after a traced run.
const SPANS_WRITTEN: u64 = 20_000;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `workload` as `segments` back-to-back runs, each on a freshly set
/// up topology, and folds them into one result: medians then cover
/// several topology instances, not just one.
fn run_segmented(
    workload: &str,
    seed: u64,
    seconds: f64,
    segments: usize,
    setup_reps: usize,
) -> Live {
    let mut all = Live::default();
    for _ in 0..segments {
        all.absorb(run_workload(
            workload,
            seed,
            seconds / segments as f64,
            None,
            setup_reps,
        ));
    }
    all
}

/// Runs `workload` once, on a freshly set up topology whose threads all
/// run on the CPU with the fastest hand-off at the start.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    tele: Option<Arc<wsd_telemetry::Registry>>,
    setup_reps: usize,
) -> Live {
    let (cpu, handoff_us) = host::pin_to_fastest(sys::process_cpus());
    let run = Run {
        seed,
        seconds,
        tele,
        setup_reps,
    };
    let mut live = match workload {
        "msg_mailbox" => live::msg_mailbox(&run),
        "rpc_relay" => live::rpc_relay(&run),
        other => unreachable!("workload {other}"),
    };
    live.cpus.extend(cpu);
    live.handoff_us.push(handoff_us);
    live
}

fn end_to_end(live: &Live, m: &mut Metrics) {
    m.put("throughput_per_s", live.window.throughput(), "1/s");
    m.put("latency_p50_us", live.latency_p50_us(), "us");
    m.put("cpu_us_per_op", live.window.cpu_us_per_op(), "us");
    m.put("setup_s", median(&live.setup_s), "s");
}

/// Layer costs on each workload's path, per operation: (metric, calls).
/// Nested layers are counted once, by their outermost replayed call.
fn path_layers(workload: &str) -> &'static [(&'static str, f64)] {
    match workload {
        // accept + echo service parse; forward and reply routing; two
        // queue hops and two pipelined sends (echo, deposit); the echo
        // service's and the translation's envelope parse; deposit and
        // pickup in the mailbox store.
        "msg_mailbox" => &[
            ("http.parse_ns", 2.0),
            ("core.route_forward_ns", 1.0),
            ("core.route_reply_ns", 1.0),
            ("queue.push_pop_ns", 2.0),
            ("http.pipelined_ns_per_msg", 2.0),
            ("soap.parse_ns", 2.0),
            ("msgbox.deposit_ns", 1.0),
            ("msgbox.fetch_ns_per_msg", 1.0),
        ],
        // dispatcher and echo service parse, the forwarding plan, a fresh
        // upstream connection and its request, the echo service's parse.
        "rpc_relay" => &[
            ("http.parse_ns", 2.0),
            ("rpc.plan_forward_ns", 1.0),
            ("net.connect_ns", 1.0),
            ("http.serialize_ns", 1.0),
            ("soap.parse_ns", 1.0),
        ],
        _ => &[],
    }
}

/// Records the per-layer metrics; returns the fleet replay's failed
/// output checks.
fn per_layer(
    workload: &str,
    seed: u64,
    plain: &Live,
    traced: &Live,
    m: &mut Metrics,
) -> Vec<String> {
    let ops = (traced.attempted - traced.failed) as f64;
    let ack_span = match workload {
        "rpc_relay" => "call",
        _ => "send_ack",
    };
    m.put(
        "client.send_ack_us",
        spans::p50_us(&traced.spans, ack_span),
        "us",
    );
    m.put("client.latency_p99_us", traced.latency_p99_us(), "us");
    m.put(
        "client.empty_poll_share",
        traced.empty_poll_share(),
        "share",
    );
    m.put("gen.late_max_us", traced.late_max_us, "us");
    m.put("gen.cpu_share", traced.window.gen_cpu_share(), "share");
    // Peak memory is a per-layer diagnostic, not gated: on the live
    // workloads it grows with the requests served (per-connection
    // shutdown handles, unanswered one-way routes), so it tracks
    // throughput and would gate host noise twice.
    m.put(
        "mem.peak_rss_mb",
        plain.peak_rss_mb.max(traced.peak_rss_mb),
        "MB",
    );

    let handoff: Vec<f64> = plain.handoff_us.iter().chain(&traced.handoff_us).copied().collect();
    m.put("host.handoff_us", median(&handoff), "us");

    let empty = wsd_telemetry::Snapshot::default();
    let snap = traced.snapshot.as_ref().unwrap_or(&empty);
    let c = |name: &str| snap.counter(name) as f64;
    m.put(
        "reactor.wakeups_per_op",
        ratio(snap.counter_sum("wakeups") as f64, ops),
        "count",
    );
    m.put(
        "reactor.dispatches_per_op",
        ratio(snap.counter_sum("dispatches") as f64, ops),
        "count",
    );
    let delivered = c("msg.delivered");
    m.put(
        "msg.connects_per_1k_delivered",
        1e3 * ratio(c("msg.connects"), delivered),
        "count",
    );
    m.put(
        "msg.reused_send_share",
        ratio(c("msg.reused_sends"), delivered),
        "share",
    );
    let hits = c("msg.core.fastpath_hits");
    m.put(
        "msg.fastpath_share",
        ratio(hits, hits + c("msg.core.fastpath_fallbacks")),
        "share",
    );
    let dest_peak = snap
        .entries()
        .iter()
        .filter(|e| e.name.starts_with("msg.dest{") && e.name.ends_with(".depth"))
        .map(|e| match e.value {
            wsd_telemetry::MetricValue::Gauge { peak, .. } => peak,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    m.put("msg.dest_queue_depth_peak", dest_peak as f64, "count");
    m.put(
        "cx_pool.queue_depth_peak",
        snap.gauge_peak("msg.cx_pool.queue_depth") as f64,
        "count",
    );
    m.put(
        "msgbox.rpc_calls_per_op",
        ratio(c("msgbox.rpc_calls"), ops),
        "count",
    );

    replay::replay(&traced.corpus, seed, m);
    let fleet_errors = fleet::replay(seed, m);

    let layer_ns: f64 = path_layers(workload)
        .iter()
        .map(|(name, calls)| m.get(name).expect("replayed layer") * calls)
        .sum();
    let plain_cpu = plain.window.cpu_us_per_op();
    m.put(
        "attributed_share",
        ratio(layer_ns / 1e3, plain_cpu),
        "share",
    );
    m.put(
        "trace.overhead_share",
        ratio(traced.window.cpu_us_per_op(), plain_cpu) - 1.0,
        "share",
    );
    fleet_errors
}

fn report_checks(label: &str, live: &Live) {
    for e in &live.errors {
        eprintln!("{label}: check failed: {e}");
    }
    if live.check_failures as usize > live.errors.len() {
        eprintln!("{label}: {} check failures in all", live.check_failures);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    sys::process_cpus();
    let mut m = Metrics::default();
    let (correct, attempted, failed) = if args.trace {
        let plain = run_workload(
            args.workload,
            args.seed,
            args.seconds * UNTRACED_SHARE,
            None,
            1,
        );
        let tele = Arc::new(wsd_telemetry::Registry::new());
        let traced = run_workload(
            args.workload,
            args.seed,
            args.seconds * (1.0 - UNTRACED_SHARE),
            Some(tele),
            1,
        );
        report_checks("untraced", &plain);
        report_checks("traced", &traced);
        let fleet_errors = per_layer(args.workload, args.seed, &plain, &traced, &mut m);
        for e in &fleet_errors {
            eprintln!("fleet: check failed: {e}");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match spans::write(&path, &traced.spans, SPANS_WRITTEN) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
        for (name, self_ns, n) in spans::self_times(&traced.spans) {
            eprintln!(
                "self time {name:>12}: median {:.1} us over {n} spans",
                self_ns / 1e3
            );
        }
        (
            plain.check_failures + traced.check_failures == 0 && fleet_errors.is_empty(),
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        )
    } else {
        let segments = ((args.seconds / SEGMENT_S).round() as usize).max(1);
        let live = run_segmented(args.workload, args.seed, args.seconds, segments, SETUP_REPS);
        report_checks(args.workload, &live);
        let on = |c: usize| live.cpus.iter().filter(|x| **x == c).count();
        let counts: Vec<String> = sys::process_cpus()
            .iter()
            .map(|c| format!("cpu {c}: {}", on(*c)))
            .collect();
        eprintln!("segments pinned to {}", counts.join(", "));
        let mut live = live;
        let slow = median(&live.handoff_us) / host::NOMINAL_HANDOFF_US;
        if live.open_loop {
            eprintln!("host: hand-off {slow:.3}x nominal; open loop, as measured");
        } else {
            let mut raw = Metrics::default();
            end_to_end(&live, &mut raw);
            eprintln!(
                "host: hand-off {slow:.3}x nominal; as measured: {}",
                raw.summary()
            );
            live.at_nominal_speed(slow);
        }
        end_to_end(&live, &mut m);
        (live.check_failures == 0, live.attempted, live.failed)
    };
    println!(
        "{}",
        stats::result_line(correct, attempted.max(1), failed, &m)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `section` in the repository's
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn names(m: &Metrics) -> Vec<String> {
        m.names().map(str::to_string).collect()
    }

    /// A short run of `workload`, untraced and traced: every output check
    /// passes, nothing fails, and the printed names are exactly the ones
    /// `BENCHMARK.json` declares.
    fn smoke(workload: &str) {
        let plain = run_workload(workload, 7, 0.4, None, 2);
        assert_eq!(plain.errors, Vec::<String>::new(), "{workload}");
        assert_eq!((plain.check_failures, plain.failed), (0, 0), "{workload}");
        assert!(plain.attempted > 0);
        let mut m = Metrics::default();
        end_to_end(&plain, &mut m);
        assert_eq!(names(&m), declared("end_to_end"));
        for n in declared("end_to_end") {
            assert!(m.get(&n).unwrap() > 0.0, "{workload}: {n} is 0");
        }

        let tele = Arc::new(wsd_telemetry::Registry::new());
        let traced = run_workload(workload, 7, 0.4, Some(tele), 1);
        assert_eq!(traced.errors, Vec::<String>::new(), "{workload} traced");
        assert!(!traced.spans.is_empty());
        let mut m = Metrics::default();
        assert_eq!(
            per_layer(workload, 7, &plain, &traced, &mut m),
            Vec::<String>::new()
        );
        assert_eq!(names(&m), declared("per_layer"));
        // Allocation counts are exact: a second replay repeats them.
        let mut again = Metrics::default();
        replay::replay(&traced.corpus, 7, &mut again);
        for n in [
            "core.route_forward_allocs",
            "core.route_reply_allocs",
            "rpc.plan_forward_allocs",
            "msgbox.deposit_allocs",
        ] {
            assert_eq!(m.get(n), again.get(n), "{workload}: {n}");
        }
    }

    #[test]
    fn smoke_msg_mailbox() {
        smoke("msg_mailbox");
    }

    #[test]
    fn smoke_rpc_relay() {
        smoke("rpc_relay");
    }

    #[test]
    fn workload_names_match_the_declaration() {
        assert_eq!(declared("workloads"), WORKLOADS);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(args(&[
            "--workload",
            "rpc_relay",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "3"]).is_err());
        assert!(args(&["--workload", "msg_mailbox", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "msg_mailbox", "--seconds"]).is_err());
    }
}
