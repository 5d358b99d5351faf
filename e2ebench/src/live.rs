//! The two live workloads on the threaded runtime (`msg_mailbox`,
//! `rpc_relay`): set-up, load generation, output checks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsd_core::msgbox::ops;
use wsd_core::rt::{EchoServer, MailboxClient, Network};
use wsd_core::Url;
use wsd_http::{HttpClient, PipeStream, Request, Status};
use wsd_soap::{rpc, Envelope, SoapVersion};
use wsd_telemetry::Snapshot;
use wsd_wsa::WsaHeaders;

use crate::inputs::{self, parse_index, MsgInputs};
use crate::probe::{measure, Probe, Window};
use crate::spans::Span;
use crate::stats::{percentile, ratio};
use crate::topo::{Dispatcher, HOST, MSGBOX_PORT, MSG_PORT, RPC_PORT};

/// Offered rate of `msg_mailbox`, messages per second. The path costs
/// 170–200 µs of CPU per message on one core of the 2-vCPU Xeon VM the
/// benchmark was tuned on, so this keeps that core about 40% busy. At
/// 1000/s the CPU per message spread 0.25 (IQR over median) over ten
/// runs against 0.03 at this rate: with the core mostly idle, how often
/// the threads wake per message follows the host's timing.
pub const MAILBOX_RATE: f64 = 2000.0;
/// Mailboxes the firewalled peer spreads its replies over.
pub const MAILBOXES: usize = 8;
/// Messages fetched per poll.
pub const POLL_MAX: usize = 64;
/// The peer polls each mailbox it awaits a reply in once per tick; the
/// tick is incommensurate with the send period, so poll phases sweep
/// evenly over message arrivals.
const POLL_TICK: Duration = Duration::from_micros(400);
/// `rpc_relay`: concurrent clients, one keep-alive connection each.
pub const RELAY_CLIENTS: usize = 2;

/// How long after the load stops replies and deliveries may still arrive.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Width of the windows `latency_p50_us` takes its median over.
const LATENCY_WINDOW_NS: u64 = 100_000_000;
/// Output-check failures kept verbatim (the rest are only counted).
const KEPT_ERRORS: usize = 8;

/// How to run one live workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: components assembled with telemetry, spans recorded.
    pub tele: Option<Arc<wsd_telemetry::Registry>>,
    /// How many times the topology is set up (the last one is used).
    pub setup_reps: usize,
}

impl Run {
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).clamp(0.05, 1.0))
    }
}

/// Recorded inputs of a run, replayed layer by layer afterwards.
#[derive(Debug, Default, Clone)]
pub struct Corpus {
    /// Requests exactly as the client sent them.
    pub http: Vec<Request>,
    /// WS-Addressing envelopes as the MSG core routes them.
    pub addressed: Vec<String>,
    /// Correlated replies to `addressed`, in the same order.
    pub replies: Vec<String>,
    /// Logical service names and their physical endpoints.
    pub services: Vec<(String, Url)>,
    /// Logical service of each `addressed` envelope.
    pub logical: Vec<String>,
}

/// What one live run produced.
#[derive(Default)]
pub struct Live {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (count, first few descriptions).
    pub check_failures: u64,
    pub errors: Vec<String>,
    pub window: Window,
    pub setup_s: Vec<f64>,
    /// Per-operation latency of every operation in the measured window, ns.
    pub lat_ns: Vec<f64>,
    /// Median latency of each 0.1 s window of operation start times, ns.
    pub lat_window_ns: Vec<f64>,
    pub late_max_us: f64,
    pub polls: u64,
    pub empty_polls: u64,
    pub peak_rss_mb: f64,
    pub snapshot: Option<Snapshot>,
    pub spans: Vec<Span>,
    pub corpus: Corpus,
    /// The CPU each topology ran on.
    pub cpus: Vec<usize>,
    /// The host's hand-off time when each topology was set up, µs.
    pub handoff_us: Vec<f64>,
    /// Open loop: load offered at a fixed rate, whatever the host speed.
    pub open_loop: bool,
}

impl Live {
    fn fail_check(&mut self, what: String) {
        self.check_failures += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(what);
        }
    }

    /// Records `(start, latency)` samples, both in ns.
    fn latencies(&mut self, samples: Vec<(u64, f64)>) {
        if samples.is_empty() {
            self.fail_check("no operation completed in the measured window".into());
        }
        let mut by_window: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for (start, ns) in &samples {
            by_window
                .entry(start / LATENCY_WINDOW_NS)
                .or_default()
                .push(*ns);
        }
        self.lat_window_ns = by_window.values().map(|v| percentile(v, 50.0)).collect();
        self.lat_ns = samples.into_iter().map(|(_, ns)| ns).collect();
    }

    /// Median over 0.1 s windows of each window's median latency: a
    /// host stall lasting a few windows moves it no further than those
    /// windows' rank.
    pub fn latency_p50_us(&self) -> f64 {
        if self.lat_window_ns.is_empty() {
            0.0
        } else {
            percentile(&self.lat_window_ns, 50.0) / 1e3
        }
    }

    pub fn latency_p99_us(&self) -> f64 {
        if self.lat_ns.is_empty() {
            0.0
        } else {
            percentile(&self.lat_ns, 99.0) / 1e3
        }
    }

    pub fn empty_poll_share(&self) -> f64 {
        ratio(self.empty_polls as f64, self.polls as f64)
    }

    /// Restates the time metrics at nominal host speed, for a run in
    /// which the host was `slow` times slower than nominal.
    pub fn at_nominal_speed(&mut self, slow: f64) {
        self.window.tput.iter_mut().for_each(|t| *t *= slow);
        self.window.cpu.iter_mut().for_each(|c| *c /= slow);
        self.lat_window_ns.iter_mut().for_each(|l| *l /= slow);
        self.setup_s.iter_mut().for_each(|s| *s /= slow);
    }

    /// Folds another segment of the same workload into this one.
    pub fn absorb(&mut self, other: Live) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_failures += other.check_failures;
        for e in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
        self.window.absorb(other.window);
        self.setup_s.extend(other.setup_s);
        self.lat_ns.extend(other.lat_ns);
        self.lat_window_ns.extend(other.lat_window_ns);
        self.late_max_us = self.late_max_us.max(other.late_max_us);
        self.polls += other.polls;
        self.empty_polls += other.empty_polls;
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
        self.spans.extend(other.spans);
        self.snapshot = other.snapshot.or(self.snapshot.take());
        self.corpus = other.corpus;
        self.cpus.extend(other.cpus);
        self.handoff_us.extend(other.handoff_us);
        self.open_loop = other.open_loop;
    }
}

/// Sets the topology up `reps` times, timing each; all but the last are
/// torn down again.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    teardown: impl Fn(&T),
) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let topo = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= reps.max(1) {
            return (times, topo);
        }
        teardown(&topo);
    }
}

fn connect(net: &Arc<Network>, port: u16) -> HttpClient<PipeStream> {
    HttpClient::new(net.connect(HOST, port).expect("dispatcher listens"))
}

fn soap_post(port: u16, target: &str, body: impl Into<wsd_http::Bytes>) -> Request {
    Request::soap_post(
        &format!("{HOST}:{port}"),
        target,
        SoapVersion::V11.content_type(),
        body,
    )
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// The reply a service sends to message `message_id` asking it to echo
/// `text`: the echo response carrying `RelatesTo` = `message_id`.
pub fn correlated_reply(text: &str, message_id: &str) -> String {
    let mut env = rpc::echo_response(SoapVersion::V11, text);
    WsaHeaders::new().relates_to(message_id).apply(&mut env);
    env.to_xml()
}

fn msg_corpus(
    seed: u64,
    inputs: &MsgInputs,
    logical: impl Fn(usize) -> String,
    services: Vec<(String, Url)>,
) -> Corpus {
    let mut c = Corpus {
        services,
        ..Corpus::default()
    };
    for i in 0..inputs.templates.len() {
        let body = inputs.templates[i].stamp(i);
        let xml = String::from_utf8(body.to_vec()).expect("utf-8 envelope");
        c.http.push(soap_post(MSG_PORT, "/msg", body));
        c.replies.push(correlated_reply(
            &inputs.texts[i],
            &inputs::message_id(seed, i),
        ));
        c.addressed.push(xml);
        c.logical.push(logical(inputs.dest[i]));
    }
    c
}

// ---------------------------------------------------------------------
// msg_mailbox
// ---------------------------------------------------------------------

struct MailboxTopo {
    echo: EchoServer,
    disp: Dispatcher,
    boxes: Vec<MailboxClient>,
}

fn mailbox_setup(
    seed: u64,
    tele: Option<&wsd_telemetry::Registry>,
) -> (MailboxTopo, [HttpClient<PipeStream>; 2]) {
    let net = Network::new();
    // The peer accepts no inbound connections: replies must wait in its
    // mailboxes until it polls.
    net.set_firewalled("peer", true);
    let echo = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
    let disp = Dispatcher::start(&net, seed, tele);
    disp.registry().register(
        "Echo",
        Url::parse("http://ws:8888/echo").expect("static url"),
    );
    let boxes = (0..MAILBOXES)
        .map(|_| MailboxClient::create(&net, HOST, MSGBOX_PORT).expect("mailbox create"))
        .collect();
    let clients = [connect(&net, MSG_PORT), connect(&net, MSGBOX_PORT)];
    (MailboxTopo { echo, disp, boxes }, clients)
}

fn mailbox_teardown(t: &MailboxTopo) {
    t.disp.shutdown();
    t.echo.shutdown();
}

struct SendLog {
    send_ns: Vec<u64>,
    ack_ns: Vec<u64>,
    ok: Vec<bool>,
    late_max_ns: u64,
}

struct PickLog {
    picked_ns: Vec<u64>,
    polls: u64,
    empty_polls: u64,
    failures: Vec<String>,
}

/// Open loop at [`MAILBOX_RATE`]: one sender, one pickup thread polling
/// the peer's mailboxes over one keep-alive connection.
pub fn msg_mailbox(run: &Run) -> Live {
    let tele = run.tele.as_deref();
    let (setup_s, (topo, [mut sender, mut picker])) = timed_setups(
        run.setup_reps,
        || mailbox_setup(run.seed, tele),
        |(t, _)| mailbox_teardown(t),
    );
    let urls: Vec<String> = topo.boxes.iter().map(MailboxClient::deposit_url).collect();
    let inputs = inputs::mailbox_inputs(run.seed, &urls);
    let fetches: Vec<Request> = topo
        .boxes
        .iter()
        .map(|b| {
            let env = ops::fetch(SoapVersion::V11, b.box_id(), b.access_key(), POLL_MAX);
            soap_post(MSGBOX_PORT, "/msgbox", env.to_xml().into_bytes())
        })
        .collect();
    let period_ns = 1e9 / MAILBOX_RATE;
    let total = (run.seconds * MAILBOX_RATE) as usize + 1;
    let origin = Instant::now() + Duration::from_millis(5);
    let warm_end = origin + run.warmup();
    let end = origin + Duration::from_secs_f64(run.seconds);
    let due = |i: usize| origin + Duration::from_nanos((i as f64 * period_ns) as u64);
    let probe = Probe::new(2);
    let accepted = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let awaited: [AtomicU64; MAILBOXES] = std::array::from_fn(|_| AtomicU64::new(0));
    let mut live = Live {
        setup_s,
        open_loop: true,
        ..Live::default()
    };

    let (window, send, pick) = std::thread::scope(|s| {
        let send = s.spawn(|| {
            probe.publish(0);
            let mut log = SendLog {
                send_ns: Vec::with_capacity(total),
                ack_ns: Vec::with_capacity(total),
                ok: Vec::with_capacity(total),
                late_max_ns: 0,
            };
            for i in 0..total {
                let due_i = due(i);
                crate::probe::sleep_until(due_i);
                let body = inputs.templates[inputs.template(i)].stamp(i);
                let req = soap_post(MSG_PORT, "/msg", body);
                let start = Instant::now();
                let ok = matches!(sender.call(&req), Ok(r) if r.status == Status::ACCEPTED);
                let ack = Instant::now();
                if due_i >= warm_end {
                    log.late_max_ns = log.late_max_ns.max(ns_since(due_i, start));
                }
                log.send_ns.push(ns_since(origin, start));
                log.ack_ns.push(ns_since(origin, ack));
                log.ok.push(ok);
                if ok {
                    awaited[inputs.dest[inputs.template(i)]].fetch_add(1, Ordering::SeqCst);
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
                if i.is_multiple_of(8) {
                    probe.publish(0);
                }
            }
            sender_done.store(true, Ordering::SeqCst);
            probe.publish(0);
            log
        });
        let pick = s.spawn(|| {
            probe.publish(1);
            let mut log = PickLog {
                picked_ns: vec![0; total],
                polls: 0,
                empty_polls: 0,
                failures: Vec::new(),
            };
            let mut picked = 0u64;
            let deadline = end + DRAIN_DEADLINE;
            let mut picked_from = [0u64; MAILBOXES];
            let mut tick = origin;
            'poll: loop {
                // A fixed polling cadence, independent of how fast replies
                // come back: polls per message stay put when the host slows.
                tick = (tick + POLL_TICK).max(Instant::now());
                crate::probe::sleep_until(tick);
                for (b, fetch) in fetches.iter().enumerate() {
                    // The peer knows which replies it still awaits, and where.
                    if awaited[b].load(Ordering::SeqCst) <= picked_from[b] {
                        continue;
                    }
                    let resp = picker.call(fetch);
                    let at = ns_since(origin, Instant::now());
                    log.polls += 1;
                    let bodies = resp
                        .ok()
                        .and_then(|r| Envelope::parse(&r.body_utf8()).ok())
                        .and_then(|env| ops::parse_fetch_response(&env));
                    let Some(bodies) = bodies else {
                        log.failures.push(format!("fetch from mailbox {b} failed"));
                        break 'poll;
                    };
                    if bodies.is_empty() {
                        log.empty_polls += 1;
                    }
                    picked_from[b] += bodies.len() as u64;
                    for body in &bodies {
                        match check_mailbox_reply(&inputs, body, b, total) {
                            Ok(i) if log.picked_ns[i] != 0 => log
                                .failures
                                .push(format!("reply to message {i} picked up twice")),
                            Ok(i) => {
                                log.picked_ns[i] = at.max(1);
                                picked += 1;
                                probe.ops.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => log.failures.push(e),
                        }
                    }
                }
                probe.publish(1);
                if sender_done.load(Ordering::SeqCst) && picked >= accepted.load(Ordering::SeqCst) {
                    break;
                }
                if Instant::now() > deadline {
                    break;
                }
            }
            probe.publish(1);
            log
        });
        let window = measure(&probe, warm_end, end);
        (
            window,
            send.join().expect("sender"),
            pick.join().expect("pickup"),
        )
    });

    live.window = window;
    live.peak_rss_mb = crate::sys::peak_rss_mb();
    for f in pick.failures {
        live.fail_check(f);
    }
    let sent = send.ok.len();
    let origin_due = |i: usize| ns_since(origin, due(i));
    let mut lat = Vec::new();
    for i in 0..sent {
        let picked = pick.picked_ns[i];
        match (send.ok[i], picked != 0) {
            (true, true) => {}
            (true, false) => {
                live.failed += 1;
                live.fail_check(format!("reply to accepted message {i} never picked up"));
            }
            (false, answered) => {
                live.failed += 1; // refused
                if answered {
                    live.fail_check(format!("refused message {i} was answered"));
                }
            }
        }
        if picked != 0 && due(i) >= warm_end {
            lat.push((origin_due(i), picked.saturating_sub(origin_due(i)) as f64));
        }
        if tele.is_some() && picked != 0 {
            let d = origin_due(i);
            let (snd, ack) = (send.send_ns[i], send.ack_ns[i]);
            let m = i as u64;
            live.spans.extend([
                Span {
                    msg: m,
                    name: "message",
                    parent: None,
                    start_ns: d,
                    end_ns: picked,
                },
                Span {
                    msg: m,
                    name: "gen_delay",
                    parent: Some("message"),
                    start_ns: d,
                    end_ns: snd,
                },
                Span {
                    msg: m,
                    name: "send_ack",
                    parent: Some("message"),
                    start_ns: snd,
                    end_ns: ack,
                },
                Span {
                    msg: m,
                    name: "reply_wait",
                    parent: Some("message"),
                    start_ns: ack,
                    end_ns: picked,
                },
            ]);
        }
    }
    live.attempted = sent as u64;
    live.latencies(lat);
    live.late_max_us = send.late_max_ns as f64 / 1e3;
    live.polls = pick.polls;
    live.empty_polls = pick.empty_polls;
    live.snapshot = tele.map(wsd_telemetry::Registry::snapshot);
    live.corpus = msg_corpus(
        run.seed,
        &inputs,
        |_| "Echo".to_string(),
        vec![(
            "Echo".into(),
            Url::parse("http://ws:8888/echo").expect("static url"),
        )],
    );
    drop((sender, picker));
    mailbox_teardown(&topo);
    live
}

/// Checks one picked-up reply: it correlates to a message this run
/// sent, to the mailbox that message named, and echoes its text.
fn check_mailbox_reply(
    inputs: &MsgInputs,
    body: &str,
    mailbox: usize,
    total: usize,
) -> Result<usize, String> {
    let env = Envelope::parse(body).map_err(|e| format!("unparseable reply: {e}"))?;
    let rel = WsaHeaders::from_envelope(&env)
        .ok()
        .and_then(|h| h.relates_to.first().map(|r| r.0.clone()))
        .ok_or("reply without RelatesTo")?;
    let i = parse_index(&inputs.prefix, &rel)
        .filter(|i| *i < total)
        .ok_or_else(|| format!("reply relates to unknown message {rel}"))?;
    let k = inputs.template(i);
    if inputs.dest[k] != mailbox {
        return Err(format!("reply to message {i} landed in mailbox {mailbox}"));
    }
    match rpc::parse_echo_response(&env) {
        Ok(text) if text == inputs.texts[k] => Ok(i),
        _ => Err(format!("reply to message {i} does not echo its text")),
    }
}

// ---------------------------------------------------------------------
// rpc_relay
// ---------------------------------------------------------------------

struct RelayLog {
    /// (start, end) of each measured call.
    calls: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    late_max_ns: u64,
    failures: Vec<String>,
}

/// Closed loop: [`RELAY_CLIENTS`] clients calling `/svc/Echo` through the
/// RPC-Dispatcher, one keep-alive connection each.
pub fn rpc_relay(run: &Run) -> Live {
    let tele = run.tele.as_deref();
    let (setup_s, (_net, echo, disp, clients)) = timed_setups(
        run.setup_reps,
        || {
            let net = Network::new();
            let echo = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
            let disp = Dispatcher::start(&net, run.seed, tele);
            disp.registry().register(
                "Echo",
                Url::parse("http://ws:8888/echo").expect("static url"),
            );
            let clients: Vec<_> = (0..RELAY_CLIENTS)
                .map(|_| connect(&net, RPC_PORT))
                .collect();
            (net, echo, disp, clients)
        },
        |(_, echo, disp, _)| {
            disp.shutdown();
            echo.shutdown();
        },
    );
    let inputs: Vec<_> = (0..RELAY_CLIENTS)
        .map(|c| inputs::rpc_inputs(run.seed, c))
        .collect();
    let origin = Instant::now();
    let warm_end = origin + run.warmup();
    let end = origin + Duration::from_secs_f64(run.seconds);
    let probe = Probe::new(RELAY_CLIENTS);
    let mut live = Live {
        setup_s,
        ..Live::default()
    };

    let (window, logs) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&inputs)
            .enumerate()
            .map(|(c, (mut client, inputs))| {
                let probe = &probe;
                s.spawn(move || {
                    probe.publish(c);
                    let mut log = RelayLog {
                        calls: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        late_max_ns: 0,
                        failures: Vec::new(),
                    };
                    let mut prev_end: Option<Instant> = None;
                    let mut j = 0usize;
                    while Instant::now() < end {
                        let k = j % inputs.requests.len();
                        j += 1;
                        let req = soap_post(RPC_PORT, "/svc/Echo", inputs.requests[k].clone());
                        let start = Instant::now();
                        let resp = client.call(&req);
                        let done = Instant::now();
                        log.attempted += 1;
                        match resp {
                            Ok(r) if r.status == Status::OK => {
                                if r.body.as_ref() != inputs.expected[k].as_slice() {
                                    log.failures.push(format!(
                                        "client {c} call {j}: response does not echo the request"
                                    ));
                                }
                                probe.ops.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => log.failed += 1,
                        }
                        if start >= warm_end {
                            log.calls
                                .push((ns_since(origin, start), ns_since(origin, done)));
                            if let Some(p) = prev_end {
                                log.late_max_ns = log.late_max_ns.max(ns_since(p, start));
                            }
                        }
                        prev_end = Some(done);
                        if j.is_multiple_of(8) {
                            probe.publish(c);
                        }
                    }
                    probe.publish(c);
                    drop(client);
                    log
                })
            })
            .collect();
        let window = measure(&probe, warm_end, end);
        let logs: Vec<RelayLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        (window, logs)
    });

    live.window = window;
    live.peak_rss_mb = crate::sys::peak_rss_mb();
    let mut lat = Vec::new();
    for (c, log) in logs.into_iter().enumerate() {
        live.attempted += log.attempted;
        live.failed += log.failed;
        live.late_max_us = live.late_max_us.max(log.late_max_ns as f64 / 1e3);
        for f in log.failures {
            live.fail_check(f);
        }
        for (n, (a, b)) in log.calls.iter().enumerate() {
            lat.push((*a, (b - a) as f64));
            if tele.is_some() {
                let msg = ((c as u64) << 40) | n as u64;
                live.spans.push(Span {
                    msg,
                    name: "call",
                    parent: None,
                    start_ns: *a,
                    end_ns: *b,
                });
            }
        }
    }
    live.latencies(lat);
    live.snapshot = tele.map(wsd_telemetry::Registry::snapshot);
    live.corpus = relay_corpus(run.seed, &inputs[0]);
    disp.shutdown();
    echo.shutdown();
    live
}

/// The relay's requests as sent, plus addressed twins of the same
/// bodies for the MSG-layer replays.
fn relay_corpus(seed: u64, inputs: &inputs::RpcInputs) -> Corpus {
    let mut c = Corpus {
        services: vec![(
            "Echo".into(),
            Url::parse("http://ws:8888/echo").expect("static url"),
        )],
        ..Corpus::default()
    };
    for (k, (req, text)) in inputs.requests.iter().zip(&inputs.texts).enumerate() {
        c.http.push(soap_post(RPC_PORT, "/svc/Echo", req.clone()));
        let mut env = rpc::echo_request(SoapVersion::V11, text);
        let id = inputs::message_id(seed, k);
        WsaHeaders::new()
            .to("http://dispatcher/svc/Echo")
            .message_id(id.as_str())
            .apply(&mut env);
        c.addressed.push(env.to_xml());
        c.replies.push(correlated_reply(text, &id));
        c.logical.push("Echo".into());
    }
    c
}
