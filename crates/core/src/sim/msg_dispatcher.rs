//! The simulated MSG-Dispatcher (paper §4.2, Figure 3).
//!
//! Incoming one-way messages are accepted by the `CxThread` stage (a
//! FIFO CPU here), routed through [`MsgCore`] (logical-address
//! resolution + WS-Addressing rewrite), acknowledged with `202`, and
//! handed to the `WsThread` stage: per-destination FIFO queues drained
//! by a bounded pool of sender threads, each holding one kept-open
//! connection to its destination ("multiple messages can be delivered to
//! a destination over one connection which is more efficient than
//! opening multiple short lived connections").
//!
//! Each destination is a [`WsDrain`], the drain the threaded runtime runs
//! too; the slot pool and idle linger are this actor's own (a drained
//! destination frees its slot; only its connection lingers). A `WsThread`
//! toward an unreachable (firewalled) client holds its slot through the
//! connect timeout and retry backoff — exactly how undeliverable replies
//! starve request forwarding in Figure 6's middle curve.

use std::collections::{HashMap, VecDeque};

use wsd_http::{parse_request_bytes, Request, Response, Status};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, SimDuration};
use wsd_soap::SoapVersion;
use wsd_telemetry::{Counter, EventTrace, Gauge, Scope, TraceStage};

use crate::drain::{Next, WsDrain};
use crate::msg::{correlate_rpc_reply, MsgCore, RoutedRaw};
use crate::sim::{request_payload, response_payload, CpuQueue};
use crate::url::Url;

/// Live counters of a [`SimMsgDispatcher`]: its telemetry instruments.
#[derive(Debug, Clone, Default)]
pub struct MsgDispatcherStats {
    received: Counter,
    acked: Counter,
    forwarded: Counter,
    replies_routed: Counter,
    delivered: Counter,
    dropped: Counter,
    rejected: Counter,
    active_threads: Gauge,
}

impl MsgDispatcherStats {
    fn new(scope: &Scope) -> Self {
        MsgDispatcherStats {
            received: scope.counter("received"),
            acked: scope.counter("acked"),
            forwarded: scope.counter("forwarded"),
            replies_routed: scope.counter("replies_routed"),
            delivered: scope.counter("delivered"),
            dropped: scope.counter("dropped"),
            rejected: scope.counter("rejected"),
            active_threads: scope.gauge("active_threads"),
        }
    }

    /// Messages read off client connections.
    pub fn received(&self) -> u64 {
        self.received.get()
    }
    /// `202 Accepted` acks sent.
    pub fn acked(&self) -> u64 {
        self.acked.get()
    }
    /// Requests routed toward services.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.get()
    }
    /// Replies routed toward clients/mailboxes.
    pub fn replies_routed(&self) -> u64 {
        self.replies_routed.get()
    }
    /// Messages actually written to a destination connection.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }
    /// Messages dropped (queue overflow or delivery given up).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
    /// Messages rejected by routing or security.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }
    /// High-water mark of concurrently busy `WsThread`s.
    pub fn peak_active_threads(&self) -> usize {
        self.active_threads.peak() as usize
    }
}

/// `WsThread`-stage tuning (batching and hold/retry: [`crate::drain`]).
#[derive(Debug, Clone)]
pub struct WsThreadConfig {
    /// Sender-thread pool size.
    pub threads: usize,
    /// Per-destination queue capacity.
    pub queue_capacity: usize,
    /// Connect timeout toward destinations.
    pub connect_timeout: SimDuration,
    /// Idle time before a kept-open destination connection is closed.
    pub linger: SimDuration,
    /// How long a forwarded request's route-table entry awaits its reply
    /// before the janitor drops it.
    pub route_ttl: SimDuration,
}

impl Default for WsThreadConfig {
    fn default() -> Self {
        WsThreadConfig {
            threads: 16,
            queue_capacity: 256,
            connect_timeout: SimDuration::from_secs(3),
            linger: SimDuration::from_secs(15),
            route_ttl: SimDuration::from_secs(300),
        }
    }
}

type DestKey = (String, u16);

/// A queued envelope: its `MessageID` and its serialized request.
type Queued = (String, Payload);

/// Instruments: the [`MsgDispatcherStats`], queue and batch counters,
/// per-destination queue-depth gauges, and lifecycle trace events keyed
/// by `MessageID`. A [`Scope::noop`] by default.
struct DispatcherTelemetry {
    scope: Scope,
    trace: EventTrace,
    stats: MsgDispatcherStats,
    active_threads: Gauge,
    enqueued: Counter,
    drain_batches: Counter,
    dest_queue_depth: HashMap<DestKey, Gauge>,
}

impl DispatcherTelemetry {
    fn new(scope: &Scope) -> Self {
        let stats = MsgDispatcherStats::new(scope);
        DispatcherTelemetry {
            trace: scope.trace(),
            // The same cell the stats read, also when unregistered.
            active_threads: stats.active_threads.clone(),
            stats,
            enqueued: scope.counter("queue_enqueued"),
            drain_batches: scope.counter("drain_batches"),
            dest_queue_depth: HashMap::new(),
            scope: scope.clone(),
        }
    }

    fn dest_queue_depth(&mut self, key: &DestKey) -> &Gauge {
        let scope = &self.scope;
        self.dest_queue_depth.entry(key.clone()).or_insert_with(|| {
            scope
                .labeled("dest", &format!("{}:{}", key.0, key.1))
                .gauge("queue_depth")
        })
    }

    fn stage(&self, msg_id: &str, stage: TraceStage, at_us: u64) {
        if !msg_id.is_empty() {
            self.trace.push(msg_id, stage, at_us);
        }
    }
}

struct Dest {
    drain: WsDrain<Queued, ConnId>,
    has_thread: bool,
    /// Bumped per drained queue: a linger timer only closes the
    /// connection if no traffic came since it was armed.
    generation: u64,
}

/// The MSG-Dispatcher as a simulation actor.
pub struct SimMsgDispatcher {
    core: MsgCore,
    config: WsThreadConfig,
    /// `CxThread` CPU cost per routed message.
    dispatch_time: SimDuration,
    cpu: CpuQueue,
    next_token: u64,
    /// Routing work waiting for CPU: token → (conn to answer on, raw
    /// bytes). Translated RPC responses re-enter here with no answer
    /// connection — the "translation of semantics" CPU cost.
    routing: HashMap<u64, (Option<ConnId>, Payload)>,
    dests: HashMap<DestKey, Dest>,
    active_threads: usize,
    /// Destinations with work, waiting for a free `WsThread`.
    waiting: VecDeque<DestKey>,
    /// Connections to destinations, connecting or ready.
    dest_conns: HashMap<ConnId, DestKey>,
    backoff_timers: HashMap<u64, DestKey>,
    linger_timers: HashMap<u64, (DestKey, u64)>,
    /// Token of the pending route-table janitor tick (armed lazily so an
    /// idle dispatcher schedules no events and `run()` can drain).
    janitor_token: u64,
    janitor_armed: bool,
    tele: DispatcherTelemetry,
}

impl SimMsgDispatcher {
    /// Creates the dispatcher actor around a routing core.
    pub fn new(core: MsgCore, dispatch_time: SimDuration, config: WsThreadConfig) -> Self {
        SimMsgDispatcher {
            core,
            config,
            dispatch_time,
            cpu: CpuQueue::default(),
            next_token: 0,
            routing: HashMap::new(),
            dests: HashMap::new(),
            active_threads: 0,
            waiting: VecDeque::new(),
            dest_conns: HashMap::new(),
            backoff_timers: HashMap::new(),
            linger_timers: HashMap::new(),
            janitor_token: 0,
            janitor_armed: false,
            tele: DispatcherTelemetry::new(&Scope::noop()),
        }
    }

    /// Attaches telemetry: the [`MsgDispatcherStats`] counters, an
    /// `active_threads` gauge, per-destination `dest{host:port}.queue_depth`
    /// gauges, and message-lifecycle trace events.
    pub fn with_telemetry(mut self, scope: &Scope) -> Self {
        self.tele = DispatcherTelemetry::new(scope);
        self.core.bind_telemetry(&scope.child("core"));
        self
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> MsgDispatcherStats {
        self.tele.stats.clone()
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Schedules the next route-expiry sweep if routes are pending.
    fn arm_janitor(&mut self, ctx: &mut Ctx<'_>) {
        if !self.janitor_armed && self.core.pending_routes() > 0 {
            self.janitor_armed = true;
            self.janitor_token = self.token();
            ctx.set_timer(SimDuration(self.config.route_ttl.0 / 4), self.janitor_token);
        }
    }

    fn route_now(&mut self, ctx: &mut Ctx<'_>, client_conn: Option<ConnId>, raw: Payload) {
        // The splice fast path inside `route_raw` needs only the request's
        // body bytes; the envelope is parsed solely when the scan declines.
        let parsed = parse_request_bytes(&raw).ok();
        let routed = parsed
            .as_ref()
            .and_then(|req| req.body_str())
            .map(|xml| self.core.route_raw(xml, raw.len(), ctx.now().as_micros()));
        match routed {
            Some(Ok(RoutedRaw::Forward { to, body, message_id, .. })) => {
                self.tele.stats.forwarded.inc();
                if let Some(conn) = client_conn {
                    self.ack(ctx, conn);
                }
                self.enqueue(ctx, &to, body, Some(message_id));
                self.arm_janitor(ctx);
            }
            Some(Ok(RoutedRaw::Reply { to, body, message_id })) => {
                self.tele.stats.replies_routed.inc();
                if let Some(conn) = client_conn {
                    self.ack(ctx, conn);
                }
                self.enqueue(ctx, &to, body, message_id);
            }
            Some(Err(_)) | None => {
                self.tele.stats.rejected.inc();
                if let Some(conn) = client_conn {
                    let resp = Response::empty(Status::BAD_REQUEST);
                    let _ = ctx.send(conn, response_payload(&resp));
                }
            }
        }
    }

    fn ack(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let ack = Response::empty(Status::ACCEPTED);
        if ctx.send(conn, response_payload(&ack)).is_ok() {
            self.tele.stats.acked.inc();
        }
    }

    fn enqueue(&mut self, ctx: &mut Ctx<'_>, to: &Url, body: String, msg_id: Option<String>) {
        // The id was captured by `route_raw` at rewrite time — no re-parse.
        let msg_id = msg_id.unwrap_or_default();
        let req = Request::soap_post(
            &to.authority(),
            &to.path,
            SoapVersion::V11.content_type(),
            body.into_bytes(),
        );
        let payload = request_payload(&req);
        let key = (to.host.clone(), to.port);
        let cap = self.config.queue_capacity;
        let now_us = ctx.now().as_micros();
        let dest = self.dests.entry(key.clone()).or_insert_with(|| Dest {
            drain: WsDrain::new(cap),
            has_thread: false,
            generation: 0,
        });
        match dest.drain.push((msg_id, payload)) {
            Ok((msg_id, _)) => {
                self.tele.stage(msg_id, TraceStage::Rewritten, now_us);
                self.tele.stage(msg_id, TraceStage::Enqueued, now_us);
            }
            Err((msg_id, _)) => {
                self.tele.stats.dropped.inc();
                self.tele.stage(&msg_id, TraceStage::Dropped, now_us);
                return;
            }
        }
        let depth = dest.drain.queued();
        self.tele.enqueued.inc();
        self.tele.dest_queue_depth(&key).set(depth as i64);
        self.schedule_dest(ctx, key);
    }

    /// Ensures `key` either has a thread working it or is queued for one.
    fn schedule_dest(&mut self, ctx: &mut Ctx<'_>, key: DestKey) {
        let Some(dest) = self.dests.get_mut(&key) else {
            return;
        };
        if dest.has_thread || dest.drain.queued() == 0 {
            return;
        }
        if self.active_threads < self.config.threads {
            self.take_slot(ctx, key);
        } else if !self.waiting.contains(&key) {
            self.waiting.push_back(key);
        }
    }

    /// Gives `key` a `WsThread` slot and sets it to work.
    fn take_slot(&mut self, ctx: &mut Ctx<'_>, key: DestKey) {
        if let Some(dest) = self.dests.get_mut(&key) {
            dest.has_thread = true;
        }
        self.active_threads += 1;
        self.tele.active_threads.set(self.active_threads as i64);
        self.work_dest(ctx, key);
    }

    /// Advances a destination that owns a thread.
    fn work_dest(&mut self, ctx: &mut Ctx<'_>, key: DestKey) {
        let Some(dest) = self.dests.get_mut(&key) else {
            return;
        };
        match dest.drain.next_step() {
            Next::Write => self.flush(ctx, key),
            Next::Connect => {
                let conn = ctx.connect(&key.0, key.1, self.config.connect_timeout);
                self.dest_conns.insert(conn, key);
            }
            Next::GiveUp => self.give_up(ctx, key),
            // Progress arrives via connect events and backoff timers.
            Next::Idle => {}
        }
    }

    /// Drops an unreachable destination's queue and frees its slot.
    fn give_up(&mut self, ctx: &mut Ctx<'_>, key: DestKey) {
        if let Some(dest) = self.dests.get_mut(&key) {
            let now_us = ctx.now().as_micros();
            let mut n = 0u64;
            for (msg_id, _) in dest.drain.give_up() {
                self.tele.stage(&msg_id, TraceStage::Dropped, now_us);
                n += 1;
            }
            self.tele.stats.dropped.add(n);
            self.tele.dest_queue_depth(&key).set(0);
        }
        self.release_thread(ctx, &key);
    }

    /// Writes the queue to the ready connection, each message its own
    /// send at one instant: batches are bookkeeping only.
    fn flush(&mut self, ctx: &mut Ctx<'_>, key: DestKey) {
        let Some(dest) = self.dests.get_mut(&key) else {
            return;
        };
        let mut sent = 0u64;
        let mut batches = 0u64;
        let mut broken = None;
        let now_us = ctx.now().as_micros();
        while let Some((&mut conn, batch)) = dest.drain.write_batch() {
            // Sends check the connection table as of this event's start:
            // a batch goes out whole or not at all.
            for (msg_id, payload) in batch {
                if ctx.send(conn, payload.clone()).is_err() {
                    broken = Some(conn);
                    break;
                }
                self.tele.stage(msg_id, TraceStage::Drained, now_us);
                self.tele.stage(msg_id, TraceStage::Delivered, now_us);
            }
            if broken.is_some() {
                dest.drain.conn_lost();
                break;
            }
            sent += dest.drain.written() as u64;
            batches += 1;
        }
        let depth = dest.drain.queued();
        self.tele.stats.delivered.add(sent);
        self.tele.drain_batches.add(batches);
        self.tele.dest_queue_depth(&key).set(depth as i64);
        if let Some(conn) = broken {
            // The connection died under us: reconnect.
            self.dest_conns.remove(&conn);
            self.work_dest(ctx, key);
            return;
        }
        // Queue drained: release the thread, keep the connection warm.
        let dest = self.dests.get_mut(&key).expect("dest exists");
        dest.generation += 1;
        let generation = dest.generation;
        self.release_thread(ctx, &key);
        let token = self.token();
        self.linger_timers.insert(token, (key, generation));
        ctx.set_timer(self.config.linger, token);
    }

    fn release_thread(&mut self, ctx: &mut Ctx<'_>, key: &DestKey) {
        if let Some(dest) = self.dests.get_mut(key) {
            if !dest.has_thread {
                return;
            }
            dest.has_thread = false;
        }
        self.active_threads = self.active_threads.saturating_sub(1);
        self.tele.active_threads.set(self.active_threads as i64);
        // Hand the slot to the next waiting destination with work.
        while let Some(next) = self.waiting.pop_front() {
            let has_work = |d: &Dest| d.drain.queued() > 0 && !d.has_thread;
            if self.dests.get(&next).is_some_and(has_work) {
                self.take_slot(ctx, next);
                break;
            }
        }
    }

    /// A destination's response: a `200` from an *RPC* service becomes a
    /// reply correlated to its request (Table 1 quadrant 3).
    fn on_dest_response(&mut self, ctx: &mut Ctx<'_>, key: DestKey, bytes: Payload) -> Option<()> {
        let resp = wsd_http::parse_response_bytes(&bytes).ok();
        let status = resp.as_ref().map_or(0, |r| r.status.0);
        let (request_id, _) = self.dests.get_mut(&key)?.drain.answered(status)?;
        let reply = correlate_rpc_reply(resp.as_ref()?.body_str()?, &request_id)?;
        // Translation costs CxThread CPU like any inbound message — this
        // is why Table 1 calls the RPC server "a bottleneck (translation
        // of semantics from messaging to RPC)".
        let synthetic = Request::soap_post(
            "translated",
            "/msg",
            SoapVersion::V11.content_type(),
            reply.into_owned().into_bytes(),
        );
        let done_at = self.cpu.reserve(ctx.now(), self.dispatch_time);
        let token = self.token();
        self.routing
            .insert(token, (None, request_payload(&synthetic)));
        ctx.set_timer(done_at.since(ctx.now()), token);
        Some(())
    }
}

impl Process for SimMsgDispatcher {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start | ProcEvent::ConnAccepted { .. } => {}
            ProcEvent::Message { conn, bytes } => {
                if let Some(key) = self.dest_conns.get(&conn).cloned() {
                    self.on_dest_response(ctx, key, bytes);
                    return;
                }
                self.tele.stats.received.inc();
                let done_at = self.cpu.reserve(ctx.now(), self.dispatch_time);
                let token = self.token();
                self.routing.insert(token, (Some(conn), bytes));
                ctx.set_timer(done_at.since(ctx.now()), token);
            }
            ProcEvent::Timer { token } => {
                if self.janitor_armed && token == self.janitor_token {
                    // The route-table janitor (paper §4.4: routes carry
                    // expiration). Re-armed only while routes are
                    // pending, so an idle simulation can drain.
                    self.janitor_armed = false;
                    self.core
                        .expire_routes(ctx.now().as_micros(), self.config.route_ttl.0);
                    self.arm_janitor(ctx);
                } else if let Some((conn, raw)) = self.routing.remove(&token) {
                    self.route_now(ctx, conn, raw);
                } else if let Some(key) = self.backoff_timers.remove(&token) {
                    if let Some(dest) = self.dests.get_mut(&key) {
                        dest.drain.backoff_elapsed();
                        self.work_dest(ctx, key);
                    }
                } else if let Some((key, generation)) = self.linger_timers.remove(&token) {
                    if let Some(dest) = self.dests.get_mut(&key) {
                        if dest.generation == generation {
                            if let Some(conn) = dest.drain.close() {
                                self.dest_conns.remove(&conn);
                                ctx.close(conn);
                            }
                        }
                    }
                }
            }
            ProcEvent::ConnEstablished { conn } => {
                if let Some(key) = self.dest_conns.get(&conn).cloned() {
                    if let Some(dest) = self.dests.get_mut(&key) {
                        dest.drain.connected(conn);
                        if dest.has_thread {
                            self.flush(ctx, key);
                        }
                    }
                }
            }
            ProcEvent::ConnRefused { conn, .. } => {
                if let Some(key) = self.dest_conns.remove(&conn) {
                    if let Some(dest) = self.dests.get_mut(&key) {
                        match dest.drain.connect_failed() {
                            // Hold the thread through the backoff — this
                            // is the blocked-WsThread behaviour.
                            Some(backoff_us) => {
                                let token = self.token();
                                self.backoff_timers.insert(token, key);
                                ctx.set_timer(SimDuration::from_micros(backoff_us), token);
                            }
                            None => self.work_dest(ctx, key),
                        }
                    }
                }
            }
            ProcEvent::ConnClosed { conn } => {
                if let Some(key) = self.dest_conns.remove(&conn) {
                    if let Some(dest) = self.dests.get_mut(&key) {
                        // Unanswered messages go back to the queue.
                        dest.drain.conn_lost();
                        if dest.has_thread {
                            self.work_dest(ctx, key.clone());
                        }
                        self.schedule_dest(ctx, key);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::sim::echo::{EchoMode, SimEchoService};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use wsd_netsim::{FirewallPolicy, HostConfig, Simulation};
    use wsd_soap::rpc as soap_rpc;
    use wsd_wsa::{EndpointReference, WsaHeaders};

    /// Sends `total` one-way echo requests, paced by 202 acks; records
    /// replies POSTed to its callback listener.
    struct OneWayClient {
        total: usize,
        sent: usize,
        reply_to: String,
        got_acks: Rc<RefCell<usize>>,
    }

    impl OneWayClient {
        fn request(&self, i: usize) -> Payload {
            let mut env = soap_rpc::echo_request(SoapVersion::V11, &format!("m{i}"));
            WsaHeaders::new()
                .to("http://dispatcher/svc/Echo")
                .reply_to(EndpointReference::new(&self.reply_to))
                .message_id(format!("uuid:{}-{i}", self.reply_to))
                .apply(&mut env);
            let req = Request::soap_post(
                "dispatcher:8080",
                "/msg",
                SoapVersion::V11.content_type(),
                env.to_xml().into_bytes(),
            );
            request_payload(&req)
        }
    }

    impl Process for OneWayClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    ctx.connect("dispatcher", 8080, SimDuration::from_secs(5));
                }
                ProcEvent::ConnEstablished { conn } => {
                    let msg = self.request(self.sent);
                    ctx.send(conn, msg).unwrap();
                    self.sent += 1;
                }
                ProcEvent::Message { conn, bytes } if bytes.starts_with(b"HTTP/1.1 202") => {
                    *self.got_acks.borrow_mut() += 1;
                    if self.sent < self.total {
                        let msg = self.request(self.sent);
                        let _ = ctx.send(conn, msg);
                        self.sent += 1;
                    }
                }
                _ => {}
            }
        }
    }

    struct ReplySink {
        got: Rc<RefCell<Vec<String>>>,
    }

    impl Process for ReplySink {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Message { conn, bytes } = ev {
                self.got
                    .borrow_mut()
                    .push(String::from_utf8_lossy(&bytes).to_string());
                let ack = Response::empty(Status::ACCEPTED);
                let _ = ctx.send(conn, response_payload(&ack));
            }
        }
    }

    type BuildOut = (
        Simulation,
        MsgDispatcherStats,
        crate::sim::echo::EchoStats,
        Rc<RefCell<Vec<String>>>,
        Rc<RefCell<usize>>,
    );

    fn build(client_firewalled: bool, threads: usize) -> BuildOut {
        let mut sim = Simulation::new(1);
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_cfg = if client_firewalled {
            HostConfig::named("client").firewall(FirewallPolicy::OutboundOnly)
        } else {
            HostConfig::named("client")
        };
        let client_host = sim.add_host(client_cfg);

        // Echo service in one-way mode, replying through the dispatcher.
        let service = SimEchoService::new(
            EchoMode::OneWay {
                workers: 8,
                connect_timeout: SimDuration::from_secs(3),
            },
            SimDuration::from_millis(2),
        );
        let echo_stats = service.stats();
        let ws = sim.spawn(ws_host, Box::new(service));
        sim.listen(ws, 8888);

        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 9);
        let dispatcher = SimMsgDispatcher::new(
            core,
            SimDuration::from_millis(2),
            WsThreadConfig {
                threads,
                ..WsThreadConfig::default()
            },
        );
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8080);

        // Client callback listener + sender.
        let got = Rc::new(RefCell::new(vec![]));
        let sink = sim.spawn(client_host, Box::new(ReplySink { got: got.clone() }));
        sim.listen(sink, 9000);
        let acks = Rc::new(RefCell::new(0));
        sim.spawn(
            client_host,
            Box::new(OneWayClient {
                total: 5,
                sent: 0,
                reply_to: "http://client:9000/cb".into(),
                got_acks: acks.clone(),
            }),
        );
        (sim, stats, echo_stats, got, acks)
    }

    #[test]
    fn full_round_trip_through_dispatcher() {
        let (mut sim, stats, echo_stats, got, acks) = build(false, 16);
        sim.run();
        assert_eq!(stats.forwarded(), 5);
        assert_eq!(echo_stats.accepted(), 5);
        assert_eq!(stats.replies_routed(), 5, "WS replies must route back");
        assert_eq!(got.borrow().len(), 5, "client must receive 5 replies");
        assert_eq!(*acks.borrow(), 5);
        // Replies carry correlation to the original ids.
        assert!(got.borrow()[0].contains("RelatesTo"));
    }

    #[test]
    fn firewalled_client_replies_are_dropped_after_retries() {
        let (mut sim, stats, echo_stats, got, _acks) = build(true, 16);
        sim.run();
        // Everything forwards and the WS processes it...
        assert_eq!(stats.forwarded(), 5);
        assert_eq!(echo_stats.accepted(), 5);
        // ...but replies can't reach the firewalled client.
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(stats.dropped(), 5);
    }

    #[test]
    fn blocked_destination_holds_a_thread() {
        let (mut sim, stats, _echo, _got, _acks) = build(true, 1);
        // With a single WsThread, the blocked client destination and the
        // WS destination compete for it; everything still completes, but
        // the run takes at least the connect-timeout + backoff cycles.
        sim.run();
        assert!(sim.now().as_secs_f64() >= 3.0, "{}", sim.now());
        assert_eq!(stats.peak_active_threads(), 1);
        assert_eq!(stats.dropped(), 5);
    }

    #[test]
    fn connection_reuse_across_messages() {
        let (mut sim, stats, echo_stats, _got, _acks) = build(false, 16);
        sim.run();
        // 5 messages delivered to the WS over (at most) one or two
        // connections — delivered counts messages, not connections.
        assert!(stats.delivered() >= 5);
        assert_eq!(echo_stats.accepted(), 5);
    }

    /// An RPC-style service: answers each request `200` with the echoed
    /// text and no WS-Addressing headers (Table 1 quadrant 3), except
    /// that it closes its first connection on the first request, leaving
    /// that request unanswered.
    struct ClosesFirstRpcService {
        closed_one: bool,
    }

    impl Process for ClosesFirstRpcService {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            let ProcEvent::Message { conn, bytes } = ev else {
                return;
            };
            if !self.closed_one {
                self.closed_one = true;
                ctx.close(conn);
                return;
            }
            let req = parse_request_bytes(&bytes).unwrap();
            let env = wsd_soap::Envelope::parse(req.body_str().unwrap()).unwrap();
            let text = soap_rpc::parse_echo(&env).unwrap();
            let reply = soap_rpc::echo_response(env.version, &text);
            let resp = Response::new(
                Status::OK,
                env.version.content_type(),
                reply.to_xml().into_bytes(),
            );
            let _ = ctx.send(conn, response_payload(&resp));
        }
    }

    /// Sends two one-way requests a second apart over one connection.
    struct SpacedClient {
        requests: OneWayClient,
        conn: Option<ConnId>,
    }

    impl Process for SpacedClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    ctx.connect("dispatcher", 8080, SimDuration::from_secs(5));
                }
                ProcEvent::ConnEstablished { conn } => {
                    self.conn = Some(conn);
                    ctx.send(conn, self.requests.request(0)).unwrap();
                    ctx.set_timer(SimDuration::from_secs(1), 1);
                }
                ProcEvent::Timer { .. } => {
                    let conn = self.conn.unwrap();
                    ctx.send(conn, self.requests.request(1)).unwrap();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn rpc_reply_after_a_lost_connection_relates_to_its_own_request() {
        // Regression: a connection lost with request 0 unanswered left
        // its id outstanding, so the `200` answering request 1 on the
        // next connection was translated with `RelatesTo` request 0.
        let mut sim = Simulation::new(1);
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let ws = sim.spawn(
            ws_host,
            Box::new(ClosesFirstRpcService { closed_one: false }),
        );
        sim.listen(ws, 8888);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 9);
        let dispatcher =
            SimMsgDispatcher::new(core, SimDuration::from_millis(2), WsThreadConfig::default());
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8080);
        let got = Rc::new(RefCell::new(vec![]));
        let sink = sim.spawn(client_host, Box::new(ReplySink { got: got.clone() }));
        sim.listen(sink, 9000);
        let reply_to = "http://client:9000/cb".to_string();
        sim.spawn(
            client_host,
            Box::new(SpacedClient {
                requests: OneWayClient {
                    total: 2,
                    sent: 0,
                    reply_to: reply_to.clone(),
                    got_acks: Rc::new(RefCell::new(0)),
                },
                conn: None,
            }),
        );
        sim.run();
        let got = got.borrow();
        let reply_echoing = |text: &str| {
            let hits: Vec<&String> = got.iter().filter(|r| r.contains(text)).collect();
            assert_eq!(hits.len(), 1, "exactly one reply echoing {text}: {got:?}");
            hits[0].clone()
        };
        let (id0, id1) = (
            "uuid:http://client:9000/cb-0",
            "uuid:http://client:9000/cb-1",
        );
        let r0 = reply_echoing(">m0<");
        let r1 = reply_echoing(">m1<");
        assert!(r0.contains(id0) && !r0.contains(id1), "{r0}");
        assert!(r1.contains(id1) && !r1.contains(id0), "{r1}");
        assert_eq!(stats.replies_routed(), 2);
        assert_eq!(
            stats.delivered(),
            4,
            "two forwards and two replies, none counted twice"
        );
    }

    #[test]
    fn unroutable_message_gets_400() {
        let mut sim = Simulation::new(1);
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let core = MsgCore::new(Arc::new(Registry::new()), "http://dispatcher:8080/msg", 9);
        let dispatcher =
            SimMsgDispatcher::new(core, SimDuration::from_millis(1), WsThreadConfig::default());
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8080);

        struct BadClient {
            responses: Rc<RefCell<Vec<String>>>,
        }
        impl Process for BadClient {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                match ev {
                    ProcEvent::Start => {
                        ctx.connect("dispatcher", 8080, SimDuration::from_secs(5));
                    }
                    ProcEvent::ConnEstablished { conn } => {
                        // No WSA headers at all: unroutable.
                        let env = soap_rpc::echo_request(SoapVersion::V11, "x");
                        let req = Request::soap_post(
                            "dispatcher:8080",
                            "/msg",
                            SoapVersion::V11.content_type(),
                            env.to_xml().into_bytes(),
                        );
                        ctx.send(conn, request_payload(&req)).unwrap();
                    }
                    ProcEvent::Message { bytes, .. } => {
                        self.responses
                            .borrow_mut()
                            .push(String::from_utf8_lossy(&bytes).to_string());
                    }
                    _ => {}
                }
            }
        }
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(BadClient {
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert_eq!(stats.rejected(), 1);
        assert!(responses.borrow()[0].starts_with("HTTP/1.1 400"));
    }
}
