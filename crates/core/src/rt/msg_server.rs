//! The threaded MSG-Dispatcher (paper §4.2, Figure 3): a `CxThread`
//! pool accepts and routes messages; a `WsThread` pool drains
//! per-destination FIFO queues, reusing one connection per destination.
//!
//! Each `WsThread` drives a [`WsDrain`] (the drain the simulated
//! dispatcher runs too) over a blocking connection; its idle linger is
//! this runtime's own: it parks on the queue for `connection_linger`.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use wsd_concurrent::{
    FifoQueue, OrderedMutex, PoolConfig, RejectionPolicy, ShardedMap, ThreadPool,
};
use wsd_http::{serve_connection, HttpClient, PipeStream, Request, Response, Status};
use wsd_soap::SoapVersion;
use wsd_telemetry::{Counter, Scope};

use crate::config::{ConnFrontEnd, DispatcherConfig};
use crate::drain::{Next, WsDrain, DRAIN_BATCH};
use crate::msg::{correlate_rpc_reply, MsgCore, RoutedMeta};
use crate::rt::{now_us, Network, ReactorFrontEnd};
use crate::url::Url;

/// Stop signal for the janitor's sweep wait and a `WsThread`'s retry
/// backoff: a flag under a mutex plus a condvar, so `shutdown()`
/// interrupts both at once instead of at their next timeout.
pub(crate) struct StopSignal {
    stopped: OrderedMutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    pub(crate) fn new() -> Arc<StopSignal> {
        Arc::new(StopSignal {
            stopped: OrderedMutex::new("msg.stop", false),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn stop(&self) {
        *self.stopped.lock() = true;
        self.cv.notify_all();
    }

    /// Parks for `wait`; returns `true` when the caller should stop.
    pub(crate) fn wait_or_stopped(&self, wait: Duration) -> bool {
        let mut stopped = self.stopped.lock();
        if *stopped {
            return true;
        }
        stopped.wait_timeout(&self.cv, wait);
        *stopped
    }
}

/// Counters of a [`MsgDispatcherServer`], read from its instruments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgServerStats {
    /// Messages accepted (`202`).
    pub accepted: u64,
    /// Messages written to their destination (each counted once).
    pub delivered: u64,
    /// Messages dropped (queue overflow, unreachable destination).
    pub dropped: u64,
    /// Messages rejected by routing/security.
    pub rejected: u64,
}

/// A queued request and its `MessageID`, captured at enqueue so that
/// translating a synchronous RPC response never re-parses the request.
struct QueuedMsg {
    req: Request,
    msg_id: String,
}

type Drain = WsDrain<QueuedMsg, HttpClient<PipeStream>>;

struct Dest {
    host: String,
    port: u16,
    queue: FifoQueue<QueuedMsg>,
    /// Whether a `WsThread` currently owns this destination.
    active: AtomicBool,
}

/// Instruments: the [`MsgServerStats`] counters plus connection reuse.
struct RtMsgTelemetry {
    scope: Scope,
    accepted: Counter,
    delivered: Counter,
    dropped: Counter,
    rejected: Counter,
    connects: Counter,
    connect_failures: Counter,
    reused_sends: Counter,
}

impl RtMsgTelemetry {
    fn new(scope: &Scope) -> Self {
        RtMsgTelemetry {
            scope: scope.clone(),
            accepted: scope.counter("accepted"),
            delivered: scope.counter("delivered"),
            dropped: scope.counter("dropped"),
            rejected: scope.counter("rejected"),
            connects: scope.counter("connects"),
            connect_failures: scope.counter("connect_failures"),
            reused_sends: scope.counter("reused_sends"),
        }
    }
}

/// A running MSG dispatcher.
pub struct MsgDispatcherServer {
    core: Arc<MsgCore>,
    stop: Arc<StopSignal>,
    janitor_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    front: Option<ReactorFrontEnd>,
    cx_pool: Arc<ThreadPool>,
    ws_pool: Arc<ThreadPool>,
    dests: Arc<ShardedMap<String, Arc<Dest>>>,
    tele: RtMsgTelemetry,
    net: Arc<Network>,
    conns: Arc<crate::rt::ConnTracker>,
    host: String,
    port: u16,
}

impl MsgDispatcherServer {
    /// Starts the dispatcher on `host:port` around a routing core.
    pub fn start(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        core: MsgCore,
        config: DispatcherConfig,
    ) -> Arc<MsgDispatcherServer> {
        Self::start_with_telemetry(net, host, port, core, config, &Scope::noop())
    }

    /// Like [`MsgDispatcherServer::start`], with telemetry instruments
    /// registered under `scope`: message counters, `cx_pool`/`ws_pool`
    /// sub-scopes, and one labeled `dest{host:port}` queue scope per
    /// destination.
    pub fn start_with_telemetry(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        core: MsgCore,
        config: DispatcherConfig,
        scope: &Scope,
    ) -> Arc<MsgDispatcherServer> {
        let cx_pool = Arc::new(
            ThreadPool::new(
                PoolConfig::growable(
                    format!("CxThread-{host}"),
                    config.cx_core_threads,
                    config.cx_max_threads,
                )
                .rejection(RejectionPolicy::Block)
                .telemetry(scope.child("cx_pool")),
            )
            .expect("cx pool"),
        );
        let ws_pool = Arc::new(
            ThreadPool::new(
                PoolConfig::growable(
                    format!("WsThread-{host}"),
                    config.ws_core_threads,
                    config.ws_max_threads,
                )
                .rejection(RejectionPolicy::Block)
                .telemetry(scope.child("ws_pool")),
            )
            .expect("ws pool"),
        );
        let mut core = core;
        core.bind_telemetry(&scope.child("core"));
        let core = Arc::new(core);
        // Route-table janitor: drop forwarded requests whose replies
        // never came (paper §4.4's expiration-time future work). Parks on
        // the stop signal so shutdown() tears it down without a tick of
        // lag.
        let stop = StopSignal::new();
        let janitor_thread = {
            let core = Arc::clone(&core);
            let signal = Arc::clone(&stop);
            let ttl = config.route_ttl;
            // wsd-lint: allow(raw-thread-spawn): single long-lived maintenance thread parked on a condvar; pooling it would pin a pool slot forever
            std::thread::Builder::new()
                .name(format!("route-janitor-{host}"))
                .spawn(move || {
                    let sweep_every = (ttl / 4).max(Duration::from_millis(50));
                    while !signal.wait_or_stopped(sweep_every) {
                        core.expire_routes(crate::rt::now_us(), ttl.as_micros() as u64);
                    }
                })
                .expect("janitor thread")
        };
        let front = match config.front_end {
            ConnFrontEnd::Reactor => Some(ReactorFrontEnd::start(
                format!("reactor-{host}"),
                Arc::clone(&cx_pool),
                &scope.child("reactor"),
            )),
            ConnFrontEnd::ThreadPerConn => None,
        };
        let server = Arc::new(MsgDispatcherServer {
            core,
            stop,
            janitor_thread: Mutex::new(Some(janitor_thread)),
            front,
            cx_pool,
            ws_pool,
            dests: Arc::new(ShardedMap::new()),
            tele: RtMsgTelemetry::new(scope),
            net: Arc::clone(net),
            conns: crate::rt::ConnTracker::new(),
            host: host.to_string(),
            port,
        });
        {
            let server2 = Arc::clone(&server);
            let config = config.clone();
            let limits = config.limits;
            net.listen(host, port, move |stream| {
                let server = Arc::clone(&server2);
                let config = config.clone();
                server.conns.track(&stream);
                match &server.front {
                    Some(front) => {
                        let handler = Arc::clone(&server);
                        front.serve(
                            stream,
                            limits,
                            Arc::new(move |req| handler.accept(&config, req)),
                        );
                    }
                    None => {
                        let pool = Arc::clone(&server.cx_pool);
                        let _ = pool.execute(move || {
                            let _ = serve_connection(stream, &limits, |req| {
                                server.accept(&config, req)
                            });
                        });
                    }
                }
            });
        }
        server
    }

    /// Counters.
    pub fn stats(&self) -> MsgServerStats {
        MsgServerStats {
            accepted: self.tele.accepted.get(),
            delivered: self.tele.delivered.get(),
            dropped: self.tele.dropped.get(),
            rejected: self.tele.rejected.get(),
        }
    }

    /// The routing core (for inspecting pending routes).
    pub fn core(&self) -> &MsgCore {
        &self.core
    }

    /// Reactor front-end telemetry view (open connections), when the
    /// reactor front end is configured.
    pub fn open_connections(&self) -> Option<usize> {
        self.front.as_ref().map(ReactorFrontEnd::open_connections)
    }

    /// Stops accepting, closes connections and queues, joins both pools.
    pub fn shutdown(&self) {
        self.stop.stop();
        if let Some(h) = self.janitor_thread.lock().take() {
            let _ = h.join();
        }
        self.net.unlisten(&self.host, self.port);
        self.conns.close_all();
        if let Some(front) = &self.front {
            front.shutdown();
        }
        self.dests.for_each(|_, d| d.queue.close());
        self.cx_pool.shutdown();
        self.ws_pool.shutdown();
    }

    /// CxThread work: route (splice fast path when possible), enqueue, ack.
    fn accept(self: &Arc<Self>, config: &DispatcherConfig, req: Request) -> Response {
        let Some(xml) = req.body_str() else {
            self.tele.rejected.inc();
            return Response::empty(Status::BAD_REQUEST);
        };
        match self.route_enqueue(config, xml, req.body.len()) {
            Ok(true) => {
                self.tele.accepted.inc();
                Response::empty(Status::ACCEPTED)
            }
            Ok(false) => {
                self.tele.dropped.inc();
                Response::empty(Status::SERVICE_UNAVAILABLE)
            }
            Err(e) => {
                self.tele.rejected.inc();
                crate::rpc::error_response(SoapVersion::V11, &e)
            }
        }
    }

    /// Routes an envelope and queues it toward its next hop; `false` when
    /// that destination's queue is full.
    fn route_enqueue(
        self: &Arc<Self>,
        config: &DispatcherConfig,
        xml: &str,
        len: usize,
    ) -> Result<bool, crate::WsdError> {
        // Splice into a pooled scratch buffer; the queue takes ownership
        // of the rewritten bytes, the scratch returns to the pool.
        let mut scratch = wsd_soap::checkout();
        let routed = self
            .core
            .route_raw_into(xml, len, now_us(), &mut scratch.out)?;
        let (to, msg_id) = match routed {
            RoutedMeta::Forward { to, message_id, .. } => (to, Some(message_id)),
            RoutedMeta::Reply { to, message_id } => (to, message_id.map(Cow::into_owned)),
        };
        Ok(self.enqueue(config, &to, scratch.take_out(), msg_id))
    }

    fn enqueue(
        self: &Arc<Self>,
        config: &DispatcherConfig,
        to: &Url,
        body: String,
        msg_id: Option<String>,
    ) -> bool {
        let fwd = Request::soap_post(
            &to.authority(),
            &to.path,
            SoapVersion::V11.content_type(),
            body.into_bytes(),
        );
        let authority = to.authority();
        let dest = self.dests.get_or_insert_with(authority.clone(), || {
            let queue = FifoQueue::bounded(config.queue_capacity);
            queue.bind_telemetry(&self.tele.scope.labeled("dest", &authority));
            Arc::new(Dest {
                host: to.host.clone(),
                port: to.port,
                queue,
                active: AtomicBool::new(false),
            })
        });
        let msg = QueuedMsg {
            req: fwd,
            msg_id: msg_id.unwrap_or_default(),
        };
        if dest.queue.try_push(msg).is_err() {
            return false;
        }
        self.activate(config, dest);
        true
    }

    /// Hands the destination to a WsThread if none owns it.
    fn activate(self: &Arc<Self>, config: &DispatcherConfig, dest: Arc<Dest>) {
        if dest.active.swap(true, Ordering::AcqRel) {
            return; // someone is already draining it
        }
        let server = Arc::clone(self);
        let config = config.clone();
        let pool = Arc::clone(&self.ws_pool);
        // wsd-lint: allow(alloc-in-drain): WsThread handoff — pool growth and closure boxing are per-activation, not per-message
        let _ = pool.execute(move || server.drain(&config, dest));
    }

    /// WsThread work: deliver the queue's backlog, a pipelined batch per
    /// write, over one kept-open connection until `connection_linger` idles.
    fn drain(self: &Arc<Self>, config: &DispatcherConfig, dest: Arc<Dest>) {
        // The shared queue bounds the backlog; the drain holds one batch.
        let mut ws = Drain::new(usize::MAX);
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        let mut fresh_conn = false;
        while let Ok(batch) = dest
            .queue
            .pop_timeout_batch(config.connection_linger, DRAIN_BATCH)
        {
            for msg in batch {
                let _ = ws.push(msg);
            }
            loop {
                match ws.next_step() {
                    Next::Idle => break,
                    Next::GiveUp => {
                        // Unreachable: drop the destination's whole queue.
                        let n = ws.give_up().count() + dest.queue.drain().len();
                        self.tele.dropped.add(n as u64);
                        break;
                    }
                    Next::Connect => {
                        // wsd-lint: allow(alloc-in-drain): connection setup — amortized across every batch the kept-open connection drains
                        match self.net.connect(&dest.host, dest.port) {
                            Ok(stream) => {
                                self.tele.connects.inc();
                                ws.connected(HttpClient::new(stream));
                                fresh_conn = true;
                            }
                            Err(_) => {
                                self.tele.connect_failures.inc();
                                // Hold the slot; a shutdown cuts it short.
                                if let Some(us) = ws.connect_failed() {
                                    if !self.stop.wait_or_stopped(Duration::from_micros(us)) {
                                        ws.backoff_elapsed();
                                    }
                                }
                            }
                        }
                    }
                    Next::Write => {
                        let Some((client, batch)) = ws.write_batch() else {
                            break;
                        };
                        let n = batch.len();
                        let sent = client.send_pipelined(batch.map(|m| &m.req), &mut buf);
                        if sent.is_err() {
                            ws.conn_lost(); // stale connection: reconnect
                            continue;
                        }
                        self.tele.delivered.add(ws.written() as u64);
                        // The first send on a fresh connection opens it;
                        // every other message in the batch reuses it.
                        let reused = n - usize::from(std::mem::take(&mut fresh_conn));
                        self.tele.reused_sends.add(reused as u64);
                        self.read_responses(config, &mut ws);
                    }
                }
            }
        }
        // Only a shutdown leaves messages behind.
        self.tele.dropped.add(ws.give_up().count() as u64);
        dest.active.store(false, Ordering::Release);
        // Re-activate if messages raced in while we were shutting down.
        if !dest.queue.is_empty() && !dest.queue.is_closed() {
            self.activate(config, dest);
        }
    }

    /// Reads the written batch's responses in order; a read failure loses
    /// the connection.
    fn read_responses(self: &Arc<Self>, config: &DispatcherConfig, ws: &mut Drain) {
        while ws.awaiting() > 0 {
            let Some(client) = ws.connection() else {
                return;
            };
            match client.read_response() {
                Ok(resp) => {
                    if let Some(msg) = ws.answered(resp.status.0) {
                        // An RPC service answered synchronously: translate
                        // the response into a reply message (Table 1
                        // quadrant 3).
                        // wsd-lint: allow(alloc-in-drain): quadrant-3 translation constructs a fresh reply request — message creation, not the pure drain loop
                        self.translate_rpc_response(config, &msg.msg_id, &resp);
                    }
                }
                Err(_) => {
                    ws.conn_lost();
                    return;
                }
            }
        }
    }

    /// Routes an RPC-style destination's `200` back as a reply correlated
    /// to `request_id`, the `MessageID` captured at enqueue (no re-parse).
    fn translate_rpc_response(
        self: &Arc<Self>,
        config: &DispatcherConfig,
        request_id: &str,
        resp: &Response,
    ) {
        if let Some(reply) = resp
            .body_str()
            .and_then(|xml| correlate_rpc_reply(xml, request_id))
        {
            let _ = self.route_enqueue(config, &reply, reply.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::rt::echo_server::EchoServer;
    use std::time::Duration;
    use wsd_http::Limits;
    use wsd_soap::{rpc as soap_rpc, Envelope};
    use wsd_wsa::{EndpointReference, WsaHeaders};

    fn quick_config() -> DispatcherConfig {
        DispatcherConfig {
            connection_linger: Duration::from_millis(50),
            ..DispatcherConfig::default()
        }
    }

    /// Serves a tiny callback endpoint collecting POSTed envelopes.
    fn start_callback(
        net: &Arc<Network>,
        host: &str,
        port: u16,
    ) -> Arc<parking_lot::Mutex<Vec<String>>> {
        let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        net.listen(host, port, move |stream| {
            let got = Arc::clone(&got2);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &Limits::default(), |req| {
                    got.lock().push(req.body_utf8().to_string());
                    Response::empty(Status::ACCEPTED)
                });
            });
        });
        got
    }

    fn one_way(net: &Arc<Network>, reply_to: &str, id: &str, text: &str) -> Status {
        let mut env = soap_rpc::echo_request(SoapVersion::V11, text);
        WsaHeaders::new()
            .to("http://dispatcher/svc/Echo")
            .reply_to(EndpointReference::new(reply_to))
            .message_id(id)
            .apply(&mut env);
        let req = Request::soap_post(
            "dispatcher:8080",
            "/msg",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        let stream = net.connect("dispatcher", 8080).unwrap();
        let mut client = HttpClient::new(stream);
        client.call(&req).unwrap().status
    }

    /// An echo WS in one-way style: accepts a message, replies by POSTing
    /// a new message back to the dispatcher.
    fn start_oneway_ws(net: &Arc<Network>, dispatcher: (String, u16)) {
        let net2 = Arc::clone(net);
        net.listen("ws", 8888, move |stream| {
            let net = Arc::clone(&net2);
            let _dispatcher = dispatcher.clone();
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &Limits::default(), |req| {
                    let env = Envelope::parse(&req.body_utf8()).unwrap();
                    let h = WsaHeaders::from_envelope(&env).unwrap();
                    let text = soap_rpc::parse_echo(&env).unwrap_or_default();
                    let mut reply = soap_rpc::echo_response(env.version, &text);
                    let mut rh = WsaHeaders::new();
                    if let Some(r) = &h.reply_to {
                        rh = rh.to(r.address.clone());
                    }
                    if let Some(id) = &h.message_id {
                        rh = rh.relates_to(id.clone());
                    }
                    rh.apply(&mut reply);
                    // Fire the reply at the dispatcher (ReplyTo).
                    if let Some(r) = &h.reply_to {
                        if let Ok(url) = Url::parse(&r.address) {
                            if let Ok(s) = net.connect(&url.host, url.port) {
                                let mut c = HttpClient::new(s);
                                let rr = Request::soap_post(
                                    &url.authority(),
                                    &url.path,
                                    SoapVersion::V11.content_type(),
                                    reply.to_xml().into_bytes(),
                                );
                                let _ = c.call(&rr);
                            }
                        }
                    }
                    Response::empty(Status::ACCEPTED)
                });
            });
        });
    }

    #[test]
    fn shutdown_is_immediate_despite_long_route_ttl() {
        let net = Network::new();
        let core = MsgCore::new(Arc::new(Registry::new()), "http://dispatcher:8080/msg", 3);
        let config = DispatcherConfig {
            route_ttl: Duration::from_secs(300), // sweep tick would be 75 s
            ..DispatcherConfig::default()
        };
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, config);
        let t0 = std::time::Instant::now();
        disp.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must interrupt the janitor's sweep wait immediately"
        );
    }

    #[test]
    fn thread_per_conn_front_end_still_serves() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let config = DispatcherConfig {
            front_end: ConnFrontEnd::ThreadPerConn,
            ..quick_config()
        };
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, config);
        assert!(disp.open_connections().is_none());
        for i in 0..3 {
            let status = one_way(&net, "http://client:9000/cb", &format!("uuid:tpc{i}"), "x");
            assert_eq!(status, Status::ACCEPTED);
        }
        for _ in 0..100 {
            if disp.stats().delivered == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(disp.stats().delivered, 3);
        disp.shutdown();
        ws.shutdown();
    }

    #[test]
    fn reactor_open_connection_gauge_returns_to_zero() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        let core = MsgCore::new(Arc::new(Registry::new()), "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start_with_telemetry(
            &net,
            "dispatcher",
            8080,
            core,
            quick_config(),
            &reg.scope("rt.msg"),
        );
        // Hold open keep-alive connections without completing a request.
        let mut held = Vec::new();
        for _ in 0..6 {
            held.push(net.connect("dispatcher", 8080).unwrap());
        }
        for _ in 0..100 {
            if disp.open_connections() == Some(6) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(disp.open_connections(), Some(6));
        disp.shutdown();
        assert_eq!(disp.open_connections(), Some(0));
        let snap = reg.snapshot();
        let open = match snap.get("rt.msg.reactor.open_conns") {
            Some(wsd_telemetry::MetricValue::Gauge { value, .. }) => *value,
            other => panic!("expected gauge, got {other:?}"),
        };
        assert_eq!(open, 0);
        drop(held);
    }

    #[test]
    fn forwards_one_way_messages_to_service() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        for i in 0..5 {
            let status = one_way(&net, "http://client:9000/cb", &format!("uuid:{i}"), "x");
            assert_eq!(status, Status::ACCEPTED);
        }
        // Wait for the WsThread to drain.
        for _ in 0..100 {
            // Delivered counts writes; the service counts what it has
            // served, which can trail the write by a moment.
            if disp.stats().delivered == 5 && ws.served() == 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(disp.stats().delivered, 5);
        assert_eq!(ws.served(), 5);
        disp.shutdown();
        ws.shutdown();
    }

    #[test]
    fn telemetry_counts_messages_and_connection_reuse() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start_with_telemetry(
            &net,
            "dispatcher",
            8080,
            core,
            quick_config(),
            &reg.scope("rt.msg"),
        );
        for i in 0..5 {
            let status = one_way(&net, "http://client:9000/cb", &format!("uuid:t{i}"), "x");
            assert_eq!(status, Status::ACCEPTED);
        }
        for _ in 0..100 {
            // Delivered counts writes; the service counts what it has
            // served, which can trail the write by a moment.
            if disp.stats().delivered == 5 && ws.served() == 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        disp.shutdown();
        ws.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rt.msg.accepted"), 5);
        assert_eq!(snap.counter("rt.msg.delivered"), 5);
        // One kept-open connection serves the whole run: at least one
        // send must have reused it.
        assert!(snap.counter("rt.msg.connects") < 5);
        assert!(snap.counter("rt.msg.reused_sends") >= 1);
        // Per-destination queue instruments appear under a labeled scope.
        assert_eq!(snap.counter("rt.msg.dest{ws:8888}.pushed"), 5);
        assert!(snap.counter("rt.msg.cx_pool.completed") >= 1);
        // Canonical envelopes take the splice fast path.
        assert!(snap.counter("rt.msg.core.fastpath_hits") >= 5);
    }

    #[test]
    fn full_reply_cycle_reaches_client_callback() {
        let net = Network::new();
        start_oneway_ws(&net, ("dispatcher".into(), 8080));
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        let got = start_callback(&net, "client", 9000);
        let status = one_way(&net, "http://client:9000/cb", "uuid:rt-1", "voila");
        assert_eq!(status, Status::ACCEPTED);
        for _ in 0..200 {
            if !got.lock().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let replies = got.lock();
        assert_eq!(replies.len(), 1, "reply must reach the client callback");
        assert!(replies[0].contains("voila"));
        assert!(replies[0].contains("uuid:rt-1"));
        drop(replies);
        disp.shutdown();
    }

    #[test]
    fn firewalled_client_reply_is_dropped() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        start_oneway_ws(&net, ("dispatcher".into(), 8080));
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start_with_telemetry(
            &net,
            "dispatcher",
            8080,
            core,
            quick_config(),
            &reg.scope("rt.msg"),
        );
        let _got = start_callback(&net, "client", 9000);
        net.set_firewalled("client", true);
        let status = one_way(&net, "http://client:9000/cb", "uuid:fw", "x");
        assert_eq!(status, Status::ACCEPTED);
        for _ in 0..300 {
            if disp.stats().dropped >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // The WsThread held its slot through the retry backoff: exactly
        // `CONNECT_ATTEMPTS` connects toward the reply destination, then
        // its queue was dropped. No further attempt follows.
        std::thread::sleep(Duration::from_millis(100));
        let failures = reg.snapshot().counter("rt.msg.connect_failures");
        assert_eq!(failures, u64::from(crate::drain::CONNECT_ATTEMPTS));
        assert_eq!(disp.stats().dropped, 1);
        assert_eq!(
            disp.stats().delivered,
            1,
            "only the forward reached its service"
        );
        disp.shutdown();
    }

    /// A service that accepts every message (`202`), records each
    /// `MessageID` it sees, holds its first answer until `gate` opens (so
    /// the messages behind it queue up into one pipelined batch), and
    /// closes its connection right after its `close_after`-th answer.
    fn start_closing_service(
        net: &Arc<Network>,
        close_after: usize,
        gate: std::sync::mpsc::Receiver<()>,
    ) -> Arc<parking_lot::Mutex<Vec<String>>> {
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let gate = Arc::new(parking_lot::Mutex::new(gate));
        net.listen("ws", 8888, move |stream| {
            let seen = Arc::clone(&seen2);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &Limits::default(), |req| {
                    let env = Envelope::parse(&req.body_utf8()).unwrap();
                    let id = WsaHeaders::from_envelope(&env).unwrap().message_id.unwrap();
                    let answered = {
                        let mut seen = seen.lock();
                        seen.push(id);
                        seen.len()
                    };
                    if answered == 1 {
                        let _ = gate.lock().recv();
                    }
                    let mut resp = Response::empty(Status::ACCEPTED);
                    if answered == close_after {
                        resp.headers.set("Connection", "close");
                    }
                    resp
                });
            });
        });
        seen
    }

    #[test]
    fn lost_connection_never_resends_an_answered_message() {
        const N: usize = 6;
        const K: usize = 3;
        let net = Network::new();
        let (open_gate, gate) = std::sync::mpsc::channel();
        let seen = start_closing_service(&net, K, gate);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        let ids: Vec<String> = (0..N).map(|i| format!("uuid:k{i}")).collect();
        for id in &ids {
            let status = one_way(&net, "http://client:9000/cb", id, "x");
            assert_eq!(status, Status::ACCEPTED);
        }
        open_gate.send(()).unwrap();
        for _ in 0..300 {
            if ids.iter().all(|id| seen.lock().contains(id)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        disp.shutdown();
        let seen = seen.lock().clone();
        let times = |id: &String| seen.iter().filter(|s| *s == id).count();
        // The service closed after its K-th answer: the first K were each
        // answered once and must never be written again; the rest were
        // written again on a fresh connection.
        for id in &ids[..K] {
            assert_eq!(times(id), 1, "{id} was answered, then resent: {seen:?}");
        }
        for id in &ids[K..] {
            assert!(times(id) >= 1, "{id} never arrived: {seen:?}");
        }
        assert_eq!(
            disp.stats().delivered,
            N as u64,
            "a resend is not a new delivery"
        );
    }

    #[test]
    fn shutdown_is_prompt_while_a_ws_thread_holds_in_backoff() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        // Registered but not listening: every connect is refused.
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start_with_telemetry(
            &net,
            "dispatcher",
            8080,
            core,
            quick_config(),
            &reg.scope("rt.msg"),
        );
        let status = one_way(&net, "http://client:9000/cb", "uuid:held", "x");
        assert_eq!(status, Status::ACCEPTED);
        for _ in 0..100 {
            if reg.snapshot().counter("rt.msg.connect_failures") >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reg.snapshot().counter("rt.msg.connect_failures"), 1);
        let t0 = std::time::Instant::now();
        disp.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must interrupt a WsThread's retry backoff"
        );
        assert_eq!(
            disp.stats().dropped,
            1,
            "the held message is dropped, not lost silently"
        );
    }

    #[test]
    fn unroutable_message_rejected_with_fault() {
        let net = Network::new();
        let core = MsgCore::new(Arc::new(Registry::new()), "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        let env = soap_rpc::echo_request(SoapVersion::V11, "x"); // no WSA headers
        let req = Request::soap_post(
            "dispatcher:8080",
            "/msg",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        let stream = net.connect("dispatcher", 8080).unwrap();
        let mut client = HttpClient::new(stream);
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        assert_eq!(disp.stats().rejected, 1);
        disp.shutdown();
    }

    #[test]
    fn many_concurrent_senders_nothing_lost() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 8, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        let mut handles = Vec::new();
        for t in 0..8 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let status =
                        one_way(&net, "http://client:9000/cb", &format!("uuid:{t}-{i}"), "x");
                    assert_eq!(status, Status::ACCEPTED);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for _ in 0..300 {
            // Delivered counts writes; the service counts what it has
            // served, which can trail the write by a moment.
            if disp.stats().delivered == 80 && ws.served() == 80 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(disp.stats().delivered, 80);
        assert_eq!(ws.served(), 80);
        disp.shutdown();
        ws.shutdown();
    }
}
