//! Single-threaded replay of a workload's recorded inputs through each
//! layer's public entry point: ns per call and, for the `*_allocs`
//! metrics, exact allocations per call.
//!
//! Each input is timed over several rounds and costed at its fastest
//! round; the metric is the median of those over the inputs. Interference
//! from other tenants of the host only ever adds time, so the fastest
//! round repeats across runs far better than a mean or median would.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsd_concurrent::FifoQueue;
use wsd_core::config::MsgBoxConfig;
use wsd_core::rt::Network;
use wsd_core::security::PolicyChain;
use wsd_core::{MsgBoxStore, MsgCore, Registry};
use wsd_fleet::ShardRing;
use wsd_http::{
    duplex, request_bytes, request_bytes_into, serve_connection, HttpClient, Limits, RequestParser,
    Response, Status,
};
use wsd_soap::Envelope;
use wsd_store::{DurableMsgBox, MemStorage, Op, StoreConfig, SyncMode, Wal, WalConfig};
use wsd_telemetry::Scope;

use crate::live::Corpus;
use crate::stats::{median, percentile, Metrics};
use crate::sys::count_allocs;
use crate::topo::{HOST, MSGBOX_PORT, MSG_PORT, RPC_PORT};

/// Timed passes over the corpus (after one untimed warm-up pass).
const ROUNDS: usize = 9;
/// Messages per queue / pipelined / mailbox batch: the drain batch.
const BATCH: usize = 16;

/// Median over inputs of each input's fastest round, from samples laid
/// out round by round (`samples[round * n + input]`).
fn fastest_per_input(samples: &[f64], n: usize) -> f64 {
    let fastest: Vec<f64> = (0..n)
        .map(|j| {
            samples
                .iter()
                .skip(j)
                .step_by(n)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&fastest)
}

/// The low tail of pooled batch samples, for loops whose batches do not
/// map onto single inputs.
fn low(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

/// ns per call of `f(j)` over every input `j < n`, each timed as `reps`
/// back-to-back calls: [`fastest_per_input`].
fn per_call_ns(n: usize, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    for j in 0..n {
        f(j);
    }
    let mut v = Vec::with_capacity(n * ROUNDS);
    for _ in 0..ROUNDS {
        for j in 0..n {
            let t = Instant::now();
            for _ in 0..reps {
                f(j);
            }
            v.push(t.elapsed().as_nanos() as f64 / reps as f64);
        }
    }
    fastest_per_input(&v, n)
}

/// Median allocations per call of `f(j)` over every input (after warm-up).
fn allocs_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for j in 0..n {
        f(j);
    }
    let v: Vec<f64> = (0..n).map(|j| count_allocs(|| f(j)).0 as f64).collect();
    median(&v)
}

fn core_for(corpus: &Corpus, seed: u64) -> MsgCore {
    let registry = Arc::new(Registry::new());
    for (name, url) in &corpus.services {
        registry.register(name.as_str(), url.clone());
    }
    MsgCore::new(registry, format!("http://{HOST}:{MSG_PORT}/msg"), seed)
        .with_mailbox(format!("http://{HOST}:{MSGBOX_PORT}/deposit"))
}

/// Replays `corpus` through every layer, recording the `R` metrics.
pub fn replay(corpus: &Corpus, seed: u64, m: &mut Metrics) {
    let n = corpus.addressed.len();
    assert!(
        n > 0 && corpus.http.len() == n && corpus.replies.len() == n,
        "empty corpus"
    );

    // HTTP framing.
    let wire: Vec<Vec<u8>> = corpus.http.iter().map(request_bytes).collect();
    let mut parser = RequestParser::new(Limits::default());
    m.put(
        "http.parse_ns",
        per_call_ns(n, 4, |j| {
            black_box(parser.feed(&wire[j]).expect("parse").expect("complete"));
        }),
        "ns",
    );
    let mut buf = Vec::new();
    m.put(
        "http.serialize_ns",
        per_call_ns(n, 4, |j| {
            buf.clear();
            request_bytes_into(&mut buf, &corpus.http[j]);
            black_box(&buf);
        }),
        "ns",
    );
    m.put(
        "http.pipelined_ns_per_msg",
        pipelined_ns_per_msg(corpus),
        "ns",
    );

    // WS-Addressing scan / splice and the XML verifier behind it.
    m.put(
        "wsa.scan_ns",
        per_call_ns(n, 4, |j| {
            black_box(wsd_wsa::scan(&corpus.addressed[j]));
        }),
        "ns",
    );
    let scanned: Vec<_> = corpus
        .addressed
        .iter()
        .filter_map(|x| wsd_wsa::scan(x))
        .collect();
    let physical = corpus.services[0].1.to_string();
    let dispatcher = format!("http://{HOST}:{MSG_PORT}/msg");
    let mut out = String::new();
    m.put(
        "wsa.splice_ns",
        per_call_ns(scanned.len(), 4, |j| {
            out.clear();
            black_box(scanned[j].splice_forward_into(&physical, &dispatcher, None, &mut out));
        }),
        "ns",
    );
    m.put(
        "xml.verify_ns",
        per_call_ns(n, 4, |j| {
            black_box(wsd_xml::verify_element(&corpus.addressed[j], 0));
        }),
        "ns",
    );
    m.put(
        "soap.parse_ns",
        per_call_ns(n, 2, |j| {
            black_box(Envelope::parse(&corpus.replies[j]).expect("reply parses"));
        }),
        "ns",
    );

    // MSG core: forward, then the correlated reply consumes the route.
    let core = core_for(corpus, seed);
    let mut scratch = wsd_soap::checkout();
    let mut forward = |j: usize| {
        scratch.out.clear();
        let x = &corpus.addressed[j];
        black_box(
            core.route_raw_into(x, x.len(), 0, &mut scratch.out)
                .expect("forward routes"),
        );
    };
    let fwd_ns = per_call_ns(n, 1, &mut forward);
    let fwd_allocs = allocs_per_call(n, &mut forward);
    let mut reply = |j: usize| -> (f64, f64) {
        scratch.out.clear();
        let x = &corpus.addressed[j];
        black_box(
            core.route_raw_into(x, x.len(), 0, &mut scratch.out)
                .expect("forward routes"),
        );
        scratch.out.clear();
        let r = &corpus.replies[j];
        let t = Instant::now();
        let (allocs, routed) = count_allocs(|| {
            core.route_raw_into(r, r.len(), 0, &mut scratch.out)
                .map(|_| ())
        });
        let ns = t.elapsed().as_nanos() as f64;
        routed.expect("reply routes");
        (ns, allocs as f64)
    };
    let (mut reply_ns, mut reply_allocs) = (Vec::new(), Vec::new());
    for round in 0..=ROUNDS {
        for j in 0..n {
            let (ns, allocs) = reply(j);
            if round > 0 {
                reply_ns.push(ns);
            }
            if round == ROUNDS {
                reply_allocs.push(allocs);
            }
        }
    }
    m.put("core.route_forward_ns", fwd_ns, "ns");
    m.put("core.route_forward_allocs", fwd_allocs, "count");
    m.put("core.route_reply_ns", fastest_per_input(&reply_ns, n), "ns");
    m.put("core.route_reply_allocs", median(&reply_allocs), "count");

    // RPC planning, registry, connect.
    let registry = Registry::new();
    for (name, url) in &corpus.services {
        registry.register(name.as_str(), url.clone());
    }
    let policies = PolicyChain::new();
    let rpc_reqs: Vec<_> = (0..n)
        .map(|j| {
            let mut r = corpus.http[j].clone();
            r.target = format!("/svc/{}", corpus.logical[j]);
            r.headers.set("Host", format!("{HOST}:{RPC_PORT}"));
            r
        })
        .collect();
    let mut plan = |j: usize| {
        black_box(wsd_core::rpc::plan_forward(&registry, &policies, &rpc_reqs[j]).expect("plan"));
    };
    m.put("rpc.plan_forward_ns", per_call_ns(n, 2, &mut plan), "ns");
    m.put(
        "rpc.plan_forward_allocs",
        allocs_per_call(n, &mut plan),
        "count",
    );
    m.put(
        "registry.lookup_ns",
        per_call_ns(n, 8, |j| {
            black_box(registry.lookup(&corpus.logical[j]).expect("registered"));
        }),
        "ns",
    );
    let net = Network::new();
    net.listen("null", 1, drop);
    m.put(
        "net.connect_ns",
        per_call_ns(n.min(64), 1, |_| {
            black_box(net.connect("null", 1).expect("listening"));
        }),
        "ns",
    );
    net.unlisten("null", 1);

    // Per-destination queue: a drain batch in, a drain batch out.
    let queue = FifoQueue::bounded(1024);
    let batches: Vec<Vec<_>> = (0..ROUNDS * n)
        .map(|b| {
            (0..BATCH)
                .map(|k| corpus.http[(b + k) % n].clone())
                .collect()
        })
        .collect();
    let mut batches = batches.into_iter();
    let mut qv = Vec::new();
    for batch in &mut batches {
        let t = Instant::now();
        for r in batch {
            let _ = queue.try_push(r);
        }
        black_box(
            queue
                .pop_timeout_batch(Duration::ZERO, BATCH)
                .expect("batch"),
        );
        qv.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    m.put("queue.push_pop_ns", fastest_per_input(&qv, n), "ns");

    mailbox_replays(corpus, seed, m);
    store_replays(corpus, m);

    let ring = ShardRing::with_instances(seed, 64, 4);
    m.put(
        "fleet.ring_route_ns",
        per_call_ns(n, 8, |j| {
            black_box(ring.owner_of(&corpus.logical[j]));
        }),
        "ns",
    );
}

/// `HttpClient::call_pipelined` of drain batches to a peer that answers
/// every request `202` — the WsThread's write/read shape.
fn pipelined_ns_per_msg(corpus: &Corpus) -> f64 {
    let (client_end, server_end) = duplex(1 << 20);
    let peer = std::thread::spawn(move || {
        let _ = serve_connection(server_end, &Limits::default(), |_| {
            Response::empty(Status::ACCEPTED)
        });
    });
    let mut client = HttpClient::new(client_end);
    let n = corpus.http.len();
    let mut buf = Vec::new();
    let mut v = Vec::new();
    for round in 0..(ROUNDS * n / BATCH).max(8) + 2 {
        let batch = (0..BATCH).map(|k| &corpus.http[(round * BATCH + k) % n]);
        let t = Instant::now();
        let resps = client
            .call_pipelined(batch, &mut buf)
            .expect("pipelined batch");
        let dt = t.elapsed().as_nanos() as f64;
        assert_eq!(resps.len(), BATCH);
        if round >= 2 {
            v.push(dt / BATCH as f64);
        }
    }
    drop(client);
    peer.join().expect("null peer");
    low(&v)
}

/// WS-MsgBox store: deposit a drain batch of replies, fetch them back.
fn mailbox_replays(corpus: &Corpus, seed: u64, m: &mut Metrics) {
    let store = MsgBoxStore::new(MsgBoxConfig::default(), seed);
    let (id, key) = store.create(0);
    let n = corpus.replies.len();
    let (mut dep, mut fetch, mut allocs) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..=ROUNDS * n / BATCH {
        let bodies: Vec<String> = (0..BATCH)
            .map(|k| corpus.replies[(round * BATCH + k) % n].clone())
            .collect();
        for body in bodies {
            let t = Instant::now();
            let (a, r) = count_allocs(|| store.deposit(&id, body, 1));
            dep.push(t.elapsed().as_nanos() as f64);
            r.expect("deposit");
            allocs.push(a as f64);
        }
        let t = Instant::now();
        let got = store.fetch(&id, &key, BATCH, 1).expect("fetch");
        fetch.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        assert_eq!(got.len(), BATCH);
    }
    m.put("msgbox.deposit_ns", fastest_per_input(&dep, n), "ns");
    m.put("msgbox.fetch_ns_per_msg", low(&fetch), "ns");
    // The last round runs at steady-state capacity: exact and repeatable.
    let last = &allocs[allocs.len() - BATCH..];
    m.put(
        "msgbox.deposit_allocs",
        last.iter().sum::<f64>() / BATCH as f64,
        "count",
    );
}

/// The durable store on in-memory storage with an fsync per commit.
fn store_replays(corpus: &Corpus, m: &mut Metrics) {
    let wal_config = WalConfig {
        sync: SyncMode::Always,
        ..WalConfig::default()
    };
    let (wal, _) = Wal::open(
        wal_config.clone(),
        Box::new(MemStorage::new()),
        &Scope::noop(),
        |_, _| {},
    )
    .expect("wal opens");
    let n = corpus.replies.len();
    let ops: Vec<Op> = (0..n)
        .map(|j| Op::Deposit {
            box_id: "replay".into(),
            received_at: 1,
            expires_at: u64::MAX,
            body: corpus.replies[j].clone(),
        })
        .collect();
    m.put(
        "store.wal_append_ns",
        per_call_ns(n, 1, |j| {
            black_box(wal.append_durable(&ops[j]).expect("append"));
        }),
        "ns",
    );

    let config = StoreConfig {
        wal: wal_config,
        ..StoreConfig::default()
    };
    let (store, _) = DurableMsgBox::open(config, Box::new(MemStorage::new()), &Scope::noop(), 0)
        .expect("store opens");
    store.create("replay", "key", "tenant", 0).expect("create");
    let bodies: Vec<Vec<String>> = (0..ROUNDS + 1).map(|_| corpus.replies.clone()).collect();
    let mut v = Vec::new();
    for (round, bodies) in bodies.into_iter().enumerate() {
        for body in bodies {
            let t = Instant::now();
            store.deposit("replay", body, 1, u64::MAX).expect("deposit");
            black_box(store.fetch("replay", "key", 1, 1).expect("fetch"));
            if round > 0 {
                v.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    m.put("store.deposit_fetch_ns", fastest_per_input(&v, n), "ns");
}
