//! Figure 5 — "RPC communication: high connectivity".
//!
//! The good environment: the Indiana backbone machine (`iuHigh`,
//! SunFire) against the fast INRIA workstation (`inriaFast`, P4@3.4).
//! No packets are lost; throughput climbs with clients, plateaus around
//! 200 connections in the paper's 5000–6000 messages/minute band, and
//! sags slightly beyond that from contention. The dispatcher curve hugs
//! the direct one.

use std::sync::Arc;

use wsd_core::registry::Registry;
use wsd_core::sim::{EchoMode, SimEchoService, SimRpcDispatcher};
use wsd_core::url::Url;
use wsd_loadgen::ramp::ClientPlacement;
use wsd_loadgen::{spawn_rpc_fleet, RpcClientConfig, RunTotals};
use wsd_netsim::{profiles, OverLimit, SimDuration, SimTime, Simulation};

use crate::topology::{dispatch_time, light_cpu, service_time};

/// The paper's x-axis (0–300 connections).
pub const CLIENT_COUNTS: &[usize] = &[1, 25, 50, 100, 150, 200, 250, 300];

/// The thinned sweep `experiments --quick` runs.
pub const QUICK_COUNTS: &[usize] = &[1, 100, 200, 300];

/// Per-open-connection service-time penalty producing the post-plateau
/// droop ("after 200 connections message throughput ... even gets
/// slightly worsened due to contention").
pub const CONN_PENALTY: f64 = 0.0005;

/// Client-side processing between exchanges (the 2004 client's own SOAP
/// stack); this is what places the saturation knee near 200 connections
/// instead of saturating the service with a handful of clients.
pub const THINK_TIME: SimDuration = SimDuration(1_200_000);

/// One plotted point.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Concurrent clients.
    pub clients: usize,
    /// Direct messages per minute.
    pub direct_per_min: f64,
    /// Dispatched messages per minute.
    pub dispatched_per_min: f64,
    /// Losses (expected 0 in this environment).
    pub direct_not_sent: u64,
    /// Losses through the dispatcher.
    pub dispatched_not_sent: u64,
}

/// Runs one series point, returning raw totals.
pub fn run_one(clients: usize, via_dispatcher: bool, seconds: u64) -> RunTotals {
    run_point(clients, via_dispatcher, seconds, None)
}

/// Runs one series point with telemetry, returning the totals plus the
/// point's metric snapshot (timestamped in virtual time).
pub fn run_one_observed(
    clients: usize,
    via_dispatcher: bool,
    seconds: u64,
) -> (RunTotals, wsd_telemetry::Snapshot) {
    let obs = crate::Observed::new();
    let totals = run_point(clients, via_dispatcher, seconds, Some(&obs));
    (totals, obs.registry.snapshot())
}

fn run_point(
    clients: usize,
    via_dispatcher: bool,
    seconds: u64,
    obs: Option<&crate::Observed>,
) -> RunTotals {
    let mut sim = Simulation::new(0x0F15_0500 + clients as u64);
    if let Some(o) = obs {
        sim.bind_telemetry(&o.registry.scope("net"), o.clock.clone());
    }
    let ws_host = sim.add_host(
        light_cpu(profiles::inria_fast("ws"))
            .firewall(wsd_netsim::FirewallPolicy::Open)
            .accept_limit(2_000, OverLimit::Refuse),
    );
    let client_host = sim.add_host(light_cpu(profiles::iu_high("clients")));

    let service = SimEchoService::new(EchoMode::Rpc, service_time(3.4))
        .with_conn_penalty(CONN_PENALTY);
    let sp = sim.spawn(ws_host, Box::new(service));
    sim.listen(sp, 8888);

    let (target_host, target_port, path) = if via_dispatcher {
        let disp_host = sim.add_host(
            light_cpu(profiles::inria_fast("dispatcher"))
                .firewall(wsd_netsim::FirewallPolicy::Open)
                .accept_limit(2_000, OverLimit::Refuse),
        );
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let dispatcher = SimRpcDispatcher::new(
            registry,
            dispatch_time(3.4),
            SimDuration::from_secs(3),
            SimDuration::from_secs(30),
        )
        .with_telemetry(&crate::Observed::scope_or_noop(obs, "rpc_dispatcher"));
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
        ("dispatcher".to_string(), 8081, "/svc/Echo".to_string())
    } else {
        ("ws".to_string(), 8888, "/echo".to_string())
    };

    let config = RpcClientConfig {
        target_host,
        target_port,
        path,
        connect_timeout: SimDuration::from_secs(3),
        response_timeout: SimDuration::from_secs(30),
        retry_backoff: SimDuration::from_millis(50),
        run_for: SimDuration::from_secs(seconds),
        think_time: THINK_TIME,
    };
    let fleet = spawn_rpc_fleet(
        &mut sim,
        ClientPlacement::SharedHost(client_host),
        clients,
        &config,
        SimDuration::from_secs(seconds.min(5)),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(seconds));
    fleet.totals_with_telemetry(&crate::Observed::scope_or_noop(obs, "loadgen"))
}

/// Runs the full figure.
pub fn run(seconds: u64, counts: &[usize]) -> Vec<Fig5Row> {
    crate::parallel_map(counts.to_vec(), |clients| {
        let direct = run_one(clients, false, seconds);
        let dispatched = run_one(clients, true, seconds);
        Fig5Row {
            clients,
            direct_per_min: direct.per_minute(seconds as f64),
            dispatched_per_min: dispatched.per_minute(seconds as f64),
            direct_not_sent: direct.not_sent,
            dispatched_not_sent: dispatched.not_sent,
        }
    })
}

/// Runs the full figure with telemetry: the rows plus one snapshot
/// merged across every point and series.
pub fn run_observed(seconds: u64, counts: &[usize]) -> (Vec<Fig5Row>, wsd_telemetry::Snapshot) {
    let results = crate::parallel_map(counts.to_vec(), |clients| {
        let (direct, s1) = run_one_observed(clients, false, seconds);
        let (dispatched, s2) = run_one_observed(clients, true, seconds);
        let row = Fig5Row {
            clients,
            direct_per_min: direct.per_minute(seconds as f64),
            dispatched_per_min: dispatched.per_minute(seconds as f64),
            direct_not_sent: direct.not_sent,
            dispatched_not_sent: dispatched.not_sent,
        };
        (row, [s1, s2])
    });
    let mut rows = Vec::new();
    let mut snaps = Vec::new();
    for (row, s) in results {
        rows.push(row);
        snaps.extend(s);
    }
    (rows, crate::merge_snapshots(snaps))
}

/// Prints the figure's series.
pub fn print(rows: &[Fig5Row]) {
    println!("# Figure 5 — RPC communication: high connectivity (iuHigh -> inriaFast)");
    println!(
        "{:>8} {:>16} {:>16} {:>12} {:>12}",
        "clients", "direct_msg/min", "disp_msg/min", "direct_lost", "disp_lost"
    );
    for r in rows {
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>12} {:>12}",
            r.clients,
            r.direct_per_min,
            r.dispatched_per_min,
            r.direct_not_sent,
            r.dispatched_not_sent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS: u64 = 10;

    #[test]
    fn no_losses_in_the_good_environment() {
        for clients in [25, 200] {
            let t = run_one(clients, false, SECS);
            assert_eq!(t.not_sent, 0, "clients={clients}: {t:?}");
            let t = run_one(clients, true, SECS);
            assert_eq!(t.not_sent, 0, "via dispatcher, clients={clients}: {t:?}");
        }
    }

    #[test]
    fn throughput_plateaus_in_the_paper_band() {
        let t = run_one(200, false, 20);
        let per_min = t.per_minute(20.0);
        assert!(
            (4_000.0..8_000.0).contains(&per_min),
            "plateau at {per_min}/min"
        );
    }

    #[test]
    fn plateau_does_not_grow_past_200() {
        let at200 = run_one(200, false, SECS).per_minute(SECS as f64);
        let at300 = run_one(300, false, SECS).per_minute(SECS as f64);
        assert!(
            at300 <= at200 * 1.1,
            "no improvement past 200: {at200} vs {at300}"
        );
    }

    #[test]
    fn dispatcher_close_to_direct() {
        let d = run_one(100, false, SECS).per_minute(SECS as f64);
        let v = run_one(100, true, SECS).per_minute(SECS as f64);
        assert!(v >= d * 0.6, "direct {d}, dispatched {v}");
    }
}
