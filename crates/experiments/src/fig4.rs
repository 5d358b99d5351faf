//! Figure 4 — "RPC communication: low broadband".
//!
//! The paper's worst-case setup: the cable-modem client machine
//! (`iuLow`, 288 kbps uplink, P3@850) ramps 10…2000 concurrent echo
//! clients against the slow INRIA workstation (`inriaSlow`, P3@1GHz)
//! for one minute, direct and through the RPC-Dispatcher. The expected
//! shape: no loss through ~100 connections, loss onset between 100 and
//! 500 (the accept limit), and losses orders of magnitude above
//! deliveries at 2000; the dispatcher tracks the direct curve ("little
//! negative impact on scalability").

use std::sync::Arc;

use wsd_core::registry::Registry;
use wsd_core::sim::{EchoMode, SimEchoService, SimRpcDispatcher};
use wsd_core::url::Url;
use wsd_loadgen::ramp::ClientPlacement;
use wsd_loadgen::{spawn_rpc_fleet, RpcClientConfig, RunTotals};
use wsd_netsim::{profiles, OverLimit, SimDuration, SimTime, Simulation};

use crate::topology::{dispatch_time, light_cpu, service_time};

/// The paper's x-axis.
pub const CLIENT_COUNTS: &[usize] = &[10, 100, 200, 500, 1000, 1500, 2000];

/// The thinned sweep `experiments --quick` runs.
pub const QUICK_COUNTS: &[usize] = &[10, 100, 500, 2000];

/// Accept limit of the 2004-era server host (the loss-onset knee sits
/// between the paper's 100- and 500-connection points). Overflowing SYNs
/// are silently dropped (full backlog), so each excess attempt costs the
/// client a 3 s connect timeout — which keeps losses comparable to
/// deliveries around 500 connections, as the paper reports.
pub const ACCEPT_LIMIT: usize = 128;

/// The client machine's socket (fd / ephemeral port) ceiling. Past it,
/// attempts fail locally and instantly, which is what makes losses
/// explode to orders of magnitude above deliveries at 2000 connections.
pub const SOCKET_LIMIT: usize = 1024;

/// One plotted point.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Concurrent clients.
    pub clients: usize,
    /// Direct-to-WS series.
    pub direct: RunTotals,
    /// Through-the-dispatcher series.
    pub dispatched: RunTotals,
}

/// Runs one series point.
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
    let mut sim = Simulation::new(0x0F16_0400 + clients as u64);
    if let Some(o) = obs {
        sim.bind_telemetry(&o.registry.scope("net"), o.clock.clone());
    }
    let ws_host = sim.add_host(
        light_cpu(profiles::inria_slow("ws"))
            .firewall(wsd_netsim::FirewallPolicy::Open)
            .accept_limit(ACCEPT_LIMIT, OverLimit::Drop),
    );
    let client_host =
        sim.add_host(light_cpu(profiles::iu_low("clients")).outbound_limit(SOCKET_LIMIT));

    let service = SimEchoService::new(EchoMode::Rpc, service_time(1.0));
    let sp = sim.spawn(ws_host, Box::new(service));
    sim.listen(sp, 8888);

    let (target_host, target_port, path) = if via_dispatcher {
        let disp_host = sim.add_host(
            light_cpu(profiles::inria_fast("dispatcher"))
                .firewall(wsd_netsim::FirewallPolicy::Open)
                .accept_limit(ACCEPT_LIMIT, OverLimit::Drop),
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
        response_timeout: SimDuration::from_secs(20),
        retry_backoff: SimDuration::from_millis(50),
        run_for: SimDuration::from_secs(seconds),
        // The slow client machine's own per-exchange processing.
        think_time: SimDuration::from_millis(300),
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

/// Runs the full figure (both series, all points, in parallel).
pub fn run(seconds: u64, counts: &[usize]) -> Vec<Fig4Row> {
    let inputs: Vec<usize> = counts.to_vec();
    crate::parallel_map(inputs, |clients| Fig4Row {
        clients,
        direct: run_one(clients, false, seconds),
        dispatched: run_one(clients, true, seconds),
    })
}

/// Runs the full figure with telemetry: the rows plus one snapshot
/// merged across every point and series.
pub fn run_observed(seconds: u64, counts: &[usize]) -> (Vec<Fig4Row>, wsd_telemetry::Snapshot) {
    let results = crate::parallel_map(counts.to_vec(), |clients| {
        let (direct, s1) = run_one_observed(clients, false, seconds);
        let (dispatched, s2) = run_one_observed(clients, true, seconds);
        (
            Fig4Row {
                clients,
                direct,
                dispatched,
            },
            [s1, s2],
        )
    });
    let mut rows = Vec::new();
    let mut snaps = Vec::new();
    for (row, s) in results {
        rows.push(row);
        snaps.extend(s);
    }
    (rows, crate::merge_snapshots(snaps))
}

/// Prints the figure's series as aligned rows.
pub fn print(rows: &[Fig4Row]) {
    println!("# Figure 4 — RPC communication: low broadband (iuLow -> inriaSlow, 1 virtual minute)");
    println!(
        "{:>8} {:>18} {:>16} {:>18} {:>16}",
        "clients", "direct_transmitted", "direct_not_sent", "disp_transmitted", "disp_not_sent"
    );
    for r in rows {
        println!(
            "{:>8} {:>18} {:>16} {:>18} {:>16}",
            r.clients,
            r.direct.transmitted,
            r.direct.not_sent,
            r.dispatched.transmitted,
            r.dispatched.not_sent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10-second windows keep the tests quick; shapes are the target.
    const SECS: u64 = 10;

    #[test]
    fn no_loss_at_ten_clients() {
        let t = run_one(10, false, SECS);
        assert!(t.transmitted > 0);
        assert_eq!(t.not_sent, 0, "paper: no packets lost for small counts");
    }

    #[test]
    fn heavy_loss_past_the_accept_limit() {
        let t = run_one(500, false, SECS);
        assert!(t.not_sent > t.transmitted, "{t:?}");
    }

    #[test]
    fn loss_dwarfs_deliveries_at_two_thousand() {
        let t = run_one(2000, false, SECS);
        assert!(
            t.not_sent > 20 * t.transmitted.max(1),
            "paper: orders of magnitude more lost than delivered — got {t:?}"
        );
    }

    #[test]
    fn dispatcher_tracks_direct_shape() {
        let direct = run_one(100, false, SECS);
        let disp = run_one(100, true, SECS);
        // "Little negative impact": within 2x on the throughput axis.
        assert!(disp.transmitted * 2 >= direct.transmitted, "{direct:?} vs {disp:?}");
    }

    #[test]
    fn transmitted_grows_then_saturates() {
        let t10 = run_one(10, false, SECS);
        let t100 = run_one(100, false, SECS);
        assert!(
            t100.transmitted > t10.transmitted,
            "{} !> {}",
            t100.transmitted,
            t10.transmitted
        );
    }
}
