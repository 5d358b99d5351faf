//! The fleet simulation as a replayed layer: `run_fleet` called directly,
//! costed at its fastest of a few runs, with the exact counts of its
//! outcome and the output checks every run must pass.

use std::time::{Duration, Instant};

use wsd_core::config::FleetConfig;
use wsd_core::sim::{run_fleet, FleetOutcome, FleetParams};

use crate::stats::{ratio, Metrics};

pub const FLEET_INSTANCES: usize = 4;
pub const FLEET_SERVICES: usize = 64;
pub const FLEET_CLIENTS: u64 = 200_000;
/// Virtual seconds of offered load per simulation.
pub const FLEET_WINDOW_S: u64 = 10;
/// Simulations run (same seed); the cost is the fastest.
const RUNS: usize = 5;

pub fn params(seed: u64) -> FleetParams {
    FleetParams {
        fleet: FleetConfig {
            instances: FLEET_INSTANCES,
            ..FleetConfig::default()
        },
        services: FLEET_SERVICES,
        clients: FLEET_CLIENTS,
        duration: Duration::from_secs(FLEET_WINDOW_S),
        seed,
        ..FleetParams::default()
    }
}

/// The conservation invariants every fleet run must hold.
fn check(out: &FleetOutcome) -> Result<(), String> {
    if out.generated != out.acked + out.shed {
        return Err(format!(
            "generated {} != acked {} + shed {}",
            out.generated, out.acked, out.shed
        ));
    }
    if out.acked != out.delivered {
        return Err(format!(
            "acked {} != delivered {}",
            out.acked, out.delivered
        ));
    }
    if out.acked_lost != 0 || out.duplicates != 0 {
        return Err(format!(
            "acked_lost {} duplicates {}",
            out.acked_lost, out.duplicates
        ));
    }
    Ok(())
}

/// Whether two runs of the same parameters produced the same outcome.
fn same_outcome(a: &FleetOutcome, b: &FleetOutcome) -> bool {
    (
        a.generated,
        a.acked,
        a.shed,
        a.delivered,
        a.duplicates,
        a.acked_lost,
        a.resent,
        a.last_delivery_us,
    ) == (
        b.generated,
        b.acked,
        b.shed,
        b.delivered,
        b.duplicates,
        b.acked_lost,
        b.resent,
        b.last_delivery_us,
    ) && a.detected_dead == b.detected_dead
        && a.snapshot.entries() == b.snapshot.entries()
}

/// Runs the simulation [`RUNS`] times with one seed and records its
/// per-layer metrics: wall ns per delivered message (fastest run), WAL
/// appends and bytes per delivered message and the shed share (exact).
/// Returns the failed output checks.
pub fn replay(seed: u64, m: &mut Metrics) -> Vec<String> {
    let p = params(seed);
    let mut errors = Vec::new();
    let mut fastest = f64::INFINITY;
    let mut first: Option<FleetOutcome> = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let out = run_fleet(&p);
        fastest = fastest.min(t.elapsed().as_nanos() as f64 / out.delivered.max(1) as f64);
        if let Err(e) = check(&out) {
            errors.push(e);
        }
        match &first {
            None => first = Some(out),
            Some(f) if !same_outcome(f, &out) => {
                errors.push("two fleet runs with the same seed differ".into())
            }
            Some(_) => {}
        }
    }
    let out = first.expect("at least one run");
    let delivered = out.delivered as f64;
    m.put("sim.fleet_ns_per_delivered", fastest, "ns");
    m.put(
        "store.wal_appends_per_delivered",
        ratio(out.snapshot.counter_sum("wal_appends") as f64, delivered),
        "count",
    );
    m.put(
        "store.wal_bytes_per_delivered",
        ratio(out.snapshot.counter_sum("wal_bytes") as f64, delivered),
        "bytes",
    );
    m.put(
        "fleet.shed_share",
        ratio(out.shed as f64, out.generated as f64),
        "share",
    );
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every run passes its checks, and the exact counts repeat.
    #[test]
    fn fleet_replay_is_checked_and_exact() {
        let (mut a, mut b) = (Metrics::default(), Metrics::default());
        assert_eq!(replay(3, &mut a), Vec::<String>::new());
        assert_eq!(replay(3, &mut b), Vec::<String>::new());
        for n in [
            "store.wal_appends_per_delivered",
            "store.wal_bytes_per_delivered",
            "fleet.shed_share",
        ] {
            assert_eq!(a.get(n), b.get(n), "{n}");
        }
        assert!(a.get("sim.fleet_ns_per_delivered").unwrap() > 0.0);
        assert!(a.get("store.wal_appends_per_delivered").unwrap() > 0.0);
    }
}
