//! JSON rendering of the figure runners' output: the document
//! `experiments --json PATH` writes, `{"seconds":N,"figures":{...}}`,
//! with one entry per selected figure (its rows plus, for the paper's
//! figures, the merged telemetry snapshot).

use wsd_loadgen::{LatencySummary, RunTotals};
use wsd_telemetry::Snapshot;

use crate::{connwall, fig4, fig5, fig6, fleet};

/// The whole document: `figures` are `(name, rendered figure)` pairs in
/// selection order.
pub fn document(seconds: u64, figures: &[(&str, String)]) -> String {
    let figs: Vec<String> = figures
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"seconds\":{seconds},\"figures\":{{{}}}}}\n",
        figs.join(",")
    )
}

fn json_latency(l: &Option<LatencySummary>) -> String {
    match l {
        None => "null".to_string(),
        Some(l) => format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"max_us\":{}}}",
            l.count, l.mean_us, l.p50_us, l.p95_us, l.max_us
        ),
    }
}

fn json_totals(t: &RunTotals) -> String {
    format!(
        "{{\"transmitted\":{},\"not_sent\":{},\"latency\":{}}}",
        t.transmitted,
        t.not_sent,
        json_latency(&t.latency)
    )
}

/// Figure 4: per-point direct vs dispatched totals, plus telemetry.
pub fn json_fig4(rows: &[fig4::Fig4Row], snap: &Snapshot) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"direct\":{},\"dispatched\":{}}}",
                r.clients,
                json_totals(&r.direct),
                json_totals(&r.dispatched)
            )
        })
        .collect();
    format!(
        "{{\"rows\":[{}],\"telemetry\":{}}}",
        rows.join(","),
        snap.to_json()
    )
}

/// Figure 5: per-point messages/minute and losses, plus telemetry.
pub fn json_fig5(rows: &[fig5::Fig5Row], snap: &Snapshot) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"direct_per_min\":{},\"dispatched_per_min\":{},\
                 \"direct_not_sent\":{},\"dispatched_not_sent\":{}}}",
                r.clients,
                r.direct_per_min,
                r.dispatched_per_min,
                r.direct_not_sent,
                r.dispatched_not_sent
            )
        })
        .collect();
    format!(
        "{{\"rows\":[{}],\"telemetry\":{}}}",
        rows.join(","),
        snap.to_json()
    )
}

/// Figure 6: per-point messages/minute per series, plus telemetry.
pub fn json_fig6(rows: &[fig6::Fig6Row], snap: &Snapshot) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"direct_blocked_per_min\":{},\"dispatcher_per_min\":{},\
                 \"msgbox_per_min\":{},\"responses_fetched\":{}}}",
                r.clients,
                r.direct_blocked_per_min,
                r.dispatcher_per_min,
                r.msgbox_per_min,
                r.responses_fetched
            )
        })
        .collect();
    format!(
        "{{\"rows\":[{}],\"telemetry\":{}}}",
        rows.join(","),
        snap.to_json()
    )
}

/// The memory-wall sweep of the in-memory vs WAL-backed msgbox.
pub fn json_fig6_durable(o: &fig6::DurabilityOutcome) -> String {
    let rows: Vec<String> = o
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"memory_oom\":{},\"memory_deposits\":{},\
                 \"durable_oom\":{},\"durable_deposits\":{},\"durable_spilled_bytes\":{}}}",
                r.clients,
                r.memory_oom,
                r.memory_deposits,
                r.durable_oom,
                r.durable_deposits,
                r.durable_spilled_bytes
            )
        })
        .collect();
    let wall = |w: Option<usize>| {
        w.map(|c| c.to_string())
            .unwrap_or_else(|| "null".to_string())
    };
    format!(
        "{{\"rows\":[{}],\"memory_wall_clients\":{},\"durable_wall_clients\":{}}}",
        rows.join(","),
        wall(o.memory_wall_clients),
        wall(o.durable_wall_clients)
    )
}

/// The §4.3.2 connection wall on the threaded runtime.
pub fn json_connwall(o: &connwall::ConnWallOutcome) -> String {
    let point = |p: &connwall::ConnWallPoint| {
        format!(
            "{{\"clients\":{},\"crashed\":{},\"peak_threads\":{},\"deposits\":{},\"open_conns\":{}}}",
            p.clients,
            p.crashed,
            p.peak_threads,
            p.deposits,
            p.open_conns
                .map(|n| n.to_string())
                .unwrap_or_else(|| "null".to_string()),
        )
    };
    let tpm: Vec<String> = o.thread_per_message.iter().map(point).collect();
    let reactor: Vec<String> = o.reactor.iter().map(point).collect();
    format!(
        "{{\"thread_budget\":{},\"pool_workers\":{},\"thread_per_message\":[{}],\"reactor\":[{}]}}",
        connwall::THREAD_BUDGET,
        connwall::POOL_WORKERS,
        tpm.join(","),
        reactor.join(",")
    )
}

/// Fleet scaling rows plus the kill-one failover outcome.
pub fn json_fleet(rows: &[fleet::FleetScaleRow], f: &fleet::FailoverOutcome) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"instances\":{},\"generated\":{},\"acked\":{},\"shed\":{},\
                 \"delivered\":{},\"delivered_per_sec\":{:.1}}}",
                r.instances, r.generated, r.acked, r.shed, r.delivered, r.delivered_per_sec
            )
        })
        .collect();
    format!(
        "{{\"scaling\":[{}],\"failover\":{{\"instances\":{},\"killed\":{},\"acked\":{},\
         \"delivered\":{},\"acked_lost\":{},\"duplicates\":{},\"recovered\":{},\
         \"resent\":{},\"rebalance_latency_us\":{}}}}}",
        rows.join(","),
        f.instances,
        f.killed,
        f.acked,
        f.delivered,
        f.acked_lost,
        f.duplicates,
        f.recovered,
        f.resent,
        f.rebalance_latency_us
    )
}
