//! Figures 4, 5 and 6 are a fixed point of the simulation: the quick
//! sweep (`experiments --all --quick --json`) regenerated here must
//! match the checked-in document byte for byte. A runtime change that
//! moves any row or any telemetry counter of the paper's figures fails
//! this test; a change that is meant to move them regenerates
//! `tests/golden/figs_quick.json` with
//! `experiments --all --quick --json tests/golden/figs_quick.json`.

use wsd_experiments::{fig4, fig5, fig6, report};

/// The virtual window `--quick` caps every figure at.
const QUICK_SECONDS: u64 = 10;

#[test]
fn quick_figures_match_golden_json() {
    let (r4, s4) = fig4::run_observed(QUICK_SECONDS, fig4::QUICK_COUNTS);
    let (r5, s5) = fig5::run_observed(QUICK_SECONDS, fig5::QUICK_COUNTS);
    let (r6, s6) = fig6::run_observed(QUICK_SECONDS, fig6::QUICK_COUNTS);
    let doc = report::document(
        QUICK_SECONDS,
        &[
            ("fig4", report::json_fig4(&r4, &s4)),
            ("fig5", report::json_fig5(&r5, &s5)),
            ("fig6", report::json_fig6(&r6, &s6)),
        ],
    );
    let golden = include_str!("golden/figs_quick.json");
    if doc != golden {
        let at = doc
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(doc.len().min(golden.len()));
        let window =
            |s: &str| s[at.saturating_sub(80).min(s.len())..(at + 80).min(s.len())].to_string();
        panic!(
            "figure JSON diverges from tests/golden/figs_quick.json at byte {at}\n  got:    …{}…\n  golden: …{}…",
            window(&doc),
            window(golden)
        );
    }
}
