//! **E9 (Table 6)** — geo-replicated deployment: reconfiguration over a
//! wide-area network.
//!
//! On a WAN (20ms ± 4ms one-way), every protocol round costs real time, so
//! the *number of rounds* between "close decided" and "successor serving"
//! becomes the dominant term. The speculative composition needs one round
//! (the handoff campaign piggybacks on the close); the no-spec ablation
//! waits out an election timeout; stop-the-world serializes drain,
//! transfer, acks and an election.

use simnet::{SimDuration, SimTime};

use super::ExpOutput;
use crate::runner::{run as run_scenario, Scenario, SystemKind};
use crate::table::Table;

const RECONFIG_AT: SimTime = SimTime::from_secs(4);

/// One system's WAN measurements.
pub struct Row {
    /// System under test.
    pub kind: SystemKind,
    /// Steady-state p50 latency before the reconfig, ms.
    pub p50_ms: f64,
    /// Service gap after the reconfiguration, ms.
    pub gap_ms: u64,
    /// Reconfiguration latency, ms.
    pub reconfig_ms: f64,
    /// Total completes.
    pub total: u64,
}

/// Runs the WAN sweep.
pub fn run_rows(quick: bool) -> Vec<Row> {
    let horizon = SimTime::from_secs(if quick { 8 } else { 12 });
    SystemKind::reconfigurable()
        .into_iter()
        .map(|kind| {
            let sc = Scenario::new(0xE9)
                .clients(4)
                .joiners(&[3])
                .over_wan()
                .reconfigure_at(RECONFIG_AT, &[0, 1, 3])
                .until(horizon);
            let out = run_scenario(kind, &sc);
            Row {
                kind,
                p50_ms: out.latency_us(0.5) / 1000.0,
                gap_ms: out.longest_gap_ms(RECONFIG_AT, horizon, SimDuration::from_millis(50)),
                reconfig_ms: out.reconfig_latency_us().unwrap_or(0) as f64 / 1000.0,
                total: out.completed,
            }
        })
        .collect()
}

/// Runs E9, returning the rendered text plus its table.
pub fn run_structured(quick: bool) -> ExpOutput {
    let rows = run_rows(quick);
    let mut t = Table::new(
        "E9 / Table 6 — member replacement over a WAN (20ms ± 4ms one-way)",
        &[
            "system",
            "steady p50 (ms)",
            "gap after reconfig (ms)",
            "reconfig latency (ms)",
            "completes",
        ],
    );
    for r in &rows {
        t.row(&[
            r.kind.name().into(),
            format!("{:.1}", r.p50_ms),
            r.gap_ms.to_string(),
            format!("{:.1}", r.reconfig_ms),
            r.total.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Shape expected from the paper: on a WAN every protocol round costs \
         ~2×20ms, so the gap reflects round counts. This scenario replaces \
         whichever node leads (worst case): the composition pays \
         close-commit + nomination + election + first-commit; stop-the-world \
         additionally serializes drain and transfer-ack rounds. When the \
         leader survives the change (add-member), the composition's gap \
         shrinks to the close-commit alone.\n\n",
    );
    ExpOutput {
        histograms: Vec::new(),
        rendered: out,
        tables: vec![t],
    }
}

/// Renders E9.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_reconfigurations_land_on_the_wan() {
        let rows = run_rows(true);
        for r in &rows {
            assert!(r.reconfig_ms > 0.0, "{}", r.kind.name());
            assert!(r.total > 100, "{} starved", r.kind.name());
            // WAN p50 must reflect the RTT (sanity that the profile is on).
            assert!(
                r.p50_ms > 20.0,
                "{} p50 {} looks like a LAN",
                r.kind.name(),
                r.p50_ms
            );
        }
        let gap = |k: SystemKind| rows.iter().find(|r| r.kind == k).map(|r| r.gap_ms).unwrap();
        assert!(
            gap(SystemKind::Rsmr) <= gap(SystemKind::Stw),
            "speculation must win on the WAN too"
        );
    }
}
