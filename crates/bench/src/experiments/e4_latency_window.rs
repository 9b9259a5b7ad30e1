//! **E4 (Figure 2)** — client-visible latency for commands issued around a
//! reconfiguration.
//!
//! Clients start shortly before the membership change and run straight
//! through it; the latency distribution (p50/p90/p99/max) captures how
//! disruptive the change is to in-flight traffic. A static, never
//! reconfigured cluster serves as the control.

use simnet::SimTime;

use super::ExpOutput;
use crate::runner::{run as run_scenario, Scenario, SystemKind};
use crate::table::Table;

/// One system's latency summary.
pub struct Row {
    /// System under test.
    pub kind: SystemKind,
    /// Latency quantiles in ms: (p50, p90, p99, max).
    pub quantiles: (f64, f64, f64, f64),
    /// Completions (all clients).
    pub total: u64,
}

/// Runs the experiment.
pub fn run_rows(quick: bool) -> Vec<Row> {
    // The workload must straddle the reconfiguration: clients start at
    // 1.8s, the change fires at 1.9s, and the op budget keeps every client
    // busy well past it.
    let (clients, ops) = if quick { (4, 800) } else { (6, 1500) };
    let mut rows = Vec::new();
    let systems = [
        SystemKind::Static, // control: no reconfiguration happens
        SystemKind::Rsmr,
        SystemKind::RsmrNoSpec,
        SystemKind::Stw,
        SystemKind::Raft,
    ];
    for kind in systems {
        let mut sc = Scenario::new(0xE4)
            .clients(clients)
            .joiners(&[3])
            .until(SimTime::from_secs(30));
        sc.client_start = SimTime::from_millis(1_800);
        sc.ops_per_client = Some(ops);
        if kind != SystemKind::Static {
            sc = sc.reconfigure_at(SimTime::from_millis(1_900), &[0, 1, 3]);
        }
        let out = run_scenario(kind, &sc);
        rows.push(Row {
            kind,
            quantiles: (
                out.latency_us(0.5) / 1000.0,
                out.latency_us(0.9) / 1000.0,
                out.latency_us(0.99) / 1000.0,
                out.latency_us(1.0) / 1000.0,
            ),
            total: out.completed,
        });
    }
    rows
}

/// Runs E4, returning the rendered text plus its table.
pub fn run_structured(quick: bool) -> ExpOutput {
    let rows = run_rows(quick);
    let mut t = Table::new(
        "E4 / Figure 2 — latency of commands issued across a member replacement (ms)",
        &["system", "p50", "p90", "p99", "max", "completes"],
    );
    for r in &rows {
        let (p50, p90, p99, max) = r.quantiles;
        t.row(&[
            r.kind.name().into(),
            format!("{p50:.3}"),
            format!("{p90:.3}"),
            format!("{p99:.3}"),
            format!("{max:.1}"),
            r.total.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Shape expected from the paper: rsmr's tail stays within a small \
         factor of the static control; stop-the-world's max spikes to the \
         full blocking window (client retransmission intervals included); \
         no-spec sits between, its tail an election timeout wide.\n\n",
    );
    ExpOutput {
        histograms: Vec::new(),
        rendered: out,
        tables: vec![t],
    }
}

/// Renders E4.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_everyone_finishes_and_quantiles_are_ordered() {
        let rows = run_rows(true);
        for r in &rows {
            assert_eq!(r.total, 3_200, "{}", r.kind.name());
            let (p50, p90, p99, max) = r.quantiles;
            assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
            assert!(p50 > 0.0);
        }
    }

    #[test]
    fn e4_stw_tail_is_worse_than_rsmr() {
        let rows = run_rows(true);
        let max_of = |k: SystemKind| {
            rows.iter()
                .find(|r| r.kind == k)
                .map(|r| r.quantiles.3)
                .unwrap()
        };
        assert!(
            max_of(SystemKind::Rsmr) <= max_of(SystemKind::Stw),
            "speculation must not have a worse max than stop-the-world"
        );
    }
}
