//! **E10 (Table 7)** — lease-based local reads (extension).
//!
//! The composition's leader can serve pure reads from its applied state
//! under a quorum read lease, skipping the log entirely. This ablation
//! sweeps the read ratio and compares log-reads vs local-reads on
//! throughput and read latency; linearizability under leases is separately
//! machine-checked in the test suite.

use simnet::SimTime;

use super::ExpOutput;
use crate::runner::{run as run_scenario, Scenario, SystemKind};
use crate::table::Table;

/// One measurement row.
pub struct Row {
    /// Fraction of reads in the workload.
    pub read_ratio: f64,
    /// Local reads enabled?
    pub local: bool,
    /// Throughput, op/s.
    pub tput: f64,
    /// p50 latency, ms (all ops).
    pub p50_ms: f64,
    /// Reads served locally (without a log round).
    pub local_reads: u64,
}

/// Runs the sweep.
pub fn run_rows(quick: bool) -> Vec<Row> {
    let ratios: &[f64] = if quick {
        &[0.5, 0.95]
    } else {
        &[0.1, 0.5, 0.9, 0.99]
    };
    let horizon = SimTime::from_secs(if quick { 6 } else { 10 });
    let mut rows = Vec::new();
    for &read_ratio in ratios {
        for local in [false, true] {
            let mut sc = Scenario::new(0xE10).clients(6).until(horizon);
            sc.read_ratio = read_ratio;
            sc.local_reads = local;
            let out = run_scenario(SystemKind::Rsmr, &sc);
            rows.push(Row {
                read_ratio,
                local,
                tput: out.throughput(SimTime::from_secs(1), horizon),
                p50_ms: out.latency_us(0.5) / 1000.0,
                local_reads: out.metrics.counter("rsmr.local_reads"),
            });
        }
    }
    rows
}

/// Runs E10, returning the rendered text plus its table.
pub fn run_structured(quick: bool) -> ExpOutput {
    let rows = run_rows(quick);
    let mut t = Table::new(
        "E10 / Table 7 — lease-based local reads vs log reads (extension)",
        &[
            "read ratio",
            "reads",
            "throughput (op/s)",
            "p50 (ms)",
            "reads served locally",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{:.2}", r.read_ratio),
            if r.local { "local (leased)" } else { "via log" }.into(),
            format!("{:.0}", r.tput),
            format!("{:.3}", r.p50_ms),
            r.local_reads.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Shape expected: local reads cut a full consensus round off every \
         read (p50 approaches one client RTT as the read ratio grows) and \
         lift throughput in read-heavy workloads; at low read ratios the \
         two configurations converge. Linearizability with leases enabled \
         is machine-checked in `kvstore`'s test suite.\n\n",
    );
    ExpOutput {
        histograms: Vec::new(),
        rendered: out,
        tables: vec![t],
    }
}

/// Renders E10.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_local_reads_fire_and_help_read_heavy_workloads() {
        let rows = run_rows(true);
        let find = |ratio: f64, local: bool| {
            rows.iter()
                .find(|r| (r.read_ratio - ratio).abs() < 1e-9 && r.local == local)
                .expect("row exists")
        };
        // Leased reads actually happen.
        assert!(find(0.95, true).local_reads > 1_000);
        assert_eq!(find(0.95, false).local_reads, 0);
        // And pay off at a 95% read ratio.
        assert!(
            find(0.95, true).tput > find(0.95, false).tput * 1.2,
            "local reads should clearly lift read-heavy throughput: {} vs {}",
            find(0.95, true).tput,
            find(0.95, false).tput
        );
        assert!(find(0.95, true).p50_ms < find(0.95, false).p50_ms);
    }
}
