//! **E8 (Table 5)** — quorum-size scaling is inherited from the block.
//!
//! The composition's steady-state performance at size `n` should track the
//! bare static block at size `n`: the wrapper neither amplifies nor hides
//! the cost of bigger quorums.

use simnet::SimTime;

use super::ExpOutput;
use crate::runner::{run_many, Scenario, SystemKind};
use crate::table::Table;

/// One measurement row.
pub struct Row {
    /// System under test.
    pub kind: SystemKind,
    /// Cluster size.
    pub n: u64,
    /// Throughput, op/s.
    pub tput: f64,
    /// p50 latency, ms.
    pub p50_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
}

/// Runs the sweep.
pub fn run_rows(quick: bool) -> Vec<Row> {
    let sizes: &[u64] = if quick { &[3, 7] } else { &[3, 5, 7, 9] };
    let horizon = SimTime::from_secs(if quick { 6 } else { 10 });
    // Independent runs: fan the (n, system) grid across cores.
    let cells: Vec<(SystemKind, u64)> = sizes
        .iter()
        .flat_map(|&n| [(SystemKind::Static, n), (SystemKind::Rsmr, n)])
        .collect();
    let jobs: Vec<(SystemKind, Scenario)> = cells
        .iter()
        .map(|&(kind, n)| {
            let sc = Scenario::new(0xE8 + n).servers(n).clients(4).until(horizon);
            (kind, sc)
        })
        .collect();
    run_many(jobs)
        .into_iter()
        .zip(cells)
        .map(|(out, (kind, n))| Row {
            kind,
            n,
            tput: out.throughput(SimTime::from_secs(1), horizon),
            p50_ms: out.latency_us(0.5) / 1000.0,
            p99_ms: out.latency_us(0.99) / 1000.0,
        })
        .collect()
}

/// Runs E8, returning the rendered text plus its table.
pub fn run_structured(quick: bool) -> ExpOutput {
    let rows = run_rows(quick);
    let mut t = Table::new(
        "E8 / Table 5 — scaling with configuration size (no reconfiguration)",
        &["n", "system", "throughput (op/s)", "p50 (ms)", "p99 (ms)"],
    );
    for r in &rows {
        t.row(&[
            r.n.to_string(),
            r.kind.name().into(),
            format!("{:.0}", r.tput),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Shape expected from the paper: both curves degrade identically with \
         n (bigger quorums, more acks) — the composition inherits the block's \
         scaling behaviour verbatim.\n\n",
    );
    ExpOutput {
        histograms: Vec::new(),
        rendered: out,
        tables: vec![t],
    }
}

/// Renders E8.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_rsmr_tracks_static_at_every_size() {
        let rows = run_rows(true);
        let sizes: Vec<u64> = {
            let mut v: Vec<u64> = rows.iter().map(|r| r.n).collect();
            v.dedup();
            v
        };
        for n in sizes {
            let tput = |k: SystemKind| {
                rows.iter()
                    .find(|r| r.kind == k && r.n == n)
                    .map(|r| r.tput)
                    .unwrap()
            };
            let (s, r) = (tput(SystemKind::Static), tput(SystemKind::Rsmr));
            assert!(
                (r - s).abs() / s < 0.2,
                "n={n}: rsmr {r:.0} vs static {s:.0} diverge more than 20%"
            );
        }
    }
}
