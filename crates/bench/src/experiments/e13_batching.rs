//! **E13 (Table 15)** — leader-side batching under an egress cap.
//!
//! Claim: when the replication fabric is the bottleneck, per-command
//! fan-out caps single-group throughput; amortizing the per-message
//! framing over `max_batch` commands recovers an order of magnitude —
//! not because the payload bytes shrink (the wire model charges a
//! batch's full serialized size), but because the unbatched point sits
//! past its saturation knee: closed-loop clients time out and
//! retransmit, the duplicates eat the capped fabric, and goodput
//! collapses. Batching absorbs the same offered load with fabric to
//! spare. The latency columns show the price: a non-full batch waits up
//! to `max_delay` before it flushes, and queueing behind larger slots
//! thickens the tail.
//!
//! The cap is applied as a [`Scenario::fabric_cap`]: every server↔server
//! link carries the capped bandwidth with a *serialized egress port*
//! (concurrent sends queue — see `NetConfig::with_egress_queueing`),
//! while client access stays on the uncapped local segment. Unbatched,
//! every command costs the leader two `Accept`s plus two `Chosen`
//! broadcasts, each carrying the ~50-byte command in full (~300 bytes of
//! framing plus command); batched, the framing is shared by up to
//! `max_batch` commands.
//!
//! Every row runs the *same* composed system at the same fabric cap with
//! the same client fleet — only the batching knobs
//! `(max_batch, max_delay, window)` differ.

use simnet::{HistogramSummary, SimTime};

use super::ExpOutput;
use crate::runner::{run_many, Scenario, SystemKind};
use crate::table::Table;

/// Server↔server fabric cap, bytes/second. Tight enough that the
/// unbatched run is fabric-limited (~200 KB/s ÷ ~300 B of per-command
/// framing + payload ≈ 650 op/s — below what 64 closed-loop clients
/// offer, so it collapses under retransmissions), while a batched
/// leader absorbs the same load.
const EGRESS_CAP: u64 = 200_000;

/// The batching points swept: `(label, Some((max_batch, max_delay_ms,
/// window)))`, with `None` as the unbatched baseline.
type Point = (&'static str, Option<(usize, u64, usize)>);

fn points(quick: bool) -> Vec<Point> {
    let mut pts: Vec<Point> = vec![("unbatched", None)];
    if !quick {
        pts.push(("batch=8 w=4", Some((8, 1, 4))));
    }
    pts.push(("batch=64 w=8", Some((64, 1, 8))));
    if !quick {
        pts.push(("batch=256 w=16", Some((256, 2, 16))));
    }
    pts
}

/// The regression gate the CI smoke step holds the sweep to: the best
/// batched point must beat the unbatched baseline by at least this
/// factor (the full run lands well above — see `BENCH_PR7.json`).
pub const GATE_MIN_SPEEDUP: f64 = 10.0;

/// One measured point of the sweep, for tables and the CI artifact.
pub struct Row {
    /// Point label, e.g. `batch=64 w=8`.
    pub label: &'static str,
    /// Committed ops/second over the measurement window.
    pub throughput: f64,
    /// Client-observed latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Throughput relative to the unbatched baseline.
    pub speedup: f64,
}

/// Runs the sweep, returning one [`Row`] per point.
pub fn run_rows(quick: bool) -> Vec<Row> {
    run_sweep(quick).0
}

/// Runs the sweep, also exporting the leader-side `paxos.*` telemetry
/// histograms (batch size, flush wait, pipeline occupancy, slot latency)
/// of the `batch=64 w=8` point — the configuration both modes share —
/// for the schema-2 JSONL artifact.
pub fn run_sweep(quick: bool) -> (Vec<Row>, Vec<HistogramSummary>) {
    // The unbatched point's retransmission collapse deepens over the
    // first several seconds; a horizon shorter than ~8 s measures the
    // transient instead of the settled regime.
    let horizon = if quick {
        SimTime::from_secs(9)
    } else {
        SimTime::from_secs(12)
    };
    let measure_from = SimTime::from_secs(1);
    // Both modes run the same 64-client load: with honest per-entry
    // `Accept` sizes the unbatched point only shows its collapse (client
    // retransmissions eating the capped fabric) at full load — a lighter
    // quick axis would sit below the knee and measure a different regime.
    let clients = 64;
    let pts = points(quick);
    let jobs: Vec<(SystemKind, Scenario)> = pts
        .iter()
        .map(|&(_, batching)| {
            let mut sc = Scenario::new(0xE13)
                .servers(3)
                .clients(clients)
                .fabric_cap(EGRESS_CAP)
                .until(horizon);
            sc.value_size = 16;
            sc.batching = batching;
            (SystemKind::Rsmr, sc)
        })
        .collect();
    let mut outs = run_many(jobs).into_iter();
    let mut base_tput = 0.0;
    let mut telemetry = Vec::new();
    let rows = pts
        .iter()
        .map(|&(label, batching)| {
            let out = outs.next().expect("one result per point");
            let tput = out.throughput(measure_from, horizon);
            if batching.is_none() {
                base_tput = tput;
            }
            if label == "batch=64 w=8" {
                telemetry = out
                    .metrics
                    .snapshot()
                    .histograms
                    .into_iter()
                    .filter(|h| h.name.starts_with("paxos."))
                    .collect();
            }
            Row {
                label,
                throughput: tput,
                p50_ms: out.latency_us(0.5) / 1000.0,
                p95_ms: out.latency_us(0.95) / 1000.0,
                p99_ms: out.latency_us(0.99) / 1000.0,
                speedup: if base_tput > 0.0 {
                    tput / base_tput
                } else {
                    0.0
                },
            }
        })
        .collect();
    (rows, telemetry)
}

/// Renders Table 15 from measured rows.
fn table_from(rows: &[Row]) -> Table {
    let mut table = Table::new(
        "E13 / Table 15 — leader-side batching at a fixed egress cap (1 group, 3 servers)",
        &[
            "config",
            "throughput (op/s)",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "vs unbatched",
        ],
    );
    for r in rows {
        table.row(&[
            r.label.to_owned(),
            format!("{:.0}", r.throughput),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
            if r.speedup > 0.0 {
                format!("{:.1}x", r.speedup)
            } else {
                "—".into()
            },
        ]);
    }
    table
}

/// Runs E13 and renders Table 15.
pub fn run_table(quick: bool) -> Table {
    table_from(&run_rows(quick))
}

/// Runs E13, returning the rendered text, its table, and the exported
/// leader-side telemetry histograms.
pub fn run_structured(quick: bool) -> ExpOutput {
    let (rows, telemetry) = run_sweep(quick);
    let table = table_from(&rows);
    let mut out = table.render();
    out.push_str(
        "Shape expected: with the replication fabric capped and egress \
         serialized, the unbatched leader spends ~300 bytes of framing \
         plus command (`Accept` ×2 + `Chosen` ×2, each carrying the \
         command in full) per command, so throughput saturates \
         near cap ÷ framing while closed-loop clients queue (fat p50). \
         Batching amortizes that framing across `max_batch` commands per \
         slot — throughput recovers an order of magnitude at the same cap \
         — and the latency columns expose the tradeoff: the flush deadline \
         (`max_delay`) bounds how long a non-full batch idles, so bigger \
         batches buy throughput with a thicker tail once the batch no \
         longer fills instantly.\n\n",
    );
    ExpOutput {
        histograms: telemetry,
        rendered: out,
        tables: vec![table],
    }
}

/// Renders E13.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_reports_every_point_with_speedup_column() {
        let t = run_table(true);
        let s = t.render();
        assert!(s.contains("unbatched"));
        assert!(s.contains("batch=64 w=8"));
        assert!(s.contains('x'), "speedup column present");
        assert!(s.lines().filter(|l| l.starts_with('|')).count() >= 4);
    }
}
