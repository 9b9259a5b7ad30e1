//! **E11 (Table 8)** — sharded multi-group composition.
//!
//! The keyspace is hash-partitioned over `G` composition groups on a
//! shared 8-node pool with per-node egress bandwidth capped, so a single
//! saturated leader is a real bottleneck. Three claims:
//!
//! * **8a** — aggregate throughput scales with `G` under the *same*
//!   per-node load limits (distinct leaders spread the egress load);
//! * **8b** — rolling per-shard reconfiguration (every shard replaces a
//!   member, back-to-back) keeps the *aggregate* client timeline gap-free
//!   with the composed machine, while the stop-the-world baseline stalls
//!   each reconfiguring shard in turn;
//! * **8c** — when no faults couple the groups, the split driver (one
//!   simulation per group, fanned across the worker pool) merges to a
//!   digest byte-identical with serial execution.

use simnet::{SimDuration, SimTime};

use super::ExpOutput;
use crate::sharded::{run_sharded, run_split, ShardScenario, ShardSystem};
use crate::table::Table;

/// Per-node egress bandwidth for the scaling sweep, bytes/second. Low
/// enough that one leader's egress queue is the G=1 bottleneck, high
/// enough that queueing delay stays far below the client retransmit
/// timeout.
const BANDWIDTH: u64 = 150_000;

/// One row of the scaling sweep (Table 8a).
pub struct ScalingRow {
    /// Group count.
    pub groups: u32,
    /// Aggregate committed operations per second.
    pub tput: f64,
    /// p99 client latency, ms.
    pub p99_ms: f64,
    /// Total completed operations.
    pub completed: u64,
}

/// One row of the rolling-churn comparison (Table 8b).
pub struct RollingRow {
    /// System under test.
    pub kind: ShardSystem,
    /// Reconfiguration steps finished (should equal the group count).
    pub reconfigs: usize,
    /// Longest empty run in the aggregate completion timeline, ms.
    pub aggregate_gap_ms: u64,
    /// Worst per-shard gap over all groups, ms.
    pub max_shard_gap_ms: u64,
    /// Total completed operations.
    pub completed: u64,
}

/// The split-driver determinism check (Table 8c).
pub struct SplitRow {
    /// Group count.
    pub groups: u32,
    /// Merged digest of the serial pass.
    pub serial_digest: u64,
    /// Merged digest of the parallel pass.
    pub parallel_digest: u64,
    /// Total completions (identical by construction when digests match).
    pub completed: u64,
}

fn scaling_scenario(groups: u32, quick: bool) -> ShardScenario {
    let horizon = SimTime::from_secs(if quick { 6 } else { 10 });
    ShardScenario::new(0xE11 + groups as u64, groups)
        .until(horizon)
        .bandwidth(BANDWIDTH)
}

/// Runs the Table 8a sweep (coupled simulations, one thread per cell).
pub fn scaling_rows(quick: bool) -> Vec<ScalingRow> {
    let gs: &[u32] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let horizon = SimTime::from_secs(if quick { 6 } else { 10 });
    let warmup = SimTime::from_secs(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = gs
            .iter()
            .map(|&g| {
                s.spawn(move || {
                    let sc = scaling_scenario(g, quick);
                    let out = run_sharded(ShardSystem::Rsmr, &sc);
                    ScalingRow {
                        groups: g,
                        tput: out.run.throughput(warmup, horizon),
                        p99_ms: out.run.latency_us(0.99) / 1000.0,
                        completed: out.run.completed,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn rolling_scenario(quick: bool) -> ShardScenario {
    let groups = if quick { 2 } else { 4 };
    let horizon = SimTime::from_secs(if quick { 6 } else { 8 });
    ShardScenario::new(0xE11B, groups)
        .until(horizon)
        .bandwidth(BANDWIDTH)
        .rolling(SimTime::from_secs(2), SimDuration::from_millis(600))
}

/// Runs the Table 8b rolling-churn comparison.
pub fn rolling_rows(quick: bool) -> Vec<RollingRow> {
    let bin = SimDuration::from_millis(100);
    std::thread::scope(|s| {
        let handles: Vec<_> = [ShardSystem::Rsmr, ShardSystem::Stw]
            .into_iter()
            .map(|kind| {
                s.spawn(move || {
                    let sc = rolling_scenario(quick);
                    let from = SimTime::from_secs(1);
                    let to = sc.horizon;
                    let out = run_sharded(kind, &sc);
                    RollingRow {
                        kind,
                        reconfigs: out.per_group_admin.iter().map(Vec::len).sum(),
                        aggregate_gap_ms: out.aggregate_gap_ms(from, to, bin),
                        max_shard_gap_ms: out.max_group_gap_ms(from, to, bin),
                        completed: out.run.completed,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Runs the Table 8c split-driver check: serial and parallel group
/// execution must merge to the same digest.
pub fn split_row(quick: bool) -> SplitRow {
    let groups = if quick { 2 } else { 4 };
    let sc =
        ShardScenario::new(0xE11C, groups).until(SimTime::from_secs(if quick { 3 } else { 5 }));
    let serial = run_split(&sc, false);
    let parallel = run_split(&sc, true);
    assert_eq!(serial.completed, parallel.completed);
    SplitRow {
        groups,
        serial_digest: serial.digest,
        parallel_digest: parallel.digest,
        completed: serial.completed,
    }
}

/// Runs E11, returning the rendered text plus its tables.
pub fn run_structured(quick: bool) -> ExpOutput {
    let scaling = scaling_rows(quick);
    let rolling = rolling_rows(quick);
    let split = split_row(quick);

    let base_tput = scaling.first().map(|r| r.tput).unwrap_or(0.0);
    let mut t8a = Table::new(
        "E11 / Table 8a — sharded composition: aggregate throughput vs group count",
        &[
            "G",
            "aggregate throughput (op/s)",
            "p99 (ms)",
            "speedup vs G=1",
            "completed",
        ],
    );
    for r in &scaling {
        t8a.row(&[
            r.groups.to_string(),
            format!("{:.0}", r.tput),
            format!("{:.3}", r.p99_ms),
            format!("{:.2}x", r.tput / base_tput),
            r.completed.to_string(),
        ]);
    }

    let mut t8b = Table::new(
        "E11 / Table 8b — rolling per-shard reconfiguration (every shard, back-to-back)",
        &[
            "system",
            "reconfigs",
            "aggregate gap (ms)",
            "max shard gap (ms)",
            "completed",
        ],
    );
    for r in &rolling {
        t8b.row(&[
            r.kind.name().into(),
            r.reconfigs.to_string(),
            r.aggregate_gap_ms.to_string(),
            r.max_shard_gap_ms.to_string(),
            r.completed.to_string(),
        ]);
    }

    let mut t8c = Table::new(
        "E11 / Table 8c — split driver: serial vs parallel group execution",
        &[
            "G",
            "serial digest",
            "parallel digest",
            "equal",
            "completed",
        ],
    );
    t8c.row(&[
        split.groups.to_string(),
        format!("{:016x}", split.serial_digest),
        format!("{:016x}", split.parallel_digest),
        (split.serial_digest == split.parallel_digest).to_string(),
        split.completed.to_string(),
    ]);

    let mut rendered = t8a.render();
    rendered.push_str(&t8b.render());
    rendered.push_str(&t8c.render());
    rendered.push_str(
        "Shape expected: 8a — with per-node egress capped, G distinct leaders \
         lift aggregate throughput near-linearly (>=3x at G=4); past G=4 the \
         fixed 8-node pool saturates (every node then serves several groups) \
         and the curve flattens. 8b — the composed machine absorbs a full \
         rolling replacement with zero aggregate gap and only a brief \
         per-shard dip (state transfer competing for the capped egress), \
         while the stop-the-world baseline freezes each shard for several \
         times longer as its turn comes. 8c — group independence makes the \
         parallel split driver bit-identical with serial execution.\n\n",
    );
    ExpOutput {
        histograms: Vec::new(),
        rendered,
        tables: vec![t8a, t8b, t8c],
    }
}

/// Renders E11.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_aggregate_throughput_scales_3x_at_four_groups() {
        let rows = scaling_rows(true);
        let tput = |g: u32| rows.iter().find(|r| r.groups == g).map(|r| r.tput).unwrap();
        let speedup = tput(4) / tput(1);
        assert!(
            speedup >= 3.0,
            "G=4 speedup {speedup:.2}x below the 3x acceptance bar \
             (G=1: {:.0} op/s, G=4: {:.0} op/s)",
            tput(1),
            tput(4)
        );
    }

    #[test]
    fn e11_rolling_churn_leaves_no_aggregate_gap_for_rsmr() {
        let rows = rolling_rows(true);
        let row = |k: ShardSystem| rows.iter().find(|r| r.kind == k).unwrap();
        let rsmr = row(ShardSystem::Rsmr);
        assert_eq!(rsmr.reconfigs, 2, "every shard must finish its step");
        assert_eq!(
            rsmr.aggregate_gap_ms, 0,
            "aggregate timeline must not pause"
        );
        let stw = row(ShardSystem::Stw);
        assert_eq!(stw.reconfigs, 2);
        assert!(
            stw.max_shard_gap_ms > rsmr.max_shard_gap_ms,
            "stop-the-world should stall the reconfiguring shard \
             (stw {} ms vs rsmr {} ms)",
            stw.max_shard_gap_ms,
            rsmr.max_shard_gap_ms
        );
    }

    #[test]
    fn e11_split_driver_digests_match() {
        let row = split_row(true);
        assert_eq!(row.serial_digest, row.parallel_digest);
        assert!(row.completed > 0);
    }
}
