//! From what a run observed to its checks, metrics and report.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use kvstore::{linearizable, HistoryOp, KvOp, KvOutput, KvStore};
use rsmr_core::StateMachine;
use simnet::SimTime;

use crate::cluster::GroupStatus;
use crate::replica::Totals;
use crate::stats::{self, Gap};
use crate::RunData;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing statistic.
    pub samples: Option<usize>,
}

/// A run's verdict and numbers.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Traced runs: stall attribution and other explanatory lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line the benchmark contract asks for.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn key_of(op: &KvOp) -> &str {
    match op {
        KvOp::Get(k) | KvOp::Put(k, _) | KvOp::Delete(k) | KvOp::Append(k, _) => k,
        KvOp::Cas { key, .. } => key,
    }
}

/// Splits every session's history by key and checks each key's history
/// for linearizability. An operation still in flight at the end is kept
/// if it writes (it may have taken effect) with an open response.
fn linearizable_per_key(d: &RunData) -> Result<usize, String> {
    let mut per_key: HashMap<&str, Vec<HistoryOp<KvOp, KvOutput>>> = HashMap::new();
    for s in &d.gen.sessions {
        let mut last_response = SimTime::ZERO;
        for (_, op, output, invoked, responded) in &s.history {
            // A session sends one operation at a time, so none was sent
            // before its predecessor completed; open-loop due times can
            // be earlier, which would only loosen the check.
            per_key.entry(key_of(op)).or_default().push(HistoryOp {
                process: s.process,
                invoke: (*invoked).max(last_response),
                response: *responded,
                input: op.clone(),
                output: output.clone(),
            });
            last_response = *responded;
        }
        if let Some(op @ KvOp::Put(..)) = &s.pending {
            per_key.entry(key_of(op)).or_default().push(HistoryOp {
                process: s.process,
                invoke: last_response,
                response: SimTime::MAX,
                input: op.clone(),
                output: KvOutput::Written,
            });
        }
    }
    let keys = per_key.len();
    for (key, history) in per_key {
        if !linearizable(KvStore::new(), &history) {
            return Err(format!(
                "key {key}: history of {} ops is not linearizable",
                history.len()
            ));
        }
    }
    Ok(keys)
}

/// Parsed trace file of one traced replica.
#[derive(Default)]
struct Trace {
    node: u64,
    snaps: Vec<(u64, Totals)>,
    /// `(label, start unix µs, µs, deletes, flush µs)`.
    spans: Vec<(String, u64, u64, u64, u64)>,
    /// `(start unix µs, µs)`.
    syncs: Vec<(u64, u64)>,
    /// `[seal, transfer, transfer bytes, handoff]` per epoch.
    epochs: Vec<[Option<u64>; 4]>,
    status: GroupStatus,
}

fn parse_trace(node: u64, text: &str) -> Trace {
    let mut t = Trace {
        node,
        ..Trace::default()
    };
    let num = |s: &str| s.parse::<u64>().ok();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["snap", at, rest @ ..] => {
                let v: Vec<u64> = rest.iter().filter_map(|s| num(s)).collect();
                if let (Some(at), Some(totals)) = (num(at), Totals::from_values(&v)) {
                    t.snaps.push((at, totals));
                }
            }
            ["span", label, at, us, del, flush] => {
                if let (Some(a), Some(u), Some(d), Some(fl)) =
                    (num(at), num(us), num(del), num(flush))
                {
                    t.spans.push((label.to_string(), a, u, d, fl));
                }
            }
            ["sync", at, us] => {
                if let (Some(a), Some(u)) = (num(at), num(us)) {
                    t.syncs.push((a, u));
                }
            }
            ["epoch", _, seal, transfer, bytes, handoff] => {
                t.epochs
                    .push([num(seal), num(transfer), num(bytes), num(handoff)]);
            }
            ["members", _, epoch, members @ ..] => t.status.push((
                num(epoch),
                members
                    .first()
                    .map(|m| m.split(',').filter_map(num).collect())
                    .unwrap_or_default(),
            )),
            _ => {}
        }
    }
    t
}

/// Counter deltas over `[start, end]` (unix µs) and the window's maxima.
fn window_totals(snaps: &[(u64, Totals)], start: u64, end: u64) -> Totals {
    let first = snaps
        .iter()
        .rev()
        .find(|(at, _)| *at <= start)
        .or(snaps.first());
    let last = snaps.iter().find(|(at, _)| *at >= end).or(snaps.last());
    let (Some(&(a, t0)), Some(&(b, t1))) = (first, last) else {
        return Totals::default();
    };
    let mut window: Vec<u64> = t0
        .to_array()
        .iter()
        .zip(t1.to_array())
        .map(|(x, y)| y.saturating_sub(*x))
        .collect();
    // The last two fields are maxima since the previous snapshot, not
    // running totals: take their maximum over the window instead.
    let n = window.len();
    for (field, value) in window.iter_mut().enumerate().skip(n - 2) {
        *value = snaps
            .iter()
            .filter(|(at, _)| *at > a && *at <= b)
            .map(|(_, t)| t.to_array()[field])
            .max()
            .unwrap_or(0);
    }
    Totals::from_values(&window).expect("one value per field")
}

fn median_of(values: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = values.map(|x| x as f64).collect();
    stats::median(&v).unwrap_or(0.0)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// Computes one sub-run's checks and metrics.
pub fn evaluate(d: &RunData) -> Outcome {
    let (start, end) = d.window;
    let window_s = (end - start) as f64 / 1e6;
    let mut checks = Vec::new();

    // --- window accounting and latency samples ---
    let (mut attempted, mut failed) = (0, 0);
    let mut latencies = Vec::new();
    let mut timeline = Vec::new();
    for s in &d.gen.sessions {
        attempted += s.window.attempted();
        failed += s.window.failed();
        for (seq, _, _, invoked, responded) in &s.history {
            timeline.push(responded.as_micros());
            if (s.window.first..s.window.end).contains(seq) {
                latencies.push(responded.as_micros() - invoked.as_micros());
            }
        }
    }
    timeline.sort_unstable();
    let completed = latencies.len() as u64;
    let per_op = |x: f64| {
        if completed == 0 {
            0.0
        } else {
            x / completed as f64
        }
    };

    // --- correctness ---
    checks.push((
        "operations were attempted in the window".into(),
        attempted > 0,
    ));
    match linearizable_per_key(d) {
        Ok(keys) => checks.push((format!("linearizable, per key ({keys} keys)"), true)),
        Err(e) => checks.push((e, false)),
    }
    if d.reconfigs > 0 {
        let mut per_group: HashMap<u32, usize> = HashMap::new();
        for a in &d.gen.acks {
            *per_group.entry(a.group).or_default() += 1;
        }
        let all = (0..crate::GROUPS).all(|g| per_group.get(&g) == Some(&d.reconfigs));
        checks.push((
            format!(
                "every group acknowledged all {} reconfigurations ({} acks)",
                d.reconfigs,
                d.gen.acks.len()
            ),
            all,
        ));
    }
    let traces: Vec<Trace> = d.traces.iter().map(|(n, t)| parse_trace(*n, t)).collect();
    let status: Vec<(u64, GroupStatus)> = if d.traced {
        traces.iter().map(|t| (t.node, t.status.clone())).collect()
    } else {
        d.status.clone()
    };
    checks.extend(configuration_checks(d, &status));
    let correct = checks.iter().all(|(_, ok)| *ok);
    if !correct {
        failed = attempted;
    }

    // --- end-to-end ---
    let gaps = stats::gaps_per_window(&timeline, &d.instants, end);
    let gap_lengths: Vec<u64> = gaps.iter().flatten().map(Gap::len).collect();
    let acks: Vec<u64> = d.gen.acks.iter().map(|a| a.finished - a.started).collect();
    let percentile = |name, q| {
        let s = stats::sampled_percentile(&latencies, q);
        Metric {
            samples: Some(s.samples),
            ..metric(name, s.value / 1e3, "ms")
        }
    };
    let mut e2e = vec![
        metric("setup_s", d.setup_s, "s"),
        metric("ops_per_s", completed as f64 / window_s, "1/s"),
        percentile("p50_ms", 0.50),
        percentile("p99_ms", 0.99),
        metric("cpu_us_per_op", per_op(d.replica_cpu_us as f64), "us"),
        metric(
            "completed_frac",
            1.0 - stats::failed_frac(attempted, failed),
            "frac",
        ),
    ];
    let gap = Metric {
        samples: Some(gap_lengths.len()),
        ..metric(
            "client.gap_ms",
            median_of(gap_lengths.iter().copied()) / 1e3,
            "ms",
        )
    };
    let ack = Metric {
        samples: Some(acks.len()),
        ..metric(
            "admin.reconfig_ack_ms",
            median_of(acks.iter().copied()) / 1e3,
            "ms",
        )
    };
    if d.reconfigs > 0 {
        e2e.push(Metric {
            name: "reconfig_gap_ms",
            ..gap.clone()
        });
        e2e.push(Metric {
            name: "reconfig_ack_ms",
            ..ack.clone()
        });
    }
    let sessions = d.gen.sessions.len() as f64;
    let shortfall = match d.workload.rate_per_session {
        Some(rate) => stats::shortfall(attempted, rate * sessions, window_s),
        None => 0.0,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let gen_cpu_frac = d.gen_cpu_us as f64 / 1e6 / (window_s * cores);
    let mut notes = Vec::new();

    if !d.traced {
        for m in [
            gap,
            ack,
            metric("gen.shortfall_frac", shortfall, "frac"),
            metric("gen.cpu_frac", gen_cpu_frac, "frac"),
        ] {
            notes.push(format!("{} {} {}", m.name, m.value, m.unit));
        }
        return Outcome {
            correct,
            attempted,
            failed,
            checks,
            metrics: e2e,
            notes,
        };
    }

    // --- per layer (traced) ---
    let (ustart, uend) = (d.clock_unix + start, d.clock_unix + end);
    let windows: Vec<Totals> = traces
        .iter()
        .map(|t| window_totals(&t.snaps, ustart, uend))
        .collect();
    let sum = |f: fn(&Totals) -> u64| windows.iter().map(f).sum::<u64>() as f64;
    let maxof = |f: fn(&Totals) -> u64| windows.iter().map(f).max().unwrap_or(0) as f64;
    let self_us: u64 = windows
        .iter()
        .map(|t| {
            stats::self_time(
                t.step_us,
                &[
                    t.paxos_us, t.rsmr_us, t.timer_us, t.apply_us, t.sync_us, t.send_us, t.poll_us,
                ],
            )
        })
        .sum();
    let replica_s = window_s * traces.len().max(1) as f64;
    let epochs: Vec<[Option<u64>; 4]> = traces
        .iter()
        .flat_map(|t| t.epochs.iter().copied())
        .collect();
    let phase = |i: usize| median_of(epochs.iter().filter_map(|e| e[i]));
    let deletes = sum(|t| t.deletes);

    // kvstore apply, timed from here over the sub-run's completed ops in
    // completion order.
    let mut ops: Vec<(u64, &KvOp)> = d
        .gen
        .sessions
        .iter()
        .flat_map(|s| s.history.iter().map(|h| (h.4.as_micros(), &h.1)))
        .collect();
    ops.sort_by_key(|(t, _)| *t);
    let mut kv = KvStore::new();
    let t0 = Instant::now();
    for (_, op) in &ops {
        std::hint::black_box(kv.apply(op));
    }
    let apply_us = t0.elapsed().as_secs_f64() * 1e6 / ops.len().max(1) as f64;

    let mut metrics = vec![
        metric("runtime.self_us_per_op", per_op(self_us as f64), "us"),
        metric(
            "runtime.busy_frac",
            (sum(|t| t.step_us) - sum(|t| t.poll_us)) / 1e6 / replica_s,
            "frac",
        ),
        metric(
            "consensus.handler_us_per_op",
            per_op(sum(|t| t.paxos_us)),
            "us",
        ),
        metric("core.handler_us_per_op", per_op(sum(|t| t.rsmr_us)), "us"),
        metric("core.timer_us.max", maxof(|t| t.timer_max_us), "us"),
        metric("core.timer_over_10ms", sum(|t| t.timer_over_10ms), "count"),
        metric(
            "transport.send_calls_per_op",
            per_op(sum(|t| t.send_calls)),
            "count",
        ),
        metric(
            "transport.send_bytes_per_op",
            per_op(maxof(|t| t.send_bytes)),
            "B",
        ),
        metric(
            "transport.poll_wait_frac",
            sum(|t| t.poll_us) / 1e6 / replica_s,
            "frac",
        ),
        metric(
            "storage.apply_bytes_per_op",
            per_op(sum(|t| t.apply_bytes)),
            "B",
        ),
        metric("storage.sync_us.max", maxof(|t| t.sync_max_us), "us"),
        metric("storage.sync_over_10ms", sum(|t| t.sync_over_10ms), "count"),
        metric(
            "storage.deletes_per_reconfig",
            if d.reconfigs > 0 {
                deletes / d.reconfigs as f64
            } else {
                deletes
            },
            "count",
        ),
        metric("core.seal_us", phase(0), "us"),
        metric("core.transfer_us", phase(1), "us"),
        metric("core.transfer_bytes", phase(2), "B"),
        metric("core.handoff_gap_us", phase(3), "us"),
        ack,
        gap,
        metric(
            "client.retransmits_per_kop",
            per_op(d.gen.window_retransmits as f64 * 1e3),
            "count",
        ),
        metric("kvstore.apply_us_per_op", apply_us, "us"),
        metric("gen.shortfall_frac", shortfall, "frac"),
        metric("gen.cpu_frac", gen_cpu_frac, "frac"),
    ];
    for m in &e2e {
        let name = match m.name {
            "ops_per_s" => "traced.ops_per_s",
            "p99_ms" => "traced.p99_ms",
            "cpu_us_per_op" => "traced.cpu_us_per_op",
            _ => continue,
        };
        metrics.push(Metric { name, ..m.clone() });
    }
    notes.extend(attribute(d, &traces, &gaps, &latencies));
    Outcome {
        correct,
        attempted,
        failed,
        checks,
        metrics,
        notes,
    }
}

/// The configuration checks: every replica ends on the last step's member
/// set in every group, and every member of that set has anchored the last
/// epoch.
fn configuration_checks(d: &RunData, status: &[(u64, GroupStatus)]) -> Vec<(String, bool)> {
    let epoch = d.reconfigs as u64;
    let expected = &d.expected_members;
    let mut stale = Vec::new();
    let mut unanchored = Vec::new();
    for (node, groups) in status {
        let groups_ok = groups.len() == crate::GROUPS as usize;
        if !groups_ok || groups.iter().any(|(_, m)| m != expected) {
            let seen: Vec<&Vec<u64>> = groups.iter().map(|(_, m)| m).collect();
            stale.push(format!("node {node} has {seen:?}"));
        }
        if expected.contains(node) && (!groups_ok || groups.iter().any(|(e, _)| *e != Some(epoch)))
        {
            let seen: Vec<Option<u64>> = groups.iter().map(|(e, _)| *e).collect();
            unanchored.push(format!("node {node} anchored {seen:?}"));
        }
    }
    let detail = |v: &[String]| {
        if v.is_empty() {
            String::new()
        } else {
            format!(": {}", v.join("; "))
        }
    };
    vec![
        (
            format!(
                "all {} replicas end on members {expected:?} in every group{}",
                status.len(),
                detail(&stale)
            ),
            stale.is_empty() && status.len() as u64 == d.workload.nodes,
        ),
        (
            format!(
                "every member of {expected:?} anchored epoch {epoch} in every group{}",
                detail(&unanchored)
            ),
            unanchored.is_empty(),
        ),
    ]
}

/// Folds sub-run outcomes into the run's: every check must pass in every
/// sub-run; counts add up; each metric is the median over sub-runs, with
/// its samples summed.
pub fn combine(outcomes: Vec<Outcome>) -> Outcome {
    let mut all = Outcome {
        correct: outcomes.iter().all(|o| o.correct),
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        checks: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    for (k, o) in outcomes.iter().enumerate() {
        all.checks.extend(
            o.checks
                .iter()
                .map(|(c, ok)| (format!("run {k}: {c}"), *ok)),
        );
        all.notes
            .extend(o.notes.iter().map(|n| format!("run {k}: {n}")));
    }
    if let Some(first) = outcomes.first() {
        for m in &first.metrics {
            let same: Vec<&Metric> = outcomes
                .iter()
                .filter_map(|o| o.metrics.iter().find(|x| x.name == m.name))
                .collect();
            let values: Vec<f64> = same.iter().map(|x| x.value).collect();
            all.metrics.push(Metric {
                value: stats::median(&values).unwrap_or(0.0),
                samples: m
                    .samples
                    .map(|_| same.iter().filter_map(|x| x.samples).sum()),
                ..m.clone()
            });
        }
    }
    all
}

/// Stall attribution from the traced replicas' spans.
fn attribute(
    d: &RunData,
    traces: &[Trace],
    gaps: &[Option<Gap>],
    latencies: &[u64],
) -> Vec<String> {
    let mut notes = Vec::new();
    let unix = |t: u64| d.clock_unix + t;
    let ms = |a: u64, b: u64| (a as f64 - b as f64) / 1e3;
    let what = if d.reconfigs > 0 {
        "Reconfigure"
    } else {
        "interval start"
    };
    for (k, (&at, gap)) in d.instants.iter().zip(gaps).enumerate() {
        let Some(g) = gap else { continue };
        let (from, to) = (unix(g.from), unix(g.to));
        let longest = traces
            .iter()
            .flat_map(|t| t.spans.iter().map(move |s| (t.node, s)))
            .filter(|(_, s)| s.1 < to && s.1 + s.2 + s.4 > from)
            .max_by_key(|(_, s)| s.2 + s.4);
        let next = d.instants.get(k + 1).copied().unwrap_or(d.window.1);
        let deletes: u64 = traces
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.1 >= unix(at) && s.1 < unix(next))
            .map(|s| s.3)
            .sum();
        let mut line = format!(
            "{what} {k}: fleet gap {:.1} ms from +{:.1} ms; {deletes} storage deletes before the next",
            ms(to, from),
            ms(from, unix(at)),
        );
        match longest {
            Some((node, s)) => {
                let _ = write!(
                    line,
                    "; longest replica callback: node {node} {} {:.1} ms (+{:.1} ms storage flush, {} deletes) at +{:.1} ms",
                    s.0,
                    s.2 as f64 / 1e3,
                    s.4 as f64 / 1e3,
                    s.3,
                    ms(s.1, unix(at)),
                );
                // That replica's kept callbacks inside the gap, together.
                let (n, busy, deletes) = traces
                    .iter()
                    .filter(|t| t.node == node)
                    .flat_map(|t| t.spans.iter())
                    .filter(|s| s.1 < to && s.1 + s.2 + s.4 > from)
                    .fold((0, 0, 0), |(n, b, d), s| (n + 1, b + s.2 + s.4, d + s.3));
                let _ = write!(
                    line,
                    "; node {node} ran {n} such callbacks in the gap, {:.1} ms with their flushes, {deletes} deletes",
                    busy as f64 / 1e3
                );
            }
            None => line.push_str("; no replica callback over 1 ms overlaps it"),
        }
        notes.push(line);
    }

    // The tail: which operations at or above p99 overlapped a long sync.
    let p99 = stats::sampled_percentile(latencies, 0.99).value as u64;
    let long_syncs: Vec<(u64, u64)> = traces
        .iter()
        .flat_map(|t| t.syncs.iter().copied())
        .filter(|&(_, us)| us >= 10_000)
        .collect();
    let (mut tail, mut covered) = (0, 0);
    for s in &d.gen.sessions {
        for (seq, _, _, inv, resp) in &s.history {
            if !(s.window.first..s.window.end).contains(seq) {
                continue;
            }
            if resp.as_micros() - inv.as_micros() < p99 {
                continue;
            }
            tail += 1;
            let (a, b) = (unix(inv.as_micros()), unix(resp.as_micros()));
            covered += u64::from(long_syncs.iter().any(|&(st, us)| st < b && st + us > a));
        }
    }
    notes.push(format!(
        "p99 {:.2} ms: {covered} of the {tail} operations at or above it overlap one of {} storage syncs over 10 ms",
        p99 as f64 / 1e3,
        long_syncs.len()
    ));
    let mut syncs: Vec<(u64, u64, u64)> = traces
        .iter()
        .flat_map(|t| t.syncs.iter().map(move |&(a, us)| (us, a, t.node)))
        .filter(|&(_, a, _)| a >= unix(d.window.0) && a < unix(d.window.1))
        .collect();
    syncs.sort_unstable_by(|a, b| b.cmp(a));
    for (us, a, node) in syncs.iter().take(5) {
        notes.push(format!(
            "longest storage.sync: node {node} {:.1} ms at +{:.3} s into the window",
            *us as f64 / 1e3,
            ms(*a, unix(d.window.0)) / 1e3
        ));
    }
    notes
}

/// The human-readable report; also saved under `out_dir`.
pub fn render(workload: &str, traced: bool, o: &Outcome, out_dir: &Path) -> String {
    let mut s = String::new();
    let mode = if traced { "traced" } else { "untraced" };
    let _ = writeln!(s, "== {workload} ({mode})");
    for (what, ok) in &o.checks {
        let _ = writeln!(s, "check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let _ = writeln!(s, "attempted {} failed {}", o.attempted, o.failed);
    for m in &o.metrics {
        let _ = write!(s, "{:<30} {:>14} {}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            let _ = write!(s, " (n={n})");
        }
        s.push('\n');
    }
    for n in &o.notes {
        let _ = writeln!(s, "{n}");
    }
    let name = workload;
    let e2e_file = out_dir.join(format!("{name}-untraced-last.txt"));
    if traced {
        // Tracing overhead against the last untraced run of this workload.
        if let Ok(prev) = std::fs::read_to_string(&e2e_file) {
            let prev: HashMap<&str, f64> = prev
                .lines()
                .filter_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    Some((k, v.trim().parse().ok()?))
                })
                .collect();
            for m in &o.metrics {
                if let Some(base) = m.name.strip_prefix("traced.").and_then(|n| prev.get(n)) {
                    let _ = writeln!(
                        s,
                        "tracing overhead {}: {:+.3} {} (traced {} vs untraced {base})",
                        &m.name[7..],
                        m.value - base,
                        m.unit,
                        m.value
                    );
                }
            }
        }
    } else {
        let lines: String = o
            .metrics
            .iter()
            .map(|m| format!("{} {}\n", m.name, m.value))
            .collect();
        let _ = std::fs::write(&e2e_file, lines);
    }
    let _ = std::fs::write(out_dir.join(format!("{name}-{mode}-report.txt")), &s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_totals_subtract_edges_and_take_window_maxima() {
        let snap = |at, sync_us, sync_max_us| {
            (
                at,
                Totals {
                    sync_us,
                    sync_max_us,
                    ..Totals::default()
                },
            )
        };
        let snaps = [
            snap(0, 10, 1),
            snap(100, 50, 9),
            snap(200, 70, 4),
            snap(300, 90, 30),
        ];
        let t = window_totals(&snaps, 120, 200);
        assert_eq!(t.sync_us, 20);
        assert_eq!(t.sync_max_us, 4);
        let t = window_totals(&snaps, 50, 250);
        assert_eq!(t.sync_us, 90 - 10);
        assert_eq!(t.sync_max_us, 30);
    }

    #[test]
    fn trace_lines_parse() {
        let text = "span timer 1000 15000 3 200\nsync 2000 12000\nepoch 2 10 - 64 5\nmembers 0 2 0,1,2\nmembers 1 -\n";
        let t = parse_trace(4, text);
        assert_eq!(t.spans, vec![("timer".to_string(), 1000, 15000, 3, 200)]);
        assert_eq!(t.syncs, vec![(2000, 12000)]);
        assert_eq!(t.epochs, vec![[Some(10), None, Some(64), Some(5)]]);
        assert_eq!(t.status, vec![(Some(2), vec![0, 1, 2]), (None, vec![])]);
    }

    #[test]
    fn sub_runs_combine_into_medians_with_summed_samples() {
        let outcome = |ok, p50, n| Outcome {
            correct: ok,
            attempted: 10,
            failed: u64::from(!ok) * 10,
            checks: vec![("linearizable".into(), ok)],
            metrics: vec![
                Metric {
                    samples: Some(n),
                    ..metric("p50_ms", p50, "ms")
                },
                metric("setup_s", p50 / 10.0, "s"),
            ],
            notes: vec!["note".into()],
        };
        let all = combine(vec![
            outcome(true, 3.0, 5),
            outcome(true, 1.0, 7),
            outcome(true, 2.0, 9),
        ]);
        assert!(all.correct);
        assert_eq!((all.attempted, all.failed), (30, 0));
        assert_eq!(all.metrics[0].value, 2.0);
        assert_eq!(all.metrics[0].samples, Some(21));
        assert_eq!(all.metrics[1].value, 0.2);
        assert_eq!(all.metrics[1].samples, None);
        assert_eq!(all.checks[2].0, "run 2: linearizable");
        // One failed sub-run fails the run.
        let all = combine(vec![outcome(true, 1.0, 1), outcome(false, 1.0, 1)]);
        assert!(!all.correct);
        assert_eq!(all.failed, 10);
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            checks: Vec::new(),
            metrics: vec![metric("p50_ms", 1.25, "ms")],
            notes: Vec::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
