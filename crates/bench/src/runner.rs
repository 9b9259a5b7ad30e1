//! Scenario definitions and per-system runners.

use std::cell::RefCell;
use std::rc::Rc;

use baselines::{
    RaftAdmin, RaftClient, RaftNode, RaftTunables, RaftWorld, StwNode, StwTunables, StwWorld,
};
use consensus::actor::{ReplicaActor, SmrClient, SmrMsg};
use consensus::{PaxosTunables, StaticConfig};
use kvstore::{HistoryOp, KeyDist, KvOp, KvOutput, KvStore, WorkloadGen};
use rsmr_core::harness::World;
use rsmr_core::{AdminActor, InvariantObserver, RsmrClient, RsmrNode, RsmrTunables};
use simnet::observe::shared;
use simnet::{
    Actor, ChaosDriver, Context, EventDigest, FaultPlan, FaultTarget, LatencyModel,
    LifecycleCoverage, Metrics, NetConfig, NodeId, Sim, SimDuration, SimTime, Spans, Timer,
};

/// Which system a scenario runs on.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// The bare static Multi-Paxos block (no reconfiguration support).
    Static,
    /// The composed reconfigurable machine, speculation on.
    Rsmr,
    /// The composition with speculative handoff disabled (ablation).
    RsmrNoSpec,
    /// The composition with in-core leader batching and a pipelined
    /// proposal window (64 commands/slot, 1ms flush deadline, 8-slot
    /// window by default; [`Scenario::batching`] overrides).
    RsmrBatched,
    /// Stop-the-world composition baseline.
    Stw,
    /// Raft-lite (natively reconfigurable).
    Raft,
}

impl SystemKind {
    /// Short display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Static => "static-paxos",
            SystemKind::Rsmr => "rsmr (spec)",
            SystemKind::RsmrNoSpec => "rsmr (no-spec)",
            SystemKind::RsmrBatched => "rsmr (batched)",
            SystemKind::Stw => "stop-the-world",
            SystemKind::Raft => "raft-lite",
        }
    }

    /// Every reconfigurable system.
    pub fn reconfigurable() -> [SystemKind; 4] {
        [
            SystemKind::Rsmr,
            SystemKind::RsmrNoSpec,
            SystemKind::Stw,
            SystemKind::Raft,
        ]
    }
}

/// A parameterized experiment run. Construct with [`Scenario::new`] and
/// chain the builder methods.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// RNG seed (a run is a pure function of the scenario).
    pub seed: u64,
    /// Genesis cluster size (ids `0..n_servers`).
    pub n_servers: u64,
    /// Ids of standby joiners to spawn (must appear in `script` targets).
    pub joiners: Vec<u64>,
    /// Number of closed-loop clients (ids `100..`).
    pub n_clients: u64,
    /// Per-client operation limit (`None` = run until the horizon).
    pub ops_per_client: Option<u64>,
    /// Virtual time at which clients are added.
    pub client_start: SimTime,
    /// Fraction of reads in the workload.
    pub read_ratio: f64,
    /// Value size for writes, bytes.
    pub value_size: usize,
    /// Keyspace size.
    pub keyspace: usize,
    /// Pre-filled application state `(keys, bytes_per_key)` — controls
    /// state-transfer size.
    pub filler: Option<(usize, usize)>,
    /// Reconfiguration script: `(at, target member ids)`.
    pub script: Vec<(SimTime, Vec<u64>)>,
    /// Declarative fault schedule, applied by a [`ChaosDriver`]. Role
    /// targets (leader, donor, joiner) are resolved against the system
    /// under test at fire time.
    pub faults: FaultPlan,
    /// Install a collecting [`InvariantObserver`]; violations surface in
    /// [`RunOut::invariant_violations`].
    pub check_invariants: bool,
    /// End of the run.
    pub horizon: SimTime,
    /// Record client histories (for linearizability checking).
    pub record_history: bool,
    /// Link bandwidth override in bytes/second (`None` keeps the LAN
    /// default).
    pub bandwidth: Option<u64>,
    /// Model each sender's egress port as a serial queue (see
    /// [`NetConfig::with_egress_queueing`]). Needs a finite `bandwidth`
    /// to matter; turns the cap into a real throughput ceiling instead
    /// of a per-message delay.
    pub egress_queueing: bool,
    /// Cap the replication fabric: every server↔server (and joiner) link
    /// gets this bandwidth in bytes/second *with egress queueing*, while
    /// client links keep the scenario default. Models a constrained
    /// cross-replica backbone (e.g. cross-AZ) with local client access —
    /// the regime where per-message framing caps a leader's throughput.
    pub fabric_cap: Option<u64>,
    /// Use the wide-area network profile (20ms ± 4ms one-way, light loss)
    /// instead of the datacenter LAN.
    pub wan: bool,
    /// Enable lease-based local reads on the composed machine (100ms
    /// leases; only affects `Rsmr*` kinds).
    pub local_reads: bool,
    /// Install structured-event observers ([`EventDigest`] + [`Spans`]).
    /// Off by default — with no observer the event path costs one branch.
    pub record_events: bool,
    /// Restrict the workload to one hash partition `(shard, groups)` of the
    /// keyspace (see [`kvstore::shard_of`]) — the split-mode sharded driver
    /// runs each group as its own scenario with this set.
    pub shard: Option<(u32, u32)>,
    /// In-core leader batching `(max_batch, max_delay_ms, window)`:
    /// commands per proposal, flush deadline, and pipelined in-flight
    /// slots (see [`consensus::PaxosTunables`]). Applies to `Rsmr*` and
    /// `Stw` via the embedded Paxos tunables and to `Raft` via its
    /// `cmd_batch` knob (`max_batch` only). `None` = unbatched.
    pub batching: Option<(usize, u64, usize)>,
    /// Fixed-delay link permutation for DPOR-flavoured delivery-order
    /// exploration (see [`simnet::link_delay_permutation`]): the three
    /// links among the first three servers get fixed one-way delays chosen
    /// by this index. `None` = the scenario's default links.
    pub delay_perm: Option<u64>,
}

impl Scenario {
    /// A 3-server, 4-client scenario with a 10s horizon.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            n_servers: 3,
            joiners: Vec::new(),
            n_clients: 4,
            ops_per_client: None,
            client_start: SimTime::ZERO,
            read_ratio: 0.5,
            value_size: 64,
            keyspace: 1024,
            filler: None,
            script: Vec::new(),
            faults: FaultPlan::new(),
            check_invariants: false,
            horizon: SimTime::from_secs(10),
            record_history: false,
            bandwidth: None,
            egress_queueing: false,
            fabric_cap: None,
            wan: false,
            local_reads: false,
            record_events: false,
            shard: None,
            batching: None,
            delay_perm: None,
        }
    }

    /// Pins the inter-server link delays to permutation `perm`,
    /// builder-style (see [`simnet::link_delay_permutation`]).
    pub fn delay_perm(mut self, perm: u64) -> Self {
        self.delay_perm = Some(perm);
        self
    }

    /// Enables in-core leader batching, builder-style: up to `max_batch`
    /// commands per proposal, flushed within `max_delay_ms`, with a
    /// pipelined window of `window` outstanding slots (`0` = unbounded).
    pub fn batching(mut self, max_batch: usize, max_delay_ms: u64, window: usize) -> Self {
        self.batching = Some((max_batch, max_delay_ms, window));
        self
    }

    /// Enables the structured-event observers, builder-style.
    pub fn with_events(mut self) -> Self {
        self.record_events = true;
        self
    }

    /// Sets the genesis cluster size.
    pub fn servers(mut self, n: u64) -> Self {
        self.n_servers = n;
        self
    }

    /// Sets the client count.
    pub fn clients(mut self, n: u64) -> Self {
        self.n_clients = n;
        self
    }

    /// Sets standby joiners.
    pub fn joiners(mut self, ids: &[u64]) -> Self {
        self.joiners = ids.to_vec();
        self
    }

    /// Appends a reconfiguration step.
    pub fn reconfigure_at(mut self, at: SimTime, target: &[u64]) -> Self {
        self.script.push((at, target.to_vec()));
        self
    }

    /// Replaces the fault schedule, builder-style.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Schedules a permanent crash of whoever leads at `at` (the old
    /// `crash_leader_at` knob, now one [`simnet::FaultPlan`] event).
    pub fn crash_leader_at(mut self, at: SimTime) -> Self {
        self.faults = self.faults.crash_at(at, FaultTarget::CurrentLeader, None);
        self
    }

    /// Enables invariant checking, builder-style.
    pub fn checked(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Sets the run horizon.
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Pre-fills the application state.
    pub fn filler(mut self, keys: usize, bytes: usize) -> Self {
        self.filler = Some((keys, bytes));
        self
    }

    /// Overrides the link bandwidth (bytes/second).
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Serializes each sender's egress port, builder-style — with a
    /// finite [`Scenario::bandwidth`], concurrent sends queue behind one
    /// another and the cap becomes a throughput ceiling.
    pub fn egress_queueing(mut self) -> Self {
        self.egress_queueing = true;
        self
    }

    /// Caps the server↔server fabric at `bytes_per_sec` with serialized
    /// egress ports, builder-style. Client links keep the scenario
    /// default, so replies stay off the capped resource.
    pub fn fabric_cap(mut self, bytes_per_sec: u64) -> Self {
        self.fabric_cap = Some(bytes_per_sec);
        self
    }

    /// Switches to the WAN profile, builder-style.
    pub fn over_wan(mut self) -> Self {
        self.wan = true;
        self
    }

    /// Restricts the workload to hash shard `shard` of `groups`,
    /// builder-style.
    pub fn sharded_workload(mut self, shard: u32, groups: u32) -> Self {
        self.shard = Some((shard, groups));
        self
    }

    fn net(&self) -> NetConfig {
        let base = if self.wan {
            NetConfig::wan()
        } else {
            NetConfig::lan()
        };
        let base = match self.bandwidth {
            Some(bw) => base.with_bandwidth(Some(bw)),
            None => base,
        };
        base.with_egress_queueing(self.egress_queueing)
    }

    fn initial_state(&self) -> KvStore {
        match self.filler {
            Some((n, sz)) => KvStore::with_filler(n, sz),
            None => KvStore::new(),
        }
    }

    fn server_ids(&self) -> Vec<NodeId> {
        (0..self.n_servers).map(NodeId).collect()
    }

    fn client_ids(&self) -> Vec<NodeId> {
        (0..self.n_clients).map(|c| NodeId(100 + c)).collect()
    }

    fn gen_for(&self, client_idx: u64) -> WorkloadGen {
        let gen = WorkloadGen::new(
            self.seed ^ (0xC11E57 + client_idx),
            KeyDist::Uniform(self.keyspace),
            self.read_ratio,
            self.value_size,
        );
        match self.shard {
            Some((s, g)) => gen.for_shard(s, g),
            None => gen,
        }
    }

    fn admin_script(&self) -> Vec<(SimTime, Vec<NodeId>)> {
        self.script
            .iter()
            .map(|(at, ids)| (*at, ids.iter().map(|&i| NodeId(i)).collect()))
            .collect()
    }

    /// Server-side fault targets: genesis servers plus joiners, in id order.
    /// `FaultTarget::ServerIdx(k)` indexes into this pool.
    fn chaos_pool(&self) -> Vec<NodeId> {
        let mut pool = self.server_ids();
        pool.extend(self.joiners.iter().map(|&j| NodeId(j)));
        pool
    }

    /// Every node a partition or degradation window severs the target from.
    fn chaos_scope(&self) -> Vec<NodeId> {
        let mut scope = self.chaos_pool();
        scope.extend(self.client_ids());
        if !self.script.is_empty() {
            scope.push(ADMIN);
        }
        scope
    }
}

/// Resolves the system-independent fault targets (`Node`, `ServerIdx`,
/// `Joiner`); returns `None` for the role targets a runner must resolve
/// against its own actors.
pub(crate) fn resolve_common(
    pool: &[NodeId],
    joiners: &[NodeId],
    t: &FaultTarget,
) -> Option<Option<NodeId>> {
    match t {
        FaultTarget::Node(n) => Some(Some(*n)),
        FaultTarget::ServerIdx(k) => Some(pool.get((*k as usize) % pool.len().max(1)).copied()),
        FaultTarget::Joiner => Some(joiners.first().copied()),
        FaultTarget::CurrentLeader | FaultTarget::TransferDonor => None,
    }
}

pub(crate) const ADMIN: NodeId = NodeId(99);

/// The structured-event observers a runner installs when
/// `Scenario::record_events` is set: a stream digest plus the span
/// aggregator. `finish` hands their final state to [`RunOut`].
pub(crate) struct EventProbes {
    digest: Option<Rc<RefCell<EventDigest>>>,
    spans: Option<Rc<RefCell<Spans>>>,
    lifecycle: Option<Rc<RefCell<LifecycleCoverage>>>,
}

/// What the probes saw, for [`RunOut`].
pub(crate) struct ProbeOut {
    pub(crate) event_digest: u64,
    pub(crate) event_count: u64,
    pub(crate) digest_prefixes: Vec<(u64, u64)>,
    pub(crate) lifecycle_signature: u64,
    pub(crate) spans: Option<Spans>,
}

impl EventProbes {
    pub(crate) fn install<A: Actor>(sim: &mut Sim<A>, enabled: bool) -> Self {
        if !enabled {
            return EventProbes {
                digest: None,
                spans: None,
                lifecycle: None,
            };
        }
        let digest = shared(EventDigest::new());
        let spans = shared(Spans::new());
        let lifecycle = shared(LifecycleCoverage::new());
        sim.add_observer(digest.clone());
        sim.add_observer(spans.clone());
        sim.add_observer(lifecycle.clone());
        EventProbes {
            digest: Some(digest),
            spans: Some(spans),
            lifecycle: Some(lifecycle),
        }
    }

    pub(crate) fn finish(self) -> ProbeOut {
        match (self.digest, self.spans, self.lifecycle) {
            (Some(d), Some(s), Some(l)) => {
                let d = d.borrow();
                ProbeOut {
                    event_digest: d.value(),
                    event_count: d.count(),
                    digest_prefixes: d.prefix_digests().to_vec(),
                    lifecycle_signature: l.borrow().signature(),
                    spans: Some(s.borrow().clone()),
                }
            }
            _ => ProbeOut {
                event_digest: 0,
                event_count: 0,
                digest_prefixes: Vec::new(),
                lifecycle_signature: 0,
                spans: None,
            },
        }
    }
}

/// Installs a collecting [`InvariantObserver`] when the scenario asks for
/// one; the handle is drained into [`RunOut::invariant_violations`].
fn install_invariants<A: Actor>(
    sim: &mut Sim<A>,
    enabled: bool,
) -> Option<Rc<RefCell<InvariantObserver>>> {
    if !enabled {
        return None;
    }
    let inv = shared(InvariantObserver::new());
    sim.add_observer(inv.clone());
    Some(inv)
}

fn finish_invariants(inv: Option<Rc<RefCell<InvariantObserver>>>) -> Vec<String> {
    inv.map(|o| o.borrow().violations().to_vec())
        .unwrap_or_default()
}

/// Drains one finished simulation into a [`RunOut`]. The metrics sink is
/// moved out of the simulator rather than cloned — at the end of a long
/// run it holds every counter, timeline and histogram map, and the sim
/// is about to be dropped anyway.
#[allow(clippy::too_many_arguments)]
fn finish_run<A: Actor>(
    sim: &mut Sim<A>,
    sc: &Scenario,
    probes: EventProbes,
    inv: Option<Rc<RefCell<InvariantObserver>>>,
    chaos_log: Vec<(SimTime, String)>,
    completed: u64,
    admin: Vec<(SimTime, SimTime)>,
    histories: Vec<HistoryOp<KvOp, KvOutput>>,
) -> RunOut {
    let probe_out = probes.finish();
    RunOut {
        completed,
        metrics: sim.take_metrics(),
        admin,
        horizon: sc.horizon,
        histories,
        event_digest: probe_out.event_digest,
        event_count: probe_out.event_count,
        digest_prefixes: probe_out.digest_prefixes,
        lifecycle_signature: probe_out.lifecycle_signature,
        spans: probe_out.spans,
        invariant_violations: finish_invariants(inv),
        chaos_log,
    }
}

/// Everything extracted from one run.
pub struct RunOut {
    /// Total client completions.
    pub completed: u64,
    /// The full metrics sink of the run.
    pub metrics: Metrics,
    /// Admin reconfiguration results as `(started, finished)`.
    pub admin: Vec<(SimTime, SimTime)>,
    /// The run's horizon.
    pub horizon: SimTime,
    /// Client histories (empty unless `record_history`).
    pub histories: Vec<HistoryOp<KvOp, KvOutput>>,
    /// FNV-1a digest of the structured event stream (0 unless
    /// `record_events`).
    pub event_digest: u64,
    /// Number of structured events folded into `event_digest`.
    pub event_count: u64,
    /// `(event_count, digest)` checkpoints captured at power-of-two event
    /// counts — the coverage-guided sweep's prefix-coverage signal (empty
    /// unless `record_events`).
    pub digest_prefixes: Vec<(u64, u64)>,
    /// Lifecycle-interleaving signature bitmask (see
    /// [`simnet::LifecycleCoverage`]; 0 unless `record_events`).
    pub lifecycle_signature: u64,
    /// Span aggregation over the event stream (`None` unless
    /// `record_events`).
    pub spans: Option<Spans>,
    /// Safety violations collected by the [`InvariantObserver`] (empty
    /// unless `check_invariants`).
    pub invariant_violations: Vec<String>,
    /// The chaos driver's applied/skipped fault log (empty without faults).
    pub chaos_log: Vec<(SimTime, String)>,
}

impl RunOut {
    /// Client-observed latency quantile, microseconds. Exact at `q = 0`
    /// and `q = 1`; in between, within one [`simnet::LogHistogram`]
    /// sub-bucket (< 0.79%) below the true sample.
    pub fn latency_us(&self, q: f64) -> f64 {
        self.metrics
            .record_histogram("client.latency_us")
            .map_or(0.0, |h| h.quantile(q) as f64)
    }

    /// Completions per second of virtual time over `[from, to)`.
    pub fn throughput(&self, from: SimTime, to: SimTime) -> f64 {
        let Some(t) = self.metrics.timeline("client.completes") else {
            return 0.0;
        };
        let n: f64 = t
            .points()
            .iter()
            .filter(|(at, _)| *at >= from && *at < to)
            .map(|(_, v)| v)
            .sum();
        let span = to.since(from).as_secs_f64();
        if span > 0.0 {
            n / span
        } else {
            0.0
        }
    }

    /// Completes summed into `bin`-wide buckets over the whole run.
    pub fn completes_bins(&self, bin: SimDuration) -> Vec<f64> {
        self.metrics
            .timeline("client.completes")
            .map(|t| {
                t.binned(SimTime::ZERO, self.horizon, bin)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The longest run of empty `bin`-wide buckets within `[from, to)` —
    /// the service-interruption window, in milliseconds.
    pub fn longest_gap_ms(&self, from: SimTime, to: SimTime, bin: SimDuration) -> u64 {
        self.metrics
            .timeline("client.completes")
            .map(|t| t.longest_gap_bins(from, to, bin) as u64 * bin.as_millis())
            .unwrap_or(u64::MAX)
    }

    /// Time from `at` until the first client completion after `at`, in
    /// milliseconds — the service-recovery measure that stays meaningful
    /// even when the workload ends before the horizon.
    pub fn recovery_after_ms(&self, at: SimTime) -> Option<u64> {
        let t = self.metrics.timeline("client.completes")?;
        t.points()
            .iter()
            .find(|(when, _)| *when > at)
            .map(|(when, _)| when.since(at).as_millis())
    }

    /// Total protocol messages sent whose label starts with `prefix`.
    pub fn msgs_with_prefix(&self, prefix: &str) -> u64 {
        self.metrics
            .labels_with_prefix(prefix)
            .iter()
            .map(|(_, v)| v)
            .sum()
    }

    /// The first admin reconfiguration's latency, microseconds.
    pub fn reconfig_latency_us(&self) -> Option<u64> {
        self.admin.first().map(|(s, f)| f.since(*s).as_micros())
    }

    /// FNV-1a fingerprint of the run's entire metrics state. Two runs of
    /// the same scenario must produce equal fingerprints.
    pub fn metrics_fingerprint(&self) -> u64 {
        self.metrics.fingerprint()
    }
}

/// Runs `scenario` on `kind` and extracts the results.
pub fn run(kind: SystemKind, sc: &Scenario) -> RunOut {
    match kind {
        SystemKind::Static => run_static(sc),
        SystemKind::Rsmr => run_rsmr(sc, true, 0),
        SystemKind::RsmrNoSpec => run_rsmr(sc, false, 0),
        SystemKind::RsmrBatched => {
            // The batched composition defaults to in-core batching (64
            // commands/slot, 1ms flush deadline, 8-slot window) unless the
            // scenario pins its own points.
            let mut sc = sc.clone();
            if sc.batching.is_none() {
                sc.batching = Some((64, 1, 8));
            }
            run_rsmr(&sc, true, 0)
        }
        SystemKind::Stw => run_stw(sc),
        SystemKind::Raft => run_raft(sc),
    }
}

// ---------------------------------------------------------------------------
// Composed machine (speculation on/off)
// ---------------------------------------------------------------------------

/// Installs the scenario's fabric cap (if any): every pair of server and
/// joiner ids gets a link override with the capped bandwidth and a
/// serialized egress port. Client links are untouched.
fn apply_fabric_cap<A: simnet::Actor>(sim: &mut Sim<A>, sc: &Scenario) {
    let Some(bw) = sc.fabric_cap else { return };
    let cfg = sc.net().with_bandwidth(Some(bw)).with_egress_queueing(true);
    let mut ids = sc.server_ids();
    ids.extend(sc.joiners.iter().map(|&j| NodeId(j)));
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            sim.set_link(a, b, cfg.clone());
        }
    }
}

/// Pins the three links among the first three servers to the fixed delays
/// of the scenario's `delay_perm` (DPOR-flavoured delivery-order
/// exploration). A chaos window that later degrades one of these links
/// resets it to the default on heal — acceptable, since the permutation's
/// job is to diversify the pre-fault prefix.
fn apply_delay_perm<A: simnet::Actor>(sim: &mut Sim<A>, sc: &Scenario) {
    let Some(perm) = sc.delay_perm else { return };
    let ids = sc.server_ids();
    if ids.len() < 3 {
        return;
    }
    let delays = simnet::link_delay_permutation(perm);
    let pairs = [(ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2])];
    for (&(a, b), &d) in pairs.iter().zip(delays.iter()) {
        sim.set_link(a, b, sc.net().with_latency(LatencyModel::Fixed(d)));
    }
}

fn run_rsmr(sc: &Scenario, fast_handoff: bool, batch_size: usize) -> RunOut {
    let mut tun = RsmrTunables {
        fast_handoff,
        batch_size,
        local_reads: sc.local_reads,
        ..RsmrTunables::default()
    };
    if sc.local_reads {
        tun.paxos.lease_duration = Some(SimDuration::from_millis(100));
    }
    if let Some((max_batch, max_delay_ms, window)) = sc.batching {
        tun.paxos.max_batch = max_batch;
        tun.paxos.max_delay = SimDuration::from_millis(max_delay_ms);
        tun.paxos.window = window;
    }
    let mut sim: Sim<World<KvStore>> = Sim::new(sc.seed, sc.net());
    apply_fabric_cap(&mut sim, sc);
    apply_delay_perm(&mut sim, sc);
    let probes = EventProbes::install(&mut sim, sc.record_events);
    let inv = install_invariants(&mut sim, sc.check_invariants);
    let servers = sc.server_ids();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            World::server(RsmrNode::genesis_with(
                s,
                genesis.clone(),
                tun.clone(),
                sc.initial_state(),
            )),
        );
    }
    for &j in &sc.joiners {
        sim.add_node_with_id(
            NodeId(j),
            World::server(RsmrNode::joining(NodeId(j), tun.clone())),
        );
    }
    if !sc.script.is_empty() {
        sim.add_node_with_id(
            ADMIN,
            World::admin(AdminActor::new(servers.clone(), sc.admin_script())),
        );
    }
    let pool = sc.chaos_pool();
    let joiner_ids: Vec<NodeId> = sc.joiners.iter().map(|&j| NodeId(j)).collect();
    let rebuild_tun = tun.clone();
    let mut driver = ChaosDriver::new(
        &sc.faults,
        sc.chaos_scope(),
        sc.net(),
        |sim: &Sim<World<KvStore>>, t| {
            if let Some(r) = resolve_common(&pool, &joiner_ids, t) {
                return r;
            }
            let server = |s: NodeId| sim.actor(s).and_then(World::as_server);
            match t {
                FaultTarget::CurrentLeader => pool
                    .iter()
                    .copied()
                    .find(|&s| server(s).map(|n| n.is_active_leader()).unwrap_or(false)),
                FaultTarget::TransferDonor => pool
                    .iter()
                    .filter_map(|&s| server(s).and_then(|n| n.transfer_provider()))
                    .next(),
                _ => None,
            }
        },
        move |sim: &Sim<World<KvStore>>, n| {
            // A restart rebuilds the replica from its surviving stable
            // store; a node that never anchored re-enters as a joiner.
            World::server(
                RsmrNode::recover(n, rebuild_tun.clone(), sim.storage(n))
                    .unwrap_or_else(|| RsmrNode::joining(n, rebuild_tun.clone())),
            )
        },
    );
    driver.run_until(&mut sim, sc.client_start);
    for (i, &c) in sc.client_ids().iter().enumerate() {
        let mut client = RsmrClient::new(
            servers.clone(),
            sc.gen_for(i as u64).into_fn(),
            sc.ops_per_client,
        );
        if sc.record_history {
            client = client.with_history();
        }
        sim.add_node_with_id(c, World::client(client));
    }
    driver.run_until(&mut sim, sc.horizon);
    let chaos_log = driver.applied().to_vec();
    drop(driver);

    let mut histories = Vec::new();
    let mut completed = 0;
    for &c in &sc.client_ids() {
        if let Some(w) = sim.actor(c) {
            completed += w.completed();
            if let Some(cl) = w.as_client() {
                for (_s, op, out, invoke, response) in cl.history() {
                    histories.push(HistoryOp {
                        process: c.0,
                        invoke: *invoke,
                        response: *response,
                        input: op.clone(),
                        output: out.clone(),
                    });
                }
            }
        }
    }
    let admin = sim
        .actor(ADMIN)
        .and_then(World::as_admin)
        .map(|a| a.results().iter().map(|&(s, f, _)| (s, f)).collect())
        .unwrap_or_default();
    finish_run(
        &mut sim, sc, probes, inv, chaos_log, completed, admin, histories,
    )
}

// ---------------------------------------------------------------------------
// Stop-the-world baseline
// ---------------------------------------------------------------------------

fn run_stw(sc: &Scenario) -> RunOut {
    let mut tun = StwTunables::default();
    if let Some((max_batch, max_delay_ms, window)) = sc.batching {
        tun.paxos.max_batch = max_batch;
        tun.paxos.max_delay = SimDuration::from_millis(max_delay_ms);
        tun.paxos.window = window;
    }
    let mut sim: Sim<StwWorld<KvStore>> = Sim::new(sc.seed, sc.net());
    apply_fabric_cap(&mut sim, sc);
    apply_delay_perm(&mut sim, sc);
    let probes = EventProbes::install(&mut sim, sc.record_events);
    let inv = install_invariants(&mut sim, sc.check_invariants);
    let servers = sc.server_ids();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            StwWorld::Server(StwNode::genesis_with(
                s,
                genesis.clone(),
                tun.clone(),
                sc.initial_state(),
            )),
        );
    }
    for &j in &sc.joiners {
        sim.add_node_with_id(
            NodeId(j),
            StwWorld::Server(StwNode::joining(NodeId(j), tun.clone())),
        );
    }
    if !sc.script.is_empty() {
        sim.add_node_with_id(
            ADMIN,
            StwWorld::Admin(AdminActor::new(servers.clone(), sc.admin_script())),
        );
    }
    let pool = sc.chaos_pool();
    let joiner_ids: Vec<NodeId> = sc.joiners.iter().map(|&j| NodeId(j)).collect();
    let rebuild_tun = tun.clone();
    let mut driver = ChaosDriver::new(
        &sc.faults,
        sc.chaos_scope(),
        sc.net(),
        |sim: &Sim<StwWorld<KvStore>>, t| {
            if let Some(r) = resolve_common(&pool, &joiner_ids, t) {
                return r;
            }
            // Stop-the-world has no separate donor role: the sealing
            // leader ships the snapshot, so both roles resolve to it.
            pool.iter().copied().find(|&s| {
                sim.actor(s)
                    .and_then(StwWorld::as_server)
                    .map(|n| n.is_current_leader())
                    .unwrap_or(false)
            })
        },
        // `StwNode` keeps nothing in stable storage; a restarted replica
        // re-enters as a joiner and is re-seeded by the next epoch's
        // snapshot broadcast.
        move |_sim: &Sim<StwWorld<KvStore>>, n| {
            StwWorld::Server(StwNode::joining(n, rebuild_tun.clone()))
        },
    );
    driver.run_until(&mut sim, sc.client_start);
    for (i, &c) in sc.client_ids().iter().enumerate() {
        sim.add_node_with_id(
            c,
            StwWorld::Client(RsmrClient::new(
                servers.clone(),
                sc.gen_for(i as u64).into_fn(),
                sc.ops_per_client,
            )),
        );
    }
    driver.run_until(&mut sim, sc.horizon);
    let chaos_log = driver.applied().to_vec();
    drop(driver);

    let completed = sc
        .client_ids()
        .iter()
        .filter_map(|&c| sim.actor(c).map(StwWorld::completed))
        .sum();
    let admin = sim
        .actor(ADMIN)
        .and_then(StwWorld::as_admin)
        .map(|a| a.results().iter().map(|&(s, f, _)| (s, f)).collect())
        .unwrap_or_default();
    finish_run(
        &mut sim,
        sc,
        probes,
        inv,
        chaos_log,
        completed,
        admin,
        Vec::new(),
    )
}

// ---------------------------------------------------------------------------
// Raft baseline
// ---------------------------------------------------------------------------

fn run_raft(sc: &Scenario) -> RunOut {
    let mut tun = RaftTunables::default();
    if let Some((max_batch, _, _)) = sc.batching {
        tun.cmd_batch = max_batch;
    }
    let mut sim: Sim<RaftWorld<KvStore>> = Sim::new(sc.seed, sc.net());
    apply_fabric_cap(&mut sim, sc);
    apply_delay_perm(&mut sim, sc);
    let probes = EventProbes::install(&mut sim, sc.record_events);
    let inv = install_invariants(&mut sim, sc.check_invariants);
    let servers = sc.server_ids();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            RaftWorld::Server(RaftNode::with_state(
                s,
                genesis.clone(),
                tun.clone(),
                sc.initial_state(),
            )),
        );
    }
    for &j in &sc.joiners {
        sim.add_node_with_id(
            NodeId(j),
            RaftWorld::Server(RaftNode::joining(NodeId(j), tun.clone())),
        );
    }
    if !sc.script.is_empty() {
        sim.add_node_with_id(
            ADMIN,
            RaftWorld::Admin(RaftAdmin::new(servers.clone(), sc.admin_script())),
        );
    }
    let pool = sc.chaos_pool();
    let joiner_ids: Vec<NodeId> = sc.joiners.iter().map(|&j| NodeId(j)).collect();
    let rebuild_tun = tun.clone();
    let mut driver = ChaosDriver::new(
        &sc.faults,
        sc.chaos_scope(),
        sc.net(),
        |sim: &Sim<RaftWorld<KvStore>>, t| {
            if let Some(r) = resolve_common(&pool, &joiner_ids, t) {
                return r;
            }
            // Raft's snapshot donor *is* the leader, so both role targets
            // resolve to it.
            pool.iter().copied().find(|&s| {
                sim.actor(s)
                    .and_then(RaftWorld::as_server)
                    .map(|n| n.core().is_leader())
                    .unwrap_or(false)
            })
        },
        // A restarted replica recovers term, vote, snapshot and log from
        // its stable store, exactly as a real raft process restarts.
        move |sim: &Sim<RaftWorld<KvStore>>, n| {
            RaftWorld::Server(RaftNode::recover(n, rebuild_tun.clone(), sim.storage(n)))
        },
    );
    driver.run_until(&mut sim, sc.client_start);
    for (i, &c) in sc.client_ids().iter().enumerate() {
        let mut client = RaftClient::new(
            servers.clone(),
            sc.gen_for(i as u64).into_fn(),
            sc.ops_per_client,
        );
        if sc.record_history {
            client = client.with_history();
        }
        sim.add_node_with_id(c, RaftWorld::Client(client));
    }
    driver.run_until(&mut sim, sc.horizon);
    let chaos_log = driver.applied().to_vec();
    drop(driver);

    let mut histories = Vec::new();
    let mut completed = 0;
    for &c in &sc.client_ids() {
        if let Some(w) = sim.actor(c) {
            completed += w.completed();
            if let Some(cl) = w.as_client() {
                for (_s, op, out, invoke, response) in cl.history() {
                    histories.push(HistoryOp {
                        process: c.0,
                        invoke: *invoke,
                        response: *response,
                        input: op.clone(),
                        output: out.clone(),
                    });
                }
            }
        }
    }
    let admin = sim
        .actor(ADMIN)
        .and_then(RaftWorld::as_admin)
        .map(|a| a.results().to_vec())
        .unwrap_or_default();
    finish_run(
        &mut sim, sc, probes, inv, chaos_log, completed, admin, histories,
    )
}

// ---------------------------------------------------------------------------
// Static building block (non-reconfigurable, E1/E7/E8 reference)
// ---------------------------------------------------------------------------

/// World actor for the static system. Unboxed like the other worlds:
/// one value per node, stored once in the sim's slot table.
#[allow(clippy::large_enum_variant)]
pub enum StaticWorld {
    /// A replica of the static block.
    Server(ReplicaActor<u64>),
    /// A closed-loop client.
    Client(SmrClient<u64>),
}

impl Actor for StaticWorld {
    type Msg = SmrMsg<u64>;
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            StaticWorld::Server(a) => a.on_start(ctx),
            StaticWorld::Client(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match self {
            StaticWorld::Server(a) => a.on_message(ctx, from, msg),
            StaticWorld::Client(a) => a.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer) {
        match self {
            StaticWorld::Server(a) => a.on_timer(ctx, timer),
            StaticWorld::Client(a) => a.on_timer(ctx, timer),
        }
    }
}

fn run_static(sc: &Scenario) -> RunOut {
    let mut sim: Sim<StaticWorld> = Sim::new(sc.seed, sc.net());
    apply_fabric_cap(&mut sim, sc);
    apply_delay_perm(&mut sim, sc);
    let probes = EventProbes::install(&mut sim, sc.record_events);
    let inv = install_invariants(&mut sim, sc.check_invariants);
    let servers = sc.server_ids();
    let cfg = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            StaticWorld::Server(ReplicaActor::new(s, cfg.clone(), PaxosTunables::default())),
        );
    }
    let pool = servers.clone();
    let rebuild_cfg = cfg.clone();
    let mut driver = ChaosDriver::new(
        &sc.faults,
        sc.chaos_scope(),
        sc.net(),
        |sim: &Sim<StaticWorld>, t| {
            if let Some(r) = resolve_common(&pool, &[], t) {
                return r;
            }
            // The static block has no reconfiguration, so there is no
            // donor; both role targets resolve to the paxos leader.
            pool.iter().copied().find(|&s| match sim.actor(s) {
                Some(StaticWorld::Server(a)) => a.core().is_leader(),
                _ => false,
            })
        },
        move |sim: &Sim<StaticWorld>, n| {
            StaticWorld::Server(ReplicaActor::recover(
                n,
                rebuild_cfg.clone(),
                PaxosTunables::default(),
                sim.storage(n),
            ))
        },
    );
    driver.run_until(&mut sim, sc.client_start);
    for &c in &sc.client_ids() {
        sim.add_node_with_id(
            c,
            StaticWorld::Client(SmrClient::new(
                servers.clone(),
                |i| i + 1,
                sc.ops_per_client,
            )),
        );
    }
    driver.run_until(&mut sim, sc.horizon);
    let chaos_log = driver.applied().to_vec();
    drop(driver);
    let completed = sc
        .client_ids()
        .iter()
        .filter_map(|&c| match sim.actor(c) {
            Some(StaticWorld::Client(cl)) => Some(cl.completed()),
            _ => None,
        })
        .sum();
    finish_run(
        &mut sim,
        sc,
        probes,
        inv,
        chaos_log,
        completed,
        Vec::new(),
        Vec::new(),
    )
}

/// Runs every `(kind, scenario)` job, fanning out across cores, and returns
/// the outputs **in input order**.
///
/// Each simulation is single-threaded and deterministic in its scenario, so
/// running jobs concurrently cannot change any individual result — the
/// parallelism is purely wall-clock. Worker threads claim jobs through an
/// atomic cursor (no per-thread job partitioning, so one slow scenario
/// doesn't strand the rest behind it).
pub fn run_many(jobs: Vec<(SystemKind, Scenario)>) -> Vec<RunOut> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = jobs.len();
    if n <= 1 {
        return jobs.into_iter().map(|(k, sc)| run(k, &sc)).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunOut>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((kind, sc)) = jobs.get(i) else { break };
                let out = run(*kind, sc);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("unpoisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_completes_a_small_scenario() {
        let sc = Scenario::new(1).clients(2).until(SimTime::from_secs(8));
        let sc = Scenario {
            ops_per_client: Some(50),
            ..sc
        };
        for kind in [
            SystemKind::Static,
            SystemKind::Rsmr,
            SystemKind::RsmrNoSpec,
            SystemKind::Stw,
            SystemKind::Raft,
        ] {
            let out = run(kind, &sc);
            assert_eq!(out.completed, 100, "{} failed to finish", kind.name());
        }
    }

    #[test]
    fn reconfiguration_scenarios_complete_on_all_reconfigurable_systems() {
        let sc = Scenario::new(2)
            .clients(2)
            .joiners(&[3])
            .reconfigure_at(SimTime::from_millis(400), &[0, 1, 2, 3])
            .until(SimTime::from_secs(20));
        let sc = Scenario {
            ops_per_client: Some(100),
            ..sc
        };
        for kind in SystemKind::reconfigurable() {
            let out = run(kind, &sc);
            assert_eq!(out.completed, 200, "{}", kind.name());
            assert_eq!(out.admin.len(), 1, "{}", kind.name());
            assert!(out.reconfig_latency_us().unwrap() > 0);
        }
    }

    #[test]
    fn run_out_helpers_produce_sane_numbers() {
        let sc = Scenario::new(3).clients(2).until(SimTime::from_secs(5));
        let out = run(SystemKind::Rsmr, &sc);
        assert!(out.completed > 100);
        assert!(out.throughput(SimTime::from_secs(1), SimTime::from_secs(5)) > 10.0);
        assert!(out.latency_us(0.5) > 0.0);
        assert!(out.latency_us(0.99) >= out.latency_us(0.5));
        assert!(out.msgs_with_prefix("paxos.") > 0);
        assert_eq!(
            out.longest_gap_ms(
                SimTime::from_secs(1),
                SimTime::from_secs(5),
                SimDuration::from_millis(100)
            ),
            0
        );
    }
}
