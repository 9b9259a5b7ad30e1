//! Clients of the composed machine: closed-loop, paced (open-loop style)
//! and the reconfiguration admin.

use std::collections::VecDeque;

use simnet::{Actor, Context, DomainEvent, NodeId, RetryBackoff, SimDuration, SimTime, Timer};

use crate::chain::Epoch;
use crate::messages::RsmrMsg;
use crate::state_machine::StateMachine;

/// Timer kinds shared by the client actors.
const TIMER_RETRANSMIT: u32 = 0;
const TIMER_PACE: u32 = 1;

/// Per-group completion timeline keys for sharded worlds, indexed by
/// group id. Metric names must be `&'static str`, so the supported group
/// count for per-shard client gap measurement is bounded by this table.
pub const GROUP_COMPLETES_KEYS: [&str; 8] = [
    "client.completes.g0",
    "client.completes.g1",
    "client.completes.g2",
    "client.completes.g3",
    "client.completes.g4",
    "client.completes.g5",
    "client.completes.g6",
    "client.completes.g7",
];

/// A closed-loop session client: one request in flight, sequential session
/// numbers, retransmission on timeout, redirect-following, and member-set
/// tracking across reconfigurations.
pub struct RsmrClient<S: StateMachine> {
    servers: Vec<NodeId>,
    target: NodeId,
    gen: Box<dyn FnMut(u64) -> S::Op>,
    next_seq: u64,
    inflight: Option<Inflight<S::Op>>,
    limit: Option<u64>,
    completed: u64,
    retransmit_after: SimDuration,
    backoff: RetryBackoff,
    last_output: Option<S::Output>,
    record_history: bool,
    history: Vec<HistoryEntry<S::Op, S::Output>>,
    /// When false (paced mode), a completion does not auto-issue the next
    /// request — the pacing wrapper admits them instead.
    auto_issue: bool,
    /// Extra timeline key completions are also pushed to (per-shard gap
    /// measurement in sharded worlds; see [`GROUP_COMPLETES_KEYS`]).
    completes_key: Option<&'static str>,
}

/// One completed operation, as observed at the client: `(seq, op, output,
/// invocation time, response time)`. Used by linearizability checking.
pub type HistoryEntry<O, R> = (u64, O, R, SimTime, SimTime);

struct Inflight<O> {
    seq: u64,
    op: O,
    sent_at: SimTime,
    first_sent_at: SimTime,
}

impl<S: StateMachine> RsmrClient<S> {
    /// Creates a client issuing operations from `gen`, completing at most
    /// `limit` requests (`None` = unbounded).
    pub fn new(
        servers: Vec<NodeId>,
        gen: impl FnMut(u64) -> S::Op + 'static,
        limit: Option<u64>,
    ) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        let target = servers[0];
        RsmrClient {
            servers,
            target,
            gen: Box::new(gen),
            next_seq: 0,
            inflight: None,
            limit,
            completed: 0,
            retransmit_after: SimDuration::from_millis(300),
            backoff: RetryBackoff::new(SimDuration::from_millis(300)),
            last_output: None,
            record_history: false,
            history: Vec::new(),
            auto_issue: true,
            completes_key: None,
        }
    }

    /// Also pushes every completion to `key` (in addition to the aggregate
    /// `client.completes` timeline), builder-style. Sharded harnesses pass a
    /// per-group key from [`GROUP_COMPLETES_KEYS`] so per-shard client gaps
    /// stay measurable after merging.
    pub fn with_completes_key(mut self, key: &'static str) -> Self {
        self.completes_key = Some(key);
        self
    }

    /// Enables per-operation history recording (for linearizability
    /// checking), builder-style.
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// The recorded history of completed operations (empty unless
    /// [`RsmrClient::with_history`] was used).
    pub fn history(&self) -> &[HistoryEntry<S::Op, S::Output>] {
        &self.history
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The output of the most recently completed request.
    pub fn last_output(&self) -> Option<&S::Output> {
        self.last_output.as_ref()
    }

    /// The servers this client currently knows about.
    pub fn known_servers(&self) -> &[NodeId] {
        &self.servers
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        if let Some(limit) = self.limit {
            if self.next_seq >= limit {
                return;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.backoff.reset();
        let op = (self.gen)(seq);
        self.inflight = Some(Inflight {
            seq,
            op: op.clone(),
            sent_at: ctx.now(),
            first_sent_at: ctx.now(),
        });
        // Fresh submission only — retransmits go through `resend` and do
        // not reopen the command's latency span.
        ctx.emit_event(DomainEvent::CmdSubmitted {
            client: ctx.node_id(),
            seq,
        });
        ctx.send(self.target, RsmrMsg::Request { seq, op });
    }

    fn rotate_target(&mut self) {
        let idx = self
            .servers
            .iter()
            .position(|&s| s == self.target)
            .unwrap_or(0);
        self.target = self.servers[(idx + 1) % self.servers.len()];
    }

    fn adopt_members(&mut self, members: &[NodeId]) {
        if !members.is_empty() && self.servers != members {
            self.servers = members.to_vec();
            if !self.servers.contains(&self.target) {
                self.target = self.servers[0];
            }
        }
    }

    fn resend(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        if let Some(inflight) = &mut self.inflight {
            inflight.sent_at = ctx.now();
            let msg = RsmrMsg::Request {
                seq: inflight.seq,
                op: inflight.op.clone(),
            };
            let target = self.target;
            ctx.send(target, msg);
        }
    }
}

impl<S: StateMachine> Actor for RsmrClient<S> {
    type Msg = RsmrMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.issue_next(ctx);
        ctx.set_timer(self.retransmit_after, TIMER_RETRANSMIT);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, _from: NodeId, msg: Self::Msg) {
        match msg {
            RsmrMsg::Reply {
                seq,
                output,
                members,
            } => {
                self.adopt_members(&members);
                let Some(inflight) = &self.inflight else {
                    return;
                };
                if seq != inflight.seq {
                    return; // stale duplicate reply
                }
                let latency = ctx.now().since(inflight.first_sent_at);
                ctx.metrics()
                    .record("client.latency_us", latency.as_micros());
                let now = ctx.now();
                ctx.metrics().timeline_push("client.completes", now, 1.0);
                if let Some(key) = self.completes_key {
                    ctx.metrics().timeline_push(key, now, 1.0);
                }
                if self.record_history {
                    self.history.push((
                        seq,
                        inflight.op.clone(),
                        output.clone(),
                        inflight.first_sent_at,
                        now,
                    ));
                }
                self.inflight = None;
                self.completed += 1;
                self.last_output = Some(output);
                if self.auto_issue {
                    self.issue_next(ctx);
                }
            }
            RsmrMsg::Redirect {
                seq,
                leader,
                members,
            } => {
                self.adopt_members(&members);
                let Some(inflight) = &self.inflight else {
                    return;
                };
                if seq != inflight.seq {
                    return;
                }
                match leader {
                    Some(l) if self.servers.contains(&l) => self.target = l,
                    _ => self.rotate_target(),
                }
                // A redirect is fresh routing information, not a timeout:
                // restart the backoff.
                self.backoff.reset();
                self.resend(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, _timer: Timer) {
        if let Some(inflight) = &self.inflight {
            let salt = ctx.node_id().0 ^ inflight.seq.rotate_left(20);
            if ctx.now().since(inflight.sent_at) >= self.backoff.current_delay(salt) {
                if self.backoff.record_attempt() {
                    ctx.metrics().incr("client.backoff_exhausted", 1);
                }
                self.rotate_target();
                ctx.metrics().incr("client.retransmits", 1);
                self.resend(ctx);
            }
        }
        ctx.set_timer(self.retransmit_after, TIMER_RETRANSMIT);
    }
}

/// A paced client: *intends* to issue one operation every `interval`
/// (open-loop arrivals) while respecting the one-outstanding-per-session
/// rule — overflow arrivals queue locally, and latency is measured from
/// the **intended** issue time, so coordinated omission during stalls (e.g.
/// a reconfiguration gap) is visible in the tail.
pub struct OpenLoopClient<S: StateMachine> {
    inner: RsmrClient<S>,
    interval: SimDuration,
    /// Intended issue times not yet admitted to the session.
    backlog: VecDeque<SimTime>,
    started: bool,
}

impl<S: StateMachine> OpenLoopClient<S> {
    /// Creates a paced client issuing `gen` operations every `interval`,
    /// stopping after `limit` completions (`None` = unbounded).
    pub fn new(
        servers: Vec<NodeId>,
        gen: impl FnMut(u64) -> S::Op + 'static,
        interval: SimDuration,
        limit: Option<u64>,
    ) -> Self {
        let mut inner = RsmrClient::new(servers, gen, limit);
        inner.auto_issue = false;
        OpenLoopClient {
            inner,
            interval,
            backlog: VecDeque::new(),
            started: false,
        }
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.completed()
    }

    /// See [`RsmrClient::with_completes_key`].
    pub fn with_completes_key(mut self, key: &'static str) -> Self {
        self.inner.completes_key = Some(key);
        self
    }

    /// See [`RsmrClient::with_history`]. Invocation timestamps are the
    /// *intended* issue times, so recorded latencies include any local
    /// queueing delay (coordinated-omission-safe).
    pub fn with_history(mut self) -> Self {
        self.inner = self.inner.with_history();
        self
    }

    /// See [`RsmrClient::history`].
    pub fn history(&self) -> &[HistoryEntry<S::Op, S::Output>] {
        self.inner.history()
    }

    fn admit(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        if self.inner.inflight.is_some() {
            return;
        }
        let Some(intended) = self.backlog.pop_front() else {
            return;
        };
        self.inner.issue_next(ctx);
        // Rewrite the latency origin to the intended issue time.
        if let Some(inflight) = &mut self.inner.inflight {
            inflight.first_sent_at = intended;
        }
    }
}

impl<S: StateMachine> Actor for OpenLoopClient<S> {
    type Msg = RsmrMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if !self.started {
            self.started = true;
        }
        ctx.set_timer(self.interval, TIMER_PACE);
        ctx.set_timer(self.inner.retransmit_after, TIMER_RETRANSMIT);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        self.inner.on_message(ctx, from, msg);
        self.admit(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer) {
        match timer.kind {
            TIMER_PACE => {
                if self
                    .inner
                    .limit
                    .map(|l| self.inner.next_seq < l)
                    .unwrap_or(true)
                {
                    self.backlog.push_back(ctx.now());
                    ctx.metrics().incr("client.arrivals", 1);
                }
                self.admit(ctx);
                ctx.set_timer(self.interval, TIMER_PACE);
            }
            _ => self.inner.on_timer(ctx, timer),
        }
    }
}

/// What the admin does next.
enum AdminPhase {
    /// Waiting to start step `idx` at the scheduled time.
    Waiting { idx: usize },
    /// Reconfiguration sent; waiting for the `ok` reply.
    Pending { idx: usize, started: SimTime },
    /// All steps done.
    Done,
}

/// Drives a scripted sequence of reconfigurations and records their
/// latencies: each step is `(at, members)` — at virtual time `at`,
/// reconfigure the machine to exactly `members`.
pub struct AdminActor<S: StateMachine> {
    servers: Vec<NodeId>,
    target: NodeId,
    script: Vec<(SimTime, Vec<NodeId>)>,
    phase: AdminPhase,
    retry: SimDuration,
    /// `(started, finished, resulting epoch)` per completed step.
    results: Vec<(SimTime, SimTime, Epoch)>,
    _marker: std::marker::PhantomData<S>,
}

impl<S: StateMachine> AdminActor<S> {
    /// Creates an admin executing `script` against `servers`.
    pub fn new(servers: Vec<NodeId>, script: Vec<(SimTime, Vec<NodeId>)>) -> Self {
        assert!(!servers.is_empty());
        let target = servers[0];
        AdminActor {
            servers,
            target,
            script,
            phase: AdminPhase::Waiting { idx: 0 },
            retry: SimDuration::from_millis(100),
            results: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Completed reconfigurations as `(started, finished, new_epoch)`.
    pub fn results(&self) -> &[(SimTime, SimTime, Epoch)] {
        &self.results
    }

    /// True once the whole script has executed.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, AdminPhase::Done)
    }

    fn rotate_target(&mut self) {
        let idx = self
            .servers
            .iter()
            .position(|&s| s == self.target)
            .unwrap_or(0);
        self.target = self.servers[(idx + 1) % self.servers.len()];
    }

    fn pump(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        if let AdminPhase::Waiting { idx } = self.phase {
            let Some((at, members)) = self.script.get(idx).cloned() else {
                self.phase = AdminPhase::Done;
                return;
            };
            if ctx.now() >= at {
                self.phase = AdminPhase::Pending {
                    idx,
                    started: ctx.now(),
                };
                ctx.send(self.target, RsmrMsg::Reconfigure { members });
            }
        }
    }
}

impl<S: StateMachine> Actor for AdminActor<S> {
    type Msg = RsmrMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.pump(ctx);
        ctx.set_timer(self.retry, TIMER_RETRANSMIT);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, _from: NodeId, msg: Self::Msg) {
        if let RsmrMsg::ReconfigureReply { epoch, ok, leader } = msg {
            let AdminPhase::Pending { idx, started } = self.phase else {
                return;
            };
            if ok {
                let finished = ctx.now();
                self.results.push((started, finished, epoch));
                ctx.metrics().record(
                    "admin.reconfig_latency_us",
                    finished.since(started).as_micros(),
                );
                // The member set changed: refresh our server list.
                if let Some((_, members)) = self.script.get(idx) {
                    if !members.is_empty() {
                        self.servers = members.clone();
                        self.target = self.servers[0];
                    }
                }
                self.phase = AdminPhase::Waiting { idx: idx + 1 };
                self.pump(ctx);
            } else {
                match leader {
                    Some(l) if self.servers.contains(&l) => self.target = l,
                    _ => self.rotate_target(),
                }
                // Re-send the refused step.
                if let Some((_, members)) = self.script.get(idx).cloned() {
                    ctx.send(self.target, RsmrMsg::Reconfigure { members });
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, _timer: Timer) {
        // Drive scheduled steps and retry a pending one that got lost.
        match self.phase {
            AdminPhase::Pending { idx, started } => {
                if ctx.now().since(started) >= self.retry * 4 {
                    self.rotate_target();
                    if let Some((_, members)) = self.script.get(idx).cloned() {
                        ctx.send(self.target, RsmrMsg::Reconfigure { members });
                    }
                    // Keep the original start time: retries are part of the
                    // reconfiguration latency.
                    self.phase = AdminPhase::Pending { idx, started };
                }
            }
            _ => self.pump(ctx),
        }
        ctx.set_timer(self.retry, TIMER_RETRANSMIT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_machine::CounterSm;

    #[test]
    fn client_tracks_member_updates() {
        let mut c: RsmrClient<CounterSm> = RsmrClient::new(vec![NodeId(1), NodeId(2)], |_| 1, None);
        assert_eq!(c.known_servers(), &[NodeId(1), NodeId(2)]);
        c.adopt_members(&[NodeId(2), NodeId(3)]);
        assert_eq!(c.known_servers(), &[NodeId(2), NodeId(3)]);
        // Target left the set → snapped to a member.
        assert!(c.known_servers().contains(&c.target));
        // Empty member lists are ignored.
        c.adopt_members(&[]);
        assert_eq!(c.known_servers(), &[NodeId(2), NodeId(3)]);
    }

    #[test]
    fn client_rotates_through_servers() {
        let mut c: RsmrClient<CounterSm> =
            RsmrClient::new(vec![NodeId(1), NodeId(2), NodeId(3)], |_| 1, None);
        assert_eq!(c.target, NodeId(1));
        c.rotate_target();
        assert_eq!(c.target, NodeId(2));
        c.rotate_target();
        c.rotate_target();
        assert_eq!(c.target, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn client_needs_servers() {
        let _: RsmrClient<CounterSm> = RsmrClient::new(vec![], |_| 1, None);
    }

    #[test]
    fn admin_script_is_sequenced() {
        let a: AdminActor<CounterSm> = AdminActor::new(
            vec![NodeId(1)],
            vec![(SimTime::from_secs(1), vec![NodeId(1), NodeId(2)])],
        );
        assert!(!a.is_done());
        assert!(a.results().is_empty());
    }
}
