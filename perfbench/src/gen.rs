//! The load generator: one process, a few client threads, each thread one
//! client node hosting one `core::client` session per group over TCP.
//!
//! Sessions are the repository's own [`RsmrClient`] (closed loop) and
//! [`OpenLoopClient`] (open loop), wrapped in a thin [`Session`] actor
//! that only counts: which operations were due inside the measured
//! window, when each group first completed an operation, and which
//! operation was still in flight when the run stopped.

use std::cell::{Cell, RefCell};
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use kvstore::{KeyDist, KvOp, KvOutput, KvStore, WorkloadGen};
use rsmr_core::harness::World;
use rsmr_core::{AdminActor, HistoryEntry, OpenLoopClient, RsmrClient, RsmrMsg};
use simnet::{
    Actor, Clock, Context, GroupId, MemStorage, MultiGroup, NodeId, NodeRuntime, RuntimeConfig,
    SimDuration, SimTime, StableStore, TcpConfig, TcpTransport, Timer, WallClock,
};

use crate::stats::SessionWindow;

/// Node id of the admin that drives reconfigurations.
const ADMIN: u64 = 99;
/// Node id of the first client thread.
const CLIENT_BASE: u64 = 100;

type Msg = RsmrMsg<KvOp, KvOutput>;

/// What the generator runs.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Every replica as `(node id, address)`.
    pub servers: Vec<(u64, SocketAddr)>,
    /// Members of the genesis configuration.
    pub initial_members: Vec<u64>,
    /// Replication groups; every thread hosts one session per group.
    pub groups: u32,
    /// Client threads (one client node each).
    pub threads: u64,
    /// Share of reads.
    pub read_ratio: f64,
    /// Bytes per written value.
    pub value_size: usize,
    /// Keys, hash-partitioned over the groups.
    pub keyspace: usize,
    /// Workload seed: the only source of the generated operations.
    pub seed: u64,
    /// Open loop: operations due per second per session. `None` = closed
    /// loop.
    pub rate_per_session: Option<f64>,
}

/// Shared between the orchestrator and the generator threads. Times are
/// microseconds on the generator's wall clock.
pub struct Control {
    window_start: AtomicU64,
    window_end: AtomicU64,
    stop: AtomicBool,
    /// Per group: first completion time + 1 (0 = none yet).
    first_done: Vec<AtomicU64>,
    /// Per thread: every window operation of its sessions has completed.
    drained: Vec<AtomicBool>,
}

impl Control {
    fn window(&self) -> (u64, u64) {
        (
            self.window_start.load(Ordering::Relaxed),
            self.window_end.load(Ordering::Relaxed),
        )
    }
}

/// The counting wrapper around one session.
struct Session {
    inner: World<KvStore>,
    open_loop: bool,
    /// Operations issued so far (closed loop), bumped by the op source.
    issued: Rc<Cell<u64>>,
    /// The most recently issued operation.
    last_op: Rc<RefCell<Option<KvOp>>>,
    /// Arrivals so far (open loop), read from `client.arrivals`.
    arrivals: u64,
    at_start: Option<u64>,
    at_end: Option<u64>,
    group: usize,
    ctl: Arc<Control>,
}

impl Session {
    fn due(&self) -> u64 {
        if self.open_loop {
            self.arrivals
        } else {
            self.issued.get()
        }
    }

    /// Records how many operations were due before each window edge. Runs
    /// before the callback at `now`; every earlier callback ran before
    /// `now`, so the count is exact at the edge.
    fn mark(&mut self, now: SimTime) {
        let (start, end) = self.ctl.window();
        let now = now.as_micros();
        if self.at_start.is_none() && now >= start {
            self.at_start = Some(self.due());
        }
        if self.at_end.is_none() && now >= end {
            self.at_end = Some(self.due());
        }
    }

    fn around(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        f: impl FnOnce(&mut World<KvStore>, &mut Context<'_, Msg>),
    ) {
        let now = ctx.now();
        self.mark(now);
        let arrivals = ctx.metrics().counter("client.arrivals");
        f(&mut self.inner, ctx);
        self.arrivals += ctx.metrics().counter("client.arrivals") - arrivals;
        if self.inner.completed() > 0 {
            let cell = &self.ctl.first_done[self.group];
            if cell.load(Ordering::Relaxed) == 0 {
                cell.store(now.as_micros() + 1, Ordering::Relaxed);
            }
        }
    }

    fn history(&self) -> &[HistoryEntry<KvOp, KvOutput>] {
        self.inner
            .as_client()
            .map(|c| c.history())
            .or_else(|| self.inner.as_paced().map(|c| c.history()))
            .unwrap_or(&[])
    }
}

impl Actor for Session {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.around(ctx, |a, c| a.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.around(ctx, |a, c| a.on_message(c, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: Timer) {
        self.around(ctx, |a, c| a.on_timer(c, timer));
    }
}

/// One session's record of the run.
#[derive(Clone, Debug)]
pub struct SessionOut {
    /// A process id unique across the fleet, for the checker.
    pub process: u64,
    /// Window accounting.
    pub window: SessionWindow,
    /// Every completed operation.
    pub history: Vec<HistoryEntry<KvOp, KvOutput>>,
    /// The operation in flight when the run stopped, if any.
    pub pending: Option<KvOp>,
}

/// One admin-acknowledged reconfiguration.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    /// The group.
    pub group: u32,
    /// `Reconfigure` sent, generator clock µs.
    pub started: u64,
    /// Acknowledged, generator clock µs.
    pub finished: u64,
}

/// Everything the generator observed.
#[derive(Debug, Default)]
pub struct GenOut {
    /// Per session.
    pub sessions: Vec<SessionOut>,
    /// Admin acknowledgements.
    pub acks: Vec<Ack>,
    /// Client retransmissions inside the measured window.
    pub window_retransmits: u64,
}

struct ThreadOut {
    sessions: Vec<SessionOut>,
    window_retransmits: u64,
}

fn runtime<A: Actor<Msg = simnet::Grouped<Msg>>>(
    node: u64,
    actor: A,
    clock: WallClock,
    servers: &[(u64, SocketAddr)],
) -> io::Result<NodeRuntime<A>> {
    let mut tcp = TcpConfig::new(NodeId(node));
    for &(id, addr) in servers {
        tcp = tcp.peer(NodeId(id), addr);
    }
    Ok(NodeRuntime::new(
        NodeId(node),
        actor,
        clock,
        TcpTransport::bind(tcp)?,
        MemStorage,
        StableStore::new(),
        RuntimeConfig {
            seed: node,
            ..RuntimeConfig::default()
        },
    ))
}

fn client_actor(cfg: &GenConfig, thread: u64, ctl: &Arc<Control>) -> MultiGroup<Session> {
    let members: Vec<NodeId> = cfg.initial_members.iter().map(|&n| NodeId(n)).collect();
    let mut mg = MultiGroup::sealed();
    for group in 0..cfg.groups {
        let process = thread * u64::from(cfg.groups) + u64::from(group);
        let mut gen = WorkloadGen::new(
            cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (process + 1),
            KeyDist::Uniform(cfg.keyspace),
            cfg.read_ratio,
            cfg.value_size,
        )
        .for_shard(group, cfg.groups);
        let issued = Rc::new(Cell::new(0));
        let last_op = Rc::new(RefCell::new(None));
        let (issued_in, last_in) = (Rc::clone(&issued), Rc::clone(&last_op));
        // The generator stamps only the sequence number into a value;
        // adding the session makes every written value unique, so the
        // checker can tell writers apart.
        let source = move |seq: u64| {
            let mut op = gen.next_op(seq);
            if let KvOp::Put(_, v) = &mut op {
                let tag = process.to_le_bytes();
                let n = v.len().saturating_sub(8).min(8);
                v[8..8 + n].copy_from_slice(&tag[..n]);
            }
            issued_in.set(issued_in.get() + 1);
            *last_in.borrow_mut() = Some(op.clone());
            op
        };
        let inner = match cfg.rate_per_session {
            Some(rate) => {
                let interval = SimDuration::from_micros((1e6 / rate) as u64);
                World::paced(
                    OpenLoopClient::new(members.clone(), source, interval, None).with_history(),
                )
            }
            None => World::client(RsmrClient::new(members.clone(), source, None).with_history()),
        };
        mg.insert(
            GroupId(group),
            Session {
                inner,
                open_loop: cfg.rate_per_session.is_some(),
                issued,
                last_op,
                arrivals: 0,
                at_start: None,
                at_end: None,
                group: group as usize,
                ctl: Arc::clone(ctl),
            },
        );
    }
    mg
}

fn client_thread(
    cfg: GenConfig,
    thread: u64,
    clock: WallClock,
    ctl: Arc<Control>,
) -> io::Result<ThreadOut> {
    let actor = client_actor(&cfg, thread, &ctl);
    let mut rt = runtime(CLIENT_BASE + thread, actor, clock, &cfg.servers)?;
    rt.start();
    let (mut rt_start, mut rt_end) = (None, None);
    while !ctl.stop.load(Ordering::SeqCst) {
        rt.run_for(Duration::from_millis(10));
        let (start, end) = ctl.window();
        let now = rt.now().as_micros();
        let retransmits = rt.metrics().counter("client.retransmits");
        if rt_start.is_none() && now >= start {
            rt_start = Some(retransmits);
        }
        if now >= end {
            rt_end.get_or_insert(retransmits);
            let drained = rt
                .actor()
                .entries()
                .all(|(_, s)| s.at_end.is_some_and(|due| s.inner.completed() >= due));
            if drained {
                ctl.drained[thread as usize].store(true, Ordering::SeqCst);
            }
        }
    }
    let window_retransmits = rt_end.unwrap_or(0).saturating_sub(rt_start.unwrap_or(0));
    let actor = rt.shutdown();
    let sessions = actor
        .entries()
        .map(|(g, s)| {
            let history = s.history().to_vec();
            let completed = s.inner.completed();
            let pending = (s.issued.get() > completed)
                .then(|| s.last_op.borrow().clone())
                .flatten();
            SessionOut {
                process: thread * u64::from(cfg.groups) + u64::from(g.0),
                window: SessionWindow {
                    first: s.at_start.unwrap_or(0),
                    end: s.at_end.unwrap_or(0),
                    completed,
                },
                history,
                pending,
            }
        })
        .collect();
    Ok(ThreadOut {
        sessions,
        window_retransmits,
    })
}

fn admin_thread(
    cfg: GenConfig,
    script: Vec<(u64, Vec<u64>)>,
    clock: WallClock,
    ctl: Arc<Control>,
) -> io::Result<Vec<Ack>> {
    let members: Vec<NodeId> = cfg.initial_members.iter().map(|&n| NodeId(n)).collect();
    let script: Vec<(SimTime, Vec<NodeId>)> = script
        .into_iter()
        .map(|(at, m)| {
            (
                SimTime::from_micros(at),
                m.into_iter().map(NodeId).collect(),
            )
        })
        .collect();
    let mut mg = MultiGroup::sealed();
    for g in 0..cfg.groups {
        mg.insert(
            GroupId(g),
            World::admin(AdminActor::<KvStore>::new(members.clone(), script.clone())),
        );
    }
    let mut rt = runtime(ADMIN, mg, clock, &cfg.servers)?;
    rt.start();
    while !ctl.stop.load(Ordering::SeqCst) {
        rt.run_for(Duration::from_millis(10));
    }
    let actor = rt.shutdown();
    let mut acks = Vec::new();
    for (g, w) in actor.entries() {
        for &(started, finished, _) in w.as_admin().map(|a| a.results()).unwrap_or(&[]) {
            acks.push(Ack {
                group: g.0,
                started: started.as_micros(),
                finished: finished.as_micros(),
            });
        }
    }
    Ok(acks)
}

/// A running generator.
pub struct Generator {
    cfg: GenConfig,
    clock: WallClock,
    ctl: Arc<Control>,
    clients: Vec<JoinHandle<io::Result<ThreadOut>>>,
    admin: Option<JoinHandle<io::Result<Vec<Ack>>>>,
}

impl Generator {
    /// Starts the client threads on `clock`. The window is unset until
    /// [`Generator::open_window`].
    pub fn start(cfg: &GenConfig, clock: WallClock) -> Generator {
        let ctl = Arc::new(Control {
            window_start: AtomicU64::new(u64::MAX),
            window_end: AtomicU64::new(u64::MAX),
            stop: AtomicBool::new(false),
            first_done: (0..cfg.groups).map(|_| AtomicU64::new(0)).collect(),
            drained: (0..cfg.threads).map(|_| AtomicBool::new(false)).collect(),
        });
        let clients = (0..cfg.threads)
            .map(|t| {
                let (cfg, ctl) = (cfg.clone(), Arc::clone(&ctl));
                thread::spawn(move || client_thread(cfg, t, clock, ctl))
            })
            .collect();
        Generator {
            cfg: cfg.clone(),
            clock,
            ctl,
            clients,
            admin: None,
        }
    }

    /// Now on the generator's clock, µs.
    pub fn now(&self) -> u64 {
        self.clock.now().as_micros()
    }

    /// When every group had completed its first operation, µs on the
    /// generator's clock; `None` while some group has not.
    pub fn first_completion_everywhere(&self) -> Option<u64> {
        let mut last = 0;
        for cell in &self.ctl.first_done {
            match cell.load(Ordering::Relaxed) {
                0 => return None,
                t => last = last.max(t - 1),
            }
        }
        Some(last)
    }

    /// Fixes the measured window and starts the admin on `script`
    /// (`(at µs, members)` steps, every group).
    pub fn open_window(&mut self, start: u64, end: u64, script: Vec<(u64, Vec<u64>)>) {
        self.ctl.window_start.store(start, Ordering::Relaxed);
        self.ctl.window_end.store(end, Ordering::Relaxed);
        if !script.is_empty() {
            let (cfg, ctl, clock) = (self.cfg.clone(), Arc::clone(&self.ctl), self.clock);
            self.admin = Some(thread::spawn(move || admin_thread(cfg, script, clock, ctl)));
        }
    }

    /// Every operation due inside the window has completed.
    pub fn drained(&self) -> bool {
        self.ctl.drained.iter().all(|d| d.load(Ordering::SeqCst))
    }

    /// Stops every thread, waits for each, and collects what they saw.
    pub fn finish(self) -> io::Result<GenOut> {
        self.ctl.stop.store(true, Ordering::SeqCst);
        let mut out = GenOut::default();
        let mut first_err = None;
        for h in self.clients {
            match h.join().expect("client thread panicked") {
                Ok(t) => {
                    out.sessions.extend(t.sessions);
                    out.window_retransmits += t.window_retransmits;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(h) = self.admin {
            match h.join().expect("admin thread panicked") {
                Ok(acks) => out.acks = acks,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}
