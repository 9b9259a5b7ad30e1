//! The traced replica: `perfbench replica --trace-out FILE <rsmr-server
//! flags>`.
//!
//! It assembles what `rsmr_server::serve` assembles — `build_actor`,
//! `FileStorage::open(..).with_sync_window(..)`, `TcpTransport::bind` and
//! `NodeRuntime::new` — but wraps the actor, the storage backend and the
//! transport in delegating timers, and pumps `NodeRuntime::step` itself
//! so each step can be timed. No program code changes. Aggregates are
//! snapshotted every 100 ms and long callbacks are kept as spans, all in
//! memory; the lot is written to the trace file when stdin closes.
//!
//! Not assembled here: the HTTP endpoint and its telemetry pump, which
//! only serve scrapes.

use std::fmt::Write as _;
use std::io::{self, Read as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rsmr_server::{build_actor, ReplicaActor, ServerConfig};
use simnet::observe::shared;
use simnet::{
    Actor, Context, FileStorage, Message, NodeId, NodeRuntime, Registry, RuntimeConfig, Spans,
    StableStore, StorageBackend, TcpConfig, TcpTransport, Timer, Transport, TransportEvent,
    WallClock,
};

/// Callbacks (with their storage flush) and syncs at least this long are
/// kept as individual spans.
const LONG_SPAN_US: u64 = 1_000;
/// Aggregate snapshot cadence.
const SNAPSHOT_EVERY: Duration = Duration::from_millis(100);

/// Cumulative per-layer counters of one replica. Field order is the
/// trace file's `snap` line order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub step_us: u64,
    pub paxos_calls: u64,
    pub paxos_us: u64,
    pub rsmr_calls: u64,
    pub rsmr_us: u64,
    pub timer_calls: u64,
    pub timer_us: u64,
    pub timer_over_10ms: u64,
    pub apply_calls: u64,
    pub apply_us: u64,
    pub apply_bytes: u64,
    pub deletes: u64,
    pub sync_calls: u64,
    pub sync_us: u64,
    pub sync_over_10ms: u64,
    pub send_calls: u64,
    pub send_us: u64,
    pub send_bytes: u64,
    pub poll_us: u64,
    /// Longest timer callback since the previous snapshot.
    pub timer_max_us: u64,
    /// Longest sync since the previous snapshot.
    pub sync_max_us: u64,
}

impl Totals {
    const FIELDS: usize = 21;

    /// The values in `snap` line order; the maxima come last.
    pub fn to_array(self) -> [u64; Self::FIELDS] {
        [
            self.step_us,
            self.paxos_calls,
            self.paxos_us,
            self.rsmr_calls,
            self.rsmr_us,
            self.timer_calls,
            self.timer_us,
            self.timer_over_10ms,
            self.apply_calls,
            self.apply_us,
            self.apply_bytes,
            self.deletes,
            self.sync_calls,
            self.sync_us,
            self.sync_over_10ms,
            self.send_calls,
            self.send_us,
            self.send_bytes,
            self.poll_us,
            self.timer_max_us,
            self.sync_max_us,
        ]
    }

    /// Parses the values of a `snap` line.
    pub fn from_values(v: &[u64]) -> Option<Totals> {
        let v: [u64; Self::FIELDS] = v.try_into().ok()?;
        Some(Totals {
            step_us: v[0],
            paxos_calls: v[1],
            paxos_us: v[2],
            rsmr_calls: v[3],
            rsmr_us: v[4],
            timer_calls: v[5],
            timer_us: v[6],
            timer_over_10ms: v[7],
            apply_calls: v[8],
            apply_us: v[9],
            apply_bytes: v[10],
            deletes: v[11],
            sync_calls: v[12],
            sync_us: v[13],
            sync_over_10ms: v[14],
            send_calls: v[15],
            send_us: v[16],
            send_bytes: v[17],
            poll_us: v[18],
            timer_max_us: v[19],
            sync_max_us: v[20],
        })
    }
}

/// One replica callback and the storage flush and sends that followed it.
#[derive(Clone, Debug)]
struct CallbackSpan {
    label: &'static str,
    start: Instant,
    dur_us: u64,
    deletes: u64,
    flush_us: u64,
}

/// In-memory trace state shared by the wrappers of one replica.
struct Tracer {
    origin: (Instant, u64),
    totals: Totals,
    open: Option<CallbackSpan>,
    spans: Vec<CallbackSpan>,
    syncs: Vec<(Instant, u64)>,
    snapshots: Vec<(u64, Totals)>,
}

impl Tracer {
    fn new() -> Self {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock after 1970")
            .as_micros() as u64;
        Tracer {
            origin: (Instant::now(), unix),
            totals: Totals::default(),
            open: None,
            spans: Vec::new(),
            syncs: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    fn unix_us(&self, t: Instant) -> u64 {
        self.origin.1 + t.duration_since(self.origin.0).as_micros() as u64
    }

    /// Ends the callback span in progress, keeping it if it was long or
    /// deleted keys.
    fn close(&mut self) {
        if let Some(s) = self.open.take() {
            if s.dur_us + s.flush_us >= LONG_SPAN_US || s.deletes > 0 {
                self.spans.push(s);
            }
        }
    }

    fn callback(&mut self, label: &'static str, start: Instant, dur_us: u64, timer: bool) {
        self.close();
        let t = &mut self.totals;
        if timer {
            t.timer_calls += 1;
            t.timer_us += dur_us;
            t.timer_max_us = t.timer_max_us.max(dur_us);
            t.timer_over_10ms += u64::from(dur_us > 10_000);
        } else if label.starts_with("paxos.") {
            t.paxos_calls += 1;
            t.paxos_us += dur_us;
        } else {
            t.rsmr_calls += 1;
            t.rsmr_us += dur_us;
        }
        self.open = Some(CallbackSpan {
            label,
            start,
            dur_us,
            deletes: 0,
            flush_us: 0,
        });
    }

    fn snapshot(&mut self) {
        let now = self.unix_us(Instant::now());
        self.snapshots.push((now, self.totals));
        self.totals.timer_max_us = 0;
        self.totals.sync_max_us = 0;
    }
}

type Shared = Arc<Mutex<Tracer>>;

fn lock(t: &Shared) -> std::sync::MutexGuard<'_, Tracer> {
    t.lock().expect("a replica thread panicked while tracing")
}

fn micros(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

/// Times every actor callback (`core::node` + `consensus` handlers and
/// the `core::node` timers).
struct TimedActor<A> {
    inner: A,
    tracer: Shared,
}

impl<A: Actor> Actor for TimedActor<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, A::Msg>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        lock(&self.tracer).callback("start", t0, micros(t0), true);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, A::Msg>, from: NodeId, msg: A::Msg) {
        let label = msg.label();
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, msg);
        lock(&self.tracer).callback(label, t0, micros(t0), false);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, A::Msg>, timer: Timer) {
        let t0 = Instant::now();
        self.inner.on_timer(ctx, timer);
        lock(&self.tracer).callback("timer", t0, micros(t0), true);
    }
}

/// Times `StorageBackend` calls (`FileStorage`: WAL appends; compaction
/// runs inside `sync`).
struct TimedStorage<S> {
    inner: S,
    tracer: Shared,
}

impl<S: StorageBackend> StorageBackend for TimedStorage<S> {
    fn load(&mut self) -> io::Result<StableStore> {
        self.inner.load()
    }

    fn apply(&mut self, key: &str, value: Option<&[u8]>) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.apply(key, value);
        let us = micros(t0);
        let mut t = lock(&self.tracer);
        t.totals.apply_calls += 1;
        t.totals.apply_us += us;
        t.totals.apply_bytes += (key.len() + value.map_or(0, <[u8]>::len)) as u64;
        t.totals.deletes += u64::from(value.is_none());
        if let Some(s) = &mut t.open {
            s.flush_us += us;
            s.deletes += u64::from(value.is_none());
        }
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        let us = micros(t0);
        let mut t = lock(&self.tracer);
        t.totals.sync_calls += 1;
        t.totals.sync_us += us;
        t.totals.sync_max_us = t.totals.sync_max_us.max(us);
        t.totals.sync_over_10ms += u64::from(us > 10_000);
        if let Some(s) = &mut t.open {
            s.flush_us += us;
        }
        if us >= LONG_SPAN_US {
            t.syncs.push((t0, us));
        }
        r
    }
}

/// Times `Transport` calls: sends, and polls (which are mostly waiting).
struct TimedTransport<T> {
    inner: T,
    tracer: Shared,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, to: NodeId, payload: Vec<u8>) -> bool {
        let bytes = payload.len() as u64;
        let t0 = Instant::now();
        let r = self.inner.send(to, payload);
        let us = micros(t0);
        let mut t = lock(&self.tracer);
        t.totals.send_calls += 1;
        t.totals.send_us += us;
        t.totals.send_bytes += bytes;
        r
    }

    fn poll(&mut self, timeout: Duration) -> Option<TransportEvent> {
        lock(&self.tracer).close();
        let t0 = Instant::now();
        let r = self.inner.poll(timeout);
        lock(&self.tracer).totals.poll_us += micros(t0);
        r
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.local_addr()
    }
}

fn io_err(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e)
}

/// Entry point of `perfbench replica`.
pub fn main(args: &[String]) -> io::Result<()> {
    let (out, rest) = match args {
        [flag, path, rest @ ..] if flag == "--trace-out" => (PathBuf::from(path), rest),
        _ => {
            return Err(io_err(
                "usage: perfbench replica --trace-out FILE <rsmr-server flags>".into(),
            ))
        }
    };
    let cfg = ServerConfig::from_args(rest).map_err(io_err)?;
    cfg.validate().map_err(io_err)?;
    let dir = cfg
        .storage_dir
        .clone()
        .ok_or_else(|| io_err("the traced replica needs --storage-dir".into()))?;
    let me = NodeId(cfg.node_id);
    let registry = Registry::new();
    let tracer: Shared = Arc::new(Mutex::new(Tracer::new()));

    let mut backend = FileStorage::open(dir, cfg.fsync)?
        .with_sync_window(Duration::from_millis(cfg.fsync_window_ms))
        .with_telemetry(&registry);
    let store = backend.load()?;
    let (actor, _) = build_actor(&cfg, &store);
    let mut tcp = TcpConfig::new(me).telemetry(registry.clone());
    if let Some(addr) = cfg.listen_addr().map_err(io_err)? {
        tcp = tcp.listen(addr);
    }
    for (id, addr) in cfg.peer_addrs().map_err(io_err)? {
        tcp = tcp.peer(NodeId(id), addr);
    }
    let transport = TcpTransport::bind(tcp)?;
    let mut rt = NodeRuntime::new(
        me,
        TimedActor {
            inner: actor,
            tracer: Arc::clone(&tracer),
        },
        WallClock::new(),
        TimedTransport {
            inner: transport,
            tracer: Arc::clone(&tracer),
        },
        TimedStorage {
            inner: backend,
            tracer: Arc::clone(&tracer),
        },
        store,
        RuntimeConfig {
            seed: cfg.seed,
            ..RuntimeConfig::default()
        },
    );
    let spans = shared(Spans::new());
    rt.add_observer(spans.clone());

    // The orchestrator closes our stdin to stop us.
    let stop = Arc::new(AtomicBool::new(false));
    let stdin_watch = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _ = io::stdin().read_to_end(&mut Vec::new());
            stop.store(true, Ordering::SeqCst);
        })
    };
    let mut next_snapshot = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let t0 = Instant::now();
        rt.step(Duration::from_millis(5));
        let mut t = lock(&tracer);
        t.close();
        t.totals.step_us += micros(t0);
        if Instant::now() >= next_snapshot {
            t.snapshot();
            next_snapshot += SNAPSHOT_EVERY;
        }
    }
    lock(&tracer).snapshot();
    stdin_watch.join().expect("stdin watcher panicked");

    let text = render(&lock(&tracer), &spans.borrow(), rt.actor());
    std::fs::write(&out, text)?;
    rt.shutdown();
    Ok(())
}

/// The trace file: `snap`, `span`, `sync`, `epoch` and `members` lines.
fn render(t: &Tracer, spans: &Spans, actor: &TimedActor<ReplicaActor>) -> String {
    let mut out = String::new();
    for (at, totals) in &t.snapshots {
        let _ = write!(out, "snap {at}");
        for v in totals.to_array() {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    for s in &t.spans {
        let _ = writeln!(
            out,
            "span {} {} {} {} {}",
            s.label,
            t.unix_us(s.start),
            s.dur_us,
            s.deletes,
            s.flush_us
        );
    }
    for &(start, us) in &t.syncs {
        let _ = writeln!(out, "sync {} {us}", t.unix_us(start));
    }
    let opt =
        |d: Option<simnet::SimDuration>| d.map_or("-".to_owned(), |d| d.as_micros().to_string());
    for b in spans.epoch_breakdowns() {
        let _ = writeln!(
            out,
            "epoch {} {} {} {} {}",
            b.epoch,
            opt(b.seal_latency),
            opt(b.transfer_time),
            b.transfer_bytes,
            opt(b.handoff_gap)
        );
    }
    for (g, world) in actor.inner.entries() {
        let node = world.as_server();
        let anchored = node
            .and_then(|n| n.anchored_epoch())
            .map_or("-".to_owned(), |e| e.0.to_string());
        let members = node
            .and_then(|n| n.chain())
            .map(|c| {
                c.latest_config()
                    .members()
                    .iter()
                    .map(|m| m.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        let _ = writeln!(out, "members {} {anchored} {members}", g.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_round_trip_through_snap_values() {
        let t = Totals {
            step_us: 1,
            send_bytes: 18,
            sync_max_us: 21,
            ..Totals::default()
        };
        assert_eq!(Totals::from_values(&t.to_array()), Some(t));
        assert_eq!(Totals::from_values(&[1, 2]), None);
    }

    #[test]
    fn short_callbacks_without_deletes_are_not_kept() {
        let mut t = Tracer::new();
        let now = Instant::now();
        t.callback("paxos.accept", now, 10, false);
        t.callback("timer", now, 20_000, true);
        t.close();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.totals.paxos_calls, 1);
        assert_eq!(t.totals.timer_over_10ms, 1);
        assert_eq!(t.totals.timer_max_us, 20_000);
    }
}
