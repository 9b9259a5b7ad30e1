//! Structured event stream: typed simulation + domain events, the observer
//! API, and built-in consumers (digest, log, span aggregation).
//!
//! The simulator already exposes *aggregate* observability (counters,
//! histograms, timelines in [`crate::Metrics`]). This module adds the
//! second leg: a **typed event stream**. The [`crate::Sim`] emits a
//! [`SimEvent`] for every transport action (send, deliver, drop, timer
//! fire, crash, restart), and protocol
//! actors emit [`DomainEvent`]s through [`crate::Context::emit_event`] at
//! phase boundaries (epoch sealed, transfer served, command applied, ...).
//!
//! Consumers implement [`Observer`] and are installed with
//! [`crate::Sim::add_observer`]. With no observer installed the whole
//! machinery costs **one branch per would-be event**: events are built
//! inside a closure that [`EventBus::emit_with`] never calls when the
//! observer list is empty.
//!
//! Determinism: events are emitted synchronously from the single-threaded
//! simulation loop, so for a fixed seed the stream — and therefore
//! [`EventDigest`] — is exactly reproducible, regardless of how many sims
//! run on sibling threads.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::sim::NodeId;
use crate::time::{SimDuration, SimTime};

/// Why a message never reached its destination.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Random loss on the link (the network model's `loss_rate`).
    Loss,
    /// The link is explicitly partitioned.
    Partitioned,
    /// The destination exists but is crashed.
    DestDown,
    /// The destination id has no slot in the simulation.
    DestUnknown,
    /// The message was corrupted in flight and rejected by the integrity
    /// layer (frame CRC). In the simulation messages are typed values, so
    /// a *detected* corruption is modelled exactly as what the real stack
    /// does with it: the frame is discarded, never applied.
    Corrupted,
}

impl DropReason {
    fn discriminant(self) -> u8 {
        match self {
            DropReason::Loss => 0,
            DropReason::Partitioned => 1,
            DropReason::DestDown => 2,
            DropReason::DestUnknown => 3,
            DropReason::Corrupted => 4,
        }
    }

    /// Stable lower-case name, used in rendered event logs.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Partitioned => "partitioned",
            DropReason::DestDown => "dest_down",
            DropReason::DestUnknown => "dest_unknown",
            DropReason::Corrupted => "corrupted",
        }
    }
}

/// A protocol-level event emitted by an actor via
/// [`crate::Context::emit_event`].
///
/// The vocabulary is deliberately protocol-agnostic — epochs and slots are
/// plain integers — so one observer (e.g. an invariant checker or the
/// [`Spans`] aggregator) works across every replication system in the
/// workspace. Events mark the *boundaries* of the two span families the
/// experiments care about:
///
/// * **reconfiguration spans**: `ReconfigProposed → EpochSealed →
///   TransferRequested → TransferServed → Anchored → FirstCommit`;
/// * **command spans**: `CmdSubmitted → CmdProposed → CmdCommitted →
///   CmdApplied`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DomainEvent {
    /// A `Reconfigure` command was accepted into epoch `epoch`'s log
    /// (beginning the close of that epoch).
    ReconfigProposed {
        /// The epoch being closed.
        epoch: u64,
    },
    /// Epoch `epoch` is sealed: its log ends at `seal_slot` and no command
    /// may commit past it.
    EpochSealed {
        /// The sealed epoch.
        epoch: u64,
        /// The slot of the epoch-closing command.
        seal_slot: u64,
    },
    /// A node asked `provider` for the base state of successor epoch
    /// `epoch`.
    TransferRequested {
        /// The epoch whose base state is requested.
        epoch: u64,
        /// The node the request was sent to.
        provider: NodeId,
    },
    /// A node served the base state of epoch `epoch` to `to`.
    TransferServed {
        /// The epoch whose base state was served.
        epoch: u64,
        /// The requesting node.
        to: NodeId,
        /// Encoded base-state size.
        bytes: u64,
    },
    /// The emitting node anchored at epoch `epoch` (it holds the base state
    /// and may apply that epoch's log).
    Anchored {
        /// The newly anchored epoch.
        epoch: u64,
    },
    /// First application command applied in epoch `epoch` on the emitting
    /// node — the end of the handoff gap that began at the predecessor's
    /// seal.
    FirstCommit {
        /// The epoch that just produced its first commit.
        epoch: u64,
        /// The slot of that first applied command.
        slot: u64,
    },
    /// A client submitted a fresh command (retransmits are not re-emitted).
    CmdSubmitted {
        /// The submitting client.
        client: NodeId,
        /// The client's session sequence number.
        seq: u64,
    },
    /// A leader proposed a command (or batch) at `(epoch, slot)`.
    CmdProposed {
        /// The epoch whose log the proposal targets.
        epoch: u64,
        /// The proposed slot.
        slot: u64,
    },
    /// Consensus committed the command at `(epoch, slot)` on the emitting
    /// node.
    CmdCommitted {
        /// The epoch of the committed slot.
        epoch: u64,
        /// The committed slot.
        slot: u64,
    },
    /// The command `(client, seq)` was applied to the state machine at
    /// `(epoch, slot)` on the emitting node.
    CmdApplied {
        /// The submitting client (session id).
        client: NodeId,
        /// The client's session sequence number.
        seq: u64,
        /// The epoch of the applied slot.
        epoch: u64,
        /// The applied slot.
        slot: u64,
    },
}

/// One typed event in the simulation's event stream.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SimEvent {
    /// A message entered the network.
    MsgSent {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// The message's static label.
        label: &'static str,
        /// The message's `size_hint` in bytes.
        bytes: u64,
    },
    /// A message reached its destination actor.
    MsgDelivered {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// The message's static label.
        label: &'static str,
    },
    /// A message was lost — at send time (loss, partition) or delivery time
    /// (crashed or unknown destination).
    MsgDropped {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// The message's static label.
        label: &'static str,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A live timer fired on `node`.
    TimerFired {
        /// The node whose timer fired.
        node: NodeId,
        /// The protocol-chosen timer discriminant.
        kind: u32,
    },
    /// `node` crashed (volatile state lost).
    Crashed {
        /// The crashed node.
        node: NodeId,
    },
    /// `node` restarted.
    Restarted {
        /// The restarted node.
        node: NodeId,
    },
    /// A protocol-level event emitted by `node`.
    Domain {
        /// The emitting node.
        node: NodeId,
        /// The protocol event.
        event: DomainEvent,
    },
}

/// A consumer of the typed event stream.
///
/// Observers run synchronously inside the simulation loop, in installation
/// order. They must not mutate the simulation (they only see `&SimEvent`),
/// so they cannot break determinism.
pub trait Observer {
    /// Called once per event, with the virtual time at which it occurred.
    fn on_event(&mut self, at: SimTime, ev: &SimEvent);
}

/// Shared-handle observers: tests install `Rc<RefCell<T>>` so they can keep
/// a handle and inspect the observer after the run.
impl<T: Observer> Observer for Rc<RefCell<T>> {
    fn on_event(&mut self, at: SimTime, ev: &SimEvent) {
        self.borrow_mut().on_event(at, ev);
    }
}

/// Wraps an observer in a shared handle suitable for
/// [`crate::Sim::add_observer`] while retaining access to it.
pub fn shared<T: Observer>(obs: T) -> Rc<RefCell<T>> {
    Rc::new(RefCell::new(obs))
}

/// The simulation's fan-out point for [`SimEvent`]s.
///
/// Owned by [`crate::Sim`]; actors reach it through their [`crate::Context`].
/// With no observers installed, [`EventBus::emit_with`] is a single branch —
/// the event closure is never invoked.
#[derive(Default)]
pub struct EventBus {
    observers: Vec<Box<dyn Observer>>,
}

impl EventBus {
    pub(crate) fn new() -> Self {
        EventBus::default()
    }

    pub(crate) fn add(&mut self, obs: impl Observer + 'static) {
        self.observers.push(Box::new(obs));
    }

    /// True when at least one observer is installed. Actors can use this
    /// (via [`crate::Context::observed`]) to skip expensive event
    /// *preparation*; event *construction* is already skipped by
    /// [`EventBus::emit_with`].
    #[inline]
    pub fn is_active(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Builds the event with `make` and fans it out — only if at least one
    /// observer is installed.
    #[inline]
    pub fn emit_with(&mut self, at: SimTime, make: impl FnOnce() -> SimEvent) {
        if self.observers.is_empty() {
            return;
        }
        let ev = make();
        for obs in &mut self.observers {
            obs.on_event(at, &ev);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An order-sensitive FNV-1a digest of the event stream.
///
/// Two runs with the same seed must produce the same digest — this is the
/// event-stream analogue of [`crate::Metrics::fingerprint`], and the run
/// digest the determinism tests compare across same-seed runs and between
/// the serial and parallel experiment drivers.
#[derive(Clone, Debug)]
pub struct EventDigest {
    hash: u64,
    count: u64,
    /// Digest values captured at power-of-two event counts — the
    /// coverage-guided chaos sweep's notion of "which execution prefixes
    /// has this run visited" (see `chaos`).
    prefixes: Vec<(u64, u64)>,
}

impl Default for EventDigest {
    fn default() -> Self {
        EventDigest {
            hash: FNV_OFFSET,
            count: 0,
            prefixes: Vec::new(),
        }
    }
}

impl EventDigest {
    /// A fresh digest.
    pub fn new() -> Self {
        EventDigest::default()
    }

    /// The digest value so far.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// How many events have been folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Checkpointed `(event_count, digest)` pairs, captured whenever the
    /// event count crosses a power of two. Two runs share a prefix
    /// checkpoint exactly when their first `count` events hashed
    /// identically, so the set of distinct pairs across a sweep measures
    /// how many genuinely different execution prefixes were explored.
    pub fn prefix_digests(&self) -> &[(u64, u64)] {
        &self.prefixes
    }

    fn fold_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    fn fold_u64(&mut self, v: u64) {
        self.fold_bytes(&v.to_le_bytes());
    }
}

impl Observer for EventDigest {
    fn on_event(&mut self, at: SimTime, ev: &SimEvent) {
        self.count += 1;
        self.fold_u64(at.as_micros());
        if self.count.is_power_of_two() {
            self.prefixes.push((self.count, self.hash));
        }
        match *ev {
            SimEvent::MsgSent {
                from,
                to,
                label,
                bytes,
            } => {
                self.fold_u64(1);
                self.fold_u64(from.0);
                self.fold_u64(to.0);
                self.fold_bytes(label.as_bytes());
                self.fold_u64(bytes);
            }
            SimEvent::MsgDelivered { from, to, label } => {
                self.fold_u64(2);
                self.fold_u64(from.0);
                self.fold_u64(to.0);
                self.fold_bytes(label.as_bytes());
            }
            SimEvent::MsgDropped {
                from,
                to,
                label,
                reason,
            } => {
                self.fold_u64(3);
                self.fold_u64(from.0);
                self.fold_u64(to.0);
                self.fold_bytes(label.as_bytes());
                self.fold_u64(reason.discriminant() as u64);
            }
            SimEvent::TimerFired { node, kind } => {
                self.fold_u64(4);
                self.fold_u64(node.0);
                self.fold_u64(kind as u64);
            }
            SimEvent::Crashed { node } => {
                self.fold_u64(5);
                self.fold_u64(node.0);
            }
            SimEvent::Restarted { node } => {
                self.fold_u64(6);
                self.fold_u64(node.0);
            }
            SimEvent::Domain { node, event } => {
                self.fold_u64(7);
                self.fold_u64(node.0);
                match event {
                    DomainEvent::ReconfigProposed { epoch } => {
                        self.fold_u64(10);
                        self.fold_u64(epoch);
                    }
                    DomainEvent::EpochSealed { epoch, seal_slot } => {
                        self.fold_u64(11);
                        self.fold_u64(epoch);
                        self.fold_u64(seal_slot);
                    }
                    DomainEvent::TransferRequested { epoch, provider } => {
                        self.fold_u64(12);
                        self.fold_u64(epoch);
                        self.fold_u64(provider.0);
                    }
                    DomainEvent::TransferServed { epoch, to, bytes } => {
                        self.fold_u64(13);
                        self.fold_u64(epoch);
                        self.fold_u64(to.0);
                        self.fold_u64(bytes);
                    }
                    DomainEvent::Anchored { epoch } => {
                        self.fold_u64(14);
                        self.fold_u64(epoch);
                    }
                    DomainEvent::FirstCommit { epoch, slot } => {
                        self.fold_u64(15);
                        self.fold_u64(epoch);
                        self.fold_u64(slot);
                    }
                    DomainEvent::CmdSubmitted { client, seq } => {
                        self.fold_u64(16);
                        self.fold_u64(client.0);
                        self.fold_u64(seq);
                    }
                    DomainEvent::CmdProposed { epoch, slot } => {
                        self.fold_u64(17);
                        self.fold_u64(epoch);
                        self.fold_u64(slot);
                    }
                    DomainEvent::CmdCommitted { epoch, slot } => {
                        self.fold_u64(18);
                        self.fold_u64(epoch);
                        self.fold_u64(slot);
                    }
                    DomainEvent::CmdApplied {
                        client,
                        seq,
                        epoch,
                        slot,
                    } => {
                        self.fold_u64(19);
                        self.fold_u64(client.0);
                        self.fold_u64(seq);
                        self.fold_u64(epoch);
                        self.fold_u64(slot);
                    }
                }
            }
        }
    }
}

/// Retains every event with its timestamp — the heavyweight debugging
/// observer. Unbounded; intended for tests and short runs.
#[derive(Default)]
pub struct EventLog {
    events: Vec<(SimTime, SimEvent)>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[(SimTime, SimEvent)] {
        &self.events
    }

    /// Only the domain events, with emitting node and time.
    pub fn domain_events(&self) -> Vec<(SimTime, NodeId, DomainEvent)> {
        self.events
            .iter()
            .filter_map(|&(at, ev)| match ev {
                SimEvent::Domain { node, event } => Some((at, node, event)),
                _ => None,
            })
            .collect()
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, at: SimTime, ev: &SimEvent) {
        self.events.push((at, *ev));
    }
}

/// The observable phases of one reconfiguration, keyed by the **successor**
/// epoch it creates.
///
/// All timestamps are first occurrences across the whole cluster (the seal
/// is a log fact, so every node seals the same epoch at the same slot; we
/// take the earliest observation).
#[derive(Copy, Clone, Debug, Default)]
pub struct EpochSpan {
    /// `Reconfigure` accepted into the predecessor's log.
    pub proposed_at: Option<SimTime>,
    /// Predecessor sealed.
    pub sealed_at: Option<SimTime>,
    /// The predecessor's seal slot.
    pub seal_slot: Option<u64>,
    /// First base-state transfer request for this epoch.
    pub transfer_requested_at: Option<SimTime>,
    /// First base-state transfer served for this epoch.
    pub transfer_served_at: Option<SimTime>,
    /// Total base-state bytes served for this epoch.
    pub transfer_bytes: u64,
    /// First node anchored at this epoch.
    pub anchored_at: Option<SimTime>,
    /// First application command applied in this epoch.
    pub first_commit_at: Option<SimTime>,
}

/// A derived per-epoch reconfiguration breakdown (see
/// [`Spans::epoch_breakdowns`]).
#[derive(Copy, Clone, Debug)]
pub struct EpochBreakdown {
    /// The successor epoch this reconfiguration created.
    pub epoch: u64,
    /// `Reconfigure` proposed → predecessor sealed.
    pub seal_latency: Option<SimDuration>,
    /// First transfer requested → first node anchored.
    pub transfer_time: Option<SimDuration>,
    /// Total base-state bytes served.
    pub transfer_bytes: u64,
    /// Predecessor sealed → first commit in this epoch (the client-visible
    /// handoff gap).
    pub handoff_gap: Option<SimDuration>,
}

/// Aggregates the event stream into reconfiguration spans and per-command
/// latency spans.
///
/// Install with [`crate::Sim::add_observer`] (usually via [`shared`] to keep
/// a handle); read the derived breakdowns after the run.
#[derive(Clone, Default)]
pub struct Spans {
    epochs: BTreeMap<u64, EpochSpan>,
    /// Submission time per live `(client, seq)` command span.
    submitted: BTreeMap<(u64, u64), SimTime>,
    /// Completed submit→apply latencies, µs, in completion order.
    latencies_us: Vec<u64>,
}

impl Spans {
    /// A fresh aggregator.
    pub fn new() -> Self {
        Spans::default()
    }

    fn span(&mut self, epoch: u64) -> &mut EpochSpan {
        self.epochs.entry(epoch).or_default()
    }

    /// The raw span for the reconfiguration that created `epoch`, if any of
    /// its phases were observed.
    pub fn epoch_span(&self, epoch: u64) -> Option<&EpochSpan> {
        self.epochs.get(&epoch)
    }

    /// Derived breakdowns for every observed reconfiguration, in epoch
    /// order. Epoch 0 (genesis) never appears: it is not created by a
    /// reconfiguration.
    pub fn epoch_breakdowns(&self) -> Vec<EpochBreakdown> {
        self.epochs
            .iter()
            .map(|(&epoch, s)| EpochBreakdown {
                epoch,
                seal_latency: match (s.proposed_at, s.sealed_at) {
                    (Some(p), Some(se)) => Some(se.since(p)),
                    _ => None,
                },
                transfer_time: match (s.transfer_requested_at, s.anchored_at) {
                    (Some(r), Some(a)) => Some(a.since(r)),
                    _ => None,
                },
                transfer_bytes: s.transfer_bytes,
                handoff_gap: match (s.sealed_at, s.first_commit_at) {
                    (Some(se), Some(f)) => Some(f.since(se)),
                    _ => None,
                },
            })
            .collect()
    }

    /// Completed submit→apply command latencies in µs, completion order.
    pub fn command_latencies_us(&self) -> &[u64] {
        &self.latencies_us
    }

    /// Count of completed command spans.
    pub fn commands_completed(&self) -> u64 {
        self.latencies_us.len() as u64
    }

    /// Mean completed command latency in µs (0 when none completed).
    pub fn mean_command_latency_us(&self) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let sum: u64 = self.latencies_us.iter().sum();
        sum / self.latencies_us.len() as u64
    }

    /// Submitted commands that never completed a span.
    pub fn commands_in_flight(&self) -> u64 {
        self.submitted.len() as u64
    }
}

impl Observer for Spans {
    fn on_event(&mut self, at: SimTime, ev: &SimEvent) {
        let SimEvent::Domain { event, .. } = *ev else {
            return;
        };
        match event {
            // Proposal and seal happen in the predecessor; key the span by
            // the successor epoch they create.
            DomainEvent::ReconfigProposed { epoch } => {
                let s = self.span(epoch + 1);
                s.proposed_at.get_or_insert(at);
            }
            DomainEvent::EpochSealed { epoch, seal_slot } => {
                let s = self.span(epoch + 1);
                s.sealed_at.get_or_insert(at);
                s.seal_slot.get_or_insert(seal_slot);
            }
            DomainEvent::TransferRequested { epoch, .. } => {
                self.span(epoch).transfer_requested_at.get_or_insert(at);
            }
            DomainEvent::TransferServed { epoch, bytes, .. } => {
                let s = self.span(epoch);
                s.transfer_served_at.get_or_insert(at);
                s.transfer_bytes += bytes;
            }
            // Genesis anchoring (epoch 0 at startup) is not part of any
            // reconfiguration span.
            DomainEvent::Anchored { epoch } if epoch > 0 => {
                self.span(epoch).anchored_at.get_or_insert(at);
            }
            DomainEvent::Anchored { .. } => {}
            DomainEvent::FirstCommit { epoch, slot: _ } if epoch > 0 => {
                self.span(epoch).first_commit_at.get_or_insert(at);
            }
            DomainEvent::FirstCommit { .. } => {}
            DomainEvent::CmdSubmitted { client, seq } => {
                self.submitted.entry((client.0, seq)).or_insert(at);
            }
            // The span completes at the *first* apply anywhere in the
            // cluster; replica re-applies of the same command are ignored.
            DomainEvent::CmdApplied { client, seq, .. } => {
                if let Some(t0) = self.submitted.remove(&(client.0, seq)) {
                    self.latencies_us.push(at.since(t0).as_micros());
                }
            }
            DomainEvent::CmdProposed { .. } | DomainEvent::CmdCommitted { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_bus_is_inactive_and_skips_event_construction() {
        let mut bus = EventBus::new();
        assert!(!bus.is_active());
        let mut built = false;
        bus.emit_with(t(0), || {
            built = true;
            SimEvent::Crashed { node: NodeId(0) }
        });
        assert!(!built, "event must not be constructed without observers");
    }

    #[test]
    fn observers_see_events_in_order_via_shared_handle() {
        let mut bus = EventBus::new();
        let log = shared(EventLog::new());
        bus.add(log.clone());
        assert!(bus.is_active());
        bus.emit_with(t(1), || SimEvent::Crashed { node: NodeId(3) });
        bus.emit_with(t(2), || SimEvent::Restarted { node: NodeId(3) });
        let events = log.borrow().events().to_vec();
        assert_eq!(
            events,
            vec![
                (t(1), SimEvent::Crashed { node: NodeId(3) }),
                (t(2), SimEvent::Restarted { node: NodeId(3) }),
            ]
        );
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let ev_a = SimEvent::TimerFired {
            node: NodeId(1),
            kind: 2,
        };
        let ev_b = SimEvent::Crashed { node: NodeId(1) };
        let digest_of = |evs: &[(SimTime, SimEvent)]| {
            let mut d = EventDigest::new();
            for (at, ev) in evs {
                d.on_event(*at, ev);
            }
            d.value()
        };
        let ab = digest_of(&[(t(1), ev_a), (t(2), ev_b)]);
        let ba = digest_of(&[(t(1), ev_b), (t(2), ev_a)]);
        let ab2 = digest_of(&[(t(1), ev_a), (t(2), ev_b)]);
        assert_eq!(ab, ab2, "same stream, same digest");
        assert_ne!(ab, ba, "order must matter");
        let shifted = digest_of(&[(t(1), ev_a), (t(3), ev_b)]);
        assert_ne!(ab, shifted, "timestamps must matter");
    }

    #[test]
    fn spans_derive_epoch_breakdown_from_the_stream() {
        let mut spans = Spans::new();
        let n = NodeId(0);
        let dom = |event| SimEvent::Domain { node: n, event };
        spans.on_event(t(100), &dom(DomainEvent::ReconfigProposed { epoch: 0 }));
        spans.on_event(
            t(110),
            &dom(DomainEvent::EpochSealed {
                epoch: 0,
                seal_slot: 7,
            }),
        );
        spans.on_event(
            t(112),
            &dom(DomainEvent::TransferRequested {
                epoch: 1,
                provider: NodeId(2),
            }),
        );
        spans.on_event(
            t(118),
            &dom(DomainEvent::TransferServed {
                epoch: 1,
                to: n,
                bytes: 640,
            }),
        );
        spans.on_event(t(120), &dom(DomainEvent::Anchored { epoch: 1 }));
        spans.on_event(t(130), &dom(DomainEvent::FirstCommit { epoch: 1, slot: 8 }));
        let breakdowns = spans.epoch_breakdowns();
        assert_eq!(breakdowns.len(), 1);
        let b = breakdowns[0];
        assert_eq!(b.epoch, 1);
        assert_eq!(b.seal_latency, Some(SimDuration::from_millis(10)));
        assert_eq!(b.transfer_time, Some(SimDuration::from_millis(8)));
        assert_eq!(b.transfer_bytes, 640);
        assert_eq!(b.handoff_gap, Some(SimDuration::from_millis(20)));
        assert_eq!(spans.epoch_span(1).unwrap().seal_slot, Some(7));
    }

    #[test]
    fn spans_measure_command_latency_once_per_command() {
        let mut spans = Spans::new();
        let dom = |event| SimEvent::Domain {
            node: NodeId(0),
            event,
        };
        let client = NodeId(100);
        spans.on_event(t(10), &dom(DomainEvent::CmdSubmitted { client, seq: 1 }));
        spans.on_event(
            t(14),
            &dom(DomainEvent::CmdApplied {
                client,
                seq: 1,
                epoch: 0,
                slot: 0,
            }),
        );
        // Replica re-apply of the same command: ignored.
        spans.on_event(
            t(19),
            &dom(DomainEvent::CmdApplied {
                client,
                seq: 1,
                epoch: 0,
                slot: 0,
            }),
        );
        assert_eq!(spans.command_latencies_us(), &[4_000]);
        assert_eq!(spans.commands_completed(), 1);
        assert_eq!(spans.mean_command_latency_us(), 4_000);
        assert_eq!(spans.commands_in_flight(), 0);
    }
}
