//! The actor abstraction: protocol nodes and the context through which they
//! interact with the simulated world.

use std::fmt;

use crate::metrics::Metrics;
use crate::observe::{DomainEvent, EventBus, SimEvent};
use crate::rng::SimRng;
use crate::sim::NodeId;
use crate::storage::{ScopedStore, StableStore};
use crate::time::{SimDuration, SimTime};

/// A message exchanged between actors.
///
/// The `label` feeds the per-message-type counters used by the message-cost
/// experiments; `size_hint` (application payload bytes) feeds the byte
/// counters. Both have sensible defaults so toy protocols can ignore them.
pub trait Message: Clone + fmt::Debug + 'static {
    /// A short, static name for this message kind (e.g. `"paxos.accept"`).
    fn label(&self) -> &'static str {
        "msg"
    }

    /// Approximate wire size in bytes, used only for metrics.
    fn size_hint(&self) -> usize {
        0
    }
}

/// Identifies a pending timer so it can be cancelled.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

/// A fired timer, carrying the protocol-chosen `kind` discriminant.
#[derive(Copy, Clone, Debug)]
pub struct Timer {
    /// The id returned by [`Context::set_timer`].
    pub id: TimerId,
    /// The protocol-defined discriminant passed to [`Context::set_timer`].
    pub kind: u32,
}

/// A simulated process.
///
/// Actors are purely reactive: the simulator invokes the callbacks below, and
/// the actor responds by emitting messages and timers through the
/// [`Context`]. Actors must not share state with each other except through
/// messages — that is what keeps runs deterministic.
pub trait Actor {
    /// The message type this world exchanges.
    type Msg: Message;

    /// Invoked once when the node is added to the simulation, and again on
    /// every restart after a crash.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Invoked when a message is delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Invoked when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer);
}

/// Effects buffered during a callback, applied by the simulator afterwards.
pub(crate) enum Emit<M> {
    Send { to: NodeId, msg: M },
    SetTimer { id: TimerId, at: SimTime, kind: u32 },
    CancelTimer(TimerId),
}

/// The actor's window onto the simulation during a callback.
///
/// All interaction with the world — sending, timers, stable storage, metrics,
/// randomness — goes through the context, which keeps the simulation
/// deterministic and lets the harness intercept everything.
pub struct Context<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) out: &'a mut Vec<Emit<M>>,
    pub(crate) storage: &'a mut StableStore,
    /// Namespace prepended to every storage key (see
    /// [`Context::storage`]). Empty outside multi-group worlds.
    pub(crate) key_prefix: &'a str,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) next_timer_id: &'a mut u64,
    pub(crate) bus: &'a mut EventBus,
}

impl<'a, M: Message> Context<'a, M> {
    /// The id of the node running this callback.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` through the simulated network. Delivery time,
    /// loss and duplication are governed by the network model; sending to a
    /// crashed node silently drops the message (as a real network would).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push(Emit::Send { to, msg });
    }

    /// Sends `msg` to every node in `to`, skipping this node itself. The
    /// last recipient takes ownership of `msg`, so an `n`-peer fan-out costs
    /// `n - 1` clones (and for `Arc`-backed payloads a clone is a refcount
    /// bump).
    pub fn broadcast(&mut self, to: &[NodeId], msg: M) {
        let n = to.iter().filter(|&&p| p != self.node).count();
        let mut msg = Some(msg);
        let mut sent = 0;
        for &peer in to {
            if peer == self.node {
                continue;
            }
            sent += 1;
            let m = if sent == n {
                msg.take().expect("one message per fan-out")
            } else {
                msg.as_ref().expect("still owned").clone()
            };
            self.send(peer, m);
        }
    }

    /// Schedules [`Actor::on_timer`] to run after `delay` with the given
    /// `kind` discriminant. Returns an id usable with
    /// [`Context::cancel_timer`]. Timers are implicitly cancelled when the
    /// node crashes.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u32) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.out.push(Emit::SetTimer {
            id,
            at: self.now + delay,
            kind,
        });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.out.push(Emit::CancelTimer(id));
    }

    /// The node's deterministic random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The node's stable storage, which survives crashes and restarts.
    ///
    /// The returned view is scoped: under a multi-group multiplexer (see
    /// [`crate::shard`]) each group's keys are transparently namespaced so
    /// co-hosted groups cannot collide. Outside sharded worlds the scope is
    /// empty and the view is a passthrough.
    pub fn storage(&mut self) -> ScopedStore<'_> {
        ScopedStore::new(self.storage, self.key_prefix)
    }

    /// The global metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Emits a typed protocol event into the simulation's event stream.
    ///
    /// With no observer installed (the default) this costs one branch; see
    /// [`crate::observe`].
    pub fn emit_event(&mut self, event: DomainEvent) {
        let node = self.node;
        self.bus
            .emit_with(self.now, || SimEvent::Domain { node, event });
    }

    /// True when at least one event observer is installed on the
    /// simulation. Use to skip *preparing* data for [`Context::emit_event`]
    /// when the preparation itself is costly; plain emissions do not need
    /// the check.
    pub fn observed(&self) -> bool {
        self.bus.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct M;
    impl Message for M {}

    #[test]
    fn default_message_label_and_size() {
        assert_eq!(M.label(), "msg");
        assert_eq!(M.size_hint(), 0);
    }

    #[test]
    fn timer_ids_are_distinct() {
        assert_ne!(TimerId(1), TimerId(2));
        assert!(TimerId(1) < TimerId(2));
    }
}
