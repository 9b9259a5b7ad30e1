//! Multi-group composition: host several independent protocol instances
//! ("groups", i.e. shards) on one simulated node.
//!
//! The paper's composition runs one epoch chain. Scaling it out means many
//! chains — each shard its own sequence `S_0, S_1, …` — sharing a pool of
//! physical nodes. This module provides the plumbing that keeps those
//! chains fully isolated while co-hosted:
//!
//! - [`GroupId`] names a group; [`Grouped`] is the wire envelope that tags
//!   every message with the group it belongs to.
//! - [`MultiGroup`] is an [`Actor`] adaptor that multiplexes one inner
//!   actor per group over a single node. It unwraps envelopes, dispatches
//!   to the right group's actor, re-wraps everything the actor emits, tags
//!   timers with the group, and namespaces stable storage per group (see
//!   [`ScopedStore`](crate::storage::ScopedStore)) so co-hosted chains
//!   cannot clobber each other's recovery state.
//!
//! Inner actors are completely unaware of any of this: an unmodified
//! single-group protocol actor runs under `MultiGroup` byte-for-byte as it
//! would alone, which is what makes per-shard reconfiguration "just" the
//! existing protocol run `G` times.

use std::collections::BTreeMap;
use std::fmt;

use crate::actor::{Actor, Context, Emit, Message, Timer};
use crate::sim::NodeId;
use crate::storage::StableStore;
use crate::wire::Wire;

/// Timer kinds below this bound are usable by inner actors; the group id
/// is packed into the bits above.
const KIND_BITS: u32 = 8;
const KIND_MASK: u32 = (1 << KIND_BITS) - 1;

/// Identifies one composition group (one shard, one epoch chain).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl GroupId {
    /// The storage scope this group's actor writes under on every node.
    pub fn scope(&self) -> String {
        format!("{self}/")
    }
}

impl Wire for GroupId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(GroupId(u32::decode(buf)?))
    }
}

/// The sharded wire envelope: an inner protocol message tagged with the
/// group it belongs to.
#[derive(Clone, Debug)]
pub struct Grouped<M> {
    /// The group this message belongs to.
    pub group: GroupId,
    /// The protocol message, unchanged.
    pub inner: M,
}

impl<M: Message> Message for Grouped<M> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn size_hint(&self) -> usize {
        // The envelope costs four bytes of group id on the wire.
        self.inner.size_hint() + 4
    }
}

impl<M: Wire> Wire for Grouped<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.group.encode(buf);
        self.inner.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Grouped {
            group: GroupId::decode(buf)?,
            inner: M::decode(buf)?,
        })
    }
}

struct Entry<A> {
    /// Storage scope, e.g. `"g3/"`.
    scope: String,
    actor: A,
}

/// Decides whether a node spawns an actor for a group it does not host yet
/// when the first message for that group arrives (the sharded analogue of
/// pre-registering a joining replica). Return `None` to refuse: the
/// message is dropped and counted under `shard.unroutable`.
pub type GroupFactory<A> = Box<dyn FnMut(GroupId, &<A as Actor>::Msg) -> Option<A>>;

/// An [`Actor`] adaptor hosting one inner actor per [`GroupId`] on a
/// single node.
///
/// Messages carry their group in the [`Grouped`] envelope; timers carry it
/// packed into the high bits of the timer `kind` (inner actors keep the
/// low 8 bits of kinds to themselves); storage keys are scoped
/// per group. The inner actors share the node's RNG, metrics sink and
/// event bus — dispatch order within a node is deterministic (a message
/// goes to exactly one group; startup iterates groups in id order).
pub struct MultiGroup<A: Actor> {
    groups: BTreeMap<GroupId, Entry<A>>,
    factory: GroupFactory<A>,
    /// Reused buffer for inner-actor emits, translated after each dispatch.
    scratch: Vec<Emit<A::Msg>>,
}

impl<A: Actor> MultiGroup<A> {
    /// An empty multiplexer with a spawn policy for unhosted groups.
    pub fn new(factory: impl FnMut(GroupId, &A::Msg) -> Option<A> + 'static) -> Self {
        MultiGroup {
            groups: BTreeMap::new(),
            factory: Box::new(factory),
            scratch: Vec::new(),
        }
    }

    /// An empty multiplexer that never spawns actors for unhosted groups
    /// (messages to them are dropped and counted). Right for client and
    /// admin nodes whose group set is fixed at construction.
    pub fn sealed() -> Self {
        Self::new(|_, _| None)
    }

    /// Installs `actor` as this node's member of `group`, builder-style.
    pub fn with_group(mut self, group: GroupId, actor: A) -> Self {
        self.insert(group, actor);
        self
    }

    /// Installs `actor` as this node's member of `group`.
    ///
    /// # Panics
    ///
    /// Panics if the group is already hosted or its id does not fit the
    /// timer-packing budget.
    pub fn insert(&mut self, group: GroupId, actor: A) {
        assert!(
            group.0 < (1 << (32 - KIND_BITS)),
            "group id {group} out of range"
        );
        let prev = self.groups.insert(
            group,
            Entry {
                scope: group.scope(),
                actor,
            },
        );
        assert!(prev.is_none(), "group {group} already hosted");
    }

    /// Read access to the actor hosted for `group`, if any.
    pub fn get(&self, group: GroupId) -> Option<&A> {
        self.groups.get(&group).map(|e| &e.actor)
    }

    /// Iterates over `(group, actor)` pairs in group order.
    pub fn entries(&self) -> impl Iterator<Item = (GroupId, &A)> {
        self.groups.iter().map(|(&g, e)| (g, &e.actor))
    }

    /// Number of groups hosted on this node.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no group is hosted yet.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The distinct groups that have persisted state in `store` — what a
    /// restart factory recovers after a crash of a multi-group node.
    pub fn persisted_groups(store: &StableStore) -> Vec<GroupId> {
        let mut out: Vec<GroupId> = Vec::new();
        for key in store.keys_with_prefix("g") {
            let Some((num, _)) = key[1..].split_once('/') else {
                continue;
            };
            let Ok(n) = num.parse::<u32>() else { continue };
            if !out.contains(&GroupId(n)) {
                out.push(GroupId(n));
            }
        }
        out.sort();
        out
    }

    /// Runs one inner-actor callback under `group`'s scope and translates
    /// everything it emitted back into the enveloped world.
    fn dispatch(
        ctx: &mut Context<'_, Grouped<A::Msg>>,
        entry: &mut Entry<A>,
        group: GroupId,
        scratch: &mut Vec<Emit<A::Msg>>,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>),
    ) {
        let Entry { scope, actor } = entry;
        let mut out = std::mem::take(scratch);
        {
            let mut inner_ctx = Context {
                node: ctx.node,
                now: ctx.now,
                rng: &mut *ctx.rng,
                out: &mut out,
                storage: &mut *ctx.storage,
                key_prefix: scope,
                metrics: &mut *ctx.metrics,
                next_timer_id: &mut *ctx.next_timer_id,
                bus: &mut *ctx.bus,
            };
            f(actor, &mut inner_ctx);
        }
        for emit in out.drain(..) {
            match emit {
                Emit::Send { to, msg } => ctx.out.push(Emit::Send {
                    to,
                    msg: Grouped { group, inner: msg },
                }),
                Emit::SetTimer { id, at, kind } => {
                    debug_assert!(
                        kind <= KIND_MASK,
                        "inner timer kind {kind} exceeds the packing budget"
                    );
                    ctx.out.push(Emit::SetTimer {
                        id,
                        at,
                        kind: (group.0 << KIND_BITS) | (kind & KIND_MASK),
                    });
                }
                Emit::CancelTimer(id) => ctx.out.push(Emit::CancelTimer(id)),
            }
        }
        *scratch = out;
    }
}

impl<A: Actor> Actor for MultiGroup<A> {
    type Msg = Grouped<A::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        for (&group, entry) in self.groups.iter_mut() {
            Self::dispatch(ctx, entry, group, &mut self.scratch, |a, c| a.on_start(c));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        let Grouped { group, inner } = msg;
        if !self.groups.contains_key(&group) {
            match (self.factory)(group, &inner) {
                Some(actor) => {
                    self.insert(group, actor);
                    ctx.metrics().incr("shard.spawned", 1);
                    let entry = self.groups.get_mut(&group).expect("just inserted");
                    Self::dispatch(ctx, entry, group, &mut self.scratch, |a, c| a.on_start(c));
                }
                None => {
                    ctx.metrics().incr("shard.unroutable", 1);
                    return;
                }
            }
        }
        let entry = self.groups.get_mut(&group).expect("present");
        Self::dispatch(ctx, entry, group, &mut self.scratch, |a, c| {
            a.on_message(c, from, inner)
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer) {
        let group = GroupId(timer.kind >> KIND_BITS);
        let kind = timer.kind & KIND_MASK;
        // A timer for a group this node no longer (or never) hosts is
        // stale: ignore it, exactly as a cancelled timer.
        let Some(entry) = self.groups.get_mut(&group) else {
            return;
        };
        Self::dispatch(ctx, entry, group, &mut self.scratch, |a, c| {
            a.on_timer(c, Timer { id: timer.id, kind })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetConfig;
    use crate::sim::Sim;
    use crate::time::{SimDuration, SimTime};
    use crate::wire;

    #[derive(Clone, Debug)]
    struct Ping(u32);
    impl Message for Ping {
        fn label(&self) -> &'static str {
            "ping"
        }
        fn size_hint(&self) -> usize {
            4
        }
    }

    /// Echoes pings back `n` times, persists the count, re-arms a tick
    /// timer, and records which timer kinds it saw.
    struct Echo {
        received: u32,
        ticks: u32,
        seen_kinds: Vec<u32>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                received: 0,
                ticks: 0,
                seen_kinds: Vec::new(),
            }
        }
    }

    impl Actor for Echo {
        type Msg = Ping;

        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.received += 1;
            ctx.storage().put_u64("received", self.received as u64);
            if msg.0 > 0 {
                ctx.send(from, Ping(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, timer: Timer) {
            self.ticks += 1;
            self.seen_kinds.push(timer.kind);
            if self.ticks < 3 {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
    }

    fn two_group_pair() -> (Sim<MultiGroup<Echo>>, NodeId, NodeId) {
        let mut sim = Sim::new(7, NetConfig::lan());
        let a = sim.add_node(
            MultiGroup::sealed()
                .with_group(GroupId(0), Echo::new())
                .with_group(GroupId(1), Echo::new()),
        );
        let b = sim.add_node(
            MultiGroup::sealed()
                .with_group(GroupId(0), Echo::new())
                .with_group(GroupId(1), Echo::new()),
        );
        (sim, a, b)
    }

    #[test]
    fn messages_route_to_their_group_only() {
        let (mut sim, a, b) = two_group_pair();
        sim.inject(
            a,
            b,
            Grouped {
                group: GroupId(0),
                inner: Ping(3),
            },
        );
        sim.run_until_quiet(SimDuration::from_secs(1));
        let bb = sim.actor(b).unwrap();
        assert_eq!(bb.get(GroupId(0)).unwrap().received, 2);
        assert_eq!(bb.get(GroupId(1)).unwrap().received, 0);
        let aa = sim.actor(a).unwrap();
        assert_eq!(aa.get(GroupId(0)).unwrap().received, 2);
    }

    #[test]
    fn timers_carry_their_group_and_unpack_the_inner_kind() {
        let (mut sim, a, _b) = two_group_pair();
        sim.run_for(SimDuration::from_millis(100));
        let aa = sim.actor(a).unwrap();
        for g in [GroupId(0), GroupId(1)] {
            let e = aa.get(g).unwrap();
            assert_eq!(e.ticks, 3, "{g}: every group's tick loop runs");
            assert!(
                e.seen_kinds.iter().all(|&k| k == 1),
                "{g}: inner actors see their own kinds, not packed ones"
            );
        }
    }

    #[test]
    fn storage_is_scoped_per_group() {
        let (mut sim, a, b) = two_group_pair();
        sim.inject(
            a,
            b,
            Grouped {
                group: GroupId(0),
                inner: Ping(0),
            },
        );
        sim.inject(
            a,
            b,
            Grouped {
                group: GroupId(1),
                inner: Ping(2),
            },
        );
        sim.run_until_quiet(SimDuration::from_secs(1));
        let store = sim.storage(b);
        assert_eq!(store.get_u64("g0/received"), Some(1));
        assert_eq!(store.get_u64("g1/received"), Some(2));
        assert_eq!(store.get_u64("received"), None);
        assert_eq!(
            MultiGroup::<Echo>::persisted_groups(store),
            vec![GroupId(0), GroupId(1)]
        );
        // Each group's subtree recovers independently.
        assert_eq!(store.subtree("g1/").get_u64("received"), Some(2));
    }

    #[test]
    fn factory_spawns_on_first_message_and_sealed_nodes_drop() {
        let mut sim: Sim<MultiGroup<Echo>> = Sim::new(3, NetConfig::lan());
        let spawning = sim.add_node(MultiGroup::new(|_, _| Some(Echo::new())));
        let sealed = sim.add_node(MultiGroup::sealed());
        sim.inject(
            sealed,
            spawning,
            Grouped {
                group: GroupId(4),
                inner: Ping(0),
            },
        );
        sim.inject(
            spawning,
            sealed,
            Grouped {
                group: GroupId(4),
                inner: Ping(0),
            },
        );
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(
            sim.actor(spawning)
                .unwrap()
                .get(GroupId(4))
                .unwrap()
                .received,
            1
        );
        assert_eq!(sim.metrics().counter("shard.spawned"), 1);
        assert_eq!(sim.metrics().counter("shard.unroutable"), 1);
        assert!(sim.actor(sealed).unwrap().is_empty());
        // The spawned actor ran on_start: its tick loop is live.
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(
            sim.actor(spawning).unwrap().get(GroupId(4)).unwrap().ticks,
            3
        );
    }

    #[test]
    fn same_seed_sharded_runs_are_identical() {
        let run = |seed: u64| {
            let mut sim: Sim<MultiGroup<Echo>> = Sim::new(seed, NetConfig::lossy(0.1));
            let a = sim.add_node(
                MultiGroup::sealed()
                    .with_group(GroupId(0), Echo::new())
                    .with_group(GroupId(1), Echo::new()),
            );
            let b = sim.add_node(
                MultiGroup::sealed()
                    .with_group(GroupId(0), Echo::new())
                    .with_group(GroupId(1), Echo::new()),
            );
            for i in 0..20 {
                sim.inject(
                    a,
                    b,
                    Grouped {
                        group: GroupId(i % 2),
                        inner: Ping(3),
                    },
                );
            }
            sim.run_until_quiet(SimDuration::from_secs(10));
            (sim.metrics().fingerprint(), sim.now())
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn group_id_wire_round_trip_and_envelope_size() {
        let bytes = wire::to_bytes(&GroupId(300));
        assert_eq!(wire::from_bytes::<GroupId>(&bytes), Some(GroupId(300)));
        assert_eq!(
            Grouped {
                group: GroupId(1),
                inner: Ping(0)
            }
            .size_hint(),
            8
        );
        assert_eq!(GroupId(3).to_string(), "g3");
        assert_eq!(GroupId(3).scope(), "g3/");
    }

    #[test]
    fn timers_survive_nothing_for_dropped_groups() {
        // A stale timer for an unhosted group is ignored rather than
        // panicking or hitting another group.
        let mut sim: Sim<MultiGroup<Echo>> = Sim::new(1, NetConfig::lan());
        let a = sim.add_node(MultiGroup::sealed().with_group(GroupId(2), Echo::new()));
        sim.with_node(a, |_, ctx| {
            // Forge a timer in group 9's range.
            ctx.set_timer(SimDuration::from_millis(5), (9 << 8) | 1);
        });
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.actor(a).unwrap().get(GroupId(2)).unwrap().ticks, 3);
    }
}
