//! Property-style tests for the consensus building block: Multi-Paxos
//! replicas never disagree on a chosen slot, across random fault schedules
//! (crashes with recovery, lossy links).
//!
//! Schedules are generated from a seeded [`SimRng`]; every failure is
//! reproducible from the fixed seed.

use std::collections::BTreeMap;

use consensus::actor::{ReplicaActor, SmrClient, SmrMsg, TaggedCmd};
use consensus::{MultiPaxos, PaxosTunables, StaticConfig};
use simnet::{Actor, Context, NetConfig, NodeId, Sim, SimDuration, SimRng, Timer};

// ---------------------------------------------------------------------------
// Multi-Paxos log safety under faults, via simnet
// ---------------------------------------------------------------------------

#[allow(clippy::large_enum_variant)] // one value per node, stored once
enum Node {
    Replica(ReplicaActor<u64>),
    Client(SmrClient<u64>),
}

impl Actor for Node {
    type Msg = SmrMsg<u64>;
    fn on_start(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>) {
        match self {
            Node::Replica(r) => r.on_start(ctx),
            Node::Client(c) => c.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, from: NodeId, msg: SmrMsg<u64>) {
        match self {
            Node::Replica(r) => r.on_message(ctx, from, msg),
            Node::Client(c) => c.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, timer: Timer) {
        match self {
            Node::Replica(r) => r.on_timer(ctx, timer),
            Node::Client(c) => c.on_timer(ctx, timer),
        }
    }
}

fn chosen_logs(
    sim: &Sim<Node>,
    servers: &[NodeId],
) -> BTreeMap<NodeId, Vec<(u64, TaggedCmd<u64>)>> {
    let mut out = BTreeMap::new();
    for &s in servers {
        if let Some(Node::Replica(r)) = sim.actor(s) {
            let core: &MultiPaxos<TaggedCmd<u64>> = r.core();
            let mut log = Vec::new();
            for i in 0..core.chosen_upto().0 {
                log.push((
                    i,
                    core.chosen_entry(consensus::Slot(i))
                        .expect("contiguous")
                        .clone(),
                ));
            }
            out.insert(s, log);
        }
    }
    out
}

/// Under random loss and a random mid-run crash+recovery, no two replicas
/// ever disagree on a chosen slot, and the surviving majority still serves
/// clients.
#[test]
fn multipaxos_logs_never_diverge_under_faults() {
    let mut gen = SimRng::seed_from_u64(0xFA175);
    for case in 0..24 {
        let seed = gen.gen_range(0u64..10_000);
        let drop_permille = gen.gen_range(0u64..150);
        let crash_victim = gen.gen_range(0u64..3);
        let crash_at_ms = gen.gen_range(100u64..1_500);

        let drop_rate = drop_permille as f64 / 1000.0;
        let mut sim: Sim<Node> = Sim::new(seed, NetConfig::lossy(drop_rate));
        let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let cfg = StaticConfig::new(servers.clone());
        for &s in &servers {
            sim.add_node_with_id(
                s,
                Node::Replica(ReplicaActor::new(s, cfg.clone(), PaxosTunables::default())),
            );
        }
        let client = NodeId(100);
        sim.add_node_with_id(
            client,
            Node::Client(SmrClient::new(servers.clone(), |i| i + 1, Some(150))),
        );

        let victim = NodeId(crash_victim);
        sim.run_for(SimDuration::from_millis(crash_at_ms));
        sim.crash(victim);
        sim.run_for(SimDuration::from_secs(3));
        let recovered = ReplicaActor::recover(
            victim,
            cfg.clone(),
            PaxosTunables::default(),
            sim.storage(victim),
        );
        sim.restart(victim, Node::Replica(recovered));
        sim.run_for(SimDuration::from_secs(45));

        // Safety: pairwise log agreement on the common prefix.
        let logs = chosen_logs(&sim, &servers);
        let vals: Vec<&Vec<(u64, TaggedCmd<u64>)>> = logs.values().collect();
        for i in 0..vals.len() {
            for j in (i + 1)..vals.len() {
                let n = vals[i].len().min(vals[j].len());
                assert_eq!(
                    &vals[i][..n],
                    &vals[j][..n],
                    "case {case}: chosen logs diverge"
                );
            }
        }

        // Liveness (moderate loss only): the client finishes its workload.
        if drop_rate < 0.05 {
            let done = match sim.actor(client) {
                Some(Node::Client(c)) => c.completed(),
                _ => 0,
            };
            assert_eq!(
                done, 150,
                "case {case}: client starved under benign conditions"
            );
        }
    }
}
