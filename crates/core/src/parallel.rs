//! The node-sharded parallel workload: SHRIMP's mesh as the only
//! cross-shard channel.
//!
//! This driver is the production consumer of `shrimp_sim::shard`: every
//! simulated node becomes (part of) one shard — its compute loop, mailbox,
//! and receive process all live on that shard's own `Sim` — and nodes
//! interact *only* by exchanging [`Packet`]s whose arrival times come from
//! the mesh's uncongested point-to-point latency. The minimum of that
//! latency over distinct nodes ([`MeshConfig::min_remote_latency`], two
//! transceiver crossings plus one router hop) is the conservative
//! executor's lookahead, exactly as the tentpole prescribes.
//!
//! **Shard-count invariance.** Every per-node event sequence is a pure
//! function of the node's own timeline (deterministic compute delays and
//! deterministically chosen peers/arrivals), and the summary metrics are
//! commutative reductions — wrapping sums for the checksum and counters, a
//! max for the elapsed time — so [`ParallelOutcome`] is *identical at every
//! shard count*, which the shard-identity and chaos-under-parallel tests
//! assert at the artifact-byte level.
//!
//! This driver exchanges bare [`Packet`]s; the full SHRIMP *cluster* model
//! (NIC, VMMC, notifications) rides the same engine through
//! [`ClusterBuilder::launch`](crate::ClusterBuilder::launch) and the
//! decoupled mesh transport — see [`crate::distributed`] for its workload.
//! Only fault scenarios remain pinned to the single-`Sim` path: chaos
//! couples all nodes through one RNG stream with zero lookahead (see the
//! module docs of `shrimp_sim::shard`).

use shrimp_net::{MeshConfig, NodeId};
use shrimp_nic::packet::Packet;
use shrimp_sim::rng::splitmix64;
use shrimp_sim::shard::{run_sharded, Builder, ShardConfig, ShardCtx};
use shrimp_sim::{time, Queue, Time};

use std::cell::Cell;
use std::rc::Rc;

/// Workload shape for one sharded parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelParams {
    /// Simulated nodes (one compute + receive process pair each).
    pub nodes: usize,
    /// Compute/communicate iterations per node.
    pub steps: u32,
    /// Payload bytes per message.
    pub payload: usize,
    /// Messages each node sends per step.
    pub fanout: usize,
    /// Simulated compute time per step (before jitter).
    pub compute: Time,
    /// Host-CPU work units burned per step (SplitMix64 rounds); this is the
    /// real work the threaded executor parallelizes.
    pub burn: u32,
    /// Workload seed; every derived choice is a pure function of it.
    pub seed: u64,
}

impl ParallelParams {
    /// The default 16-node shape at a given step count.
    pub fn with_steps(steps: u32) -> Self {
        ParallelParams {
            nodes: 16,
            steps,
            payload: 256,
            fanout: 2,
            compute: time::us(2),
            burn: 400,
            seed: 1,
        }
    }
}

/// Commutative summary of one sharded parallel run. Identical at every
/// shard count (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOutcome {
    /// Final simulated time (max over nodes).
    pub elapsed: Time,
    /// Order-independent checksum over all received messages and all
    /// compute results.
    pub checksum: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Executor events across all shards (perf accounting only — not part
    /// of the invariant artifact metrics).
    pub events: u64,
    /// Synchronization windows the conservative protocol ran (0 when
    /// `shards == 1`).
    pub windows: u64,
}

/// Contiguous block assignment of nodes to shards: node `i` of `n` on
/// shard `i * shards / n`.
pub fn shard_of(node: usize, nodes: usize, shards: usize) -> usize {
    node * shards / nodes
}

/// One round of SplitMix64 keyed by node and step — the deterministic
/// per-(node, step) choice stream (shared with the distributed cluster
/// workload).
pub(crate) fn choice(seed: u64, node: usize, step: u32, salt: u64) -> u64 {
    let mut st = seed
        ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (step as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ salt;
    splitmix64(&mut st)
}

/// Byte-wise FNV-1a: the per-message digest the receive process mixes
/// into the workload checksum. Private to the workload, so the result
/// never depends on the NIC's header checksum code.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-shard running totals, merged commutatively at harvest.
#[derive(Default, Clone, Copy)]
struct Totals {
    checksum: u64,
    messages: u64,
    bytes: u64,
}

/// Runs the workload on `shards` shards (1 = today's single-threaded
/// executor, no windows).
///
/// # Panics
///
/// Panics when `params.nodes == 0`, `shards == 0`, or `shards` exceeds the
/// node count (a shard must own at least one node).
pub fn run_parallel(params: &ParallelParams, shards: usize) -> ParallelOutcome {
    assert!(params.nodes >= 1, "workload needs at least one node");
    assert!(
        (1..=params.nodes).contains(&shards),
        "shards must be in 1..={} (one node per shard minimum), got {shards}",
        params.nodes
    );
    let mesh = MeshConfig::for_nodes(params.nodes);
    let lookahead = mesh.min_remote_latency();
    let cfg = ShardConfig::new(shards, lookahead);
    let builders: Vec<Builder<Packet, Totals>> = (0..shards)
        .map(|s| shard_builder(s, *params, mesh.clone()))
        .collect();
    let out = run_sharded(&cfg, builders);
    let mut total = Totals::default();
    for t in &out.results {
        total.checksum = total.checksum.wrapping_add(t.checksum);
        total.messages += t.messages;
        total.bytes += t.bytes;
    }
    ParallelOutcome {
        elapsed: out.elapsed,
        checksum: total.checksum,
        messages: total.messages,
        bytes: total.bytes,
        events: out.events,
        windows: out.windows,
    }
}

/// Builds one shard: every owned node gets a mailbox, a receive process,
/// and a compute/send process.
fn shard_builder(shard: usize, p: ParallelParams, mesh: MeshConfig) -> Builder<Packet, Totals> {
    Box::new(move |ctx: &ShardCtx<Packet>| {
        let owned: Vec<usize> = (0..p.nodes)
            .filter(|&n| shard_of(n, p.nodes, ctx.shards()) == shard)
            .collect();
        let totals = Rc::new(Cell::new(Totals::default()));

        // Mailboxes for owned nodes; the shard's message handler routes by
        // packet destination. Arrival-time ties are resolved upstream by the
        // deterministic (arrival, src shard, seq) merge, and the checksum is
        // commutative anyway — both layers defend the invariance.
        let mailboxes: Vec<Queue<Packet>> = owned.iter().map(|_| Queue::new()).collect();
        {
            let mailboxes = mailboxes.clone();
            let owned = owned.clone();
            ctx.on_message(move |_at, pkt: Packet| {
                let slot = owned
                    .binary_search(&pkt.dst.0)
                    .expect("packet routed to a shard that does not own its destination");
                mailboxes[slot].send(pkt);
            });
        }

        for (slot, &node) in owned.iter().enumerate() {
            spawn_receiver(ctx, &mailboxes[slot], &totals);
            spawn_sender(ctx, node, p, mesh.clone(), &totals);
        }

        let totals = Rc::clone(&totals);
        Box::new(move || totals.get())
    })
}

/// The receive process: folds every delivered packet into the shard's
/// totals with an order-independent mix.
fn spawn_receiver(ctx: &ShardCtx<Packet>, mailbox: &Queue<Packet>, totals: &Rc<Cell<Totals>>) {
    let mailbox = mailbox.clone();
    let totals = Rc::clone(totals);
    let sim = ctx.sim().clone();
    ctx.sim().spawn(async move {
        while let Some(pkt) = mailbox.recv().await {
            debug_assert!(pkt.checksum_ok());
            let mut t = totals.get();
            // Wrapping add of a per-message hash: commutative, so delivery
            // order (and therefore shard layout) cannot change it.
            let mix = choice(
                fnv1a(&pkt.data) ^ sim.now(),
                pkt.src.0,
                pkt.dst.0 as u32,
                pkt.sent_at,
            );
            t.checksum = t.checksum.wrapping_add(mix);
            t.messages += 1;
            t.bytes += pkt.len() as u64;
            totals.set(t);
        }
    });
}

/// The compute/send process for one node: `steps` rounds of simulated
/// compute, host-CPU burn, and deterministic-fanout sends with mesh-true
/// arrival times.
fn spawn_sender(
    ctx: &ShardCtx<Packet>,
    node: usize,
    p: ParallelParams,
    mesh: MeshConfig,
    totals: &Rc<Cell<Totals>>,
) {
    let tx = ctx.sender();
    let sim = ctx.sim().clone();
    let totals = Rc::clone(totals);
    ctx.sim().spawn(async move {
        for step in 0..p.steps {
            let jitter = choice(p.seed, node, step, 0x6a69) % 1024;
            sim.sleep(p.compute + jitter).await;

            // Real host work — the parallel executor's speedup substrate.
            // The result feeds the checksum, so it is load-bearing and
            // deterministic.
            let mut acc = choice(p.seed, node, step, 0x6275);
            for _ in 0..p.burn {
                acc = splitmix64(&mut acc);
            }
            let mut t = totals.get();
            t.checksum = t.checksum.wrapping_add(acc);
            totals.set(t);

            for f in 0..p.fanout {
                if p.nodes == 1 {
                    break;
                }
                let pick = choice(p.seed, node, step, 0x7065 + f as u64) as usize;
                let dst = (node + 1 + pick % (p.nodes - 1)) % p.nodes;
                let payload: Vec<u8> = (0..p.payload)
                    .map(|i| (choice(p.seed, node, step, i as u64) & 0xff) as u8)
                    .collect();
                let pkt = Packet::data(NodeId(node), NodeId(dst), payload, sim.now());
                let (sx, sy) = mesh.coords(NodeId(node));
                let (dx, dy) = mesh.coords(NodeId(dst));
                let hops = sx.abs_diff(dx) + sy.abs_diff(dy);
                let arrival = sim.now() + mesh.point_latency(hops, p.payload);
                tx.send(shard_of(dst, p.nodes, tx.shards()), arrival, pkt);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ParallelParams {
        ParallelParams {
            nodes: 8,
            steps: 6,
            payload: 64,
            fanout: 2,
            compute: time::us(1),
            burn: 16,
            seed: 7,
        }
    }

    #[test]
    fn outcome_is_invariant_across_shard_counts() {
        let p = small();
        let base = run_parallel(&p, 1);
        assert_eq!(base.messages, 8 * 6 * 2);
        assert_eq!(base.bytes, base.messages * 64);
        for shards in [2, 4, 8] {
            let out = run_parallel(&p, shards);
            assert!(out.windows > 0, "{shards} shards ran without windows");
            assert_eq!(
                (
                    out.elapsed,
                    out.checksum,
                    out.messages,
                    out.bytes,
                    out.events
                ),
                (
                    base.elapsed,
                    base.checksum,
                    base.messages,
                    base.bytes,
                    base.events
                ),
                "outcome diverged at {shards} shards"
            );
        }
    }

    /// The message digest is byte-wise FNV-1a, pinned here so the
    /// workload checksum cannot drift with the NIC's integrity code.
    #[test]
    fn message_digest_is_pinned_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let payload: Vec<u8> = (0..64).collect();
        assert_eq!(fnv1a(&payload), 0x8368_214f_7799_5ee5);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_parallel(&small(), 2);
        let b = run_parallel(&ParallelParams { seed: 8, ..small() }, 2);
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn single_node_runs_computation_only() {
        let p = ParallelParams {
            nodes: 1,
            ..small()
        };
        let out = run_parallel(&p, 1);
        assert_eq!(out.messages, 0);
        assert!(out.checksum != 0, "compute results must reach the checksum");
    }
}
