//! Timed calls into each layer's public API, reported as median host ns
//! per operation and allocations per operation.
//!
//! Every case builds a small world of its own, drives one layer through a
//! batch of operations, checks the batch's result, and returns the number
//! of operations it performed. `sim.timer`, `sim.wake` and `nic.du_send`
//! are the three `engine_perf` cases, unchanged in size.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use shrimp_apps::barnes::{generate_bodies, BarnesParams, Body, Octree};
use shrimp_core::{Cluster, DesignConfig, FaultScenario};
use shrimp_faults::{FaultPlane, PacketFate};
use shrimp_mem::MemBus;
use shrimp_net::{MeshConfig, Network, NodeId};
use shrimp_sim::shard::{run_sharded, Builder, ShardConfig, ShardCtx};
use shrimp_sim::{time, Sim};
use shrimp_sockets::{SocketConfig, SocketNet};
use shrimp_svm::{Protocol, Svm, SvmConfig};

use crate::heap;
use crate::workloads::capped;

type Case = fn() -> Result<u64, String>;

/// Every layer call: metric prefix and case.
pub const CASES: [(&str, Case); 12] = [
    ("sim.timer", sim_timer),
    ("sim.wake", sim_wake),
    ("sim.shard.window", shard_window),
    ("net.send", net_send),
    ("nic.du_send", nic_du_send),
    ("nic.au_store", nic_au_store),
    ("mem.bus_reserve", mem_bus_reserve),
    ("svm.fault", svm_fault),
    ("nx.csend", nx_csend),
    ("sockets.send", sockets_send),
    ("apps.octree_build", octree_build),
    ("faults.packet_fate", packet_fate),
];

/// One layer call's measurement.
pub struct LayerCall {
    /// Metric prefix (`sim.timer`, ...).
    pub name: &'static str,
    /// Median host ns per operation over the timed batches.
    pub ns_per_op: f64,
    /// Allocations per operation in the median batch.
    pub allocs_per_op: f64,
    /// Bytes allocated per operation in the median batch.
    pub bytes_per_op: f64,
}

/// Runs each case once untimed (checking its result), then `reps` timed
/// batches. A case whose check fails yields `Err`.
pub fn measure(reps: usize) -> Vec<Result<LayerCall, String>> {
    CASES
        .iter()
        .map(|&(name, case)| {
            case().map_err(|e| format!("{name}: {e}"))?;
            let mut batches: Vec<LayerCall> = (0..reps.max(1))
                .map(|_| {
                    let before = heap::totals();
                    let start = Instant::now();
                    let ops = std::hint::black_box(case()).unwrap_or(1).max(1) as f64;
                    let ns = start.elapsed().as_nanos() as f64;
                    let alloc = heap::totals().since(before);
                    LayerCall {
                        name,
                        ns_per_op: ns / ops,
                        allocs_per_op: alloc.allocs as f64 / ops,
                        bytes_per_op: alloc.bytes as f64 / ops,
                    }
                })
                .collect();
            batches.sort_by(|a, b| a.ns_per_op.total_cmp(&b.ns_per_op));
            Ok(batches.swap_remove(batches.len() / 2))
        })
        .collect()
}

fn expect(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Timer wheel: 10 000 sleep/schedule then pop cycles (`engine_perf`'s
/// `sim_10k_sleep_events`).
fn sim_timer() -> Result<u64, String> {
    const N: u64 = 10_000;
    let sim = Sim::new();
    let s = sim.clone();
    sim.spawn(async move {
        for _ in 0..N {
            s.sleep(time::ns(100)).await;
        }
    });
    let end = sim.run_to_completion();
    expect(end == time::ns(100) * N, || format!("ended at {end} ps"))?;
    Ok(N)
}

/// Queue wake path: 10 000 messages through an unbounded queue
/// (`engine_perf`'s `queue_10k_messages`).
fn sim_wake() -> Result<u64, String> {
    const N: u32 = 10_000;
    let sim = Sim::new();
    let (tx, rx) = shrimp_sim::queue::unbounded();
    sim.spawn(async move {
        for i in 0..N {
            tx.send(i);
        }
        tx.close();
    });
    let h = sim.spawn(async move {
        let mut n = 0u32;
        while rx.recv().await.is_some() {
            n += 1;
        }
        n
    });
    sim.run_to_completion();
    let got = h.try_take();
    expect(got == Some(N), || format!("received {got:?}"))?;
    Ok(u64::from(N))
}

/// Shard-engine windows: a message bounced between two shards, each hop
/// arriving exactly one lookahead later, so every window holds one event.
/// Reported per window.
fn shard_window() -> Result<u64, String> {
    const HOPS: u64 = 2_000;
    let shards = capped(2);
    let cfg = ShardConfig::new(shards, time::ns(240));
    let builders: Vec<Builder<u64, u64>> = (0..shards)
        .map(|_| {
            let b: Builder<u64, u64> = Box::new(|ctx: &ShardCtx<u64>| {
                let received = Rc::new(Cell::new(0u64));
                let seen = Rc::clone(&received);
                let tx = ctx.sender();
                ctx.on_message(move |at, hop| {
                    seen.set(seen.get() + 1);
                    if hop < HOPS {
                        let dst = (tx.shard() + 1) % tx.shards();
                        tx.send(dst, at + tx.lookahead(), hop + 1);
                    }
                });
                if ctx.shard() == 0 {
                    ctx.send(1 % ctx.shards(), ctx.lookahead(), 1);
                }
                Box::new(move || received.get())
            });
            b
        })
        .collect();
    let out = run_sharded(&cfg, builders);
    let delivered: u64 = out.results.iter().sum();
    expect(delivered == HOPS, || {
        format!("{delivered} of {HOPS} hops delivered")
    })?;
    Ok(out.windows.max(1))
}

/// Contended mesh: 10 000 64-byte packets across the 4x4 backplane, then
/// every ingress queue drained.
fn net_send() -> Result<u64, String> {
    const N: usize = 10_000;
    let sim = Sim::new();
    let net: Network<u64> = Network::new(sim.clone(), MeshConfig::shrimp_4x4(), 16);
    for i in 0..N {
        net.send(NodeId(i % 16), NodeId((i * 7 + 3) % 16), 64, i as u64);
    }
    sim.run();
    let mut got = 0;
    for n in 0..16 {
        while net.ingress(NodeId(n)).try_recv().is_some() {
            got += 1;
        }
    }
    expect(got == N, || format!("{got} of {N} packets arrived"))?;
    Ok(N as u64)
}

/// Deliberate update: 1 000 4 KB `Vmmc::send`s (`engine_perf`'s
/// `vmmc_1k_page_sends`).
fn nic_du_send() -> Result<u64, String> {
    const N: u64 = 1_000;
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let a = cluster.vmmc(0);
    let b = cluster.vmmc(1);
    let recv = b.space().alloc(1);
    let export = b.export(recv, 4096);
    let proxy = a.import(export);
    let src = a.space().alloc(1);
    let a2 = a.clone();
    let h = cluster.sim().spawn(async move {
        for _ in 0..N {
            a2.send(src, &proxy, 0, 4096).await;
        }
    });
    cluster.run_until_complete(vec![h]);
    let sent = cluster.total(|s| s.messages_sent.get());
    expect(sent == N, || format!("{sent} of {N} sends counted"))?;
    Ok(N)
}

/// Automatic update: 4 096 word stores into an AU-bound page, then the
/// receiver's copy checked.
fn nic_au_store() -> Result<u64, String> {
    const N: usize = 4_096;
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let a = cluster.vmmc(0);
    let b = cluster.vmmc(1);
    let recv = b.space().alloc(1);
    let export = b.export(recv, 4096);
    let proxy = a.import(export);
    let bound = a.space().alloc(1);
    a.bind(bound, &proxy, 0, 4096, true, false);
    let a2 = a.clone();
    let h = cluster.sim().spawn(async move {
        for i in 0..N {
            a2.store_u32(bound.add((i % 1024) as u64 * 4), i as u32)
                .await;
        }
        a2.flush_au();
    });
    cluster.run_until_complete(vec![h]);
    let last = b.read_u32(recv.add(((N - 1) % 1024) as u64 * 4));
    expect(last == (N - 1) as u32, || format!("receiver holds {last}"))?;
    Ok(N as u64)
}

/// Memory bus: 100 000 64-byte transaction reservations.
fn mem_bus_reserve() -> Result<u64, String> {
    const N: u64 = 100_000;
    let sim = Sim::new();
    let bus = MemBus::shrimp_default();
    for _ in 0..N {
        bus.reserve(&sim, 64);
    }
    let done = bus.transactions();
    expect(done == N, || format!("{done} of {N} transactions"))?;
    Ok(N)
}

/// SVM: node 0 reads one word from each of 256 pages homed on node 1, so
/// every read is a remote read fault.
fn svm_fault() -> Result<u64, String> {
    const PAGES: usize = 256;
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Aurc));
    let region = svm.create_region(PAGES * 4096, |_| 1);
    for p in 0..PAGES {
        svm.init_write(region, p * 4096, &(p as u32).to_le_bytes());
    }
    let node = svm.node(0);
    let h = cluster.sim().spawn(async move {
        let mut sum = 0u64;
        for p in 0..PAGES {
            sum += u64::from(node.read_u32(region, p * 4096).await);
        }
        sum
    });
    let (_, out) = cluster.run_until_complete(vec![h]);
    let want = (PAGES * (PAGES - 1) / 2) as u64;
    expect(out[0] == want, || format!("read sum {} != {want}", out[0]))?;
    Ok(PAGES as u64)
}

/// NX: 500 round trips of 64-byte `csend`/`crecv` between two nodes.
/// Reported per `csend`.
fn nx_csend() -> Result<u64, String> {
    const ROUNDS: u64 = 500;
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let mut it = shrimp_nx::create(&cluster, shrimp_nx::NxConfig::default()).into_iter();
    let (a, b) = (it.next().unwrap(), it.next().unwrap());
    let ha = cluster.sim().spawn(async move {
        let mut bytes = 0;
        for _ in 0..ROUNDS {
            a.csend(1, &[7u8; 64], 1).await;
            bytes += a.crecv(Some(2), Some(1)).await.data.len();
        }
        bytes
    });
    let hb = cluster.sim().spawn(async move {
        for _ in 0..ROUNDS {
            let m = b.crecv(Some(1), Some(0)).await;
            b.csend(2, &m.data, 0).await;
        }
    });
    let (_, out) = cluster.run_until_complete(vec![ha]);
    drop(hb);
    let want = 64 * ROUNDS as usize;
    expect(out[0] == want, || {
        format!("{} of {want} bytes echoed", out[0])
    })?;
    Ok(2 * ROUNDS)
}

/// Sockets: 256 4 KB stream writes, read back to the end of the stream.
fn sockets_send() -> Result<u64, String> {
    const WRITES: usize = 256;
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let net = SocketNet::with_config(&cluster, SocketConfig::default());
    let listener = net.listen(1, 5000);
    let client = net.connect_endpoints(0, 1, 5000);
    let accepted = cluster.sim().spawn(async move { listener.accept().await });
    cluster.sim().run_for(0);
    let server = accepted.try_take().ok_or("accept did not complete")?;
    let hw = cluster.sim().spawn(async move {
        let block = vec![5u8; 4096];
        for _ in 0..WRITES {
            client.write(&block).await;
        }
        client.shutdown().await;
    });
    let hr = cluster.sim().spawn(async move {
        let mut buf = vec![0u8; 4096];
        let mut total = 0;
        loop {
            let n = server.read(&mut buf).await;
            if n == 0 {
                break total;
            }
            total += n;
        }
    });
    cluster.run_until_complete(vec![hw]);
    let total = hr.try_take().unwrap_or(0);
    expect(total == WRITES * 4096, || format!("{total} bytes read"))?;
    Ok(WRITES as u64)
}

static BODIES: OnceLock<Vec<Body>> = OnceLock::new();

/// Application compute: `barnes::Octree::build` over 2 048 bodies, ten
/// builds per batch.
fn octree_build() -> Result<u64, String> {
    const BUILDS: u64 = 10;
    let bodies = BODIES.get_or_init(|| {
        generate_bodies(&BarnesParams {
            bodies: 2048,
            ..BarnesParams::paper_svm()
        })
    });
    for _ in 0..BUILDS {
        let tree = Octree::build(bodies);
        let (acc, _) = tree.force_on(0, bodies, 0.5);
        expect(acc.iter().all(|a| a.is_finite()), || {
            "non-finite force".into()
        })?;
    }
    Ok(BUILDS)
}

/// Fault plane: 100 000 packet-fate draws on the per-edge streams of the
/// `chaos-cluster` packet scenario.
fn packet_fate() -> Result<u64, String> {
    const N: usize = 100_000;
    let plane = FaultPlane::per_entity(FaultScenario {
        seed: 21,
        drop_pct: 3,
        corrupt_pct: 2,
        duplicate_pct: 3,
        ..FaultScenario::none()
    });
    let mut delivered = 0;
    for i in 0..N {
        if plane.packet_fate(i % 16, (i * 7 + 3) % 16) == PacketFate::Deliver {
            delivered += 1;
        }
    }
    let injected = plane.stats().total() as usize;
    expect(injected > 0 && delivered + injected == N, || {
        format!("{delivered} delivered + {injected} injected != {N}")
    })?;
    Ok(N as u64)
}
