//! Benchmark of the simulator substrate itself: host-side throughput of
//! the event loop, channels, the full VMMC send path, and the layers under
//! it: translated memory reads, OPT lookups, the packet checksum, and mesh
//! sends on both transports. (All other
//! bench targets report *simulated* time; this one keeps an eye on how
//! fast the reproduction runs on the host.)
//!
//! Runs on the in-tree `shrimp_testkit::bench` harness (`harness =
//! false`): warmup + timed iterations, min/median/p95/max in ns, JSON
//! summary written to `results/engine_perf.json`. Tune with
//! `SHRIMP_BENCH_ITERS` / `SHRIMP_BENCH_WARMUP`; the criterion version
//! used `sample_size(10)`, matching the harness default of 10 iterations.

use shrimp_core::{Cluster, DesignConfig};
use shrimp_mem::{AddressSpace, NodeMem, Vaddr, PAGE_SIZE};
use shrimp_net::{Flit, MeshConfig, Network, NodeId};
use shrimp_nic::packet::Packet;
use shrimp_nic::tables::{PageTables, PROXY_INDEX_BASE};
use shrimp_nic::OptEntry;
use shrimp_sim::shard::{run_sharded, Builder, ShardConfig};
use shrimp_sim::{time, Sim};
use shrimp_testkit::bench::{black_box, Harness};

fn sim_10k_sleep_events() -> u64 {
    let sim = Sim::new();
    let s = sim.clone();
    sim.spawn(async move {
        for _ in 0..10_000 {
            s.sleep(time::ns(100)).await;
        }
    });
    sim.run_to_completion()
}

fn queue_10k_messages() -> Option<u32> {
    let sim = Sim::new();
    let (tx, rx) = shrimp_sim::queue::unbounded();
    sim.spawn(async move {
        for i in 0..10_000u32 {
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
    h.try_take()
}

fn vmmc_1k_page_sends() -> u64 {
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let a = cluster.vmmc(0);
    let bb = cluster.vmmc(1);
    let recv = bb.space().alloc(1);
    let export = bb.export(recv, 4096);
    let proxy = a.import(export);
    let src = a.space().alloc(1);
    let a2 = a.clone();
    let h = cluster.sim().spawn(async move {
        for _ in 0..1000 {
            a2.send(src, &proxy, 0, 4096).await;
        }
    });
    cluster.run_until_complete(vec![h]).0
}

/// A 64-page address space whose even pages hold data and whose odd pages
/// were never written.
fn half_written_space() -> (AddressSpace, Vaddr) {
    let space = AddressSpace::new(NodeMem::new());
    let base = space.alloc(64);
    for page in (0..64).step_by(2) {
        space.write_raw(base.add((page * PAGE_SIZE) as u64), &[0xA5; PAGE_SIZE]);
    }
    (space, base)
}

/// Every word of the space through `AddressSpace::read_u64`: 32 768
/// translated reads, half of them of never-written pages.
fn mem_translated_reads(space: &AddressSpace, base: Vaddr) -> u64 {
    (0..(64 * PAGE_SIZE as u64) / 8).fold(0u64, |acc, w| {
        acc.wrapping_add(space.read_u64(base.add(w * 8)))
    })
}

/// OPT tables with 64 own-page entries (every other page of 128) and 64
/// proxy entries.
fn populated_opt() -> PageTables {
    let t = PageTables::new();
    let entry = |page| OptEntry {
        dst_node: NodeId(1),
        dst_page: page,
        au_enable: true,
        combine: false,
        interrupt: false,
    };
    for page in (1..=128).step_by(2) {
        t.opt_set(page, entry(page));
    }
    let proxy = t.alloc_proxy_range(64);
    for i in 0..64 {
        t.opt_set(proxy + i, entry(i));
    }
    t
}

/// 100 sweeps of `opt_get` over the 128 own-page indices (half of them
/// misses) and the 64 proxy indices: 19 200 lookups.
fn nic_opt_lookups(t: &PageTables) -> u64 {
    let mut hits = 0u64;
    for _ in 0..100 {
        for index in (1..=128).chain(PROXY_INDEX_BASE..PROXY_INDEX_BASE + 64) {
            hits += t.opt_get(black_box(index)).map_or(0, |e| e.dst_page & 1);
        }
    }
    hits
}

/// One 4 KB packet sealed and verified, as the NIC does at egress and
/// ingress: two payload checksums.
fn nic_payload_checksum(pkt: Packet) -> (Packet, bool) {
    let pkt = black_box(pkt).seal();
    let ok = black_box(&pkt).checksum_ok();
    (pkt, ok)
}

/// Mesh sends per case: 64-byte packets from node `i % 16` to node
/// `(i * 7 + 3) % 16` of the 4x4 backplane.
const MESH_SENDS: usize = 10_000;

fn mesh_sends(net: &Network<u64>) {
    for i in 0..MESH_SENDS {
        net.send(NodeId(i % 16), NodeId((i * 7 + 3) % 16), 64, i as u64);
    }
}

/// Packets waiting in every ingress queue, drained.
fn drain_ingress(net: &Network<u64>) -> usize {
    let mut got = 0;
    for n in 0..16 {
        while net.ingress(NodeId(n)).try_recv().is_some() {
            got += 1;
        }
    }
    got
}

/// The contended transport (`ClusterBuilder::build`): every hop books a
/// link, then the run delivers and the queues are drained.
fn mesh_send_contended() -> usize {
    let sim = Sim::new();
    let net = Network::new(sim.clone(), MeshConfig::shrimp_4x4(), 16);
    mesh_sends(&net);
    sim.run();
    drain_ingress(&net)
}

/// The decoupled transport (`ClusterBuilder::launch`) on one shard: point
/// latency and the per-pair no-overtake clamp, then the same drain.
fn mesh_send_decoupled() -> usize {
    let mesh = MeshConfig::shrimp_4x4();
    let cfg = ShardConfig::new(1, mesh.min_remote_latency());
    let b: Builder<Flit<u64>, usize> = Box::new(move |ctx| {
        let net = Network::sharded(ctx.sim().clone(), mesh, 16, vec![0; 16], ctx.sender());
        mesh_sends(&net);
        Box::new(move || drain_ingress(&net))
    });
    run_sharded(&cfg, vec![b]).results[0]
}

fn main() {
    let mut h = Harness::new("engine_perf");
    h.bench("sim_10k_sleep_events", || black_box(sim_10k_sleep_events()));
    h.bench("queue_10k_messages", || black_box(queue_10k_messages()));
    h.bench("vmmc_1k_page_sends", || black_box(vmmc_1k_page_sends()));
    let (space, base) = half_written_space();
    h.bench("mem_translated_reads", || {
        black_box(mem_translated_reads(&space, base))
    });
    let opt = populated_opt();
    h.bench("nic_opt_lookups", || black_box(nic_opt_lookups(&opt)));
    let mut pkt = Some(Packet::data(NodeId(0), NodeId(1), vec![0x5a; 4096], 0));
    h.bench("nic_payload_checksum", || {
        let (sealed, ok) = nic_payload_checksum(pkt.take().expect("packet"));
        pkt = Some(sealed);
        ok
    });
    h.bench("mesh_send_contended", || {
        let got = mesh_send_contended();
        assert_eq!(got, MESH_SENDS, "contended mesh lost packets");
        got
    });
    h.bench("mesh_send_decoupled", || {
        let got = mesh_send_decoupled();
        assert_eq!(got, MESH_SENDS, "decoupled mesh lost packets");
        got
    });
    h.finish();
}
