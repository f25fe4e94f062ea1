//! Ablation / sensitivity studies beyond the paper's experiments: how the
//! headline results respond to the hardware parameters the design fixed.
//!
//! * combining sub-page size: the packet-size / latency trade-off of
//!   §4.5.1's combining design;
//! * EISA DMA bandwidth: how much the I/O bus bottleneck shapes the
//!   DU-vs-AU crossover;
//! * interrupt cost: how the Table 4 penalty scales with faster interrupt
//!   dispatch (a what-if the paper poses: "a real system would exhibit
//!   higher overhead");
//! * mesh hop latency: sensitivity of the 16-node results to the backplane.

use shrimp_apps::dfs::run_dfs;
use shrimp_apps::radix::run_radix_vmmc;
use shrimp_apps::Mechanism;
use shrimp_bench::spec::{dfs_params_at, radix_params_at};
use shrimp_bench::{announce, global_scale, max_nodes, render_table, secs};
use shrimp_core::{Cluster, DesignConfig, RingBulk};
use shrimp_sim::time;
use shrimp_sockets::SocketConfig;

fn main() {
    announce("Ablations: sensitivity of headline results");
    let nodes = max_nodes();
    let radix = radix_params_at(global_scale(), 1);

    // 1. Combining sub-page size on AU-bulk DFS.
    {
        let mut rows = Vec::new();
        for subpage in [64usize, 128, 256, 1024, 4096] {
            let mut cfg = DesignConfig::default();
            cfg.nic.combine_subpage = subpage;
            let mut params = dfs_params_at(global_scale());
            params.clients = params.clients.min(nodes);
            let out = run_dfs(
                &Cluster::builder(nodes).config(cfg).build(),
                &params,
                SocketConfig {
                    bulk: RingBulk::Automatic,
                    ..SocketConfig::default()
                },
            );
            rows.push(vec![format!("{subpage}"), secs(out.elapsed)]);
        }
        print!(
            "{}",
            render_table(
                "Combining sub-page size vs DFS (forced AU) time",
                &["Sub-page (bytes)", "Time (s)"],
                &rows,
            )
        );
    }

    // 2. EISA bandwidth on the Radix-VMMC DU/AU crossover.
    {
        let mut rows = Vec::new();
        for mbps in [15u64, 30, 60, 120] {
            let mut cfg = DesignConfig::default();
            cfg.nic.eisa_bytes_per_sec = mbps * 1_000_000;
            let du = run_radix_vmmc(
                &Cluster::builder(nodes).config(cfg.clone()).build(),
                &radix,
                Mechanism::DeliberateUpdate,
            );
            let au = run_radix_vmmc(
                &Cluster::builder(nodes).config(cfg).build(),
                &radix,
                Mechanism::AutomaticUpdate,
            );
            rows.push(vec![
                format!("{mbps}"),
                secs(du.elapsed),
                secs(au.elapsed),
                format!("{:.2}x", du.elapsed as f64 / au.elapsed as f64),
            ]);
        }
        print!(
            "{}",
            render_table(
                "I/O-bus DMA bandwidth vs Radix-VMMC DU/AU",
                &["DMA MB/s", "DU (s)", "AU (s)", "AU advantage"],
                &rows,
            )
        );
        println!(
            "Both mechanisms ride the I/O bus; as it speeds up, the DU version\n\
             stays pinned by its gather/scatter CPU work while AU keeps\n\
             shrinking — the gather/scatter avoidance of §4.2 is the durable\n\
             part of automatic update's advantage."
        );
    }

    // 3. Interrupt dispatch cost under interrupt-per-message (Table 4 knob).
    {
        let mut rows = Vec::new();
        let base = run_radix_vmmc(
            &Cluster::builder(nodes)
                .config(DesignConfig::default())
                .build(),
            &radix,
            Mechanism::DeliberateUpdate,
        );
        for us in [5u64, 20, 50, 100] {
            let cfg = DesignConfig {
                interrupt_per_message: true,
                interrupt_cost: time::us(us),
                ..DesignConfig::default()
            };
            let out = run_radix_vmmc(
                &Cluster::builder(nodes).config(cfg).build(),
                &radix,
                Mechanism::DeliberateUpdate,
            );
            rows.push(vec![
                format!("{us}"),
                secs(out.elapsed),
                format!(
                    "{:+.1}%",
                    (out.elapsed as f64 / base.elapsed as f64 - 1.0) * 100.0
                ),
            ]);
        }
        print!(
            "{}",
            render_table(
                "Interrupt cost vs forced-interrupt slowdown (Radix-VMMC)",
                &["Interrupt cost (us)", "Time (s)", "Slowdown"],
                &rows,
            )
        );
    }

    // 4. Mesh hop latency: slower routers stretch every round trip.
    {
        let mut rows = Vec::new();
        for ns in [40u64, 200, 1000, 5000] {
            let mesh = shrimp_net::MeshConfig {
                hop_latency: time::ns(ns),
                ..shrimp_net::MeshConfig::for_nodes(nodes)
            };
            let cfg = DesignConfig {
                mesh: Some(mesh),
                ..DesignConfig::default()
            };
            let out = run_radix_vmmc(
                &Cluster::builder(nodes).config(cfg).build(),
                &radix,
                Mechanism::DeliberateUpdate,
            );
            rows.push(vec![format!("{ns}"), secs(out.elapsed)]);
        }
        print!(
            "{}",
            render_table(
                "Router hop latency vs Radix-VMMC (DU) time",
                &["Hop latency (ns)", "Time (s)"],
                &rows,
            )
        );
    }
}
