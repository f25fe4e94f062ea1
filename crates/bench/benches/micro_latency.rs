//! §4.1/§4.2/§4.3 microbenchmarks: end-to-end latencies, send overhead,
//! and bandwidth of the two transfer mechanisms.
//!
//! Paper numbers: deliberate-update latency ~6 us; automatic-update
//! single-word end-to-end latency 3.71 us; user-level DMA send overhead
//! under 2 us (vs a syscall-based send).

use shrimp_bench::{announce, render_table};
use shrimp_core::{Cluster, DesignConfig, Vmmc};
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_sim::{time, Time};

fn page_round(b: usize) -> usize {
    b.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// One-way DU latency for a message of `bytes`: sender writes, receiver
/// polls the trailing word.
fn du_latency(bytes: usize) -> Time {
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let a = cluster.vmmc(0);
    let b: Vmmc = cluster.vmmc(1);
    let recv = b.space().alloc(page_round(bytes + 8) / PAGE_SIZE);
    let export = b.export(recv, page_round(bytes + 8));
    let proxy = a.import(export);
    let src = a.space().alloc(page_round(bytes + 8) / PAGE_SIZE);
    a.space().write_raw(src, &vec![0xA5u8; bytes]);
    a.space()
        .write_raw(src.add(page_round(bytes) as u64 - 8), &1u64.to_le_bytes());
    let a2 = a.clone();
    let len = bytes;
    let ha = cluster.sim().spawn(async move {
        a2.send(src, &proxy, 0, len).await;
        // Trailing flag in a separate word right after the payload (same
        // message when it fits the page).
        a2.send(
            src.add(page_round(len) as u64 - 8),
            &proxy,
            page_round(len) - 8,
            8,
        )
        .await;
    });
    let b2 = b.clone();
    let flag = recv.add(page_round(bytes) as u64 - 8);
    let hb = cluster.sim().spawn(async move {
        b2.poll_u64(flag, |v| v != 0).await;
        b2.sim().now()
    });
    cluster.run_until_complete(vec![ha]);
    hb.try_take().expect("receiver never saw the flag")
}

/// One-way AU latency for `bytes` stored through a binding.
fn au_latency(bytes: usize, combining: bool) -> Time {
    let mut cfg = DesignConfig::default();
    cfg.nic.combining = combining;
    let cluster = Cluster::builder(2).config(cfg).build();
    let a = cluster.vmmc(0);
    let b = cluster.vmmc(1);
    let pages = page_round(bytes + 8) / PAGE_SIZE;
    let recv = b.space().alloc(pages);
    let export = b.export(recv, pages * PAGE_SIZE);
    let proxy = a.import(export);
    let img = a.space().alloc(pages);
    a.bind(img, &proxy, 0, pages * PAGE_SIZE, true, false);
    let a2 = a.clone();
    let len = bytes;
    let ha = cluster.sim().spawn(async move {
        a2.store(img, &vec![0x5Au8; len]).await;
        a2.store_u64(img.add((pages * PAGE_SIZE) as u64 - 8), 1)
            .await;
        a2.flush_au();
    });
    let b2 = b.clone();
    let flag = recv.add((pages * PAGE_SIZE) as u64 - 8);
    let hb = cluster.sim().spawn(async move {
        b2.poll_u64(flag, |v| v != 0).await;
        b2.sim().now()
    });
    cluster.run_until_complete(vec![ha]);
    hb.try_take().expect("receiver never saw the flag")
}

/// CPU-side send overhead (time until `send` returns control) for UDMA vs
/// syscall-based initiation, small message.
fn send_overhead(syscall: bool) -> Time {
    let cfg = DesignConfig {
        syscall_send: syscall,
        ..DesignConfig::default()
    };
    let cluster = Cluster::builder(2).config(cfg).build();
    let a = cluster.vmmc(0);
    let b = cluster.vmmc(1);
    let recv = b.space().alloc(1);
    let export = b.export(recv, PAGE_SIZE);
    let proxy = a.import(export);
    let src: Vaddr = a.space().alloc(1);
    let a2 = a.clone();
    let h = cluster.sim().spawn(async move {
        let t0 = a2.sim().now();
        let _ticket = a2.send_async(src, &proxy, 0, 64).await;
        a2.sim().now() - t0
    });
    cluster.run_until_complete::<()>(vec![]);
    h.try_take().expect("send did not complete")
}

fn main() {
    announce("Microbenchmarks: latency, overhead, bandwidth");

    let mut rows = Vec::new();
    rows.push(vec![
        "DU 1-word latency".into(),
        format!("{:.2} us", time::to_us(du_latency(4))),
        "~6 us".into(),
    ]);
    rows.push(vec![
        "AU 1-word latency".into(),
        format!("{:.2} us", time::to_us(au_latency(4, true))),
        "3.71 us".into(),
    ]);
    rows.push(vec![
        "UDMA send overhead".into(),
        format!("{:.2} us", time::to_us(send_overhead(false))),
        "< 2 us".into(),
    ]);
    rows.push(vec![
        "Syscall send overhead".into(),
        format!("{:.2} us", time::to_us(send_overhead(true))),
        "tens of us".into(),
    ]);
    print!(
        "{}",
        render_table(
            "Latency and overhead microbenchmarks",
            &["Metric", "Measured", "Paper"],
            &rows,
        )
    );

    // Bandwidth sweep: one-way latency vs message size, both mechanisms.
    let mut rows = Vec::new();
    for bytes in [4usize, 64, 256, 1024, 4088, 16384] {
        let du = du_latency(bytes);
        let au = au_latency(bytes, true);
        let au_nc = au_latency(bytes, false);
        let bw = |t: Time| format!("{:.1}", bytes as f64 / time::to_secs(t) / 1e6);
        rows.push(vec![
            format!("{bytes}"),
            format!("{:.2}", time::to_us(du)),
            bw(du),
            format!("{:.2}", time::to_us(au)),
            bw(au),
            format!("{:.2}", time::to_us(au_nc)),
            bw(au_nc),
        ]);
    }
    print!(
        "{}",
        render_table(
            "One-way transfer time (us) and bandwidth (MB/s) vs size",
            &[
                "Bytes",
                "DU us",
                "DU MB/s",
                "AU us",
                "AU MB/s",
                "AU-nocomb us",
                "AU-nocomb MB/s",
            ],
            &rows,
        )
    );
    println!(
        "\nExpected shape: AU wins at one word; DU's DMA bandwidth wins for\n\
         bulk; AU without combining collapses for bulk (per-word packets)."
    );
}
