//! Metric names, units, and the per-layer metrics derived from a traced
//! run.

use shrimp_bench::RunRecord;
use shrimp_sim::{Category, HistogramSnapshot, MetricValue, MetricsSnapshot};

use crate::layers::LayerCall;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_s", "1/s"),
    ("sim.elapsed_us", "us"),
    ("sim.timer_ns", "ns"),
    ("sim.timer_allocs", "count"),
    ("sim.timer_alloc_bytes", "bytes"),
    ("sim.wake_ns", "ns"),
    ("sim.wake_allocs", "count"),
    ("sim.wake_alloc_bytes", "bytes"),
    ("sim.shard.window_ns", "ns"),
    ("sim.shard.window_allocs", "count"),
    ("sim.shard.window_alloc_bytes", "bytes"),
    ("sim.shard.speedup_sh2", "x"),
    ("net.packets", "count"),
    ("net.wire_bytes", "bytes"),
    ("net.contention_wait_us", "us"),
    ("net.reroutes", "count"),
    ("net.send_ns", "ns"),
    ("net.send_allocs", "count"),
    ("net.send_alloc_bytes", "bytes"),
    ("nic.du_transfers", "count"),
    ("nic.du_bytes", "bytes"),
    ("nic.au_packets", "count"),
    ("nic.au_bytes", "bytes"),
    ("nic.interrupts_raised", "count"),
    ("nic.fifo_threshold_interrupts", "count"),
    ("nic.du_send_ns", "ns"),
    ("nic.du_send_allocs", "count"),
    ("nic.du_send_alloc_bytes", "bytes"),
    ("nic.au_store_ns", "ns"),
    ("nic.au_store_allocs", "count"),
    ("nic.au_store_alloc_bytes", "bytes"),
    ("mem.bus_reserve_ns", "ns"),
    ("mem.bus_reserve_allocs", "count"),
    ("mem.bus_reserve_alloc_bytes", "bytes"),
    ("core.messages_sent", "count"),
    ("core.bytes_sent", "bytes"),
    ("core.notifications", "count"),
    ("core.interrupts_taken", "count"),
    ("core.retransmits", "count"),
    ("core.send_latency_p99_us", "us"),
    ("svm.read_faults", "count"),
    ("svm.write_faults", "count"),
    ("svm.fault_p99_us", "us"),
    ("svm.fault_ns", "ns"),
    ("svm.fault_allocs", "count"),
    ("svm.fault_alloc_bytes", "bytes"),
    ("nx.csend_ns", "ns"),
    ("nx.csend_allocs", "count"),
    ("nx.csend_alloc_bytes", "bytes"),
    ("sockets.send_ns", "ns"),
    ("sockets.send_allocs", "count"),
    ("sockets.send_alloc_bytes", "bytes"),
    ("apps.octree_build_ns", "ns"),
    ("apps.octree_build_allocs", "count"),
    ("apps.octree_build_alloc_bytes", "bytes"),
    ("faults.injected", "count"),
    ("faults.corrupt_detected", "count"),
    ("faults.dup_suppressed", "count"),
    ("faults.recovery_us", "us"),
    ("faults.packet_fate_ns", "ns"),
    ("faults.packet_fate_allocs", "count"),
    ("faults.packet_fate_alloc_bytes", "bytes"),
    ("heap.allocs", "count"),
    ("heap.alloc_mb", "MB"),
    ("heap.allocs_per_event", "count"),
    ("heap.retained_mb", "MB"),
    ("trace.overhead_pct", "%"),
    ("trace.pass_s", "s"),
    ("row1.wall_ms", "ms"),
    ("row2.wall_ms", "ms"),
    ("row3.wall_ms", "ms"),
    ("row4.wall_ms", "ms"),
    ("row5.wall_ms", "ms"),
    ("bench.passes", "count"),
];

/// The unit of metric `name`.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// `true` when `name` uses only `[A-Za-z0-9_.-]` and starts with a letter
/// or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Records of the traced pass, one per row.
    pub records: &'a [RunRecord],
    /// Executor events of the traced pass.
    pub events: u64,
    /// Metrics registries of the traced pass, merged over rows.
    pub registry: &'a MetricsSnapshot,
    /// Median untraced pass, seconds.
    pub untraced_s: f64,
    /// The traced pass, seconds.
    pub traced_s: f64,
    /// Untraced passes measured.
    pub passes: usize,
    /// Wall at 1 shard over wall at 2 shards (0 off the cluster rows).
    pub speedup_sh2: f64,
    /// Allocations in the median untraced pass.
    pub allocs: f64,
    /// Bytes allocated in the median untraced pass.
    pub alloc_bytes: f64,
    /// Bytes the median untraced pass left live.
    pub retained_bytes: f64,
    /// Median untraced wall per row, ms.
    pub row_ms: &'a [f64],
    /// The layer calls.
    pub calls: &'a [LayerCall],
}

fn counter(m: &MetricsSnapshot, cat: Category, name: &str) -> f64 {
    match m.get(cat, name) {
        Some(MetricValue::Counter(v)) => *v as f64,
        _ => 0.0,
    }
}

fn histogram(m: &MetricsSnapshot, cat: Category, name: &str) -> HistogramSnapshot {
    match m.get(cat, name) {
        Some(MetricValue::Histogram(h)) => h.clone(),
        _ => HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        },
    }
}

/// Pools two histograms (bucket-wise, like the registry's own merge).
fn pooled(a: HistogramSnapshot, b: HistogramSnapshot) -> HistogramSnapshot {
    if a.count == 0 {
        return b;
    }
    if b.count == 0 {
        return a;
    }
    let mut buckets = vec![0; a.buckets.len().max(b.buckets.len())];
    for (i, slot) in buckets.iter_mut().enumerate() {
        *slot = a.buckets.get(i).unwrap_or(&0) + b.buckets.get(i).unwrap_or(&0);
    }
    HistogramSnapshot {
        count: a.count + b.count,
        sum: a.sum.saturating_add(b.sum),
        min: a.min.min(b.min),
        max: a.max.max(b.max),
        buckets,
    }
}

const PS_PER_US: f64 = 1e6;
const MB: f64 = (1u64 << 20) as f64;

/// The per-layer metrics, in [`PER_LAYER`] order.
pub fn per_layer(x: &LayerInputs) -> Vec<(&'static str, f64)> {
    let m = x.registry;
    let sum = |f: &dyn Fn(&RunRecord) -> u64| x.records.iter().map(f).sum::<u64>() as f64;
    let p99_us = |h: HistogramSnapshot| h.quantile(0.99) as f64 / PS_PER_US;
    let call = |name: &str| x.calls.iter().find(|c| c.name == name);
    let events = x.events as f64;

    let mut out: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    for &(name, _) in PER_LAYER.iter() {
        let v = match name {
            "sim.events" => events,
            "sim.ns_per_event" => x.untraced_s * 1e9 / events.max(1.0),
            "sim.events_per_s" => events / x.untraced_s.max(f64::MIN_POSITIVE),
            "sim.elapsed_us" => sum(&|r| r.elapsed) / PS_PER_US,
            "sim.shard.speedup_sh2" => x.speedup_sh2,
            "net.packets" => counter(m, Category::Net, "packets"),
            "net.wire_bytes" => counter(m, Category::Net, "wire_bytes"),
            "net.contention_wait_us" => {
                histogram(m, Category::Net, "contention_wait_ps").sum as f64 / PS_PER_US
            }
            "net.reroutes" => counter(m, Category::Net, "reroutes"),
            "nic.du_transfers" => counter(m, Category::Nic, "du_transfers"),
            "nic.du_bytes" => counter(m, Category::Nic, "du_bytes"),
            "nic.au_packets" => counter(m, Category::Nic, "au_packets"),
            "nic.au_bytes" => counter(m, Category::Nic, "au_bytes"),
            "nic.interrupts_raised" => counter(m, Category::Nic, "interrupts_raised"),
            "nic.fifo_threshold_interrupts" => {
                counter(m, Category::Nic, "fifo_threshold_interrupts")
            }
            "core.messages_sent" => counter(m, Category::Core, "messages_sent"),
            "core.bytes_sent" => counter(m, Category::Core, "bytes_sent"),
            "core.notifications" => sum(&|r| r.notifications),
            "core.interrupts_taken" => sum(&|r| r.interrupts),
            "core.retransmits" => counter(m, Category::Core, "retransmits"),
            "core.send_latency_p99_us" => p99_us(histogram(m, Category::Core, "send_latency_ps")),
            "svm.read_faults" => counter(m, Category::Svm, "read_faults"),
            "svm.write_faults" => counter(m, Category::Svm, "write_faults"),
            "svm.fault_p99_us" => p99_us(pooled(
                histogram(m, Category::Svm, "read_fault_service_ps"),
                histogram(m, Category::Svm, "write_fault_service_ps"),
            )),
            "faults.injected" => sum(&|r| r.recovery.map_or(0, |k| k.faults_injected)),
            "faults.corrupt_detected" => sum(&|r| r.recovery.map_or(0, |k| k.corrupt_detected)),
            "faults.dup_suppressed" => sum(&|r| r.recovery.map_or(0, |k| k.dup_suppressed)),
            "faults.recovery_us" => {
                sum(&|r| r.recovery.map_or(0, |k| k.recovery_time_ps)) / PS_PER_US
            }
            "heap.allocs" => x.allocs,
            "heap.alloc_mb" => x.alloc_bytes / MB,
            "heap.allocs_per_event" => x.allocs / events.max(1.0),
            "heap.retained_mb" => x.retained_bytes / MB,
            "trace.overhead_pct" => (x.traced_s / x.untraced_s - 1.0) * 100.0,
            "trace.pass_s" => x.traced_s,
            "bench.passes" => x.passes as f64,
            _ => {
                if let Some(slot) = name
                    .strip_prefix("row")
                    .and_then(|s| s.strip_suffix(".wall_ms"))
                {
                    let i: usize = slot.parse().expect("row slot index");
                    x.row_ms.get(i - 1).copied().unwrap_or(0.0)
                } else if let Some(prefix) = name.strip_suffix("_ns") {
                    call(prefix).map_or(0.0, |c| c.ns_per_op)
                } else if let Some(prefix) = name.strip_suffix("_allocs") {
                    call(prefix).map_or(0.0, |c| c.allocs_per_op)
                } else if let Some(prefix) = name.strip_suffix("_alloc_bytes") {
                    call(prefix).map_or(0.0, |c| c.bytes_per_op)
                } else {
                    unreachable!("per-layer metric {name} has no source")
                }
            }
        };
        out.push((name, v));
    }
    out
}
