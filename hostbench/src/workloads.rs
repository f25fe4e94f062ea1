//! The named workloads, and every way the benchmark runs one of their
//! rows: plain (through the harness runner, as a sweep would), traced
//! (metrics plane on), and set-up only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use shrimp_bench::spec::{distributed_params_at, Recovery};
use shrimp_bench::{matrix, App, RunRecord, RunSpec, Scale, Shards};
use shrimp_core::{
    chaos_node_program, node_program, Cluster, FaultScenario, HeartbeatConfig, LaunchOutcome,
    NodeCrash, NodeProgram,
};
use shrimp_harness::{run_sweep, RunResult, RunStatus, RunnerOptions};
use shrimp_sim::MetricsSnapshot;

/// One named workload: harness rows at reduced scale.
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Harness row ids (reduced scale, seed 1) the workload runs.
    pub rows: &'static [&'static str],
    /// Launch-path rows: pinned to 1 shard, and checked at 2.
    pub launch: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "svm-au",
        rows: &[
            "fig3/radix-svm-aurc/p16/as-built",
            "fig4-svm-au/ocean-svm-hlrc/p16/as-built",
            "fig4-svm-au/barnes-svm-aurc/p16/as-built",
        ],
        launch: false,
    },
    Workload {
        name: "msg-du",
        rows: &[
            "fig4-du-au/radix-vmmc-du/p16/as-built",
            "fig4-du-au/barnes-nx-du/p16/as-built",
            "fig4-du-au/ocean-nx-du/p16/as-built",
            "table1/dfs-sockets-default/p16/as-built",
            "chaos/radix-vmmc-du/p16/rel+drop5",
        ],
        launch: false,
    },
    // The same rows at 2 shards are run once per run (the shard-invariance
    // check) and timed in the traced run (`sim.shard.speedup_sh2`), but
    // not as a workload of their own: on a 2-core host their pass time
    // varies several-fold between runs (see README).
    Workload {
        name: "cluster-sh1",
        rows: &[
            "cluster/cluster-distributed-default/p256/as-built",
            "chaos-cluster/cluster-distributed-default/p64/crashres5",
            "chaos-cluster/cluster-distributed-default/p16/rel+drop3+corrupt2+dup3",
        ],
        launch: true,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Host threads available to shard engines.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `k` shards capped at the host's cores: the benchmark never runs more
/// busy threads than `nproc`.
pub fn capped(k: usize) -> usize {
    k.clamp(1, host_cores())
}

impl Workload {
    /// The workload's specs with the benchmark seed applied.
    ///
    /// # Panics
    ///
    /// Panics when a row id is missing from the harness matrix.
    pub fn specs(&self, seed: u64) -> Vec<RunSpec> {
        let all = matrix(Scale::Reduced, 16);
        self.rows
            .iter()
            .map(|id| {
                let spec = all
                    .iter()
                    .find(|s| s.id() == *id)
                    .unwrap_or_else(|| panic!("harness matrix lost row {id}"))
                    .clone()
                    .with_seed(seed);
                if self.launch {
                    spec.with_shards(Shards::Fixed(1))
                } else {
                    spec
                }
            })
            .collect()
    }
}

/// A row's result plus the host time measured around the call.
pub struct Timed<T> {
    /// The call's result.
    pub out: T,
    /// Wall time of the call.
    pub wall: Duration,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let out = f();
    Timed {
        out,
        wall: start.elapsed(),
    }
}

/// Per-run wall-clock limit; a row over it counts as failed.
pub const ROW_TIMEOUT: Duration = Duration::from_secs(120);

/// Runs one spec the way a harness sweep does (own thread, panic
/// isolation, timeout) and times the call from outside.
pub fn run(spec: &RunSpec) -> Timed<RunResult> {
    let opts = RunnerOptions {
        workers: 1,
        timeout: ROW_TIMEOUT,
        observe: false,
        shards: 1,
        checkpoint_in: None,
        checkpoint_out: false,
    };
    timed(|| {
        run_sweep(std::slice::from_ref(spec), &opts)
            .pop()
            .expect("one spec gives one result")
    })
}

/// What a traced run of one row captured.
pub struct Traced {
    /// The row's record (must equal the untraced one).
    pub record: RunRecord,
    /// Executor events dispatched.
    pub events: u64,
    /// Every metrics-registry instrument of the run.
    pub metrics: MetricsSnapshot,
}

/// Runs one spec with the metrics plane on. Single-`Sim` rows go through
/// [`RunSpec::execute_observed`]; launch rows rebuild the row's launch
/// with [`ClusterBuilder::metrics`](shrimp_core::ClusterBuilder::metrics)
/// on, because their observed path captures no registry.
pub fn run_traced(spec: &RunSpec) -> Timed<Result<Traced, String>> {
    timed(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match spec.app {
            App::ClusterNodes => traced_launch(spec),
            _ => {
                let (record, perf, obs) = spec.execute_observed();
                Traced {
                    record,
                    events: perf.events,
                    metrics: obs.metrics,
                }
            }
        }))
        .map_err(|e| panic_text(e.as_ref()))
    })
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// The launch a cluster row performs, with the metrics plane on,
/// and the [`RunRecord`] the harness would derive from it.
fn traced_launch(spec: &RunSpec) -> Traced {
    let cfg = spec.design_config();
    let shards = Shards::Fixed(spec.effective_shards(1));
    let builder = Cluster::builder(spec.nodes)
        .config(cfg.clone())
        .shards(shards)
        .metrics(true);
    let chaos = spec.knobs.faults.is_active();
    let mut p = distributed_params_at(spec.scale).scaled_to(spec.nodes);
    p.seed = spec.seed;
    let program = if chaos {
        let det = HeartbeatConfig::for_nodes(spec.nodes);
        let run_until = cfg
            .faults
            .crash
            .as_ref()
            .and_then(NodeCrash::restart_at)
            .map_or(0, |t| t + 2 * det.cycle(spec.nodes));
        chaos_node_program(p, det, run_until)
    } else {
        node_program(p)
    };
    let out = builder.launch(program);
    let recovery = (spec.knobs.reliability || chaos).then_some(Recovery {
        retransmits: out.retransmits,
        corrupt_detected: out.corrupt_detected,
        dup_suppressed: out.dup_suppressed,
        faults_injected: out.faults_injected,
        detection_latency_ps: out.detection_latency_ps,
        recovery_time_ps: out.recovery_time_ps,
    });
    Traced {
        record: record_of(&out, recovery),
        events: out.events,
        metrics: out.metrics,
    }
}

fn record_of(out: &LaunchOutcome, recovery: Option<Recovery>) -> RunRecord {
    RunRecord {
        elapsed: out.elapsed,
        checksum: out
            .node_results
            .iter()
            .fold(0u64, |acc, &r| acc.wrapping_add(r)),
        messages: out.messages,
        notifications: out.notifications,
        interrupts: out.interrupts,
        syscalls: out.syscalls,
        net_packets: out.net_packets,
        net_bytes: out.net_bytes,
        recovery,
        kv: None,
    }
}

/// Builds the row's simulated machine and tears it down again, with no
/// workload: the set-up cost a run pays before its first event.
///
/// Single-`Sim` rows time `Cluster::builder(n).config(cfg).build()`.
/// Launch rows time a launch of an empty node program at the row's shard
/// count (node construction on every shard, then the drain barrier), with
/// the fault scenario left out so no crash timer runs.
pub fn setup_once(spec: &RunSpec) -> Duration {
    match spec.app {
        App::ClusterNodes => {
            let mut cfg = spec.design_config();
            cfg.faults = FaultScenario::none();
            let empty: NodeProgram = Arc::new(|_vmmc| Box::pin(async { 0u64 }));
            let builder = Cluster::builder(spec.nodes)
                .config(cfg)
                .shards(Shards::Fixed(spec.effective_shards(1)));
            timed(|| builder.launch(empty)).wall
        }
        _ => {
            let builder = Cluster::builder(spec.nodes).config(spec.design_config());
            let t = timed(|| builder.build());
            drop(t.out);
            t.wall
        }
    }
}

/// The record of a finished row, or why it failed.
pub fn record(result: &RunResult) -> Result<&RunRecord, String> {
    match &result.status {
        RunStatus::Ok(r) => match r.kv {
            Some(kv) if kv.verify_failures > 0 => {
                Err(format!("{} acked KV writes lost", kv.verify_failures))
            }
            _ => Ok(r),
        },
        RunStatus::Panicked(msg) => Err(format!("panicked: {msg}")),
        RunStatus::TimedOut => Err(format!("timed out after {ROW_TIMEOUT:?}")),
    }
}
