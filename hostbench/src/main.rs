//! Host-side benchmark of the simulated SHRIMP machine.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload svm-au --seed 7 --seconds 15 --trace 0
//! ```
//!
//! One run builds the workload's harness rows with the given seed, runs
//! them once to warm up (that pass's records are the reference), times
//! repeated passes for `--seconds`, and checks every record: across
//! passes, at 2 shards on the launch-path workload, and against the
//! committed baselines through each row's smoke-scale twin. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it adds
//! a pass with the metrics plane on and the timed layer calls, and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md`.

mod check;
mod heap;
mod layers;
mod metrics;
mod spans;
#[cfg(test)]
mod tests;
mod workloads;

use std::path::Path;
use std::time::{Duration, Instant};

use shrimp_bench::{RunRecord, RunSpec, Shards};
use shrimp_sim::MetricsSnapshot;

use check::Baselines;
use spans::Spans;
use workloads::Workload;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Passes measured at least, however long they take.
const MIN_PASSES: usize = 3;
/// Set-up rounds before each timed pass; `setup_s` is the median of all
/// rounds, spread over the run like the passes so both see the same host.
const SETUP_ROUNDS: usize = 3;
/// Timed batches per layer call.
const CALL_REPS: usize = 9;
/// Passes stop early (after [`MIN_PASSES`]) once this much heap is live:
/// each pass's simulated machines stay allocated after it ends (see
/// `heap.retained_mb`), so an unbounded run would grow without limit.
const LIVE_HEAP_CAP: u64 = 2 << 30;

const USAGE: &str =
    "usage: shrimp-hostbench --workload <svm-au|msg-du|cluster-sh1> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shrimp-hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baselines = match Baselines::load(&here.join("../results/baselines")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("shrimp-hostbench: {e}");
            std::process::exit(1);
        }
    };
    let mut bench = Bench {
        tally: Tally::default(),
        spans: Spans::new(),
    };
    let metrics = bench.run(&args, &baselines);
    if args.trace {
        let path = here.join(format!("spans/{}-s{}.json", args.workload.name, args.seed));
        if let Err(e) = bench.spans.write(&path) {
            eprintln!("shrimp-hostbench: writing {}: {e}", path.display());
        }
    }
    bench.report(&args, &metrics);
}

/// Row executions attempted, and every failure with its reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("FAILED: {e}");
            self.failures.push(e);
        }
    }
}

/// One pass over the workload's rows.
struct Pass {
    wall: Duration,
    rows: Vec<Duration>,
    records: Vec<Option<RunRecord>>,
    /// Peak live heap above what was live when the pass began.
    peak_bytes: u64,
    /// Heap still live when the pass ended that was not live before it.
    retained_bytes: u64,
    /// Set-up rounds taken just before the pass, seconds each.
    setup: Vec<f64>,
    alloc: heap::Totals,
}

struct Bench {
    tally: Tally,
    spans: Spans,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

const MB: f64 = (1u64 << 20) as f64;

impl Bench {
    fn run(&mut self, args: &Args, baselines: &Baselines) -> Vec<(&'static str, f64)> {
        let w = args.workload;
        let specs = w.specs(args.seed);
        let budget = Duration::from_secs(args.seconds);

        // Warm-up pass: fills lazy state and fixes the reference records.
        let reference = self.pass("warmup", &specs).records;

        if !args.trace {
            let passes = self.passes(&specs, &reference, budget, MIN_PASSES, SETUP_ROUNDS);
            self.two_shards(w, &specs, &reference);
            self.twins(&specs, baselines);
            let secs = |p: &Pass| p.wall.as_secs_f64();
            return vec![
                ("wall_s", median(passes.iter().map(secs).collect())),
                (
                    "setup_s",
                    median(passes.iter().flat_map(|p| p.setup.clone()).collect()),
                ),
                (
                    "peak_heap_mb",
                    median(passes.iter().map(|p| p.peak_bytes as f64 / MB).collect()),
                ),
            ];
        }

        let passes = self.passes(&specs, &reference, budget / 2, 2, 0);
        let untraced_s = median(passes.iter().map(|p| p.wall.as_secs_f64()).collect());
        let (traced_s, records, events, registry) = self.traced_pass(&specs, &reference);
        let speedup_sh2 = self
            .two_shards(w, &specs, &reference)
            .map_or(0.0, |sh2_s| untraced_s / sh2_s);
        self.twins(&specs, baselines);
        let calls = self.layer_calls();
        let row_ms: Vec<f64> = (0..specs.len())
            .map(|i| {
                median(
                    passes
                        .iter()
                        .map(|p| p.rows[i].as_secs_f64() * 1e3)
                        .collect(),
                )
            })
            .collect();
        let mid = {
            let mut by_wall: Vec<&Pass> = passes.iter().collect();
            by_wall.sort_by_key(|p| p.wall);
            by_wall[by_wall.len() / 2]
        };
        metrics::per_layer(&metrics::LayerInputs {
            records: &records,
            events,
            registry: &registry,
            untraced_s,
            traced_s,
            passes: passes.len(),
            speedup_sh2,
            allocs: mid.alloc.allocs as f64,
            alloc_bytes: mid.alloc.bytes as f64,
            retained_bytes: mid.retained_bytes as f64,
            row_ms: &row_ms,
            calls: &calls,
        })
    }

    /// Runs every row once; failed rows leave `None` records.
    fn pass(&mut self, name: &str, specs: &[RunSpec]) -> Pass {
        let span = self.spans.open(name, None);
        heap::reset_peak();
        let live_before = heap::live();
        let before = heap::totals();
        let start = Instant::now();
        let mut rows = Vec::with_capacity(specs.len());
        let mut records = Vec::with_capacity(specs.len());
        for spec in specs {
            let row = self.spans.open(&spec.id(), Some(span));
            let t = workloads::run(spec);
            self.spans.close(row);
            let record = workloads::record(&t.out).map_err(|e| format!("{}: {e}", spec.id()));
            records.push(record.as_ref().ok().map(|r| **r));
            self.tally.check(record.map(|_| ()));
            rows.push(t.wall);
        }
        let wall = start.elapsed();
        let pass = Pass {
            wall,
            rows,
            records,
            peak_bytes: heap::peak().saturating_sub(live_before),
            retained_bytes: heap::live().saturating_sub(live_before),
            setup: Vec::new(),
            alloc: heap::totals().since(before),
        };
        self.spans.close(span);
        pass
    }

    /// Timed passes until `budget` has elapsed (at least `min` of them),
    /// each record checked against the reference and each preceded by
    /// `setup_rounds` set-up rounds.
    fn passes(
        &mut self,
        specs: &[RunSpec],
        reference: &[Option<RunRecord>],
        budget: Duration,
        min: usize,
        setup_rounds: usize,
    ) -> Vec<Pass> {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < min || (start.elapsed() < budget && heap::live() < LIVE_HEAP_CAP) {
            let setup = (0..setup_rounds).map(|_| self.setup_round(specs)).collect();
            let mut pass = self.pass("pass", specs);
            pass.setup = setup;
            self.check_records("repeat", specs, reference, &pass);
            passes.push(pass);
        }
        let walls: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.3}", p.wall.as_secs_f64()))
            .collect();
        eprintln!("{} passes, wall s: {}", passes.len(), walls.join(" "));
        passes
    }

    /// One set-up round: every row's machine built and torn down once.
    /// Returns the summed seconds.
    fn setup_round(&mut self, specs: &[RunSpec]) -> f64 {
        let span = self.spans.open("setup", None);
        let secs = specs
            .iter()
            .map(|s| workloads::setup_once(s).as_secs_f64())
            .sum();
        self.spans.close(span);
        secs
    }

    /// On the launch-path workload, one pass at 2 shards (capped at the
    /// host's cores) whose records must equal the reference: the launch
    /// path's shard-invariance guarantee. Returns the pass's wall seconds.
    fn two_shards(
        &mut self,
        w: &Workload,
        specs: &[RunSpec],
        reference: &[Option<RunRecord>],
    ) -> Option<f64> {
        if !w.launch {
            return None;
        }
        let k = workloads::capped(2);
        let sharded: Vec<RunSpec> = specs
            .iter()
            .map(|s| s.clone().with_shards(Shards::Fixed(k)))
            .collect();
        let pass = self.pass(&format!("shards{k}"), &sharded);
        self.check_records(&format!("at {k} shards"), specs, reference, &pass);
        Some(pass.wall.as_secs_f64())
    }

    /// Checks each record of `pass` against the reference record.
    fn check_records(
        &mut self,
        what: &str,
        specs: &[RunSpec],
        reference: &[Option<RunRecord>],
        pass: &Pass,
    ) {
        for ((spec, want), got) in specs.iter().zip(reference).zip(&pass.records) {
            if let (Some(want), Some(got)) = (want, got) {
                let row = format!("{} ({what})", spec.id());
                self.tally.check(check::same_record(&row, want, got));
            }
        }
    }

    /// The metrics-plane pass. Its records must equal the reference too.
    fn traced_pass(
        &mut self,
        specs: &[RunSpec],
        reference: &[Option<RunRecord>],
    ) -> (f64, Vec<RunRecord>, u64, MetricsSnapshot) {
        let span = self.spans.open("traced", None);
        let mut wall = Duration::ZERO;
        let mut records = Vec::new();
        let mut events = 0;
        let mut registry = MetricsSnapshot::default();
        for (spec, want) in specs.iter().zip(reference) {
            let row = self.spans.open(&spec.id(), Some(span));
            let t = workloads::run_traced(spec);
            self.spans.close(row);
            wall += t.wall;
            let what = format!("{} (traced)", spec.id());
            let outcome = match t.out {
                Err(e) => Err(format!("{what}: panicked: {e}")),
                Ok(traced) => {
                    events += traced.events;
                    registry.merge(&traced.metrics);
                    records.push(traced.record);
                    match want {
                        Some(want) => check::same_record(&what, want, &traced.record),
                        None => Ok(()),
                    }
                }
            };
            self.tally.check(outcome);
        }
        self.spans.close(span);
        (wall.as_secs_f64(), records, events, registry)
    }

    /// Each row's smoke-scale twin, run once and compared with its
    /// committed baseline row.
    fn twins(&mut self, specs: &[RunSpec], baselines: &Baselines) {
        let span = self.spans.open("twins", None);
        for spec in specs {
            let Some(twin) = check::smoke_twin(spec) else {
                continue;
            };
            if baselines.get(&twin.id()).is_empty() {
                continue;
            }
            let row = self.spans.open(&twin.id(), Some(span));
            let t = workloads::run(&twin);
            self.spans.close(row);
            let outcome = workloads::record(&t.out)
                .map_err(|e| format!("{}: {e}", twin.id()))
                .and_then(|_| check::against_baseline(&t.out, baselines));
            self.tally.check(outcome);
        }
        self.spans.close(span);
    }

    fn layer_calls(&mut self) -> Vec<layers::LayerCall> {
        let span = self.spans.open("layers", None);
        let mut calls = Vec::new();
        for call in layers::measure(CALL_REPS) {
            self.tally.check(call.map(|c| calls.push(c)));
        }
        self.spans.close(span);
        calls
    }

    fn report(&self, args: &Args, metrics: &[(&'static str, f64)]) {
        let failed = self.tally.failures.len();
        println!(
            "workload {} seed {} ({} s, trace {}, {} host cores)",
            args.workload.name,
            args.seed,
            args.seconds,
            args.trace as u8,
            workloads::host_cores()
        );
        for (name, value) in metrics {
            println!(
                "  {name:<32} {value:>16.6} {}",
                metrics::unit(name).unwrap_or("")
            );
        }
        println!(
            "  {:<32} {:>16} of {} runs",
            "runs_failed", failed, self.tally.attempted
        );
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    metrics::unit(name).unwrap_or("")
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.tally.attempted.max(1),
            failed,
            body.join(", ")
        );
    }
}
