//! Self-tests of the benchmark: its names, its seed plumbing, and that its
//! correctness check can fail.

use shrimp_bench::{RunRecord, RunSpec, Scale};
use shrimp_harness::json::{self, Json};

use crate::check::{self, Baselines};
use crate::metrics::{valid_name, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{self, WORKLOADS};
use crate::{Bench, Tally};

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn metric_names_are_valid_unique_and_declared() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, _)| n)
        .collect();
    for name in &all {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(name.len() <= 64, "metric name too long: {name}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a metric name is used twice");
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }

    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| list.iter().map(|&(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
}

/// The workload's `experiment` row, shrunk to smoke scale so the test is
/// fast.
fn smoke_row(workload: &str, experiment: &str, seed: u64) -> RunSpec {
    let mut spec = workloads::find(workload)
        .unwrap()
        .specs(seed)
        .into_iter()
        .find(|s| s.experiment == experiment)
        .unwrap_or_else(|| panic!("{workload} has no {experiment} row"));
    spec.scale = Scale::Smoke;
    spec
}

fn record_of(spec: &RunSpec) -> RunRecord {
    *workloads::record(&workloads::run(spec).out).expect("row runs")
}

#[test]
fn same_seed_same_records_other_seed_other_inputs() {
    for (workload, experiment) in [("svm-au", "fig3"), ("cluster-sh1", "cluster")] {
        let a = record_of(&smoke_row(workload, experiment, 7));
        let b = record_of(&smoke_row(workload, experiment, 7));
        let c = record_of(&smoke_row(workload, experiment, 8));
        assert_eq!(a, b, "{workload}/{experiment}: same seed, different record");
        assert_ne!(
            a.checksum, c.checksum,
            "{workload}/{experiment}: seed did not reach the inputs"
        );
    }
    // The KV row is out of the workloads (see README), but its inputs
    // still follow the spec seed.
    let kv = |seed| {
        let mut spec = shrimp_bench::matrix(Scale::Smoke, 4)
            .into_iter()
            .find(|s| s.id() == "kv/kv-replicated-default/p16/as-built")
            .unwrap()
            .with_seed(seed);
        spec.scale = Scale::Smoke;
        record_of(&spec)
    };
    assert_eq!(kv(7), kv(7));
    assert_ne!(
        kv(7).checksum,
        kv(8).checksum,
        "kv: seed did not reach the inputs"
    );
}

fn bench() -> Bench {
    Bench {
        tally: Tally::default(),
        spans: Spans::new(),
    }
}

#[test]
fn a_wrong_expected_row_is_a_failed_run() {
    let spec = workloads::find("msg-du").unwrap().specs(1).remove(0);
    let twin = check::smoke_twin(&spec).expect("radix-vmmc-du has a smoke twin");
    let truth = check::sweep_row(&workloads::run(&twin).out);

    let mut ok = bench();
    ok.twins(
        std::slice::from_ref(&spec),
        &Baselines::from_rows(vec![truth.clone()]),
    );
    assert_eq!((ok.tally.attempted, ok.tally.failures.len()), (1, 0));

    let mut wrong = truth;
    if let Json::Obj(row) = &mut wrong {
        if let Some(Json::Obj(metrics)) = row.get_mut("metrics") {
            metrics.insert("checksum".into(), Json::Num("12345".into()));
        }
    }
    let mut bad = bench();
    bad.twins(
        std::slice::from_ref(&spec),
        &Baselines::from_rows(vec![wrong]),
    );
    assert_eq!((bad.tally.attempted, bad.tally.failures.len()), (1, 1));
    assert!(
        bad.tally.failures[0].contains("checksum"),
        "{:?}",
        bad.tally.failures
    );
}

#[test]
fn a_changed_record_is_a_failed_run() {
    let want = record_of(&smoke_row("msg-du", "fig4-du-au", 1));
    let mut other = want;
    other.elapsed += 1;
    assert!(check::same_record("row", &want, &want).is_ok());
    assert!(check::same_record("row", &want, &other).is_err());
}

#[test]
fn committed_baselines_load() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/baselines");
    let b = Baselines::load(&dir).expect("baselines load");
    assert!(!b.get("fig3/radix-svm-aurc/p4/as-built").is_empty());
}
