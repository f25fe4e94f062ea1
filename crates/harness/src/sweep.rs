//! Sweep artifact: the flat row schema written to `results/sweep.json`
//! and the committed baselines.
//!
//! Rows contain **simulated, deterministic quantities only** — no
//! wall-clock, no dates, no host information — so the file is
//! byte-identical whether the sweep ran on 1 worker or 16, today or next
//! year. Rows appear in matrix order (spec index), not completion order.

use std::fmt::Write as _;

use shrimp_bench::Observation;
use shrimp_sim::metrics::{HistogramSnapshot, MetricValue};

use crate::json::escape;
use crate::runner::{RunResult, RunStatus};

/// Schema tag written into every sweep document. `v2` added the optional
/// observed-metrics entries (histograms/gauges as nested objects under
/// `"<category>/<name>"` keys) to the per-row `metrics` block; rows from
/// unobserved sweeps are byte-identical to `v1` rows.
pub const SCHEMA: &str = "shrimp-sweep-v2";

/// The previous schema tag; the regression gate reads both.
pub const SCHEMA_V1: &str = "shrimp-sweep-v1";

/// Serializes results as the sweep document.
pub fn to_json(scale: &str, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", escape(scale));
    out.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"id\": \"{}\", \"experiment\": \"{}\", \"app\": \"{}\", \
             \"variant\": \"{}\", \"nodes\": {}, \"seed\": {}, \"knobs\": \"{}\", \
             \"status\": \"{}\"",
            escape(&r.spec.id()),
            escape(r.spec.experiment),
            escape(r.spec.app.name()),
            escape(r.spec.variant.label()),
            r.spec.nodes,
            r.spec.seed,
            escape(&r.spec.design_config().knob_summary()),
            r.status.label(),
        );
        match &r.status {
            RunStatus::Ok(record) => {
                out.push_str(", \"metrics\": {");
                for (j, (k, v)) in record.fields().iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{k}\": {v}");
                }
                if let Some(obs) = &r.obs {
                    write_observed_metrics(&mut out, obs);
                }
                out.push('}');
            }
            RunStatus::Panicked(msg) => {
                let _ = write!(out, ", \"error\": \"{}\"", escape(msg));
            }
            RunStatus::TimedOut => {}
        }
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Appends the observed-metrics entries to an open per-row `metrics`
/// object: one `"<category>/<name>"` key per registry instrument, in
/// snapshot (deterministic) order. Counters serialize as plain numbers
/// like the flat record fields; gauges and histograms as nested objects
/// with a `"kind"` discriminator. The slash in the key keeps the observed
/// namespace disjoint from the gated flat fields, and the regression gate
/// skips nested objects anyway (`as_u64` on an object is `None`).
fn write_observed_metrics(out: &mut String, obs: &Observation) {
    for s in &obs.metrics.samples {
        let _ = write!(out, ", \"{}/{}\": ", s.category.as_str(), s.name);
        match &s.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge { last, max } => {
                let _ = write!(
                    out,
                    "{{\"kind\": \"gauge\", \"last\": {last}, \"max\": {max}}}"
                );
            }
            MetricValue::Histogram(h) => write_histogram(out, h),
        }
    }
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
         \"buckets\": [",
        h.count, h.sum, h.min, h.max
    );
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use shrimp_bench::{App, RunSpec, Scale};

    fn fake_results() -> Vec<RunResult> {
        let spec = RunSpec::new("test", App::DfsSockets, 2, Scale::Smoke);
        let record = spec.execute();
        vec![
            RunResult {
                index: 0,
                spec: spec.clone(),
                status: RunStatus::Ok(record),
                perf: None,
                obs: None,
                checkpoint: None,
            },
            RunResult {
                index: 1,
                spec,
                status: RunStatus::Panicked("boom".to_string()),
                perf: None,
                obs: None,
                checkpoint: None,
            },
        ]
    }

    #[test]
    fn json_round_trips_and_has_no_wall_clock() {
        let results = fake_results();
        let text = to_json("smoke", &results);
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("status").unwrap().as_str(), Some("ok"));
        assert!(rows[0].get("metrics").unwrap().get("elapsed_ns").is_some());
        assert_eq!(rows[1].get("status").unwrap().as_str(), Some("panic"));
        assert_eq!(rows[1].get("error").unwrap().as_str(), Some("boom"));
        // Determinism guard: nothing date- or host-shaped in the artifact.
        for needle in ["wall", "date", "host"] {
            assert!(!text.contains(needle), "artifact leaks '{needle}'");
        }
    }
}
