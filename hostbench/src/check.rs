//! Correctness checks: each row's record must repeat across passes (and
//! across shard counts on launch rows), and each row's smoke-scale twin
//! must reproduce its committed baseline row exactly.

use std::collections::BTreeMap;
use std::path::Path;

use shrimp_bench::{matrix, RunRecord, RunSpec, Scale, Shards};
use shrimp_harness::json::{self, Json};
use shrimp_harness::{sweep, RunResult};

/// Baseline rows by id, from every sweep-schema file in a directory.
/// Perf baselines (another schema) are skipped.
pub struct Baselines {
    rows: BTreeMap<String, Vec<Json>>,
}

impl Baselines {
    /// Loads `dir/*.json`.
    pub fn load(dir: &Path) -> Result<Baselines, String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut rows = Vec::new();
        for path in paths {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = json::parse_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
            if schema.starts_with("shrimp-sweep-") {
                rows.extend(
                    doc.get("rows")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .cloned(),
                );
            }
        }
        let baselines = Baselines::from_rows(rows);
        if baselines.rows.is_empty() {
            return Err(format!("no baseline rows under {}", dir.display()));
        }
        Ok(baselines)
    }

    /// Baselines holding `rows`, keyed by their `id`.
    pub fn from_rows(rows: Vec<Json>) -> Baselines {
        let mut map: BTreeMap<String, Vec<Json>> = BTreeMap::new();
        for row in rows {
            if let Some(id) = row.get("id").and_then(Json::as_str) {
                map.entry(id.to_string()).or_default().push(row);
            }
        }
        Baselines { rows: map }
    }

    /// Every committed version of row `id`.
    pub fn get(&self, id: &str) -> &[Json] {
        self.rows.get(id).map_or(&[], Vec::as_slice)
    }
}

/// The smoke-scale twin of a reduced row: the smoke matrix row with the
/// same experiment, application, version and knobs (shard count left to
/// the sweep), on the most nodes not above the row's.
pub fn smoke_twin(spec: &RunSpec) -> Option<RunSpec> {
    matrix(Scale::Smoke, 4)
        .into_iter()
        .filter(|s| {
            s.experiment == spec.experiment
                && s.app == spec.app
                && s.variant == spec.variant
                && s.knobs == spec.knobs
                && s.shards == Shards::Auto
                && s.nodes <= spec.nodes
        })
        .max_by_key(|s| s.nodes)
}

/// The sweep row a result serializes to, exactly as `sweep.json` and the
/// baselines hold it.
pub fn sweep_row(result: &RunResult) -> Json {
    let doc = json::parse(&sweep::to_json("smoke", std::slice::from_ref(result)))
        .expect("the harness writes valid JSON");
    doc.get("rows")
        .and_then(Json::as_arr)
        .and_then(|rows| rows.first())
        .cloned()
        .expect("one result gives one row")
}

/// Compares a twin's result with every committed baseline row of its id
/// (none: nothing to check).
pub fn against_baseline(result: &RunResult, baselines: &Baselines) -> Result<(), String> {
    let id = result.spec.id();
    let got = sweep_row(result);
    for want in baselines.get(&id) {
        if *want != got {
            return Err(format!(
                "{id} differs from its baseline row: {}",
                diff(want, &got)
            ));
        }
    }
    Ok(())
}

/// The first differing metric between two rows (for the failure message).
fn diff(want: &Json, got: &Json) -> String {
    let field = |row: &Json, key: &str| row.get("metrics").and_then(|m| m.get(key)).cloned();
    if let Some(Json::Obj(m)) = want.get("metrics") {
        for key in m.keys() {
            if field(want, key) != field(got, key) {
                return format!(
                    "{key}: baseline {:?}, run {:?}",
                    field(want, key),
                    field(got, key)
                );
            }
        }
    }
    format!("baseline {want:?}, run {got:?}")
}

/// Checks a pass's record of a row against the reference record.
pub fn same_record(what: &str, reference: &RunRecord, got: &RunRecord) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: record changed ({reference:?} then {got:?})"
        ))
    }
}
