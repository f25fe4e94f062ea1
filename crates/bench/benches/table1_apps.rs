//! Table 1 — characteristics of the applications: API, problem size, and
//! sequential execution time (1-node run; Ocean-NX reports its 2-node time,
//! as in the paper's footnote).

use shrimp_bench::{announce, render_table, secs, App};
use shrimp_core::DesignConfig;

fn main() {
    announce("Table 1: application characteristics");
    let mut rows = Vec::new();
    for app in App::all() {
        let nodes = app.min_nodes();
        let out = app.run(nodes, DesignConfig::default());
        rows.push(vec![
            app.name().to_string(),
            app.api().to_string(),
            app.problem_size(),
            format!(
                "{}{}",
                secs(out.elapsed),
                if nodes > 1 {
                    format!(" ({nodes}-node)")
                } else {
                    String::new()
                }
            ),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Table 1: Characteristics of the applications",
            &["Application", "API", "Problem Size", "Seq Exec Time (sec)"],
            &rows,
        )
    );
}
