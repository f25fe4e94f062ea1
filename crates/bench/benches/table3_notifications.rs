//! Table 3 — per-application notification counts and notifications as a
//! percentage of total messages, 16 nodes.
//!
//! Paper: the SVM applications rely on notifications (8%–42% of messages);
//! the VMMC, NX and sockets applications poll and use none.

use shrimp_bench::{announce, global_scale, matrix, max_nodes, print_table};

fn main() {
    announce("Table 3: notifications");
    let nodes = max_nodes();
    let mut rows = Vec::new();
    // The matrix's table1 rows: every Table 1 app as built, in its default
    // version, at the headline node count.
    for spec in matrix(global_scale(), nodes)
        .into_iter()
        .filter(|s| s.experiment == "table1")
    {
        let out = spec.execute();
        let pct = if out.messages > 0 {
            out.notifications as f64 / out.messages as f64 * 100.0
        } else {
            0.0
        };
        rows.push(vec![
            spec.app.name().to_string(),
            format!("{}", out.notifications),
            format!("{}", out.messages),
            format!("{pct:.0}%"),
        ]);
        println!("[table3] {}: done", spec.app.name());
    }
    print_table(
        &format!("Table 3: notifications vs total messages ({nodes} nodes)"),
        &["Application", "Notifications", "Total Messages", "%"],
        &rows,
    );
    println!(
        "\nPaper: Barnes-SVM 33%, Ocean-SVM 8%, Radix-SVM 42%; Barnes/Ocean-NX 1%;\n\
         Radix-VMMC, DFS-sockets and Render-sockets 0% (pure polling)."
    );
}
