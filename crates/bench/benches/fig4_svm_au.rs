//! Figure 4 (left) — comparing automatic with deliberate update for shared
//! virtual memory: HLRC vs HLRC-AU vs AURC on Barnes-SVM, Ocean-SVM and
//! Radix-SVM at 16 nodes, with the normalized execution-time breakdown.
//!
//! Paper findings to reproduce: AURC beats HLRC (by 9.1% / 30.2% / 79.3%
//! across the three applications, largest for Radix's false sharing), while
//! HLRC-AU is at best marginally better than HLRC and can slightly hurt.
//!
//! Runs the `fig4-svm-au` rows of [`shrimp_bench::matrix`]; the harness
//! sweep prints their normalized times too, but only this target keeps
//! each run's lock, barrier, release and fault shares.

use shrimp_bench::{announce, global_scale, matrix, max_nodes, render_table};
use shrimp_core::Cluster;

fn main() {
    announce("Figure 4 (left): HLRC vs HLRC-AU vs AURC");
    let nodes = max_nodes();
    let mut rows = Vec::new();
    let mut hlrc = None;
    for spec in matrix(global_scale(), nodes)
        .into_iter()
        .filter(|s| s.experiment == "fig4-svm-au")
    {
        let cluster = Cluster::builder(spec.nodes)
            .config(spec.design_config())
            .build();
        let out = spec.run_on(&cluster);
        let name = spec.app.name();
        // The matrix lists each application's HLRC row first.
        if spec.variant.label() == "hlrc" {
            hlrc = Some(out.clone());
        }
        let hlrc = hlrc.as_ref().expect("HLRC runs first");
        assert_eq!(
            out.checksum, hlrc.checksum,
            "{name}: protocols computed different results"
        );
        let b = out.svm.expect("SVM run without breakdown");
        let node_time = out.elapsed as f64 * nodes as f64;
        let pct = |t: u64| format!("{:.1}%", t as f64 / node_time * 100.0);
        let norm = out.elapsed as f64 / hlrc.elapsed as f64;
        rows.push(vec![
            name.to_string(),
            spec.variant.label().to_uppercase(),
            format!("{:.3}", norm),
            format!("{:+.1}%", (1.0 - norm) * 100.0),
            pct(b.lock),
            pct(b.barrier),
            pct(b.release),
            pct(b.fault),
        ]);
        println!("[fig4-left] {}: done", spec.id());
    }
    print!(
        "{}",
        render_table(
            "Figure 4 (left): normalized exec time vs HLRC, with category shares",
            &[
                "Application",
                "Protocol",
                "Norm time",
                "Gain vs HLRC",
                "Lock",
                "Barrier",
                "Release",
                "Comm(fault)",
            ],
            &rows,
        )
    );
    println!(
        "\nPaper: AURC gains over HLRC of 9.1% (Barnes), 30.2% (Ocean), 79.3% (Radix);\n\
         HLRC-AU within noise of HLRC (sometimes slightly worse)."
    );
}
