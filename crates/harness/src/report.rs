//! The end-of-sweep summary: the paper's tables, rendered from the
//! in-memory results in matrix order.
//!
//! Every experiment group with a paper table prints that table under its
//! title and a "Paper: …" footnote; the `table1` rows print as Table 3.
//! Groups without one print a line per run. Each table row compares a run
//! with a base — its as-built configuration (Tables 2 and 4), its HLRC
//! twin (Fig 4 left) or the first run of its pair (Fig 4 right, §4.5) —
//! and the two must compute the same answer: every checksum disagreement
//! is listed.

use shrimp_bench::{render_table, secs, Knobs, RunRecord, RunSpec, Variant};
use shrimp_sim::time;

use crate::runner::RunResult;

/// A run a table cell reads, if the sweep holds it.
type Run<'a> = Option<&'a RunResult>;

/// The rendered summary and the checksum disagreements it found.
#[derive(Debug)]
pub struct Report {
    /// The tables and per-run lines, ready to print.
    pub text: String,
    /// `(base, run)` id pairs whose checksums differ although both runs
    /// must compute the same answer. Any entry fails the sweep.
    pub mismatches: Vec<(String, String)>,
}

/// Per group with a paper table: the title, the column headers after the
/// leading "Application" and what the paper found.
const TABLES: [(&str, &str, &[&str], &str); 8] = [
    (
        "fig4-svm-au",
        "Figure 4 (left): normalized exec time vs HLRC",
        &["Protocol", "Norm time", "Gain vs HLRC"],
        "AURC gains over HLRC of 9.1% (Barnes), 30.2% (Ocean), 79.3% (Radix);\n\
         HLRC-AU within noise of HLRC (sometimes slightly worse).",
    ),
    (
        "fig4-du-au",
        "Figure 4 (right): DU vs AU bulk transfer",
        &["DU (s)", "AU (s)", "AU/DU"],
        "AU improves Radix-VMMC's speedup by ~3.4x; for the NX\n\
         message-passing applications AU does not help (DU DMA wins).",
    ),
    (
        "table1",
        "Table 3: notifications vs total messages",
        &["Notifications", "Total Messages", "%"],
        "Barnes-SVM 33%, Ocean-SVM 8%, Radix-SVM 42%; Barnes/Ocean-NX 1%;\n\
         Radix-VMMC, DFS-sockets and Render-sockets 0% (pure polling).",
    ),
    (
        "table2",
        "Table 2: execution-time increase with a syscall per send",
        &["UDMA (s)", "Syscall (s)", "Messages", "Increase"],
        "2.3% (Radix-SVM) to 52.2% (Barnes-NX); message-intensive\n\
         applications suffer most.",
    ),
    (
        "table4",
        "Table 4: execution-time increase with an interrupt per arrival",
        &["Base (s)", "Interrupts (s)", "Slowdown"],
        "18.1% Barnes-SVM, 25.1% Ocean-SVM, 1.1% Radix-SVM, 0.3% Radix-VMMC,\n\
         6.3% Barnes-NX (8 nodes), 15.7% Ocean-NX, 18.3% DFS, 8.5% Render.",
    ),
    (
        "combining",
        "Section 4.5.1: effect of disabling AU combining",
        &[
            "Combining on (s)",
            "Combining off (s)",
            "Slowdown w/o combining",
        ],
        "<1% for Radix-VMMC and the AURC SVM applications;\n\
         ~2x for DFS-sockets forced to use AU without combining.",
    ),
    (
        "fifo",
        "Section 4.5.2: 32 KB vs 1 KB outgoing FIFO",
        &["32 KB (s)", "1 KB (s)", "Difference"],
        "no detectable difference with the 1 KB FIFO.",
    ),
    (
        "du-queue",
        "Section 4.5.3: 2-deep DU request queue",
        &["Depth 1 (s)", "Depth 2 (s)", "Change"],
        "within 1% of total execution time.",
    ),
];

/// Renders the summary of `results`, a sweep whose matrix was capped at
/// `nodes` nodes.
pub fn render(results: &[RunResult], nodes: usize) -> Report {
    let mut text = String::new();
    let mut mismatches = Vec::new();
    for group in results.chunk_by(|a, b| a.spec.experiment == b.spec.experiment) {
        let experiment = group[0].spec.experiment;
        text += &match TABLES.iter().find(|t| t.0 == experiment) {
            Some(&(_, title, headers, paper)) => {
                let rows = rows(results, group, nodes, &mut mismatches);
                let headers = [&["Application"], headers].concat();
                render_table(&format!("{title} ({nodes} nodes)"), &headers, &rows)
                    + &format!("\nPaper: {paper}\n")
            }
            None if experiment == "fig3" => fig3(group),
            None => per_run(group),
        };
    }
    for (base, run) in &mismatches {
        text += &format!("\nchecksum mismatch: {base} vs {run}");
    }
    Report { text, mismatches }
}

/// A cell comparing `run` with `base`: `-` when either is missing, `run`'s
/// status when it failed, `-` when `base` failed, else `f(base, run)`.
/// A cell of one run passes it as its own base.
fn cell(base: Run, run: Run, f: impl Fn(&RunRecord, &RunRecord) -> String) -> String {
    let (Some(base), Some(run)) = (base, run) else {
        return "-".into();
    };
    match (base.status.record(), run.status.record()) {
        (_, None) => run.status.label().into(),
        (Some(b), Some(r)) => f(b, r),
        (None, _) => "-".into(),
    }
}

fn increase(base: &RunRecord, new: &RunRecord) -> f64 {
    (new.elapsed as f64 - base.elapsed as f64) / base.elapsed as f64 * 100.0
}

/// Row label naming the version, e.g. `Radix-SVM (AURC)`.
fn label(spec: &RunSpec) -> String {
    let version = match spec.variant {
        Variant::ForcedAu => "forced AU".into(),
        v => v.label().to_uppercase(),
    };
    format!("{} ({version})", spec.app.name())
}

/// The rows of a paper table other than Fig 3: one per run, beside its
/// base. The base of a Table 2 or 4 row is the as-built run of the same
/// application, nodes, scale, seed and resolved version anywhere in the
/// sweep; in a pair or protocol triple it is the application's reference
/// run in the group (HLRC, DU, combining on, the 32 KB FIFO, queue depth
/// 1), which gets no row of its own in a pair. A run and its base that
/// disagree on the checksum are recorded in `bad`.
fn rows(
    all: &[RunResult],
    group: &[RunResult],
    nodes: usize,
    bad: &mut Vec<(String, String)>,
) -> Vec<Vec<String>> {
    let experiment = group[0].spec.experiment;
    let first = |s: &RunSpec| match experiment {
        "fig4-svm-au" => s.variant.label() == "hlrc",
        "fig4-du-au" => s.variant.label() == "du",
        "combining" => s.knobs.combining == Some(true),
        "fifo" => s.knobs.fifo_bytes == Some(32 * 1024),
        _ => s.knobs.du_queue_depth == Some(1),
    };
    let pairs = !matches!(experiment, "table1" | "table2" | "table4" | "fig4-svm-au");
    let mut rows = Vec::new();
    for r in group.iter().filter(|r| !(pairs && first(&r.spec))) {
        let s = &r.spec;
        let base = match experiment {
            "table1" => Some(r),
            "table2" | "table4" => all.iter().find(|b| {
                let t = &b.spec;
                (t.app, t.nodes, t.scale, t.seed) == (s.app, s.nodes, s.scale, s.seed)
                    && t.variant.resolve(t.app) == s.variant.resolve(s.app)
                    && t.knobs == Knobs::as_built()
            }),
            _ => group.iter().find(|b| b.spec.app == s.app && first(&b.spec)),
        };
        let sum = |x: &RunResult| x.status.record().map(|m| m.checksum);
        let differs = |b: &&RunResult| sum(b).zip(sum(r)).is_some_and(|(x, y)| x != y);
        if let Some(b) = base.filter(differs) {
            bad.push((b.spec.id(), s.id()));
        }
        let own = |f: fn(&RunRecord) -> String| cell(Some(r), Some(r), |_, m| f(m));
        let mut row = vec![match experiment {
            "combining" | "fifo" | "du-queue" => label(s),
            "table4" if s.nodes != nodes => format!("{} ({} nodes)", s.app.name(), s.nodes),
            _ => s.app.name().to_string(),
        }];
        match experiment {
            "fig4-svm-au" => {
                let norm = |h: &RunRecord, m: &RunRecord| m.elapsed as f64 / h.elapsed as f64;
                row.push(s.variant.label().to_uppercase());
                row.push(cell(base, Some(r), |h, m| format!("{:.3}", norm(h, m))));
                row.push(cell(base, Some(r), |h, m| {
                    format!("{:+.1}%", (1.0 - norm(h, m)) * 100.0)
                }));
            }
            "table1" => row.extend([
                own(|m| m.notifications.to_string()),
                own(|m| m.messages.to_string()),
                own(|m| {
                    let pct = m.notifications as f64 / m.messages.max(1) as f64 * 100.0;
                    format!("{pct:.0}%")
                }),
            ]),
            _ => {
                row.push(cell(base, base, |_, b| secs(b.elapsed)));
                row.push(own(|m| secs(m.elapsed)));
                if experiment == "table2" {
                    row.push(cell(base, base, |_, b| b.messages.to_string()));
                }
                row.push(cell(base, Some(r), |b, m| match experiment {
                    "table2" | "table4" => format!("{:.1}%", increase(b, m)),
                    "fig4-du-au" => format!("{:.2}x", b.elapsed as f64 / m.elapsed as f64),
                    "combining" if s.variant == Variant::ForcedAu => format!(
                        "{:+.0}% ({:.2}x)",
                        increase(b, m),
                        m.elapsed as f64 / b.elapsed as f64
                    ),
                    _ => format!("{:+.2}%", increase(b, m)),
                }));
            }
        }
        rows.push(row);
    }
    rows
}

/// Figure 3: each version's speedup over its own p=1 row.
fn fig3(group: &[RunResult]) -> String {
    let mut counts: Vec<usize> = group.iter().map(|r| r.spec.nodes).collect();
    counts.sort_unstable();
    counts.dedup();
    let mut rows = Vec::new();
    for (i, r) in group.iter().enumerate() {
        let same = |s: &RunSpec| (s.app, s.variant) == (r.spec.app, r.spec.variant);
        if group[..i].iter().any(|s| same(&s.spec)) {
            continue;
        }
        let at = |p| group.iter().find(|s| same(&s.spec) && s.spec.nodes == p);
        let mut row = vec![label(&r.spec)];
        for &p in &counts {
            row.push(cell(at(1), at(p), |seq, m| {
                format!("{:.2}", seq.elapsed as f64 / m.elapsed as f64)
            }));
        }
        rows.push(row);
    }
    let mut headers = vec!["Application".to_string()];
    headers.extend(counts.iter().map(|p| format!("p={p}")));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    render_table("Figure 3: Speedups over sequential", &headers, &rows)
}

/// A group without a paper table: one line per run.
fn per_run(group: &[RunResult]) -> String {
    let rows: Vec<Vec<String>> = group
        .iter()
        .map(|r| {
            let c = |f: fn(&RunRecord) -> String| r.status.record().map_or("-".into(), f);
            vec![
                r.spec.id(),
                c(|m| format!("{:.3}", time::to_secs(m.elapsed))),
                c(|m| m.messages.to_string()),
                c(|m| m.interrupts.to_string()),
                c(|m| m.net_packets.to_string()),
                r.status.label().into(),
            ]
        })
        .collect();
    let headers = ["run", "sim(s)", "messages", "intr", "net-pkts", "status"];
    render_table(group[0].spec.experiment, &headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunStatus;
    use shrimp_bench::{matrix, App, Scale};

    /// A completed run whose elapsed time is `centis` hundredths of a
    /// simulated second.
    fn ok(spec: RunSpec, centis: u64, checksum: u64) -> RunResult {
        let record = RunRecord {
            elapsed: time::ms(10) * centis,
            checksum,
            messages: 100,
            notifications: 25,
            interrupts: 0,
            syscalls: 0,
            net_packets: 0,
            net_bytes: 0,
            recovery: None,
            kv: None,
        };
        with_status(spec, RunStatus::Ok(record))
    }

    fn with_status(spec: RunSpec, status: RunStatus) -> RunResult {
        RunResult {
            index: 0,
            spec,
            status,
            perf: None,
            obs: None,
            checkpoint: None,
        }
    }

    /// Every row of `matrix(scale, nodes)`, completed with elapsed times
    /// 1, 2, 3, … hundredths of a second in matrix order.
    fn completed(scale: Scale, nodes: usize) -> Vec<RunResult> {
        matrix(scale, nodes)
            .into_iter()
            .enumerate()
            .map(|(i, s)| ok(s, i as u64 + 1, 7))
            .collect()
    }

    fn line<'a>(text: &'a str, prefix: &str) -> &'a str {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line starting {prefix:?} in\n{text}"))
    }

    fn section<'a>(text: &'a str, title: &str) -> &'a str {
        &text[text.find(title).expect(title)..]
    }

    fn cells(line: &str) -> Vec<&str> {
        line.split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect()
    }

    const TITLES: [&str; 9] = [
        "=== Figure 3: ",
        "=== Figure 4 (left): ",
        "=== Figure 4 (right): ",
        "=== Table 2: ",
        "=== Table 3: ",
        "=== Table 4: ",
        "=== Section 4.5.1: ",
        "=== Section 4.5.2: ",
        "=== Section 4.5.3: ",
    ];

    #[test]
    fn every_paper_group_gets_its_table_once() {
        let report = render(&completed(Scale::Smoke, 4), 4);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        for title in TITLES {
            assert_eq!(report.text.matches(title).count(), 1, "{title}");
        }
        for group in [
            "chaos",
            "parallel",
            "cluster",
            "chaos-cluster",
            "warm",
            "kv",
        ] {
            assert!(report.text.contains(&format!("=== {group} ===")), "{group}");
        }
        let dash = report.text.lines().any(|l| cells(l).contains(&"-"));
        assert!(!dash, "a base is missing:\n{}", report.text);
    }

    #[test]
    fn table2_increase_is_against_the_table1_base() {
        let smoke = |exp| RunSpec::new(exp, App::RadixVmmc, 4, Scale::Smoke);
        let syscall = Knobs {
            syscall_send: true,
            ..Knobs::as_built()
        };
        let results = [
            ok(smoke("table1"), 40, 1),
            ok(smoke("table2").with_knobs(syscall), 50, 1),
        ];
        let report = render(&results, 4);
        let row = cells(line(section(&report.text, "=== Table 2: "), "Radix-VMMC  "));
        assert_eq!(row, ["Radix-VMMC", "0.40", "0.50", "100", "25.0%"]);
        assert!(report.mismatches.is_empty());
    }

    #[test]
    fn table4_barnes_nx_base_is_the_fig3_du_row_at_8_nodes() {
        let results = completed(Scale::Reduced, 16);
        let id = "fig3/barnes-nx-du/p8/as-built";
        let pos = results.iter().position(|r| r.spec.id() == id).expect(id);
        let report = render(&results, 16);
        let table4 = section(&report.text, "=== Table 4: ");
        let row = cells(line(table4, "Barnes-NX (8 nodes)"));
        assert_eq!(row[1], format!("{:.2}", (pos + 1) as f64 / 100.0));
    }

    #[test]
    fn missing_bases_print_a_dash() {
        let spec = |exp, nodes| RunSpec::new(exp, App::OceanNx, nodes, Scale::Smoke);
        let intr = Knobs {
            interrupt_per_message: true,
            ..Knobs::as_built()
        };
        let results = [
            ok(spec("fig3", 2), 20, 1),
            ok(spec("table4", 4).with_knobs(intr), 30, 1),
        ];
        let text = render(&results, 4).text;
        let fig3 = cells(line(&text, "Ocean-NX (DEFAULT)"));
        assert_eq!(fig3, ["Ocean-NX (DEFAULT)", "-"]);
        let table4 = cells(line(&text, "Ocean-NX  "));
        assert_eq!(table4, ["Ocean-NX", "-", "0.30", "-"]);
    }

    #[test]
    fn failed_rows_show_their_status() {
        let spec = RunSpec::new("chaos", App::DfsSockets, 2, Scale::Smoke);
        let results = [
            ok(spec.clone(), 1, 1),
            with_status(spec.clone(), RunStatus::Panicked("boom".into())),
            with_status(RunSpec { nodes: 1, ..spec }, RunStatus::TimedOut),
        ];
        let text = render(&results, 4).text;
        assert!(text.contains("=== chaos ==="));
        let rows: Vec<_> = text.lines().filter(|l| l.starts_with("chaos/")).collect();
        assert_eq!(cells(rows[0]).last(), Some(&"ok"));
        assert_eq!(cells(rows[1])[1..], ["-", "-", "-", "-", "panic"]);
        assert_eq!(cells(rows[2]).last(), Some(&"timeout"));

        let pair = |on| {
            RunSpec::new("combining", App::RadixVmmc, 4, Scale::Smoke).with_knobs(Knobs {
                combining: Some(on),
                ..Knobs::as_built()
            })
        };
        let results = [
            ok(pair(true), 10, 1),
            with_status(pair(false), RunStatus::Panicked("boom".into())),
        ];
        let text = render(&results, 4).text;
        let row = cells(line(&text, "Radix-VMMC (DEFAULT)"));
        assert_eq!(row, ["Radix-VMMC (DEFAULT)", "0.10", "panic", "panic"]);
    }

    #[test]
    fn checksum_mismatches_are_flagged() {
        let mut results = completed(Scale::Smoke, 4);
        let fifo = results
            .iter_mut()
            .find(|r| r.spec.experiment == "fifo")
            .unwrap();
        let RunStatus::Ok(record) = &mut fifo.status else {
            unreachable!()
        };
        record.checksum += 1;
        let report = render(&results, 4);
        assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
        let (a, b) = &report.mismatches[0];
        assert!(a.starts_with("fifo/") && b.starts_with("fifo/"));
        assert!(report
            .text
            .contains(&format!("checksum mismatch: {a} vs {b}")));
    }
}
