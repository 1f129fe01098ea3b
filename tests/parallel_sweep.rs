//! The parallel-sweep determinism contract (DESIGN.md §10): running the
//! experiment suite on N worker threads must produce the same bytes as
//! running it serially, and audit checkpoints must stay clean either way.
//!
//! These tests run unconditionally — byte-identity holds on any host,
//! including single-core CI runners where the "parallel" pool degrades
//! to one busy worker. (Wall-clock speedup is asserted separately in
//! `crates/bench/tests/sweep_speedup.rs`, where real-time measurement is
//! allowed.)

use tiersim::core::{run_workload, ExperimentConfig, MachineConfig, RunReport, TraceConfig};
use tiersim::policy::TieringMode;
use tiersim_bench::{all_sections, run_repro_sections, run_repro_suite, SECTIONS};
use tiersim_core::experiments::{Characterization, Comparison};
use tiersim_core::journal::codec::fnv1a64;
use tiersim_core::sweep;

fn tiny(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        scale: 11,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs,
        trace: TraceConfig::off(),
        tick_budget: 0,
        thp: false,
    }
}

fn serialized(report: &RunReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    report.write_summary_csv(&mut bytes).expect("summary csv");
    report.write_timeline_csv(&mut bytes).expect("timeline csv");
    bytes
}

/// The acceptance check from ISSUE 4: the full `repro_all` suite with
/// `--jobs 4` records byte-identical output (reports + summary) to
/// `--jobs 1`.
#[test]
fn repro_suite_output_is_byte_identical_across_jobs() {
    let serial = run_repro_suite(&tiny(1), false);
    let parallel = run_repro_suite(&tiny(4), false);
    assert!(!serial.output().is_empty());
    assert_eq!(serial.output(), parallel.output(), "suite output diverged between jobs=1 and 4");
    assert_eq!(serial.summary(), parallel.summary());
    assert_eq!(serial.exit_code(), 0);
    assert_eq!(parallel.exit_code(), 0);
    // Pins the suite's bytes, not just their agreement across jobs: a
    // change to any reproduced number must rewrite the golden file with
    // `serial.output()` and update this digest on purpose. The golden file
    // shows what changed.
    let golden = include_str!("../results/golden_scale11.txt");
    if let Some((i, (want, got))) =
        golden.lines().zip(serial.output().lines()).enumerate().find(|(_, (w, g))| w != g)
    {
        panic!("suite output differs from results/golden_scale11.txt at line {}:\n  golden: {want}\n  now:    {got}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        serial.output().lines().count(),
        "suite output and results/golden_scale11.txt differ in length"
    );
    let digest = fnv1a64(serial.output().as_bytes());
    assert_eq!(digest, 0xf127_e289_bad3_202f, "suite output changed: {digest:016x}");
}

/// The `--trace` export is part of the determinism contract: the traced
/// suite run records bytewise-identical JSONL and CSV exports whether the
/// suite executes on 1 worker or 4 (ISSUE 5 acceptance).
#[test]
fn trace_export_is_byte_identical_across_jobs() {
    let traced = |jobs: usize| {
        let mut cfg = tiny(jobs);
        cfg.trace = TraceConfig::on();
        run_repro_suite(&cfg, false)
    };
    let serial = traced(1);
    let parallel = traced(4);
    let a = serial.trace_exports().expect("traced suite records exports");
    let b = parallel.trace_exports().expect("traced suite records exports");
    assert!(!a.jsonl.is_empty(), "traced run recorded no events");
    assert_eq!(a.jsonl, b.jsonl, "trace JSONL diverged between jobs=1 and 4");
    assert_eq!(a.csv, b.csv, "trace CSV diverged between jobs=1 and 4");
}

/// Characterization renders and per-report CSVs are bytewise independent
/// of the worker count.
#[test]
fn characterization_reports_match_across_jobs() {
    let a = Characterization::run(&tiny(1)).expect("serial");
    let b = Characterization::run(&tiny(3)).expect("parallel");
    assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(serialized(ra), serialized(rb), "report CSVs diverged");
    }
    assert_eq!(a.render_table1(), b.render_table1());
    assert_eq!(a.render_fig3(), b.render_fig3());
}

/// The Figure 11 comparison (AutoNUMA/static pairs, including spill
/// variants) renders identically at any worker count, and keeps the
/// paper's shape: the static mapping wins on average, and spilling never
/// loses to whole-object placement on a CC row.
#[test]
fn comparison_rows_match_across_jobs() {
    let a = Comparison::run(&tiny(1)).expect("serial");
    let b = Comparison::run(&tiny(4)).expect("parallel");
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.render(), b.render());
    assert!(a.mean_improvement() > 0.0, "mean improvement {}", a.mean_improvement());
    for spill in a.rows.iter().filter(|r| r.spill) {
        let whole = a.row(spill.workload.trim_end_matches('*')).expect("whole-object row");
        assert!(
            spill.improvement() >= whole.improvement(),
            "{}: spill {} < whole-object {}",
            spill.workload,
            spill.improvement(),
            whole.improvement()
        );
    }
}

/// The text of section `id` within a suite output: its header line
/// through the line before the next section's header.
fn section_text<'a>(output: &'a str, id: &str) -> &'a str {
    let header = |title: &str| format!("--- {title} ---\n");
    let (_, title) = SECTIONS.iter().find(|(known, _)| *known == id).expect("known id");
    let start = output.find(&header(title)).expect("section printed");
    let end = SECTIONS
        .iter()
        .filter_map(|(_, title)| output.find(&header(title)))
        .filter(|&at| at > start)
        .min()
        .unwrap_or(output.len());
    &output[start..end]
}

/// `repro_all --only` records exactly the requested sections of the full
/// run, in print order whatever the order asked, and makes only the
/// AutoNUMA runs the owning cells read.
#[test]
fn only_records_the_requested_sections_of_the_full_run() {
    let full = run_repro_suite(&tiny(2), false);
    assert_eq!(full.autonuma_runs(), 6);
    for (only, runs) in
        [(&["fig11", "fig6"][..], 6), (&["fig6"], 1), (&["fig10"], 1), (&["table2"], 6)]
    {
        let part = run_repro_sections(&tiny(2), false, only);
        let want: String = all_sections()
            .into_iter()
            .filter(|id| only.contains(id))
            .map(|id| section_text(full.output(), id))
            .collect();
        assert_eq!(part.output(), want, "--only {only:?}");
        assert_eq!(part.autonuma_runs(), runs, "--only {only:?}");
        assert_eq!(part.exit_code(), 0);
    }
}

/// Audit checkpoints (`OsConfig::audit_every_ticks`) stay clean when the
/// audited runs execute concurrently on the sweep executor, and the
/// audited reports still match the serial bytes.
#[test]
fn audited_runs_stay_clean_under_parallel_sweep() {
    let cfg = tiny(1);
    let run_audited = |jobs: usize| -> Vec<Vec<u8>> {
        let cells: Vec<_> = cfg
            .workloads()
            .into_iter()
            .take(4)
            .map(|w| {
                let mut mc: MachineConfig = cfg.machine(TieringMode::AutoNuma);
                mc.os.audit_every_ticks = 64;
                move || serialized(&run_workload(mc, w).expect("audited run"))
            })
            .collect();
        sweep::run_cells(jobs, cells)
    };
    let serial = run_audited(1);
    let parallel = run_audited(4);
    assert_eq!(serial.len(), 4);
    assert_eq!(serial, parallel, "audited sweeps diverged between jobs=1 and 4");
}
