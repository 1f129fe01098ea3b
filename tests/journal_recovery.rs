//! Crash-recovery contract for the durable sweep journal (DESIGN.md §13):
//!
//! - killing a sweep at **any** journal append and resuming produces
//!   byte-identical final output to an uninterrupted run, with zero
//!   completed cells re-executed (the kill-point property test);
//! - the full `repro_all` suite honors the same contract end to end,
//!   including the `--trace` exports replayed from the journal;
//! - the plain suite driver and the journaled one run the same cells:
//!   on a fresh journal they record the same bytes, and a failing
//!   workload fails only the experiments that read it through either;
//! - a sweep containing a panicking cell and a stuck cell (the
//!   deterministic tick-budget watchdog) completes with both quarantined
//!   in the degraded-mode summary.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tiersim::core::{
    run_workload, CoreError, Dataset, ExperimentConfig, Kernel, RunError, TraceConfig,
};
use tiersim::policy::TieringMode;
use tiersim_bench::{all_sections, run_repro_suite, run_suite_journaled, ExperimentSuite};
use tiersim_core::journal::{
    run_journaled, CellError, CellOutcome, FailureClass, JournalCell, JournalOutcome, KillMode,
    KillSpec, RunnerOptions,
};
use tiersim_core::sweep::SweepAbort;

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch path per invocation — counter-based, never
/// timestamp-based (the wall-clock lint applies to tests too).
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tiersim-recovery-{}-{tag}-{n}.jsonl", std::process::id()))
}

const CELLS: usize = 5;

/// Five deterministic synthetic cells; `execs[i]` counts how many times
/// cell `i`'s body actually ran, across every session sharing the array.
fn synthetic_cells(execs: &Arc<[AtomicU64; CELLS]>) -> Vec<JournalCell> {
    (0..CELLS)
        .map(|i| {
            let execs = Arc::clone(execs);
            JournalCell {
                name: format!("cell-{i}"),
                run: Box::new(move || {
                    execs[i].fetch_add(1, Ordering::SeqCst);
                    Ok(format!("payload-{i}:{}", i * 31 + 7))
                }),
            }
        })
        .collect()
}

/// Canonical bytes for an outcome's user-visible result: per-cell names,
/// payloads, and the final-state stat columns. This is what must be
/// identical between an uninterrupted run and any kill/resume split.
fn final_bytes(outcome: &JournalOutcome) -> String {
    let mut s = String::new();
    for (name, cell) in &outcome.cells {
        match cell {
            CellOutcome::Completed { payload, .. } => {
                s.push_str(&format!("{name} => {payload}\n"));
            }
            CellOutcome::Quarantined { error, .. } => {
                s.push_str(&format!("{name} QUARANTINED: {error}\n"));
            }
        }
    }
    s.push_str(&format!(
        "cells: {} completed, {} retried, {} quarantined\n",
        outcome.stats.completed, outcome.stats.retried, outcome.stats.quarantined
    ));
    s
}

proptest! {
    /// Crash the journal runner at any append (torn or clean, serial or
    /// parallel), resume, and the final output is byte-identical to an
    /// uninterrupted run — with every journaled-complete cell replayed,
    /// never re-executed.
    #[test]
    fn killed_sweep_resumes_byte_identical(
        // A 5-cell clean sweep performs 11 appends: meta + start/done per
        // cell. Every kill point in that range must be recoverable.
        at_append in 1u64..12,
        torn in any::<bool>(),
        jobs in any::<bool>().prop_map(|parallel| if parallel { 4usize } else { 1 }),
    ) {
        // Uninterrupted reference run.
        let clean_execs: Arc<[AtomicU64; CELLS]> = Arc::new(Default::default());
        let clean_path = scratch("clean");
        let clean = run_journaled(
            &clean_path,
            "fp=recovery",
            synthetic_cells(&clean_execs),
            RunnerOptions { jobs, ..Default::default() },
        )
        .expect("uninterrupted run");
        prop_assert_eq!(clean.stats.completed, CELLS as u64);

        // Killed run: dies *instead of* performing append `at_append`.
        let execs: Arc<[AtomicU64; CELLS]> = Arc::new(Default::default());
        let path = scratch("killed");
        let kill = KillSpec { at_append, torn, mode: KillMode::Panic };
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            run_journaled(
                &path,
                "fp=recovery",
                synthetic_cells(&execs),
                RunnerOptions { jobs, kill: Some(kill), ..Default::default() },
            )
        }));
        let payload = aborted.expect_err("armed kill-point must abort the run");
        prop_assert!(payload.is::<SweepAbort>(), "kill-point raises SweepAbort");

        // Resume: completed cells replay, the rest run.
        let resumed = run_journaled(
            &path,
            "fp=recovery",
            synthetic_cells(&execs),
            RunnerOptions { jobs, ..Default::default() },
        )
        .expect("resume");

        prop_assert_eq!(final_bytes(&resumed), final_bytes(&clean));
        prop_assert_eq!(
            resumed.stats.executed + resumed.stats.replayed,
            CELLS as u64,
            "every cell is either replayed or executed on resume"
        );
        // Exactly-once proof: a replayed cell ran exactly once (before
        // the kill) and was never re-executed; a non-replayed cell ran at
        // most twice (its pre-kill attempt never journaled a `done`).
        for (i, (_, cell)) in resumed.cells.iter().enumerate() {
            let runs = execs[i].load(Ordering::SeqCst);
            match cell {
                CellOutcome::Completed { replayed: true, .. } => prop_assert_eq!(
                    runs, 1, "cell {} was replayed yet ran {} times", i, runs
                ),
                CellOutcome::Completed { replayed: false, .. } => prop_assert!(
                    (1..=2).contains(&runs),
                    "cell {} ran {} times across kill+resume", i, runs
                ),
                CellOutcome::Quarantined { .. } => prop_assert!(false, "no cell quarantines"),
            }
        }
        let _ = std::fs::remove_file(&clean_path);
        let _ = std::fs::remove_file(&path);
    }
}

fn suite_config(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        scale: 10,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs,
        trace: TraceConfig::on(),
        tick_budget: 0,
        thp: false,
    }
}

/// The ISSUE acceptance check, end to end: kill `repro_all`'s journaled
/// suite at an injected kill-point, resume, and the assembled output,
/// summary, and trace exports are byte-identical to an uninterrupted run
/// — without re-executing the experiments the journal already completed.
/// The resume leg runs with a different `--jobs` value on purpose: the
/// journal fingerprint excludes worker count.
#[test]
fn killed_and_resumed_repro_suite_is_byte_identical() {
    let clean_path = scratch("suite-clean");
    let clean = run_suite_journaled(
        &suite_config(2),
        &clean_path,
        RunnerOptions::default(),
        false,
        &all_sections(),
    )
    .expect("uninterrupted suite");
    assert_eq!(clean.exit_code(), 0);
    let clean_stats = *clean.cell_stats().expect("journaled suite has cell stats");
    assert_eq!(clean_stats.completed, 4);

    // Kill before any cell completes (append 2 = the first cell's start)
    // and mid-suite after two cells completed (append 6).
    for (kill_at, expect_replayed) in [(2u64, 0u64), (6, 2)] {
        let path = scratch("suite-killed");
        let kill = KillSpec { at_append: kill_at, torn: false, mode: KillMode::Panic };
        let opts = RunnerOptions { kill: Some(kill), ..Default::default() };
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            run_suite_journaled(&suite_config(2), &path, opts, false, &all_sections())
        }));
        assert!(
            aborted.expect_err("kill-point aborts the suite").is::<SweepAbort>(),
            "kill at append {kill_at} raises SweepAbort"
        );

        let resumed = run_suite_journaled(
            &suite_config(4),
            &path,
            RunnerOptions::default(),
            false,
            &all_sections(),
        )
        .expect("resumed suite");
        assert_eq!(resumed.output(), clean.output(), "output diverged (kill at {kill_at})");
        assert_eq!(resumed.summary(), clean.summary(), "summary diverged (kill at {kill_at})");
        assert_eq!(
            resumed.trace_exports(),
            clean.trace_exports(),
            "trace exports diverged (kill at {kill_at})"
        );
        let stats = resumed.cell_stats().expect("cell stats");
        assert_eq!(stats.replayed, expect_replayed, "kill at {kill_at}");
        assert_eq!(stats.executed, 4 - expect_replayed, "kill at {kill_at}");
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&clean_path);
}

/// The plain and `--resume` drivers are one cell list under two
/// executors: on a fresh journal they record the same sections, trace
/// exports and completion line.
#[test]
fn plain_and_journaled_suites_agree() {
    let plain = run_repro_suite(&suite_config(2), false);
    let path = scratch("suite-agree");
    let journaled = run_suite_journaled(
        &suite_config(2),
        &path,
        RunnerOptions::default(),
        false,
        &all_sections(),
    )
    .expect("journaled suite");
    assert_eq!(plain.output(), journaled.output(), "drivers recorded different sections");
    assert!(plain.trace_exports().is_some(), "traced suite records exports");
    assert_eq!(plain.trace_exports(), journaled.trace_exports(), "trace exports diverged");
    let first_line = |s: &ExperimentSuite| s.summary().lines().next().map(str::to_string);
    assert_eq!(first_line(&plain).as_deref(), Some("== 4/4 experiments completed =="));
    assert_eq!(first_line(&plain), first_line(&journaled));
    let _ = std::fs::remove_file(&path);
}

/// A failing workload fails only the experiments that read it. At this
/// configuration every kron run finishes within one OS tick and every
/// urand run takes more, so under a one-tick budget the bc_kron views
/// (object analysis, AutoNUMA trace) complete while the characterization
/// and the comparison, which read all six runs, fail with bc_urand's
/// error: the first urand run in grid order.
#[test]
fn failing_workload_fails_only_the_experiments_that_read_it() {
    let unbudgeted = ExperimentConfig {
        scale: 11,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs: 2,
        trace: TraceConfig::off(),
        tick_budget: 0,
        thp: false,
    };
    for w in unbudgeted.workloads() {
        let ticks = unbudgeted.run(w, TieringMode::AutoNuma).expect("unbudgeted run").os_ticks;
        if w.dataset == Dataset::Kron {
            assert!(ticks <= 1, "{} took {ticks} OS ticks, expected at most 1", w.name());
        } else {
            assert!(ticks > 1, "{} took {ticks} OS ticks, expected more than 1", w.name());
        }
    }
    let cfg = ExperimentConfig { tick_budget: 1, ..unbudgeted };
    let stuck = cfg
        .run(cfg.workload(Kernel::Bc, Dataset::Urand), TieringMode::AutoNuma)
        .expect_err("bc_urand exceeds a one-tick budget")
        .to_string();

    let path = scratch("isolation");
    let plain = run_repro_suite(&cfg, false);
    let journaled =
        run_suite_journaled(&cfg, &path, RunnerOptions::default(), false, &all_sections())
            .expect("journaled suite");
    for (suite, prefix) in [(&plain, ""), (&journaled, "quarantined: ")] {
        let summary = suite.summary();
        assert!(summary.starts_with("== 2/4 experiments completed ==\n"), "{summary}");
        let expected = format!("{prefix}{stuck}");
        let failures: Vec<(&str, &str)> =
            suite.failures().iter().map(|(name, e)| (name.as_str(), e.as_str())).collect();
        assert_eq!(
            failures,
            [("characterization", expected.as_str()), ("comparison", expected.as_str())]
        );
        for title in ["Figure 6:", "Figure 7:", "Figure 9:", "Figure 10:"] {
            assert!(suite.output().contains(title), "{title} missing from:\n{}", suite.output());
        }
    }
    assert_eq!(plain.output(), journaled.output());
    let _ = std::fs::remove_file(&path);
}

/// The degraded-mode acceptance check: a sweep containing a panicking
/// cell and a stuck cell (tripping the deterministic tick-budget
/// watchdog inside a real `run_workload`) completes, quarantines both
/// with their failure classes journaled, and the healthy cell still
/// finishes.
#[test]
fn panicking_and_stuck_cells_quarantine_in_degraded_summary() {
    let path = scratch("quarantine");
    let cells = vec![
        JournalCell { name: "healthy".to_string(), run: Box::new(|| Ok("fine".to_string())) },
        JournalCell {
            name: "exploding".to_string(),
            run: Box::new(|| panic!("unmapped address 0xdead")),
        },
        JournalCell {
            name: "runaway".to_string(),
            run: Box::new(|| {
                // A real workload under a one-tick budget: the watchdog
                // fires deterministically long before the run finishes.
                let exp = ExperimentConfig {
                    scale: 10,
                    degree: 8,
                    trials: 1,
                    sample_period: 211,
                    jobs: 1,
                    trace: TraceConfig::off(),
                    tick_budget: 1,
                    thp: false,
                };
                let w = exp.workloads().into_iter().next().expect("workload");
                let mut mc = exp.machine(TieringMode::AutoNuma);
                mc.os.kswapd_period_cycles = 1_000;
                match run_workload(mc, w) {
                    Err(e @ CoreError::Run(RunError::Stuck { .. })) => {
                        Err(CellError { class: FailureClass::Stuck, message: e.to_string() })
                    }
                    Err(e) => Err(CellError { class: FailureClass::Error, message: e.to_string() }),
                    Ok(_) => panic!("watchdog should have fired"),
                }
            }),
        },
    ];
    let opts = RunnerOptions { jobs: 2, max_attempts: 2, ..Default::default() };
    let outcome = run_journaled(&path, "fp=degraded", cells, opts).expect("sweep completes");

    assert_eq!(outcome.stats.completed, 1);
    assert_eq!(outcome.stats.quarantined, 2);
    assert_eq!(outcome.stats.executed, 5, "1 + two attempts for each failing cell");
    assert!(
        matches!(&outcome.cells[0].1, CellOutcome::Completed { payload, .. } if payload == "fine")
    );
    let quarantine_error = |idx: usize| match &outcome.cells[idx].1 {
        CellOutcome::Quarantined { error, .. } => error.clone(),
        other => panic!("expected quarantine, got {other:?}"),
    };
    assert!(quarantine_error(1).contains("unmapped address 0xdead"));
    assert!(quarantine_error(2).contains("stuck"), "watchdog error names the stuck condition");

    // Both failure classes are durably journaled for `journal-check`.
    let journal = std::fs::read_to_string(&path).expect("journal exists");
    assert!(journal.contains("\"class\":\"panic\""), "panic class journaled");
    assert!(journal.contains("\"class\":\"stuck\""), "stuck class journaled");
    assert!(journal.contains("\"kind\":\"quarantine\""), "quarantine records journaled");
    let _ = std::fs::remove_file(&path);
}
