//! THP × tiering integration contract (ISSUE 9): enabling transparent
//! huge pages (`--thp`: khugepaged-style 2 MiB collapse plus a 16-page
//! fault-around window) must visibly change the memory profile of the
//! characterization workloads — fewer demand faults, a huge-page dent in
//! the TLB-miss curve, a different NUMA-hint-fault trajectory — while
//! staying inside the two standing contracts: byte-identical output for
//! every `--jobs` value (DESIGN.md §10) and crash-safe journal resume
//! (DESIGN.md §13). The journal fingerprint carries the THP bit, so a
//! sweep journal written under one regime refuses to resume under the
//! other.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tiersim::core::{ExperimentConfig, RunReport, TraceConfig};
use tiersim::policy::TieringMode;
use tiersim_bench::{all_sections, run_suite_journaled};
use tiersim_core::experiments::Characterization;
use tiersim_core::journal::{KillMode, KillSpec, RunnerOptions};
use tiersim_core::sweep::SweepAbort;
use tiersim_core::{Dataset, Kernel};

fn cfg(scale: u32, jobs: usize, thp: bool) -> ExperimentConfig {
    ExperimentConfig {
        scale,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs,
        trace: TraceConfig::off(),
        tick_budget: 0,
        thp,
    }
}

fn serialized(report: &RunReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    report.write_summary_csv(&mut bytes).expect("summary csv");
    report.write_timeline_csv(&mut bytes).expect("timeline csv");
    bytes
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Counter-based scratch path (never wall-clock; the lint applies here).
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tiersim-thp-{}-{tag}-{n}.jsonl", std::process::id()))
}

/// The headline acceptance check: the same BC/kron run with THP on vs
/// off produces different TLB-miss and hint-fault profiles. Scale 16 is
/// the smallest configuration whose edge array spans a 2 MiB-aligned
/// block, so khugepaged has something to collapse.
#[test]
fn thp_changes_tlb_and_hint_fault_profiles() {
    let run = |thp: bool| {
        let exp = cfg(16, 1, thp);
        let w = exp.workload(Kernel::Bc, Dataset::Kron);
        exp.run(w, TieringMode::AutoNuma).expect("bc/kron run")
    };
    let off = run(false);
    let on = run(true);

    // Fault-around replaces most demand faults with bulk population.
    assert_eq!(off.counters.pgfault_around, 0, "fault-around fired with THP off");
    assert!(on.counters.pgfault_around > 0, "fault-around never engaged");
    assert!(
        on.counters.pgfault < off.counters.pgfault,
        "bulk population should absorb demand faults: {} >= {}",
        on.counters.pgfault,
        off.counters.pgfault
    );

    // khugepaged collapsed at least one 2 MiB block...
    assert_eq!(off.counters.thp_collapse_alloc, 0);
    assert!(on.counters.thp_collapse_alloc > 0, "no block ever collapsed at scale 16");

    // ...which dents the TLB-miss curve: a huge mapping occupies one
    // TLB entry for 512 base pages.
    assert!(
        on.mem_stats.tlb_misses < off.mem_stats.tlb_misses,
        "huge mappings should reduce TLB misses: {} >= {}",
        on.mem_stats.tlb_misses,
        off.mem_stats.tlb_misses
    );

    // The AutoNUMA hint-fault trajectory shifts too: the scanner marks a
    // collapsed block once at its head instead of 512 times.
    assert_ne!(
        on.counters.numa_hint_faults, off.counters.numa_hint_faults,
        "hint-fault profile did not change under THP"
    );
}

/// The determinism contract holds under THP: the characterization sweep
/// renders and per-report CSVs are bytewise independent of the worker
/// count, and the THP knob demonstrably reached the machines.
#[test]
fn thp_characterization_is_byte_identical_across_jobs() {
    let a = Characterization::run(&cfg(11, 1, true)).expect("serial");
    let b = Characterization::run(&cfg(11, 3, true)).expect("parallel");
    assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(serialized(ra), serialized(rb), "THP report CSVs diverged across jobs");
    }
    assert_eq!(a.render_table1(), b.render_table1());
    assert_eq!(a.render_fig3(), b.render_fig3());

    // Proof the sweep actually ran THP-enabled machines: every workload
    // bulk-populated at least once (scale 11 is too small to collapse,
    // but fault-around is footprint-independent).
    assert!(
        a.reports.iter().all(|r| r.counters.pgfault_around > 0),
        "a THP characterization cell never engaged fault-around"
    );
}

/// The crash-recovery contract holds under THP: kill the journaled
/// `repro_all` suite mid-sweep, resume with a different worker count,
/// and output/summary/trace exports are byte-identical to an
/// uninterrupted run. A journal written with THP on refuses to resume
/// with THP off — the regimes produce different bytes, so the
/// fingerprint must fence them apart.
#[test]
fn thp_suite_is_journal_resumable() {
    let suite_cfg = |jobs: usize| {
        let mut c = cfg(10, jobs, true);
        c.trace = TraceConfig::on();
        c
    };
    let clean_path = scratch("clean");
    let clean = run_suite_journaled(
        &suite_cfg(2),
        &clean_path,
        RunnerOptions::default(),
        false,
        &all_sections(),
    )
    .expect("uninterrupted THP suite");
    assert_eq!(clean.exit_code(), 0);

    let path = scratch("killed");
    let kill = KillSpec { at_append: 4, torn: false, mode: KillMode::Panic };
    let opts = RunnerOptions { kill: Some(kill), ..Default::default() };
    let aborted = catch_unwind(AssertUnwindSafe(|| {
        run_suite_journaled(&suite_cfg(2), &path, opts, false, &all_sections())
    }));
    assert!(aborted.expect_err("kill-point aborts the suite").is::<SweepAbort>());

    // Resuming with THP off must be refused: the fingerprint differs.
    let mut non_thp = suite_cfg(2);
    non_thp.thp = false;
    assert!(
        run_suite_journaled(&non_thp, &path, RunnerOptions::default(), false, &all_sections())
            .is_err(),
        "a THP journal resumed under a non-THP config"
    );

    let resumed =
        run_suite_journaled(&suite_cfg(4), &path, RunnerOptions::default(), false, &all_sections())
            .expect("resumed THP suite");
    assert_eq!(resumed.output(), clean.output(), "THP suite output diverged after resume");
    assert_eq!(resumed.summary(), clean.summary(), "THP suite summary diverged after resume");
    assert_eq!(
        resumed.trace_exports(),
        clean.trace_exports(),
        "THP trace exports diverged after resume"
    );

    let _ = std::fs::remove_file(&clean_path);
    let _ = std::fs::remove_file(&path);
}
