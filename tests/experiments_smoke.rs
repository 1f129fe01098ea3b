//! Smoke tests over every experiment module through the public facade:
//! each paper table/figure builder produces well-formed, internally
//! consistent output at reduced scale.

use tiersim::core::experiments::{AutonumaTrace, Characterization, Comparison, ObjectAnalysis};
use tiersim::core::{Dataset, ExperimentConfig, Kernel};
use tiersim::mem::Tier;
use tiersim::policy::TieringMode;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 12,
        degree: 8,
        trials: 1,
        sample_period: 101,
        jobs: 1,
        ..ExperimentConfig::default()
    }
}

#[test]
fn characterization_rows_are_consistent() {
    let c = Characterization::run(&cfg()).expect("six workloads run");
    let names: Vec<String> = c.table1().iter().map(|r| r.workload.clone()).collect();
    assert_eq!(names, ["bc_kron", "bc_urand", "bfs_kron", "bfs_urand", "cc_kron", "cc_urand"]);
    for (t1, t2) in c.table1().iter().zip(c.table2()) {
        assert!((0.0..=1.0).contains(&t1.outside_cache));
        if t1.outside_cache > 0.0 {
            assert!((t1.dram_share + t1.nvm_share - 1.0).abs() < 1e-9);
            assert!((t2.dram_cost_share + t2.nvm_cost_share - 1.0).abs() < 1e-9);
        }
    }
    // Fig 3's external fraction must agree with Table 1.
    for (f3, t1) in c.fig3().iter().zip(c.table1()) {
        assert!((f3.dram_frac + f3.nvm_frac - t1.outside_cache).abs() < 1e-9);
    }
    // Table 3: NVM columns dominate DRAM columns where populated.
    for r in c.table3() {
        if let (Some(nh), Some(dh)) = (r.nvm_tlb_hit, r.dram_tlb_hit) {
            assert!(nh > dh, "{}: NVM hit {nh} <= DRAM hit {dh}", r.workload);
        }
    }
}

#[test]
fn object_analysis_works_for_every_paper_workload() {
    for kernel in [Kernel::Bc, Kernel::Bfs, Kernel::Cc] {
        let report =
            cfg().run(cfg().workload(kernel, Dataset::Kron), TieringMode::AutoNuma).expect("run");
        let a = ObjectAnalysis::from_report(&cfg(), &report);
        // DRAM top objects exist for every workload; shares sum ≤ 1.
        let rows = a.fig6(Tier::Dram, 10);
        assert!(!rows.is_empty(), "{kernel:?}");
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!(total <= 1.0 + 1e-9);
        // The allocation timeline never goes negative and ends below peak.
        let tl = a.fig7();
        assert!(tl.points.iter().all(|&(t, _)| t >= 0.0));
        assert!(tl.peak_bytes() >= tl.points.last().map_or(0, |&(_, b)| b));
    }
}

#[test]
fn trace_time_series_are_monotone() {
    let tr = AutonumaTrace::run(&cfg()).expect("trace run");
    let f9 = tr.fig9();
    // Phase-end snapshots can coincide with periodic ones, so the series
    // is non-decreasing rather than strictly increasing.
    assert!(f9.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
    // Counter deltas are non-negative by construction.
    assert!(f9.iter().all(|r| r.cpu_util >= 0.0 && r.cpu_util <= 1.0));
    let f10 = tr.fig10();
    assert!(f10.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
}

#[test]
fn comparison_rows_cover_the_grid_with_spill_variants() {
    let c = Comparison::run(&cfg()).expect("comparison");
    let names: Vec<&str> = c.rows.iter().map(|r| r.workload.as_str()).collect();
    assert_eq!(
        names,
        [
            "bc_kron",
            "bc_urand",
            "bfs_kron",
            "bfs_urand",
            "cc_kron",
            "cc_kron*",
            "cc_urand",
            "cc_urand*"
        ]
    );
    for r in &c.rows {
        assert!(r.autonuma_secs > 0.0);
        assert!(r.static_secs > 0.0);
        assert!(r.workload.ends_with('*') == r.spill);
    }
    // Summary statistics are within the rows' range.
    let best = c.rows.iter().map(|r| r.improvement()).fold(f64::MIN, f64::max);
    assert!((c.max_improvement() - best).abs() < 1e-12);
    assert!(c.row("cc_kron*").is_some());
    assert!(c.row("nonexistent").is_none());
    assert!(c.render().contains("avg improvement"));
}
