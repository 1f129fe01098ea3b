//! Object-level static mapping vs AutoNUMA (paper §7: Figure 11).

use super::{Characterization, ExperimentConfig};
use crate::error::CoreError;
use crate::render::{pct, secs, TextTable};
use crate::report::RunReport;
use crate::runner::{plan_from_report, run_workload};
use crate::workload::Kernel;
use std::ops::Deref;
use tiersim_policy::{StaticPlan, TieringMode};

/// One bar of Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Workload label; spill-variant rows carry the paper's `*` suffix.
    pub workload: String,
    /// Application execution time (load + build + trials) under AutoNUMA,
    /// seconds — the quantity the paper's Figure 11 compares.
    pub autonuma_secs: f64,
    /// Application execution time under the static object mapping.
    pub static_secs: f64,
    /// Kernel-trials-only time under AutoNUMA, seconds.
    pub autonuma_trial_secs: f64,
    /// Kernel-trials-only time under the static mapping, seconds.
    pub static_trial_secs: f64,
    /// NVM load samples under AutoNUMA.
    pub autonuma_nvm_samples: u64,
    /// NVM load samples under the static mapping.
    pub static_nvm_samples: u64,
    /// Whether the spill variant was used.
    pub spill: bool,
}

impl Fig11Row {
    /// Execution-time improvement over AutoNUMA (positive = static
    /// mapping is faster), as a fraction.
    pub fn improvement(&self) -> f64 {
        if self.autonuma_secs == 0.0 {
            return 0.0;
        }
        1.0 - self.static_secs / self.autonuma_secs
    }

    /// Reduction in NVM samples vs AutoNUMA, as a fraction.
    pub fn nvm_reduction(&self) -> f64 {
        if self.autonuma_nvm_samples == 0 {
            return 0.0;
        }
        1.0 - self.static_nvm_samples as f64 / self.autonuma_nvm_samples as f64
    }
}

/// The Figure 11 comparison: each paper workload run under AutoNUMA and
/// under the profile-derived static object mapping, plus spill-variant
/// rows for the CC workloads (the paper's `cc_kron*`/`cc_urand*`).
#[derive(Debug)]
pub struct Comparison {
    /// One row per bar of the figure.
    pub rows: Vec<Fig11Row>,
}

impl Comparison {
    /// Runs the full comparison.
    ///
    /// # Errors
    ///
    /// Propagates the first run error.
    pub fn run(cfg: &ExperimentConfig) -> Result<Comparison, CoreError> {
        Self::from_reports(cfg, &Characterization::run(cfg)?.reports)
    }

    /// The comparison over the six AutoNUMA reports of `cfg`: each row
    /// runs only its static mapping, and the CC workloads add a spill row.
    /// A spill plan equal to the whole-object plan is not run again: its
    /// row reads the whole-object run.
    ///
    /// # Errors
    ///
    /// Propagates the first static run error in row order.
    pub fn from_reports<R: Deref<Target = RunReport> + Sync>(
        cfg: &ExperimentConfig,
        reports: &[R],
    ) -> Result<Comparison, CoreError> {
        // The sweep executor returns cells in order, so the first error is
        // the one a serial loop would hit.
        let base = cfg.machine(TieringMode::AutoNuma);
        let cells: Vec<_> = reports
            .iter()
            .flat_map(|auto| {
                let whole = plan_from_report(auto, &base, false);
                let spill = (auto.workload.kernel == Kernel::Cc)
                    .then(|| plan_from_report(auto, &base, true));
                static_runs(whole, spill).into_iter().map(move |run| (&**auto, run))
            })
            .map(|(auto, (plan, spills))| {
                move || -> Result<Vec<Fig11Row>, CoreError> {
                    let stat = Self::run_static(cfg, auto, plan)?;
                    Ok(spills.iter().map(|&spill| Self::pair_row(auto, &stat, spill)).collect())
                }
            })
            .collect();
        let rows: Vec<Vec<Fig11Row>> = crate::sweep::run_cells(cfg.jobs, cells)
            .into_iter()
            .collect::<Result<_, CoreError>>()?;
        Ok(Comparison { rows: rows.concat() })
    }

    /// Runs the static mapping planned from one AutoNUMA report and builds
    /// its row.
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn compare(
        cfg: &ExperimentConfig,
        auto: &RunReport,
        spill: bool,
    ) -> Result<Fig11Row, CoreError> {
        let plan = plan_from_report(auto, &cfg.machine(TieringMode::AutoNuma), spill);
        let stat = Self::run_static(cfg, auto, plan)?;
        Ok(Self::pair_row(auto, &stat, spill))
    }

    /// Runs `auto`'s workload on `cfg`'s machine under the static `plan`.
    fn run_static(
        cfg: &ExperimentConfig,
        auto: &RunReport,
        plan: StaticPlan,
    ) -> Result<RunReport, CoreError> {
        run_workload(cfg.machine(TieringMode::StaticObject(plan)), auto.workload)
    }

    /// The row pairing an AutoNUMA run with its static run.
    fn pair_row(auto: &RunReport, stat: &RunReport, spill: bool) -> Fig11Row {
        let name = auto.workload.name();
        Fig11Row {
            workload: if spill { format!("{name}*") } else { name },
            autonuma_secs: auto.total_secs,
            static_secs: stat.total_secs,
            autonuma_trial_secs: auto.exec_secs(),
            static_trial_secs: stat.exec_secs(),
            autonuma_nvm_samples: auto.nvm_samples(),
            static_nvm_samples: stat.nvm_samples(),
            spill,
        }
    }

    /// Mean improvement across non-spill rows (the paper reports 21%
    /// average).
    pub fn mean_improvement(&self) -> f64 {
        let base: Vec<f64> =
            self.rows.iter().filter(|r| !r.spill).map(Fig11Row::improvement).collect();
        if base.is_empty() {
            0.0
        } else {
            base.iter().sum::<f64>() / base.len() as f64
        }
    }

    /// Best improvement across all rows (the paper reports up to 51%).
    pub fn max_improvement(&self) -> f64 {
        self.rows.iter().map(Fig11Row::improvement).fold(f64::MIN, f64::max)
    }

    /// Convenience accessor: the row for `name` (e.g. `"cc_kron*"`).
    pub fn row(&self, name: &str) -> Option<&Fig11Row> {
        self.rows.iter().find(|r| r.workload == name)
    }

    /// Renders the comparison as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Workload",
            "AutoNUMA",
            "Object-level",
            "Improvement",
            "NVM sample reduction",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                secs(r.autonuma_secs),
                secs(r.static_secs),
                pct(r.improvement()),
                pct(r.nvm_reduction()),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "avg improvement (whole-object rows): {}; max improvement: {}\n",
            pct(self.mean_improvement()),
            pct(self.max_improvement()),
        ));
        out
    }
}

/// The static runs one AutoNUMA report needs, each with the spill flags of
/// the rows it yields: the whole-object plan, and the spill plan only when
/// it differs, since an equal plan would simulate the same cell twice.
fn static_runs(whole: StaticPlan, spill: Option<StaticPlan>) -> Vec<(StaticPlan, Vec<bool>)> {
    match spill {
        Some(spill) if spill == whole => vec![(whole, vec![false, true])],
        Some(spill) => vec![(whole, vec![false]), (spill, vec![true])],
        None => vec![(whole, vec![false])],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;
    use crate::workload::Dataset;

    #[test]
    fn single_pair_comparison_runs() {
        let cfg = tiny_config();
        let auto =
            cfg.run(cfg.workload(Kernel::Bfs, Dataset::Kron), TieringMode::AutoNuma).unwrap();
        let row = Comparison::compare(&cfg, &auto, false).unwrap();
        assert!(row.autonuma_secs > 0.0);
        assert!(row.static_secs > 0.0);
        assert!(!row.spill);
        assert!(row.workload == "bfs_kron");
        // The static run `compare` makes: the planned mapping, no migration.
        let plan = plan_from_report(&auto, &cfg.machine(TieringMode::AutoNuma), false);
        let stat = Comparison::run_static(&cfg, &auto, plan).unwrap();
        assert_eq!(auto.mode_name, "autonuma");
        assert_eq!(stat.mode_name, "static_object");
        assert!(stat.counters.no_migrations(), "static mapping never migrates");
        assert_eq!(row, Comparison::pair_row(&auto, &stat, false));
    }

    #[test]
    fn equal_spill_plan_builds_no_spill_cell() {
        let plan = |label: &str| {
            let mut placement = tiersim_policy::ObjectPlacement::new();
            placement.insert(label, tiersim_policy::Placement::Dram);
            StaticPlan { placement, dram_used: 1, dram_budget: 2, spilled_label: None }
        };
        let runs = static_runs(plan("a"), Some(plan("a")));
        assert_eq!(runs, vec![(plan("a"), vec![false, true])], "one run yields both rows");
        let runs = static_runs(plan("a"), Some(plan("b")));
        assert_eq!(runs, vec![(plan("a"), vec![false]), (plan("b"), vec![true])]);
        assert_eq!(static_runs(plan("a"), None), vec![(plan("a"), vec![false])]);
    }

    #[test]
    fn spill_row_is_labeled_with_asterisk() {
        let cfg = tiny_config();
        let auto =
            cfg.run(cfg.workload(Kernel::Cc, Dataset::Urand), TieringMode::AutoNuma).unwrap();
        let row = Comparison::compare(&cfg, &auto, true).unwrap();
        assert_eq!(row.workload, "cc_urand*");
        assert!(row.spill);
    }

    #[test]
    fn improvement_math() {
        let r = Fig11Row {
            workload: "x".into(),
            autonuma_secs: 2.0,
            static_secs: 1.0,
            autonuma_trial_secs: 1.0,
            static_trial_secs: 0.6,
            autonuma_nvm_samples: 100,
            static_nvm_samples: 25,
            spill: false,
        };
        assert!((r.improvement() - 0.5).abs() < 1e-12);
        assert!((r.nvm_reduction() - 0.75).abs() < 1e-12);
    }
}
