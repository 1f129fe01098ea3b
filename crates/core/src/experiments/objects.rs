//! Object-level analysis of one workload (paper §6.2–6.4: Figures 6–8).

use super::ExperimentConfig;
use crate::error::CoreError;
use crate::render::{pct, TextTable};
use crate::report::RunReport;
use crate::workload::{Dataset, Kernel};
use std::ops::Deref;
use tiersim_mem::Tier;
use tiersim_policy::TieringMode;
use tiersim_profile::{top_objects, AccessPattern, AllocTimeline};

/// One bar of Figure 6 (top objects by samples on a tier).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Rank (0 = hottest).
    pub rank: usize,
    /// Object id (allocation order).
    pub object_id: u32,
    /// Call-site label.
    pub site: String,
    /// Samples on the tier.
    pub samples: u64,
    /// Share of the tier's samples.
    pub share: f64,
}

/// The object analysis bundle: one AutoNUMA run of a single workload
/// (`bc_kron` by default, as in the paper) and Figures 6–8 derived from
/// it. It owns its report, or borrows a shared one (`R = &RunReport`).
#[derive(Debug)]
pub struct ObjectAnalysis<R = Box<RunReport>> {
    /// The underlying run.
    pub report: R,
    freq_hz: u64,
}

impl ObjectAnalysis {
    /// Runs `bc_kron` under AutoNUMA (the paper's illustrative workload).
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn run(cfg: &ExperimentConfig) -> Result<ObjectAnalysis, CoreError> {
        let report = cfg.run(cfg.workload(Kernel::Bc, Dataset::Kron), TieringMode::AutoNuma)?;
        Ok(ObjectAnalysis::from_report(cfg, Box::new(report)))
    }
}

impl<R: Deref<Target = RunReport>> ObjectAnalysis<R> {
    /// The view over one AutoNUMA report of `cfg`.
    pub fn from_report(cfg: &ExperimentConfig, report: R) -> ObjectAnalysis<R> {
        ObjectAnalysis { report, freq_hz: cfg.machine(TieringMode::AutoNuma).mem.freq_hz }
    }

    /// Figure 6 rows: top `n` objects by samples on `tier`.
    pub fn fig6(&self, tier: Tier, n: usize) -> Vec<Fig6Row> {
        let mapped = self.report.mapped();
        top_objects(&mapped, tier, n)
            .into_iter()
            .enumerate()
            .map(|(rank, r)| Fig6Row {
                rank,
                object_id: r.id.0,
                site: r.site.to_string(),
                samples: r.samples,
                share: r.share,
            })
            .collect()
    }

    /// Figure 7: the allocation timeline, in seconds × bytes.
    pub fn fig7(&self) -> AllocTimeline {
        AllocTimeline::of(&self.report.tracker, self.freq_hz)
    }

    /// Allocation time (seconds) of the hottest NVM object — the paper's
    /// red dashed line in Figure 7.
    pub fn hottest_nvm_alloc_secs(&self) -> Option<f64> {
        let mapped = self.report.mapped();
        let obj = mapped.hottest_nvm_object()?;
        let rec = self.report.tracker.record(obj.id)?;
        Some(rec.alloc_time as f64 / self.freq_hz as f64)
    }

    /// Figure 8: the access pattern of the hottest NVM object (full run).
    pub fn fig8(&self) -> Option<AccessPattern> {
        let mapped = self.report.mapped();
        let obj = mapped.hottest_nvm_object()?;
        let rec = self.report.tracker.record(obj.id)?;
        Some(AccessPattern::of(&self.report.samples, rec, self.freq_hz))
    }

    /// Renders Figure 6 (both tiers) as text.
    pub fn render_fig6(&self, n: usize) -> String {
        let mut out = String::new();
        for tier in [Tier::Dram, Tier::Nvm] {
            out.push_str(&format!(
                "Top {n} objects by {tier} samples ({}):\n",
                self.report.workload.name()
            ));
            let mut t = TextTable::new(vec!["Rank", "Object", "Site", "Samples", "Share"]);
            for r in self.fig6(tier, n) {
                t.row(vec![
                    r.rank.to_string(),
                    r.object_id.to_string(),
                    r.site,
                    r.samples.to_string(),
                    pct(r.share),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Renders Figure 7 as text: live megabytes after each allocation
    /// event, the peak, and when the hottest NVM object was allocated.
    pub fn render_fig7(&self) -> String {
        let tl = self.fig7();
        let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
        let mut t = TextTable::new(vec!["t(s)", "live MB"]);
        for &(secs, bytes) in &tl.points {
            t.row(vec![format!("{secs:.4}"), format!("{:.2}", mb(bytes))]);
        }
        let mut out = t.render();
        out.push_str(&format!("peak live: {:.2} MB\n", mb(tl.peak_bytes())));
        if let Some(secs) = self.hottest_nvm_alloc_secs() {
            out.push_str(&format!("hottest NVM object allocated at t = {secs:.4}s\n"));
        }
        out
    }

    /// Renders Figure 8 as text: the first 40 samples on the hottest NVM
    /// object over its lifetime, then a 1 ms zoom from the middle sample
    /// (the paper's one-second zoom, dilated) to show fine-grained
    /// randomness.
    pub fn render_fig8(&self) -> String {
        const SHOWN: usize = 40;
        let Some(pattern) = self.fig8() else {
            return "no NVM samples recorded; raise the graph scale\n".to_string();
        };
        let mut out = format!(
            "samples on hottest NVM object: {} (randomness metric {:.3})\n",
            pattern.points.len(),
            pattern.randomness().unwrap_or(0.0),
        );
        out.push_str("t(s)      page  thread\n");
        for &(t, page, tid) in pattern.points.iter().take(SHOWN) {
            out.push_str(&format!("{t:<8.4}  {page:<5} t{tid}\n"));
        }
        if pattern.points.len() > SHOWN {
            out.push_str(&format!("... ({} more)\n", pattern.points.len() - SHOWN));
        }
        if let Some(&(mid, _, _)) = pattern.points.get(pattern.points.len() / 2) {
            let z = pattern.zoom(mid, mid + 0.001);
            out.push_str(&format!(
                "zoom [{mid:.4}s, +1ms): {} samples, randomness {:.3}\n",
                z.points.len(),
                z.randomness().unwrap_or(0.0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;

    #[test]
    fn object_analysis_produces_figures() {
        let a = ObjectAnalysis::run(&tiny_config()).unwrap();
        // Figure 6: NVM samples concentrate in few objects (Finding 2).
        let nvm_rows = a.fig6(Tier::Nvm, 10);
        assert!(!nvm_rows.is_empty(), "some NVM samples expected under pressure");
        assert!(nvm_rows[0].share >= nvm_rows.last().unwrap().share);
        // Figure 7: allocations rise and fall.
        let tl = a.fig7();
        assert!(tl.peak_bytes() > 0);
        assert!(tl.points.len() >= 10);
        // The hottest NVM object exists and was allocated at a real time.
        assert!(a.hottest_nvm_alloc_secs().unwrap() >= 0.0);
        // Figure 8: pattern extraction works.
        let p = a.fig8().unwrap();
        assert!(!p.points.is_empty());
        // Render includes both tiers.
        let text = a.render_fig6(5);
        assert!(text.contains("DRAM samples"));
        assert!(text.contains("NVM samples"));
        let text = a.render_fig7();
        assert_eq!(text.lines().count(), tl.points.len() + 4, "header, rule, rows, peak, hottest");
        assert!(text.contains("hottest NVM object allocated at t = "));
        let text = a.render_fig8();
        assert!(text.starts_with(&format!("samples on hottest NVM object: {}", p.points.len())));
        assert!(text.contains("zoom ["));
    }
}
