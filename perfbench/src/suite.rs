//! The paper suite (`repro_all`): run as users run it, or experiment by
//! experiment through the calls it makes, for the suite's phase timers.

use crate::child::RunResult;
use crate::util::{fnv1a64, peak_rss_mib, timed, RunTime};
use std::fmt::Write as _;
use tiersim_bench::run_repro_suite;
use tiersim_core::experiments::{AutonumaTrace, Characterization, Comparison, ObjectAnalysis};
use tiersim_core::ExperimentConfig;

/// Runs the suite the way `repro_all` does. Its sections go to standard
/// output, as they do for `repro_all`. The digest covers what `repro_all`
/// prints after its banner line: the sections and the summary.
pub fn run_suite(cfg: &ExperimentConfig) -> RunResult {
    let (time, suite) = RunTime::of(|| run_repro_suite(cfg, false));
    let summary = suite.summary();
    let completed = summary
        .strip_prefix("== ")
        .and_then(|rest| rest.split_once(' '))
        .and_then(|(frac, _)| frac.split_once('/'))
        .and_then(|(ok, n)| Some((ok.parse().ok()?, n.parse().ok()?)))
        .unwrap_or((0, 0));
    RunResult {
        time,
        peak_rss_mib: peak_rss_mib().unwrap_or(f64::NAN),
        accesses: 0,
        digest: fnv1a64(format!("{}{summary}", suite.output()).as_bytes()),
        completed,
        failures: suite.failures().iter().map(|(name, e)| format!("{name}: {e}")).collect(),
    }
}

/// Host seconds per suite phase: each experiment's public `run`, and the
/// rendering of all their tables and figures.
#[derive(Debug, Default)]
pub struct SuitePhases {
    /// `Characterization::run` (Tables 1–3, Figures 3–5).
    pub characterization_s: f64,
    /// `ObjectAnalysis::run` (Figures 6–8).
    pub objects_s: f64,
    /// `AutonumaTrace::run` (Figures 9–10).
    pub autonuma_trace_s: f64,
    /// `Comparison::run` (Figure 11).
    pub comparison_s: f64,
    /// Rendering every table and figure.
    pub render_s: f64,
    /// Experiments attempted.
    pub attempted: usize,
    /// `(experiment, error)` for each failed experiment.
    pub failures: Vec<(String, String)>,
    /// FNV-1a 64 of the rendered text.
    pub digest: u64,
}

impl SuitePhases {
    /// Host seconds the phases account for.
    pub fn covered_s(&self) -> f64 {
        self.characterization_s
            + self.objects_s
            + self.autonuma_trace_s
            + self.comparison_s
            + self.render_s
    }
}

/// Runs the suite's four experiments one by one, timing each `run` and
/// the rendering separately.
pub fn run_phases(cfg: &ExperimentConfig) -> SuitePhases {
    let mut ph = SuitePhases::default();
    let c = timed(&mut ph.characterization_s, || Characterization::run(cfg));
    let o = timed(&mut ph.objects_s, || ObjectAnalysis::run(cfg));
    let tr = timed(&mut ph.autonuma_trace_s, || AutonumaTrace::run(cfg));
    let cmp = timed(&mut ph.comparison_s, || Comparison::run(cfg));

    let mut text = String::new();
    timed(&mut ph.render_s, || {
        if let Ok(c) = &c {
            for s in [
                c.render_fig3(),
                c.render_fig4(),
                c.render_fig5(),
                c.render_table1(),
                c.render_table2(),
                c.render_table3(),
            ] {
                text.push_str(&s);
            }
        }
        if let Ok(o) = &o {
            text.push_str(&o.render_fig6(10));
            let randomness = o.fig8().and_then(|p| p.randomness());
            let _ = write!(
                text,
                "{:?} {} {randomness:?}",
                o.hottest_nvm_alloc_secs(),
                o.fig7().peak_bytes()
            );
        }
        if let Ok(tr) = &tr {
            text.push_str(&tr.render_fig9());
            text.push_str(&tr.render_fig10());
        }
        if let Ok(cmp) = &cmp {
            text.push_str(&cmp.render());
        }
    });
    ph.digest = fnv1a64(text.as_bytes());
    let errors = [
        ("characterization", c.err()),
        ("object analysis", o.err()),
        ("autonuma trace", tr.err()),
        ("comparison", cmp.err()),
    ];
    ph.attempted = errors.len();
    ph.failures = errors
        .into_iter()
        .filter_map(|(name, e)| e.map(|e| (name.to_string(), e.to_string())))
        .collect();
    ph
}
