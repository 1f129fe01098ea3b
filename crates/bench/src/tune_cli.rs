//! The `repro_all tune` subcommand: the AutoNUMA knob auto-tuner
//! service (DESIGN.md §16).
//!
//! Runs one crash-safe successive-halving search per invocation against
//! a durable journal, prints the deterministic Pareto report on stdout
//! (byte-identical across `--jobs` values and kill/resume splits), and
//! optionally writes the report as JSON/CSV plus the driver's lifecycle
//! trace.

use std::path::PathBuf;
use tiersim_core::journal::{KillMode, KillSpec, RunnerOptions};
use tiersim_core::tune::{run_tune, GridSpec, TuneConfig};
use tiersim_core::{Dataset, ExperimentConfig, Kernel};

use crate::{check_experiment, number, parse_experiment_flag, TraceExports};

/// Usage text for `repro_all tune`.
pub const TUNE_USAGE: &str = "usage: repro_all tune [--workload NAME] [--grid tiny|paper] \
     [--rung-budget N] [--finalists N] [--seed N] [--scale N] [--degree N] [--trials N] \
     [--jobs N] [--resume PATH] [--kill-at N] [--out-json PATH] [--out-csv PATH] \
     [--trace PATH]";

/// Parsed options for the tune subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneCli {
    /// Testbed parameters (scale/degree/trials/jobs).
    pub experiment: ExperimentConfig,
    /// Workload kernel.
    pub kernel: Kernel,
    /// Workload dataset.
    pub dataset: Dataset,
    /// Seeding grid.
    pub grid: GridSpec,
    /// Rung-0 tick budget.
    pub rung_budget: u64,
    /// Survivor count that stops the halving.
    pub finalists: usize,
    /// Tie-break / fault-plan seed.
    pub seed: u64,
    /// Journal path (`--resume`; defaults to `tune.journal`).
    pub journal: PathBuf,
    /// Deterministic kill-point (`--kill-at`): `exit(137)` instead of
    /// the Nth journal append of this session, counted across rungs.
    pub kill_at: Option<u64>,
    /// Pareto report JSON output path.
    pub out_json: Option<PathBuf>,
    /// Pareto report CSV output path.
    pub out_csv: Option<PathBuf>,
    /// Driver lifecycle trace output path (JSONL, or CSV by extension).
    pub trace_out: Option<PathBuf>,
}

/// Parses a `bc_kron`-style workload name.
fn parse_workload(name: &str) -> Result<(Kernel, Dataset), String> {
    let (kernel_name, dataset_name) = name
        .rsplit_once('_')
        .ok_or_else(|| format!("bad --workload {name}: expected <kernel>_<dataset>"))?;
    let kernel =
        [Kernel::Bc, Kernel::Bfs, Kernel::Cc, Kernel::CcAff, Kernel::Pr, Kernel::Sssp, Kernel::Tc]
            .into_iter()
            .find(|k| k.name() == kernel_name)
            .ok_or_else(|| format!("unknown kernel {kernel_name} in --workload {name}"))?;
    let dataset = [Dataset::Kron, Dataset::Urand, Dataset::Road]
        .into_iter()
        .find(|d| d.name() == dataset_name)
        .ok_or_else(|| format!("unknown dataset {dataset_name} in --workload {name}"))?;
    Ok((kernel, dataset))
}

impl TuneCli {
    /// Parses `args` (everything after the `tune` token).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or malformed values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<TuneCli, String> {
        // The testbed defaults to the suite's standard scale: below it
        // (roughly scale < 15) runs finish inside one dilated scan period,
        // every knob point scores identically and the search is
        // uninformative. Smoke/CI runs pass an explicit smaller --scale
        // when they only exercise the journal mechanics.
        let experiment = ExperimentConfig { jobs: 1, ..ExperimentConfig::default() };
        let mut cli = TuneCli {
            experiment,
            kernel: Kernel::Bc,
            dataset: Dataset::Kron,
            grid: GridSpec::Tiny,
            rung_budget: 2000,
            finalists: 4,
            seed: 42,
            journal: PathBuf::from("tune.journal"),
            kill_at: None,
            out_json: None,
            out_csv: None,
            trace_out: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match arg.as_str() {
                "--workload" => {
                    let (kernel, dataset) = parse_workload(&value("--workload")?)?;
                    cli.kernel = kernel;
                    cli.dataset = dataset;
                }
                "--grid" => {
                    cli.grid = match value("--grid")?.as_str() {
                        "tiny" => GridSpec::Tiny,
                        "paper" => GridSpec::Paper,
                        other => return Err(format!("bad --grid {other}: tiny or paper")),
                    };
                }
                "--rung-budget" => cli.rung_budget = number(&arg, value(&arg)?)?,
                "--finalists" => cli.finalists = number(&arg, value(&arg)?)?,
                "--seed" => cli.seed = number(&arg, value(&arg)?)?,
                "--resume" => cli.journal = PathBuf::from(value("--resume")?),
                "--kill-at" => cli.kill_at = Some(number(&arg, value(&arg)?)?),
                "--out-json" => cli.out_json = Some(PathBuf::from(value("--out-json")?)),
                "--out-csv" => cli.out_csv = Some(PathBuf::from(value("--out-csv")?)),
                "--trace" => cli.trace_out = Some(PathBuf::from(value("--trace")?)),
                "--help" | "-h" => return Err(TUNE_USAGE.to_string()),
                other => {
                    if !parse_experiment_flag(&mut cli.experiment, other, value)? {
                        return Err(format!("unknown argument: {other}\n{TUNE_USAGE}"));
                    }
                }
            }
        }
        check_experiment(&cli.experiment)?;
        if cli.rung_budget == 0 {
            return Err("--rung-budget must be at least 1".to_string());
        }
        if cli.finalists == 0 {
            return Err("--finalists must be at least 1".to_string());
        }
        if cli.kill_at == Some(0) {
            return Err("--kill-at must be at least 1".to_string());
        }
        Ok(cli)
    }

    /// The tuner search these options describe.
    pub fn tune_config(&self) -> TuneConfig {
        TuneConfig {
            experiment: self.experiment,
            kernel: self.kernel,
            dataset: self.dataset,
            grid: self.grid,
            rung_budget: self.rung_budget,
            finalists: self.finalists,
            seed: self.seed,
        }
    }

    /// The journal runner knobs: `--jobs` workers, an `exit(137)`
    /// kill-point when `--kill-at` is armed (the tuner pins
    /// `max_attempts` itself).
    pub fn runner_options(&self) -> RunnerOptions {
        RunnerOptions {
            jobs: self.experiment.jobs,
            max_attempts: 1,
            kill: self.kill_at.map(|n| KillSpec {
                at_append: n,
                torn: false,
                mode: KillMode::Exit,
            }),
        }
    }
}

/// Runs the tune subcommand end to end; returns the process exit code.
/// Stdout carries only the deterministic report; session-relative info
/// goes to stderr.
pub fn run_tune_cli(args: impl IntoIterator<Item = String>) -> i32 {
    let cli = match TuneCli::parse(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    // Budget-exceeded cells abort via `panic_any(RunError::Stuck)` and are
    // caught by the fallible sweep lane; they are routine scores for the
    // tuner (stuck-at-budget ranks last), so keep the default panic hook
    // from spraying a `Box<dyn Any>` backtrace per stuck cell. Every other
    // payload still reaches the default hook untouched.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<tiersim_core::RunError>().is_none() {
            default_hook(info);
        }
    }));
    let cfg = cli.tune_config();
    eprintln!(
        "tune: {} on {} grid, journal {}, jobs {}",
        cfg.experiment.workload(cfg.kernel, cfg.dataset).name(),
        cfg.grid.name(),
        cli.journal.display(),
        cli.experiment.jobs
    );
    let outcome = match run_tune(&cfg, &cli.journal, cli.runner_options()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("tune error: {e}");
            return 1;
        }
    };
    print!("{}", outcome.report.render());
    eprintln!("journal: {} cells executed, {} replayed", outcome.executed, outcome.replayed);
    if let Some(path) = &cli.out_json {
        if let Err(e) = outcome.report.write_json(path) {
            eprintln!("failed to write {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &cli.out_csv {
        if let Err(e) = outcome.report.write_csv(path) {
            eprintln!("failed to write {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &cli.trace_out {
        let exports = TraceExports::from_log(&outcome.trace);
        let text = if path.extension().is_some_and(|e| e == "csv") {
            &exports.csv
        } else {
            &exports.jsonl
        };
        if let Err(e) = tiersim_core::journal::atomic_write(path, text.as_bytes()) {
            eprintln!("failed to write {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {} ({} bytes)", path.display(), text.len());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<TuneCli, String> {
        TuneCli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_use_the_calibrated_testbed() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.kernel, Kernel::Bc);
        assert_eq!(cli.dataset, Dataset::Kron);
        assert_eq!(cli.grid, GridSpec::Tiny);
        // The suite-standard scale: smaller testbeds finish inside one
        // dilated scan period and score every knob point identically.
        assert_eq!(cli.experiment.scale, ExperimentConfig::default().scale);
        assert_eq!(cli.experiment.trials, ExperimentConfig::default().trials);
        assert_eq!(cli.experiment.jobs, 1);
        assert_eq!(cli.rung_budget, 2000);
        assert_eq!(cli.journal, PathBuf::from("tune.journal"));
    }

    #[test]
    fn parses_workloads_including_two_part_kernels() {
        let cli = parse(&["--workload", "cc_aff_urand"]).unwrap();
        assert_eq!(cli.kernel, Kernel::CcAff);
        assert_eq!(cli.dataset, Dataset::Urand);
        let cli = parse(&["--workload", "bfs_road"]).unwrap();
        assert_eq!(cli.kernel, Kernel::Bfs);
        assert_eq!(cli.dataset, Dataset::Road);
        assert!(parse(&["--workload", "nope_kron"]).is_err());
        assert!(parse(&["--workload", "bc_mars"]).is_err());
        assert!(parse(&["--workload", "bc"]).is_err());
    }

    #[test]
    fn parses_search_flags_and_rejects_degenerate_values() {
        let cli = parse(&[
            "--grid",
            "paper",
            "--rung-budget",
            "5000",
            "--finalists",
            "8",
            "--seed",
            "7",
            "--kill-at",
            "3",
        ])
        .unwrap();
        assert_eq!(cli.grid, GridSpec::Paper);
        assert_eq!(cli.rung_budget, 5000);
        assert_eq!(cli.finalists, 8);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.kill_at, Some(3));
        assert!(parse(&["--rung-budget", "0"]).is_err());
        assert!(parse(&["--finalists", "0"]).is_err());
        assert!(parse(&["--kill-at", "0"]).is_err());
        assert!(parse(&["--grid", "huge"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn runner_options_arm_exit_kills() {
        let cli = parse(&["--kill-at", "5", "--jobs", "4"]).unwrap();
        let opts = cli.runner_options();
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.max_attempts, 1);
        assert_eq!(opts.kill, Some(KillSpec { at_append: 5, torn: false, mode: KillMode::Exit }));
    }

    #[test]
    fn tune_config_fingerprint_tracks_search_inputs() {
        let a = parse(&[]).unwrap().tune_config();
        let b = parse(&["--seed", "9"]).unwrap().tune_config();
        let c = parse(&["--jobs", "4"]).unwrap().tune_config();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint(), "jobs must not change the fingerprint");
    }
}
