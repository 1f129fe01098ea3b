//! # tiersim-bench — reproduction harness
//!
//! `repro_all` renders Tables 1–3 and Figures 3–11 from six shared
//! AutoNUMA runs, or only the sections `--only` names.
//! `ext_dynamic_object`, `ext_dataset_locality` and `trace_dump` run
//! experiments of their own. Criterion benchmarks live under `benches/`.
//!
//! All binaries accept:
//!
//! ```text
//! --scale N         graph scale (default 16; paper used 30/31)
//! --degree N        average degree (default 16)
//! --trials N        kernel trials (default 4)
//! --jobs N          worker threads for independent experiment cells
//!                   (default: available parallelism; output bytes are
//!                   identical for every value)
//! --out PATH        also write the printed output to a file
//! --tick-budget N   quarantine any cell whose run exceeds N OS engine
//!                   ticks (0 = off); deterministic, no wall clock
//! --thp             enable transparent huge pages: khugepaged-style 2 MiB
//!                   collapse plus a 16-page fault-around window on every
//!                   machine (DESIGN.md §15)
//! ```
//!
//! `repro_all` also accepts the suite flags, which the other binaries
//! reject (exit 2) rather than ignore:
//!
//! ```text
//! --only IDS          print only these sections (fig3 … fig11, table1 …
//!                     table3) and run only the cells that render them
//! --trace PATH        write the Figure 9/10 run's AutoNUMA event trace as
//!                     JSONL, or CSV for a .csv PATH (DESIGN.md §11)
//! --inject-failure    add a deliberately failing experiment
//! --resume PATH       run against the durable journal at PATH, created if
//!                     absent: completed cells replay, never re-run (§13)
//! --kill-at N         die (exit 137) instead of performing the Nth
//!                     journal append; requires --resume
//! --max-attempts N    attempts per cell per session (default 3)
//! ```
//!
//! `repro_all tune` runs the AutoNUMA knob auto-tuner service instead
//! of the reproduction suite; see [`tune_cli`] and DESIGN.md §16.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod tune_cli;

pub use tune_cli::{run_tune_cli, TuneCli, TUNE_USAGE};

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use tiersim_core::experiments::{AutonumaTrace, Characterization, Comparison, ObjectAnalysis};
use tiersim_core::journal::{
    atomic_write, run_journaled, CellError, CellOutcome, FailureClass, JournalCell, JournalError,
    JournalStats, KillMode, KillSpec, RunnerOptions,
};
use tiersim_core::{
    CoreError, Dataset, ExperimentConfig, Kernel, RunError, RunReport, TraceConfig, TraceLog,
    WorkloadConfig,
};
use tiersim_policy::TieringMode;

/// Parsed command-line options shared by all reproduction binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Experiment parameters.
    pub experiment: ExperimentConfig,
    /// Optional output-file path.
    pub out: Option<PathBuf>,
    /// Optional event-trace output path; setting it also enables tracing
    /// in [`Cli::experiment`].
    pub trace_out: Option<PathBuf>,
    /// Injects a deliberately failing experiment into `repro_all`, to
    /// exercise the continue-on-failure path end to end.
    pub inject_failure: bool,
    /// Journal path for the crash-safe sweep lane (`--resume`).
    pub resume: Option<PathBuf>,
    /// Deterministic kill-point: die instead of performing the Nth
    /// journal append (`--kill-at`; requires `--resume`).
    pub kill_at: Option<u64>,
    /// Attempts per cell per session before quarantine (`--max-attempts`).
    pub max_attempts: u64,
    /// The ids of the sections to print (`--only`; default all of them).
    pub only: Vec<&'static str>,
}

/// Parses `flag`'s value `text` as a number.
pub(crate) fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// Parses `flag` into `experiment` when it is one of the testbed flags
/// every command line shares (`--scale`, `--degree`, `--trials`,
/// `--jobs`), taking its value from `value`. Returns whether it was one.
pub(crate) fn parse_experiment_flag(
    experiment: &mut ExperimentConfig,
    flag: &str,
    value: impl FnOnce(&str) -> Result<String, String>,
) -> Result<bool, String> {
    match flag {
        "--scale" => experiment.scale = number(flag, value(flag)?)?,
        "--degree" => experiment.degree = number(flag, value(flag)?)?,
        "--trials" => experiment.trials = number(flag, value(flag)?)?,
        "--jobs" => experiment.jobs = number(flag, value(flag)?)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Range checks for the flags [`parse_experiment_flag`] reads.
pub(crate) fn check_experiment(experiment: &ExperimentConfig) -> Result<(), String> {
    if experiment.scale < 4 || experiment.scale > 28 {
        return Err("--scale must be in 4..=28".to_string());
    }
    if experiment.jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    Ok(())
}

impl Cli {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or malformed values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            experiment: ExperimentConfig::default(),
            out: None,
            trace_out: None,
            inject_failure: false,
            resume: None,
            kill_at: None,
            max_attempts: 3,
            only: all_sections(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match arg.as_str() {
                "--tick-budget" => cli.experiment.tick_budget = number(&arg, value(&arg)?)?,
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                "--trace" => {
                    cli.trace_out = Some(PathBuf::from(value("--trace")?));
                    cli.experiment.trace = TraceConfig::on();
                }
                "--thp" => cli.experiment.thp = true,
                "--inject-failure" => cli.inject_failure = true,
                "--resume" => cli.resume = Some(PathBuf::from(value("--resume")?)),
                "--kill-at" => cli.kill_at = Some(number(&arg, value(&arg)?)?),
                "--max-attempts" => cli.max_attempts = number(&arg, value(&arg)?)?,
                "--only" => cli.only = parse_only(&value("--only")?)?,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => {
                    if !parse_experiment_flag(&mut cli.experiment, other, value)? {
                        return Err(format!("unknown argument: {other}\n{USAGE}"));
                    }
                }
            }
        }
        check_experiment(&cli.experiment)?;
        if cli.max_attempts == 0 {
            return Err("--max-attempts must be at least 1".to_string());
        }
        if cli.kill_at.is_some() && cli.resume.is_none() {
            return Err("--kill-at requires --resume".to_string());
        }
        if cli.kill_at == Some(0) {
            return Err("--kill-at must be at least 1".to_string());
        }
        if cli.trace_out.is_some() && !wants(&cli.only, AUTONUMA_TRACE) {
            return Err("--trace records the Figure 9/10 run: --only needs fig9 or fig10".into());
        }
        Ok(cli)
    }

    /// [`Cli::parse`] for a binary that runs an experiment of its own
    /// rather than the suite: the suite flags are errors there, not
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// As [`Cli::parse`], and names the first suite flag given.
    pub fn parse_standalone(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let args: Vec<String> = args.into_iter().collect();
        if let Some(flag) = args.iter().find(|a| SUITE_FLAGS.contains(&a.as_str())) {
            return Err(format!("{flag} is a repro_all flag; this binary does not read it"));
        }
        Cli::parse(args)
    }

    /// Parses the process arguments, exiting with usage on error.
    pub fn from_env() -> Cli {
        exit_on_error(Cli::parse(std::env::args().skip(1)))
    }

    /// [`Cli::parse_standalone`] over the process arguments, exiting with
    /// usage on error.
    pub fn from_env_standalone() -> Cli {
        exit_on_error(Cli::parse_standalone(std::env::args().skip(1)))
    }

    /// The journal runner knobs these options imply. Suite-level cells
    /// run serially (their inner sweeps use `experiment.jobs`); a
    /// `--kill-at` becomes a hard `exit(137)` kill-point, mimicking
    /// SIGKILL for the recovery smoke tests.
    pub fn runner_options(&self) -> RunnerOptions {
        RunnerOptions {
            jobs: 1,
            max_attempts: self.max_attempts,
            kill: self.kill_at.map(|n| KillSpec {
                at_append: n,
                torn: false,
                mode: KillMode::Exit,
            }),
        }
    }

    /// Writes `text` to the `--out` path if one was given.
    pub fn maybe_write_out(&self, text: &str) {
        if let Some(path) = &self.out {
            if let Err(e) = atomic_write(path, text.as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    }

    /// Writes the trace exports to the `--trace` path if one was given:
    /// JSONL by default, CSV when the path ends in `.csv`. A `--trace`
    /// flag with no exports to write (the traced experiment failed) is an
    /// error.
    pub fn maybe_write_trace(&self, exports: Option<&TraceExports>) {
        let Some(path) = &self.trace_out else { return };
        let Some(exports) = exports else {
            eprintln!("--trace given but no trace was recorded (traced experiment failed?)");
            std::process::exit(1);
        };
        let text = if path.extension().is_some_and(|e| e == "csv") {
            &exports.csv
        } else {
            &exports.jsonl
        };
        if let Err(e) = atomic_write(path, text.as_bytes()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} ({} bytes)", path.display(), text.len());
    }
}

/// The parsed options, or the error printed and exit code 2.
fn exit_on_error(cli: Result<Cli, String>) -> Cli {
    cli.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "usage: <bin> [--scale N] [--degree N] [--trials N] [--jobs N] \
     [--out PATH] [--tick-budget N] [--thp]; repro_all also: [--only ID,...] [--trace PATH] \
     [--inject-failure] [--resume PATH] [--kill-at N] [--max-attempts N]";

/// The flags only the `repro_all` suite reads.
const SUITE_FLAGS: [&str; 6] =
    ["--only", "--trace", "--inject-failure", "--resume", "--kill-at", "--max-attempts"];

/// The paper's tables and figures in print order: each one's `--only` id
/// and section title.
pub const SECTIONS: [(&str, &str); 12] = [
    ("fig3", "Figure 3: sample distribution across levels"),
    ("fig4", "Figure 4: page touch-count histogram"),
    ("fig5", "Figure 5: 2-touch reuse intervals (hottest NVM object)"),
    ("table1", "Table 1: external access location"),
    ("table2", "Table 2: external latency cost split"),
    ("table3", "Table 3: external access cost by TLB outcome"),
    ("fig6", "Figure 6: top objects by external samples (bc_kron)"),
    ("fig7", "Figure 7: allocation timeline (bc_kron)"),
    ("fig8", "Figure 8: hottest NVM object access pattern (bc_kron)"),
    ("fig9", "Figure 9: memory usage and counters over time (bc_kron)"),
    ("fig10", "Figure 10: DRAM loads vs promotions (bc_kron)"),
    ("fig11", "Figure 11: object-level static mapping vs AutoNUMA"),
];

/// The [`SECTIONS`] each suite cell renders.
const CHARACTERIZATION: Range<usize> = 0..6;
const OBJECT_ANALYSIS: Range<usize> = 6..9;
const AUTONUMA_TRACE: Range<usize> = 9..11;
const COMPARISON: Range<usize> = 11..12;

/// Every section id, in print order: what `--only` defaults to.
pub fn all_sections() -> Vec<&'static str> {
    SECTIONS.iter().map(|&(id, _)| id).collect()
}

/// Whether `only` names one of `sections`.
fn wants(only: &[&str], sections: Range<usize>) -> bool {
    SECTIONS[sections].iter().any(|(id, _)| only.contains(id))
}

/// Parses `--only`'s comma list of section ids.
fn parse_only(list: &str) -> Result<Vec<&'static str>, String> {
    let known = |id: &str| all_sections().into_iter().find(|&known| known == id);
    list.split(',')
        .map(|id| known(id).ok_or_else(|| format!("unknown --only id: {id:?}\n{USAGE}")))
        .collect()
}

/// The traced run's rendered exports, precomputed so a resumed suite can
/// reproduce `--trace` output from the journal without re-running the
/// traced experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExports {
    /// JSONL export (DESIGN.md §11).
    pub jsonl: String,
    /// CSV export.
    pub csv: String,
}

impl TraceExports {
    /// Renders both export formats from a recorded log.
    pub fn from_log(log: &TraceLog) -> TraceExports {
        TraceExports {
            jsonl: tiersim_core::trace_to_jsonl(log),
            csv: tiersim_core::trace_to_csv(log),
        }
    }
}

/// Runs a set of experiments where each may fail without killing the
/// rest: `repro_all`'s continue-on-failure harness.
///
/// Each [`attempt`](ExperimentSuite::attempt) isolates one experiment —
/// an `Err` or a panic is recorded against its name and the suite moves
/// on. At the end, [`summary`](ExperimentSuite::summary) reports what
/// failed and [`exit_code`](ExperimentSuite::exit_code) is nonzero if
/// anything did. A journaled suite additionally carries degraded-mode
/// cell accounting ([`set_cell_stats`](ExperimentSuite::set_cell_stats)).
#[derive(Debug, Default)]
pub struct ExperimentSuite {
    output: String,
    attempted: usize,
    failures: Vec<(String, String)>,
    trace: Option<TraceExports>,
    cell_stats: Option<JournalStats>,
    autonuma_runs: usize,
}

impl ExperimentSuite {
    /// An empty suite.
    pub fn new() -> ExperimentSuite {
        ExperimentSuite::default()
    }

    /// Records one rendered section and returns the text to display.
    pub fn section(&mut self, title: &str, body: &str) -> String {
        let text = format!("--- {title} ---\n{body}");
        self.output.push_str(&text);
        self.output.push('\n');
        text
    }

    /// Runs one experiment isolated from the rest. Returns its value on
    /// success; on `Err` or panic, records the failure under `name` and
    /// returns `None` so the caller can skip that experiment's sections.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(payload) => {
                Err(format!("panicked: {}", tiersim_core::sweep::panic_message(payload.as_ref())))
            }
        };
        self.record(name, result)
    }

    /// Counts one experiment's result, run here or replayed from a
    /// journal: its value on success, else `None` and a failure line.
    fn record<T>(&mut self, name: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.failures.push((name.to_string(), e))).ok()
    }

    /// Accumulated section text (what `--out` writes).
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The trace exports recorded by the suite's traced run, if any
    /// (what `--trace` writes).
    pub fn trace_exports(&self) -> Option<&TraceExports> {
        self.trace.as_ref()
    }

    /// Attaches degraded-mode cell accounting from a journaled sweep;
    /// [`summary`](ExperimentSuite::summary) then reports it.
    pub fn set_cell_stats(&mut self, stats: JournalStats) {
        self.cell_stats = Some(stats);
    }

    /// Degraded-mode cell accounting, if this suite ran journaled.
    pub fn cell_stats(&self) -> Option<&JournalStats> {
        self.cell_stats.as_ref()
    }

    /// How many of the six AutoNUMA paper runs this session made: fewer
    /// under `--only`, none when a journal replayed every cell.
    pub fn autonuma_runs(&self) -> usize {
        self.autonuma_runs
    }

    /// The recorded `(experiment, error)` pairs.
    pub fn failures(&self) -> &[(String, String)] {
        &self.failures
    }

    /// End-of-run report: which experiments completed and, for each
    /// failure, what went wrong. A journaled suite adds the degraded-mode
    /// cell columns; only final-state counters appear here, so the bytes
    /// are identical between an uninterrupted run and any kill+resume of
    /// it.
    pub fn summary(&self) -> String {
        let ok = self.attempted - self.failures.len();
        let mut s = format!("== {ok}/{} experiments completed ==\n", self.attempted);
        if let Some(c) = &self.cell_stats {
            s.push_str(&format!(
                "cells: {} completed, {} retried, {} quarantined\n",
                c.completed, c.retried, c.quarantined
            ));
        }
        for (name, err) in &self.failures {
            s.push_str(&format!("FAILED {name}: {err}\n"));
        }
        s
    }

    /// `0` if every attempt succeeded, `1` otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.failures.is_empty())
    }
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, cli: &Cli) {
    println!(
        "== {what} (scale {}, degree {}, trials {}) ==",
        cli.experiment.scale, cli.experiment.degree, cli.experiment.trials
    );
}

/// One paper workload's AutoNUMA run, made on first use. Its outcome is
/// kept, failure included.
type RunSlot = OnceLock<Result<RunReport, CoreError>>;

/// The suite's six AutoNUMA paper runs, each made at most once and read
/// by every cell that needs it (DESIGN.md §10). There is one slot per
/// workload, so a failed run fails only the cells that read it. The
/// reports live in the slots, which exist before any run is made.
#[derive(Debug)]
struct AutonumaRuns {
    cfg: ExperimentConfig,
    slots: Vec<(WorkloadConfig, RunSlot)>,
}

impl AutonumaRuns {
    fn new(cfg: &ExperimentConfig) -> AutonumaRuns {
        let slots = cfg.workloads().into_iter().map(|w| (w, OnceLock::new())).collect();
        AutonumaRuns { cfg: *cfg, slots }
    }

    /// The report of `kernel` on `dataset`.
    fn get(&self, kernel: Kernel, dataset: Dataset) -> Result<&RunReport, CoreError> {
        let slot = self.slots.iter().find(|(w, _)| w.kernel == kernel && w.dataset == dataset);
        let slot = slot.ok_or_else(|| CoreError::InvalidConfig {
            what: "paper workload",
            got: format!("{kernel:?} on {dataset:?}"),
        })?;
        self.report(slot)
    }

    /// All six reports in grid order, missing runs made on the sweep
    /// executor; the first error in grid order wins.
    fn all(&self) -> Result<Vec<&RunReport>, CoreError> {
        let cells: Vec<_> = self.slots.iter().map(|slot| move || self.report(slot)).collect();
        tiersim_core::sweep::run_cells(self.cfg.jobs, cells).into_iter().collect()
    }

    /// How many runs have been made.
    fn made(&self) -> usize {
        self.slots.iter().filter(|(_, slot)| slot.get().is_some()).count()
    }

    fn report<'a>(
        &self,
        (w, slot): &'a (WorkloadConfig, RunSlot),
    ) -> Result<&'a RunReport, CoreError> {
        let result = slot.get_or_init(|| self.cfg.run(*w, TieringMode::AutoNuma));
        result.as_ref().map_err(Clone::clone)
    }
}

/// What one suite cell produces: its rendered `(title, body)` sections
/// and, for the traced cell, the trace exports.
type CellOutput = (Vec<(String, String)>, Option<TraceExports>);

/// One suite cell's body: an experiment rendered from the shared runs.
type CellFn = fn(&AutonumaRuns) -> Result<CellOutput, CoreError>;

/// The suite: the optional `--inject-failure` cell, then each experiment
/// that renders a section in `only`. Both executors run exactly this
/// list, and the names are the journal's cell names.
fn suite_cells(inject_failure: bool, only: &[&str]) -> Vec<(&'static str, CellFn)> {
    let mut cells: Vec<(&'static str, CellFn)> = Vec::new();
    if inject_failure {
        // Deliberate failure to exercise the continue-on-failure path:
        // every later cell must still run and the exit code must be 1.
        cells.push(("injected failure", |_| Err(injected_failure())));
    }
    let experiments: [(&'static str, Range<usize>, CellFn); 4] = [
        ("characterization", CHARACTERIZATION, characterization_sections),
        ("object analysis", OBJECT_ANALYSIS, object_analysis_sections),
        ("autonuma trace", AUTONUMA_TRACE, autonuma_trace_sections),
        ("comparison", COMPARISON, comparison_sections),
    ];
    for (name, sections, cell) in experiments {
        if wants(only, sections) {
            cells.push((name, cell));
        }
    }
    cells
}

/// Pairs the bodies of `sections` with their titles.
fn titled(
    sections: Range<usize>,
    bodies: impl IntoIterator<Item = String>,
) -> Vec<(String, String)> {
    SECTIONS[sections]
        .iter()
        .zip(bodies)
        .map(|(&(_, title), body)| (title.to_string(), body))
        .collect()
}

/// Tables 1–3 and Figures 3–5, over all six runs.
fn characterization_sections(runs: &AutonumaRuns) -> Result<CellOutput, CoreError> {
    let c = Characterization::from_reports(&runs.cfg, runs.all()?);
    let bodies = [
        c.render_fig3(),
        c.render_fig4(),
        c.render_fig5(),
        c.render_table1(),
        c.render_table2(),
        c.render_table3(),
    ];
    Ok((titled(CHARACTERIZATION, bodies), None))
}

/// Figures 6–8, over the bc_kron run.
fn object_analysis_sections(runs: &AutonumaRuns) -> Result<CellOutput, CoreError> {
    let a = ObjectAnalysis::from_report(&runs.cfg, runs.get(Kernel::Bc, Dataset::Kron)?);
    let bodies = [a.render_fig6(10), a.render_fig7(), a.render_fig8()];
    Ok((titled(OBJECT_ANALYSIS, bodies), None))
}

/// Figures 9–10 over the bc_kron run, plus its event-trace exports when
/// tracing was enabled: it is the suite's traced run.
fn autonuma_trace_sections(runs: &AutonumaRuns) -> Result<CellOutput, CoreError> {
    let tr = AutonumaTrace::from_report(&runs.cfg, runs.get(Kernel::Bc, Dataset::Kron)?);
    let bodies = [tr.render_fig9(), tr.render_fig10()];
    let trace = (!tr.report.trace.is_empty()).then(|| TraceExports::from_log(&tr.report.trace));
    Ok((titled(AUTONUMA_TRACE, bodies), trace))
}

/// Figure 11: the static object mapping planned from each of the six runs.
fn comparison_sections(runs: &AutonumaRuns) -> Result<CellOutput, CoreError> {
    let cmp = Comparison::from_reports(&runs.cfg, &runs.all()?)?;
    Ok((titled(COMPARISON, [cmp.render()]), None))
}

/// Adds a completed cell's sections that `only` names (printing each as
/// it lands) and its trace exports to `suite`: the assembly step both
/// executors share. Payloads keep them all, so a journal serves any `only`.
fn add_cell(suite: &mut ExperimentSuite, cell: Option<CellOutput>, only: &[&str]) {
    let Some((sections, trace)) = cell else { return };
    for (title, body) in &sections {
        if SECTIONS.iter().any(|(id, known)| known == title && only.contains(id)) {
            println!("{}", suite.section(title, body));
        }
    }
    if trace.is_some() {
        suite.trace = trace;
    }
}

/// Runs the full `repro_all` experiment suite: every reproduction
/// experiment, each isolated so one failure never kills the rest. The
/// six AutoNUMA runs are made once and shared: they feed Tables 1–3 and
/// Figures 3–5, the bc_kron run feeds Figures 6–10, and all six plan
/// Figure 11's static mappings.
///
/// Sections print to stdout as they complete and accumulate in the
/// returned suite ([`ExperimentSuite::output`]). The recorded bytes are
/// identical for every `experiment.jobs` value — the byte-identity test
/// in `tests/parallel_sweep.rs` holds this function to that contract —
/// and to [`run_suite_journaled`]'s.
pub fn run_repro_suite(experiment: &ExperimentConfig, inject_failure: bool) -> ExperimentSuite {
    run_repro_sections(experiment, inject_failure, &all_sections())
}

/// [`run_repro_suite`] for the section ids in `only` (`repro_all --only`):
/// it runs only the cells, and so the AutoNUMA runs, those sections need,
/// and records them byte for byte as the full suite does.
pub fn run_repro_sections(
    experiment: &ExperimentConfig,
    inject_failure: bool,
    only: &[&str],
) -> ExperimentSuite {
    let runs = AutonumaRuns::new(experiment);
    let mut suite = ExperimentSuite::new();
    for (name, cell) in suite_cells(inject_failure, only) {
        let out = suite.attempt(name, || cell(&runs));
        add_cell(&mut suite, out, only);
    }
    suite.autonuma_runs = runs.made();
    suite
}

/// The deliberate `--inject-failure` error.
fn injected_failure() -> CoreError {
    CoreError::InvalidConfig { what: "injected failure", got: "--inject-failure".to_string() }
}

/// Section separator inside a journal payload (ASCII record separator).
const PAYLOAD_RS: char = '\u{1e}';
/// Title/body separator inside one payload section (ASCII unit
/// separator).
const PAYLOAD_US: char = '\u{1f}';
/// Reserved payload section carrying the traced run's JSONL export. The
/// NUL prefix keeps it disjoint from every printable section title.
const TRACE_JSONL_SECTION: &str = "\u{0}trace_jsonl";
/// Reserved payload section carrying the traced run's CSV export.
const TRACE_CSV_SECTION: &str = "\u{0}trace_csv";

/// Serializes a cell's output into one journal payload string: its
/// sections, then any trace exports as two reserved sections.
fn encode_payload((sections, trace): &CellOutput) -> String {
    let mut parts: Vec<String> =
        sections.iter().map(|(title, body)| format!("{title}{PAYLOAD_US}{body}")).collect();
    if let Some(t) = trace {
        parts.push(format!("{TRACE_JSONL_SECTION}{PAYLOAD_US}{}", t.jsonl));
        parts.push(format!("{TRACE_CSV_SECTION}{PAYLOAD_US}{}", t.csv));
    }
    parts.join(&PAYLOAD_RS.to_string())
}

/// Splits a journal payload back into the cell's output.
fn decode_payload(payload: &str) -> CellOutput {
    let mut sections = Vec::new();
    let (mut jsonl, mut csv) = (None, None);
    for (title, body) in payload.split(PAYLOAD_RS).filter_map(|s| s.split_once(PAYLOAD_US)) {
        match title {
            TRACE_JSONL_SECTION => jsonl = Some(body.to_string()),
            TRACE_CSV_SECTION => csv = Some(body.to_string()),
            _ => sections.push((title.to_string(), body.to_string())),
        }
    }
    let trace = jsonl.zip(csv).map(|(jsonl, csv)| TraceExports { jsonl, csv });
    (sections, trace)
}

/// Maps an experiment error to its journal failure class: the stuck-cell
/// watchdog gets its own column, everything else is an ordinary error
/// (panics are classified by the runner itself).
fn cell_error(e: CoreError) -> CellError {
    let class = match &e {
        CoreError::Run(RunError::Stuck { .. }) => FailureClass::Stuck,
        _ => FailureClass::Error,
    };
    CellError { class, message: e.to_string() }
}

/// The journaled variant of [`run_repro_sections`]: the same cells, each
/// one durable cell in the write-ahead journal at `journal` (DESIGN.md
/// §13). Pass [`all_sections`] for the whole suite.
///
/// The journal is created if absent and replayed if present — completed
/// cells return their recorded payload without re-executing, failed cells
/// retry up to `opts.max_attempts` per session, and cells that exhaust
/// the budget are quarantined in the summary's degraded-mode columns.
/// The assembled output, summary, and trace exports are byte-identical
/// between an uninterrupted run and any kill+resume split of it.
///
/// # Errors
///
/// [`JournalError`] on I/O failure, a journal recorded under a different
/// experiment fingerprint, or a corrupt journal.
///
/// # Panics
///
/// Raises [`tiersim_core::sweep::SweepAbort`] when an armed kill-point
/// with [`KillMode::Panic`] fires ([`KillMode::Exit`] terminates the
/// process instead).
pub fn run_suite_journaled(
    experiment: &ExperimentConfig,
    journal: &Path,
    opts: RunnerOptions,
    inject_failure: bool,
    only: &[&str],
) -> Result<ExperimentSuite, JournalError> {
    let runs = Arc::new(AutonumaRuns::new(experiment));
    let cells = suite_cells(inject_failure, only)
        .into_iter()
        .map(|(name, cell)| {
            let runs = Arc::clone(&runs);
            JournalCell {
                name: name.to_string(),
                run: Box::new(move || {
                    cell(&runs).map(|out| encode_payload(&out)).map_err(cell_error)
                }),
            }
        })
        .collect();
    let outcome = run_journaled(journal, &experiment.fingerprint(), cells, opts)?;

    let mut suite = ExperimentSuite::new();
    for (name, cell) in &outcome.cells {
        let result = match cell {
            CellOutcome::Completed { payload, .. } => Ok(decode_payload(payload)),
            // The attempt count is session-relative, so it stays out of
            // the byte-compared summary; the message itself is a pure
            // function of the cell.
            CellOutcome::Quarantined { error, .. } => Err(format!("quarantined: {error}")),
        };
        let out = suite.record(name, result);
        add_cell(&mut suite, out, only);
    }
    suite.set_cell_stats(outcome.stats);
    suite.autonuma_runs = runs.made();
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.experiment, ExperimentConfig::default());
        assert!(cli.out.is_none());
        assert!(cli.resume.is_none());
        assert!(cli.kill_at.is_none());
        assert_eq!(cli.max_attempts, 3);
    }

    #[test]
    fn parses_all_flags() {
        let cli =
            parse(&["--scale", "14", "--degree", "8", "--trials", "2", "--out", "/tmp/x.txt"])
                .unwrap();
        assert_eq!(cli.experiment.scale, 14);
        assert_eq!(cli.experiment.degree, 8);
        assert_eq!(cli.experiment.trials, 2);
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("/tmp/x.txt")));
    }

    #[test]
    fn rejects_unknown_and_invalid() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "40"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn parses_inject_failure_flag() {
        assert!(!parse(&[]).unwrap().inject_failure);
        assert!(parse(&["--inject-failure"]).unwrap().inject_failure);
    }

    #[test]
    fn parses_thp_flag() {
        assert!(!parse(&[]).unwrap().experiment.thp);
        assert!(parse(&["--thp"]).unwrap().experiment.thp);
    }

    #[test]
    fn trace_flag_sets_path_and_enables_tracing() {
        let off = parse(&[]).unwrap();
        assert!(off.trace_out.is_none());
        assert_eq!(off.experiment.trace, TraceConfig::off());

        let on = parse(&["--trace", "/tmp/t.jsonl"]).unwrap();
        assert_eq!(on.trace_out.as_deref(), Some(std::path::Path::new("/tmp/t.jsonl")));
        assert_eq!(on.experiment.trace, TraceConfig::on());
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn parses_and_validates_jobs() {
        assert_eq!(parse(&["--jobs", "4"]).unwrap().experiment.jobs, 4);
        assert_eq!(parse(&[]).unwrap().experiment.jobs, tiersim_core::sweep::default_jobs());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
    }

    #[test]
    fn parses_and_validates_journal_flags() {
        let cli =
            parse(&["--resume", "/tmp/j.jsonl", "--kill-at", "3", "--max-attempts", "2"]).unwrap();
        assert_eq!(cli.resume.as_deref(), Some(std::path::Path::new("/tmp/j.jsonl")));
        assert_eq!(cli.kill_at, Some(3));
        assert_eq!(cli.max_attempts, 2);
        let opts = cli.runner_options();
        assert_eq!(opts.jobs, 1);
        assert_eq!(opts.max_attempts, 2);
        assert_eq!(opts.kill, Some(KillSpec { at_append: 3, torn: false, mode: KillMode::Exit }));

        assert!(parse(&["--kill-at", "3"]).is_err(), "--kill-at requires --resume");
        assert!(parse(&["--resume", "/tmp/j", "--kill-at", "0"]).is_err());
        assert!(parse(&["--max-attempts", "0"]).is_err());
        assert!(parse(&["--tick-budget", "many"]).is_err());
        assert_eq!(parse(&["--tick-budget", "5000"]).unwrap().experiment.tick_budget, 5000);
    }

    #[test]
    fn parses_and_validates_only() {
        assert_eq!(parse(&[]).unwrap().only, all_sections());
        assert_eq!(
            parse(&["--only", "fig6,table2,fig11"]).unwrap().only,
            ["fig6", "table2", "fig11"]
        );
        let want = "fig3 fig4 fig5 table1 table2 table3 fig6 fig7 fig8 fig9 fig10 fig11";
        assert_eq!(all_sections().join(" "), want);
        for bad in ["fig12", "Fig6", "fig6,", "", "figure6"] {
            let err = parse(&["--only", bad]).unwrap_err();
            assert!(err.contains("unknown --only id") && err.contains(USAGE), "{bad}: {err}");
        }
        assert!(parse(&["--only"]).is_err());
        // The trace is the Figure 9/10 run's: --only must keep that cell.
        assert!(parse(&["--trace", "t.jsonl", "--only", "fig6"]).is_err());
        assert!(parse(&["--trace", "t.jsonl", "--only", "fig6,fig10"]).is_ok());
    }

    #[test]
    fn standalone_binaries_reject_suite_flags() {
        let standalone = |args: &[&str]| Cli::parse_standalone(args.iter().map(|s| s.to_string()));
        for args in [
            &["--only", "fig6"][..],
            &["--trace", "t.jsonl"],
            &["--inject-failure"],
            &["--resume", "j"],
            &["--resume", "j", "--kill-at", "2"],
            &["--max-attempts", "3"],
        ] {
            let err = standalone(args).unwrap_err();
            assert!(err.starts_with(&format!("{} is a repro_all flag", args[0])), "{err}");
        }
        let cli = standalone(&["--scale", "9", "--out", "x.txt", "--thp", "--tick-budget", "5"]);
        assert_eq!(cli.unwrap().experiment.scale, 9);
        assert!(standalone(&["--bogus"]).is_err());
    }

    #[test]
    fn only_runs_the_cells_that_own_a_requested_section() {
        let names = |inject, only: &[&str]| -> Vec<&str> {
            suite_cells(inject, only).into_iter().map(|(name, _)| name).collect()
        };
        let all = ["characterization", "object analysis", "autonuma trace", "comparison"];
        assert_eq!(names(false, &all_sections()), all);
        assert_eq!(names(false, &["fig7"]), ["object analysis"]);
        assert_eq!(names(false, &["fig11", "table3"]), ["characterization", "comparison"]);
        assert_eq!(names(true, &["fig10"]), ["injected failure", "autonuma trace"]);
        // Every section has exactly one owning cell, in print order.
        let owned = [CHARACTERIZATION, OBJECT_ANALYSIS, AUTONUMA_TRACE, COMPARISON];
        let covered: Vec<usize> = owned.into_iter().flatten().collect();
        assert_eq!(covered, Vec::from_iter(0..SECTIONS.len()));
    }

    #[test]
    fn a_bc_kron_section_makes_only_the_bc_kron_run() {
        let cfg =
            ExperimentConfig { scale: 8, degree: 8, trials: 1, jobs: 2, ..Default::default() };
        let suite = run_repro_sections(&cfg, false, &["fig6"]);
        assert_eq!(suite.autonuma_runs(), 1);
        assert!(suite.output().starts_with(&format!("--- {} ---\n", SECTIONS[6].1)));
        assert_eq!(suite.output().matches("\n--- ").count(), 0, "one section only");
        assert_eq!(suite.summary(), "== 1/1 experiments completed ==\n");
    }

    #[test]
    fn suite_continues_past_failures_and_reports() {
        let mut suite = ExperimentSuite::new();
        let ok = suite.attempt("first", || Ok::<_, String>(41));
        assert_eq!(ok, Some(41));
        let bad = suite.attempt("second", || Err::<i32, _>("boom".to_string()));
        assert_eq!(bad, None);
        let after = suite.attempt("third", || Ok::<_, String>(1));
        assert_eq!(after, Some(1), "a failure does not stop later experiments");
        assert_eq!(suite.failures().len(), 1);
        assert_eq!(suite.exit_code(), 1);
        let s = suite.summary();
        assert!(s.contains("2/3 experiments completed"), "{s}");
        assert!(s.contains("FAILED second: boom"), "{s}");
    }

    #[test]
    fn suite_isolates_panics() {
        let mut suite = ExperimentSuite::new();
        let r = suite.attempt("exploding", || -> Result<(), String> {
            panic!("unrecoverable fault at 0xdead");
        });
        assert_eq!(r, None);
        assert!(suite.summary().contains("panicked: unrecoverable fault at 0xdead"));
        assert_eq!(suite.exit_code(), 1);
    }

    #[test]
    fn clean_suite_exits_zero() {
        let mut suite = ExperimentSuite::new();
        suite.attempt("only", || Ok::<_, String>(()));
        let text = suite.section("t", "body\n");
        assert!(text.starts_with("--- t ---"));
        assert_eq!(suite.exit_code(), 0);
        assert!(suite.summary().contains("1/1 experiments completed"));
        assert!(suite.output().contains("body"));
    }

    #[test]
    fn summary_reports_degraded_mode_columns_when_journaled() {
        let mut suite = ExperimentSuite::new();
        assert!(!suite.summary().contains("cells:"), "no cell line without journal stats");
        assert_eq!(suite.record("fine one", Ok::<_, String>(7)), Some(7));
        assert_eq!(
            suite.record::<()>("stuck one", Err("quarantined: cell stuck".to_string())),
            None
        );
        suite.set_cell_stats(JournalStats {
            completed: 1,
            retried: 0,
            quarantined: 1,
            executed: 4,
            replayed: 0,
        });
        let s = suite.summary();
        assert!(s.contains("1/2 experiments completed"), "{s}");
        assert!(s.contains("cells: 1 completed, 0 retried, 1 quarantined"), "{s}");
        assert!(s.contains("FAILED stuck one: quarantined: cell stuck"), "{s}");
        assert_eq!(suite.exit_code(), 1);
    }

    #[test]
    fn payload_codec_roundtrips_cell_output() {
        let sections = vec![
            ("Table 1".to_string(), "a,b\n1,2\n".to_string()),
            ("Figure 3".to_string(), "multi\nline body\n".to_string()),
        ];
        let trace = TraceExports { jsonl: "{\"t\":1}\n".to_string(), csv: "t\n1\n".to_string() };
        for out in [(sections.clone(), None), (sections, Some(trace))] {
            assert_eq!(decode_payload(&encode_payload(&out)), out);
        }
        assert_eq!(decode_payload(""), (Vec::new(), None));
    }

    #[test]
    fn autonuma_runs_make_each_run_once() {
        let cfg =
            ExperimentConfig { scale: 8, degree: 8, trials: 1, jobs: 2, ..Default::default() };
        let runs = AutonumaRuns::new(&cfg);
        let bc_kron = runs.get(Kernel::Bc, Dataset::Kron).unwrap();
        let all = runs.all().unwrap();
        assert_eq!(all.len(), 6);
        assert!(std::ptr::eq(bc_kron, all[0]), "bc_kron is run once and shared");
        assert!(runs.get(Kernel::Pr, Dataset::Kron).is_err(), "PR is not a paper workload");
    }

    #[test]
    fn cell_error_classifies_stuck_separately() {
        let stuck = cell_error(CoreError::Run(RunError::Stuck { ticks: 5, budget: 2 }));
        assert_eq!(stuck.class, FailureClass::Stuck);
        assert!(stuck.message.contains("stuck"));
        let plain = cell_error(injected_failure());
        assert_eq!(plain.class, FailureClass::Error);
    }
}
