//! tiersim's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Every number is host time (how long the simulator takes), measured
//! from outside the library around calls into its public functions.
//! Simulated time is deterministic; it appears only as a check and as
//! per-layer counts. Human-readable lines start with `# `; the last line
//! of standard output is the JSON result. `BENCHMARK.json` at the
//! repository root lists the workloads and metrics and why they were
//! chosen; `run.py` builds this program and runs it.

mod cell;
mod child;
mod replay;
mod suite;
mod timed;
mod util;

use cell::{run_phases, run_plain, setup_graph, summary_digest, CellSpec};
use child::RunResult;
use replay::Replay;
use std::time::Instant;
use tiersim_core::{Dataset, ExperimentConfig, Kernel, WorkloadConfig};
use tiersim_mem::MemLevel;
use tiersim_policy::TieringMode;
use timed::TimedMachine;
use util::{median, ratio, result_line, Metric, RunTime};

const USAGE: &str = "usage: perfbench --workload <suite_s14|bc_urand_tiering|bfs_kron_load_thp> \
                     [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SuiteS14,
    BcUrandTiering,
    BfsKronLoadThp,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::SuiteS14, Workload::BcUrandTiering, Workload::BfsKronLoadThp];

    fn name(self) -> &'static str {
        match self {
            Workload::SuiteS14 => "suite_s14",
            Workload::BcUrandTiering => "bc_urand_tiering",
            Workload::BfsKronLoadThp => "bfs_kron_load_thp",
        }
    }

    /// The single cell this workload times, with `WorkloadConfig` seed
    /// `seed`. For the suite it is the suite's bc_kron AutoNUMA cell, which
    /// four of its experiments run, at the suite's fixed seed:
    /// `run_repro_suite` returns no report, so the access rate and the
    /// per-layer split come from this cell.
    fn cell(self, seed: u64) -> CellSpec {
        let (e, kernel, dataset) = match self {
            Workload::SuiteS14 => (suite_config(), Kernel::Bc, Dataset::Kron),
            Workload::BcUrandTiering => (
                ExperimentConfig { scale: 15, trials: 2, jobs: 1, ..ExperimentConfig::default() },
                Kernel::Bc,
                Dataset::Urand,
            ),
            Workload::BfsKronLoadThp => (
                ExperimentConfig {
                    scale: 17,
                    trials: 1,
                    jobs: 1,
                    thp: true,
                    ..ExperimentConfig::default()
                },
                Kernel::Bfs,
                Dataset::Kron,
            ),
        };
        let mut workload = e.workload(kernel, dataset);
        if self != Workload::SuiteS14 {
            workload.seed = seed;
        }
        CellSpec { machine: e.machine(TieringMode::AutoNuma), workload }
    }

    /// The graphs whose host-side set-up `setup_s` times.
    fn graphs(self, seed: u64) -> Vec<WorkloadConfig> {
        match self {
            Workload::SuiteS14 => {
                let mut distinct: Vec<WorkloadConfig> = Vec::new();
                for w in suite_config().workloads() {
                    let same = |o: &WorkloadConfig| {
                        (o.dataset, o.scale, o.degree, o.seed)
                            == (w.dataset, w.scale, w.degree, w.seed)
                    };
                    if !distinct.iter().any(same) {
                        distinct.push(w);
                    }
                }
                distinct
            }
            _ => vec![self.cell(seed).workload],
        }
    }
}

/// The paper suite as the benchmark runs it. `ExperimentConfig` has no
/// seed, so the suite always runs at the paper's fixed seed.
fn suite_config() -> ExperimentConfig {
    ExperimentConfig { scale: 14, trials: 1, jobs: 1, ..ExperimentConfig::default() }
}

/// The small suite whose phases the single-cell workloads' traced runs
/// time, so that every traced run reports every layer.
fn small_suite_config() -> ExperimentConfig {
    ExperimentConfig { scale: 10, trials: 1, jobs: 1, ..ExperimentConfig::default() }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { workload: Workload::SuiteS14, seed: 1, seconds: 10.0, trace: false };
    let mut workload = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Attempts and failures: each cell run or suite experiment is one
/// attempt; a failed output check fails its attempt.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            println!("# FAILED {what}: {e}");
        }
    }

    /// Records a run of `what` on the input with seed `input`, checking
    /// that all its cells or experiments completed and that its output
    /// digest matches earlier runs of the same input. Returns the run if
    /// it passed.
    fn record_run(
        &mut self,
        what: &str,
        input: u64,
        run: Result<RunResult, String>,
        digests: &mut Digests,
    ) -> Option<RunResult> {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                self.record(what, Err(e));
                return None;
            }
        };
        let (ok, n) = run.completed;
        for f in &run.failures {
            println!("# FAILED {what}: {f}");
        }
        let check = if n == 0 || ok != n {
            Err(format!("{ok}/{n} completed"))
        } else {
            digests.check(input, run.digest)
        };
        let mut failed = run.failures.len() as u64;
        if let Err(e) = &check {
            println!("# FAILED {what}: {e}");
            failed = failed.max(1);
        }
        self.attempted += n.max(1) as u64;
        self.failed += failed;
        (failed == 0).then_some(run)
    }
}

/// Checks that simulated output repeats: every run of one input in an
/// invocation must give the same digest.
#[derive(Debug)]
struct Digests {
    what: &'static str,
    seen: Vec<(u64, u64)>,
}

impl Digests {
    fn new(what: &'static str) -> Digests {
        Digests { what, seen: Vec::new() }
    }

    /// Records `digest` for the input with seed `input`.
    fn check(&mut self, input: u64, digest: u64) -> Result<(), String> {
        match self.seen.iter().find(|(i, _)| *i == input) {
            None => {
                self.seen.push((input, digest));
                Ok(())
            }
            Some(&(_, first)) if first == digest => Ok(()),
            Some(&(_, first)) => Err(format!(
                "{} digest {digest:016x} differs from the first run's {first:016x}",
                self.what
            )),
        }
    }

    /// Prints the first input's digest.
    fn print(&self) {
        if let Some((input, d)) = self.seen.first() {
            println!("# digest {} {d:016x} (seed {input})", self.what);
        }
    }
}

/// Median host CPU seconds to set up `graphs` once each, over at least
/// three set-ups and at least a second of them, after one warm-up set-up
/// (the first also pays for the process's fresh memory).
fn measure_setup(graphs: &[WorkloadConfig]) -> (f64, usize) {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 50;
    let setup = || {
        for w in graphs {
            std::hint::black_box(setup_graph(w));
        }
    };
    setup();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS
        || (start.elapsed().as_secs_f64() < 1.0 && samples.len() < MAX_REPS)
    {
        samples.push(RunTime::of(setup).0.cpu_s);
    }
    (median(&samples), samples.len())
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_metric(m: &Metric, how: &str) {
    println!("# {} {} {} {how}", m.name, m.value, m.unit);
}

/// The `WorkloadConfig` seed of input `i` of a run with `--seed seed`.
/// A single-cell run cycles through inputs, because how long one input
/// takes depends on its graph and BFS/BC sources.
fn input_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// The end-to-end run: repeat the workload for `seconds`, report medians.
///
/// Every run is a child process. The suite runs once, then its cell until
/// the time is up. A single-cell workload runs inputs 0, 0, 1, 2, ...:
/// the repeat of input 0 checks that its output is deterministic.
fn untraced(w: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let suite = w == Workload::SuiteS14;
    let (setup_s, setup_reps) = measure_setup(&w.graphs(input_seed(seed, 0)));
    let mut runs = Vec::new();
    let mut rates = Vec::new();
    let mut cell_digests = Digests::new("summary_csv");
    let start = Instant::now();
    if suite {
        let run = RunResult::spawn(&["suite"]);
        let mut digests = Digests::new("suite_stdout");
        let paper_seed = w.cell(0).workload.seed;
        if let Some(run) = tally.record_run("suite", paper_seed, run, &mut digests) {
            println!("# suite run cpu_s {} wall_s {}", run.time.cpu_s, run.time.wall_s);
            runs.push(run);
        }
        digests.print();
    }
    for k in 0u64.. {
        let input = w.cell(input_seed(seed, k.saturating_sub(1))).workload.seed;
        let run = RunResult::spawn(&["cell", w.name(), &input.to_string()]);
        if let Some(run) = tally.record_run("cell", input, run, &mut cell_digests) {
            println!(
                "# cell run seed {input} cpu_s {} wall_s {} peak_rss_mib {}",
                run.time.cpu_s, run.time.wall_s, run.peak_rss_mib
            );
            rates.push(run.accesses as f64 / run.time.cpu_s);
            if !suite {
                runs.push(run);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    cell_digests.print();
    let of = |f: fn(&RunResult) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        metric("cpu_s", of(|r| r.time.cpu_s), "s"),
        metric("accesses_per_s", median(&rates), "1/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", of(|r| r.peak_rss_mib), "MiB"),
    ];
    let n = runs.len();
    println!(
        "# wall_s {} s (median of {n} runs; the wall clock also counts time the host ran others)",
        of(|r| r.time.wall_s)
    );
    print_metric(&metrics[0], &format!("(median of {n} runs, CPU time)"));
    print_metric(&metrics[1], &format!("(median of {} cell runs, per CPU second)", rates.len()));
    print_metric(&metrics[2], &format!("(median of {setup_reps} set-ups, CPU time)"));
    print_metric(&metrics[3], &format!("(median of {n} runs' VmHWM)"));
    metrics
}

/// A child's one run: `suite`, or `cell <workload> <seed>`.
fn child(args: &[String]) -> Result<RunResult, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["suite"] => Ok(suite::run_suite(&suite_config())),
        ["cell", name, seed] => {
            let w = Workload::ALL
                .into_iter()
                .find(|w| w.name() == *name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            let seed = seed.parse().map_err(|e| format!("bad seed {seed:?}: {e}"))?;
            let (time, report) = run_plain(&w.cell(seed));
            let peak_rss_mib = util::peak_rss_mib()?;
            Ok(match report {
                Ok(r) => RunResult {
                    time,
                    peak_rss_mib,
                    accesses: r.mem_stats.total(),
                    digest: summary_digest(&r),
                    completed: (1, 1),
                    failures: Vec::new(),
                },
                Err(e) => RunResult {
                    time,
                    peak_rss_mib,
                    accesses: 0,
                    digest: 0,
                    completed: (0, 1),
                    failures: vec![e],
                },
            })
        }
        _ => Err(format!("bad child arguments {args:?}")),
    }
}

/// The traced run: the per-layer split, with every check that the split
/// measures the same program.
fn traced(w: Workload, seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let spec = w.cell(input_seed(seed, 0));

    // Suite layer: the suite's public experiment calls and rendering,
    // then (for the suite) the suite itself, untraced.
    let suite_cfg = if w == Workload::SuiteS14 { suite_config() } else { small_suite_config() };
    let sp = suite::run_phases(&suite_cfg);
    for (name, e) in &sp.failures {
        println!("# FAILED experiment {name}: {e}");
    }
    tally.attempted += sp.attempted as u64;
    tally.failed += sp.failures.len() as u64;
    println!("# digest suite_render {:016x}", sp.digest);
    let suite_wall = (w == Workload::SuiteS14).then(|| {
        let run = suite::run_suite(&suite_cfg);
        let wall = run.time.wall_s;
        let mut digests = Digests::new("suite_stdout");
        tally.record_run("suite", spec.workload.seed, Ok(run), &mut digests);
        digests.print();
        wall
    });

    // Cell layers: the untraced reference, the timed machine boundary and
    // the component replay, whose counts must all agree. The reference
    // runs twice so its timed run, like the traced ones, starts warm.
    let mut digests = Digests::new("summary_csv");
    let mut reference = || -> Result<_, String> {
        let (time, report) = run_plain(&spec);
        let report = report.map_err(|e| format!("{}: {e}", spec.workload.name()))?;
        tally.record(
            &spec.workload.name(),
            digests.check(spec.workload.seed, summary_digest(&report)),
        );
        Ok((time.wall_s, report))
    };
    reference()?;
    let (wall0, report) = reference()?;
    digests.print();

    let (tm, ph) = run_phases(&spec, TimedMachine::new)?;
    let tm_counts = tm.counts();
    tally.record("timed machine", checks(&ph, tm_counts.check_against(&report, &spec.machine)));

    let (rp, rph) = run_phases(&spec, Replay::new)?;
    tally.record(
        "component replay",
        checks(&rph, rp.counts().check_against(&report, &spec.machine)),
    );

    let mp = &tm.probes;
    let cp = &rp.probes;
    let traced_s = ph.total_s + suite_wall.map_or(0.0, |_| sp.covered_s());
    let untraced_s = wall0 + suite_wall.unwrap_or(0.0);
    let s = &report.mem_stats;
    let level = |l: MemLevel| s.level_counts[l.index()] as f64;
    let total = s.total() as f64;
    let c = &report.counters;
    let ns = |n: u128, calls: u64| ratio(n as f64, calls as f64);

    Ok(vec![
        metric("graph.generate_s", ph.generate_s, "s"),
        metric("graph.host_csr_s", ph.host_csr_s, "s"),
        metric("core.machine_new_s", ph.machine_new_s, "s"),
        metric("graph.sg_load_s", ph.sg_load_s, "s"),
        metric("os.file_read_s", mp.file_read_ns as f64 / 1e9, "s"),
        metric("os.file_read_calls", mp.file_read_calls as f64, "count"),
        metric("graph.kernel_s", ph.kernel_s, "s"),
        metric("experiments.characterization_s", sp.characterization_s, "s"),
        metric("experiments.objects_s", sp.objects_s, "s"),
        metric("experiments.autonuma_trace_s", sp.autonuma_trace_s, "s"),
        metric("experiments.comparison_s", sp.comparison_s, "s"),
        metric("bench.render_s", sp.render_s, "s"),
        metric("core.machine.op_calls", mp.op_calls as f64, "count"),
        metric("core.machine.op_ns", mp.op.net_mean(&mp.empty), "ns"),
        metric("core.machine.run_calls", mp.run_calls as f64, "count"),
        metric("core.machine.run_elems", mp.run_elems as f64, "count"),
        metric("core.machine.run_ns_per_elem", ns(mp.run_ns, mp.run_elems), "ns"),
        metric("core.machine.mmap_calls", mp.mmap_calls as f64, "count"),
        metric("core.machine.mmap_ns", ns(mp.mmap_ns, mp.mmap_calls), "ns"),
        metric("mem.access_calls", cp.access_calls as f64, "count"),
        metric("mem.access_ns", cp.access.net_mean(&cp.empty), "ns"),
        metric("mem.access_run_elems", cp.access_run_elems as f64, "count"),
        metric("mem.access_run_ns_per_elem", ns(cp.access_run_ns, cp.access_run_elems), "ns"),
        metric("os.handle_fault_calls", cp.handle_fault_calls as f64, "count"),
        metric("os.handle_fault_ns", ns(cp.handle_fault_ns, cp.handle_fault_calls), "ns"),
        metric("os.on_access_ns", cp.on_access.net_mean(&cp.empty), "ns"),
        metric("os.tick_calls", cp.tick_calls as f64, "count"),
        metric("os.tick_ns", ns(cp.tick_ns, cp.tick_calls), "ns"),
        metric("profile.observe_ns", cp.observe.net_mean(&cp.empty), "ns"),
        metric("profile.samples", report.samples.len() as f64, "count"),
        metric("core.glue_ns", cp.glue.net_mean(&cp.empty), "ns"),
        metric("mem.tlb_miss_ratio", ratio(s.tlb_misses as f64, total), "ratio"),
        metric("mem.l1_hit_ratio", ratio(level(MemLevel::L1), total), "ratio"),
        metric(
            "mem.l2_hit_ratio",
            ratio(level(MemLevel::L2), total - level(MemLevel::L1)),
            "ratio",
        ),
        metric(
            "mem.l3_hit_ratio",
            ratio(level(MemLevel::L3), total - level(MemLevel::L1) - level(MemLevel::L2)),
            "ratio",
        ),
        metric(
            "mem.nvm_share",
            ratio(level(MemLevel::Nvm), level(MemLevel::Dram) + level(MemLevel::Nvm)),
            "ratio",
        ),
        metric("os.hint_faults", c.numa_hint_faults as f64, "count"),
        metric("os.promotions", c.pgpromote_success as f64, "count"),
        metric("os.demotions", c.pgdemote_total() as f64, "count"),
        metric("os.migrate_retries", c.pgmigrate_retry as f64, "count"),
        metric(
            "os.promote_success_ratio",
            ratio(c.pgpromote_success as f64, c.pgpromote_candidate as f64),
            "ratio",
        ),
        metric("core.sim_cycles", tm_counts.sim_cycles as f64, "count"),
        metric("bench.timer_ns", cp.empty.mean(), "ns"),
        metric("bench.trace_overhead_ratio", traced_s / untraced_s, "ratio"),
        metric(
            "bench.phase_coverage",
            (ph.covered_s() + suite_wall.map_or(0.0, |_| sp.covered_s())) / traced_s,
            "ratio",
        ),
    ])
}

/// Folds a phase run's kernel verification into its count check.
fn checks(ph: &cell::Phases, counts: Result<(), String>) -> Result<(), String> {
    if let Some(e) = ph.verify_failures.first() {
        return Err(format!(
            "{} of {} kernel results wrong, first: {e}",
            ph.verify_failures.len(),
            ph.verified
        ));
    }
    counts.map_err(|e| format!("counts differ from run_workload: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(child::FLAG) {
        match child(&argv[1..]) {
            Ok(run) => run.print(),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = parse_args(argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "# perfbench workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(args.workload, args.seed, &mut tally).unwrap_or_else(|e| {
            eprintln!("traced run failed: {e}");
            std::process::exit(1);
        })
    } else {
        untraced(args.workload, args.seed, args.seconds, &mut tally)
    };
    println!(
        "# fail_ratio {} ratio ({} failed / {} attempted)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, tally.attempted, tally.failed, &metrics));
}
