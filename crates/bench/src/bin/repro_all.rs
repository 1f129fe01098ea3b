//! Runs every reproduction experiment and prints all tables/figures. The
//! six AutoNUMA paper runs are made once and feed Figures 3–11: Tables
//! 1–3 and Figures 3–5 and 11 read all six, Figures 6–10 read bc_kron.
//!
//! `--only fig6,fig11` prints just those sections, byte for byte as the
//! full run does, and runs only what they read: `--only fig6` makes one run.
//!
//! Experiments are isolated: a failing (or panicking) experiment is
//! recorded and the rest still run. A failure summary is printed at the
//! end and the process exits nonzero if anything failed.
//!
//! `--jobs N` runs independent experiment cells on N worker threads; the
//! printed tables and `--out` bytes are identical for every value (see
//! DESIGN.md §10).
//!
//! `--resume PATH` runs the same cells against a durable write-ahead
//! journal (DESIGN.md §13): killed runs — including `--kill-at N`
//! injected kills and real SIGKILL — resume where they left off, never
//! re-executing a completed experiment, and produce byte-identical
//! reports to an uninterrupted run.

//! `repro_all tune ...` dispatches to the AutoNUMA knob auto-tuner
//! service instead (DESIGN.md §16); see `tiersim_bench::tune_cli`.

use tiersim_bench::{banner, run_repro_sections, run_suite_journaled, run_tune_cli, Cli};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("tune") {
        std::process::exit(run_tune_cli(args.skip(1)));
    }
    let cli = Cli::from_env();
    banner("full paper reproduction", &cli);
    // Stderr only: stdout stays byte-identical across --jobs values and
    // kill/resume splits.
    eprintln!("jobs: {}", cli.experiment.jobs);
    let suite = if let Some(journal) = &cli.resume {
        match run_suite_journaled(
            &cli.experiment,
            journal,
            cli.runner_options(),
            cli.inject_failure,
            &cli.only,
        ) {
            Ok(suite) => suite,
            Err(e) => {
                eprintln!("journal error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        run_repro_sections(&cli.experiment, cli.inject_failure, &cli.only)
    };
    print!("{}", suite.summary());
    if let Some(stats) = suite.cell_stats() {
        // Session-relative counters are stderr-only for the same reason;
        // the recovery tests read them to prove completed cells never
        // re-run.
        eprintln!("journal: {} cells executed, {} replayed", stats.executed, stats.replayed);
    }
    eprintln!("autonuma runs made: {}", suite.autonuma_runs());
    cli.maybe_write_out(suite.output());
    cli.maybe_write_trace(suite.trace_exports());
    std::process::exit(suite.exit_code());
}
