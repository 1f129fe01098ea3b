//! Extension experiment (beyond the paper): does AutoNUMA's trouble come
//! from graph *irregularity*? Run the same kernel on the paper's irregular
//! inputs (kron/urand) and on a spatially-local lattice ("road"), and
//! compare the page-touch profile, promotion activity, and the benefit of
//! the object-level static mapping.

use tiersim_bench::{banner, Cli};
use tiersim_core::experiments::Comparison;
use tiersim_core::render::{pct, secs, TextTable};
use tiersim_core::{Dataset, Kernel};
use tiersim_policy::TieringMode;
use tiersim_profile::TouchHistogram;

fn main() {
    let cli = Cli::from_env_standalone();
    banner("extension — dataset locality (irregular vs lattice)", &cli);
    let cfg = cli.experiment;
    let mut t = TextTable::new(vec![
        "Dataset",
        "1-touch",
        "3+-touch",
        "Promotions",
        "AutoNUMA",
        "Static",
        "Static gain",
    ]);
    for dataset in [Dataset::Kron, Dataset::Urand, Dataset::Road] {
        let auto = cfg
            .run(cfg.workload(Kernel::Bfs, dataset), TieringMode::AutoNuma)
            .expect("autonuma run");
        let row = Comparison::compare(&cfg, &auto, true).expect("static run");
        let (one, _, three) = TouchHistogram::of(&auto.samples).access_fractions();
        t.row(vec![
            dataset.to_string(),
            pct(one),
            pct(three),
            auto.counters.pgpromote_success.to_string(),
            secs(row.autonuma_secs),
            secs(row.static_secs),
            pct(row.improvement()),
        ]);
    }
    let text = t.render();
    println!("{text}");
    cli.maybe_write_out(&text);
}
