//! Extension experiment (beyond the paper): the paper's static
//! object-level mapping vs a *dynamic* object-level tierer that re-ranks
//! and migrates objects online — the future work its conclusion sketches.

use tiersim_bench::{banner, Cli};
use tiersim_core::experiments::Comparison;
use tiersim_core::render::{pct, secs, TextTable};
use tiersim_core::{Dataset, Kernel};
use tiersim_policy::{DynamicObjectConfig, TieringMode};

fn main() {
    let cli = Cli::from_env_standalone();
    banner("extension — dynamic vs static object-level tiering", &cli);
    let cfg = cli.experiment;
    let mut t = TextTable::new(vec![
        "Workload",
        "AutoNUMA",
        "Static object",
        "Dynamic object",
        "Static gain",
        "Dynamic gain",
    ]);
    for kernel in [Kernel::Bc, Kernel::Cc] {
        for dataset in [Dataset::Kron, Dataset::Urand] {
            let w = cfg.workload(kernel, dataset);
            let auto = cfg.run(w, TieringMode::AutoNuma).expect("autonuma");
            let row = Comparison::compare(&cfg, &auto, true).expect("static");
            let dynamic = TieringMode::DynamicObject(DynamicObjectConfig::default());
            let dynr = cfg.run(w, dynamic).expect("dynamic");
            t.row(vec![
                w.name(),
                secs(row.autonuma_secs),
                secs(row.static_secs),
                secs(dynr.total_secs),
                pct(row.improvement()),
                pct(1.0 - dynr.total_secs / auto.total_secs),
            ]);
        }
    }
    let text = t.render();
    println!("{text}");
    cli.maybe_write_out(&text);
}
