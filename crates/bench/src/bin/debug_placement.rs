//! Diagnostic: per-label sample/traffic composition under AutoNUMA vs the
//! static plan, for calibrating the Figure 11 reproduction.

use tiersim_bench::Cli;
use tiersim_core::experiments::ExperimentConfig;
use tiersim_core::{plan_from_report, run_workload, Dataset, Kernel, RunReport};
use tiersim_policy::{aggregate_by_label, TieringMode};

fn dump(tag: &str, r: &RunReport) {
    println!(
        "--- {tag}: exec {:.4}s total {:.4}s nvm_samples {} ---",
        r.exec_secs(),
        r.total_secs,
        r.nvm_samples()
    );
    let mapped = r.mapped();
    let stats = aggregate_by_label(&mapped);
    println!(
        "{:<22} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "label", "bytes", "samples", "dram", "nvm", "density"
    );
    for s in &stats {
        let (dram, nvm): (u64, u64) = mapped
            .objects
            .iter()
            .filter(|o| *o.site == s.label)
            .fold((0, 0), |(d, n), o| (d + o.dram_samples, n + o.nvm_samples));
        println!(
            "{:<22} {:>10} {:>9} {:>9} {:>9} {:>10.6}",
            s.label,
            s.bytes,
            s.samples,
            dram,
            nvm,
            s.density()
        );
    }
    println!("counters: {:?}", r.counters);
}

fn main() {
    let cli = Cli::from_env();
    let cfg: ExperimentConfig = cli.experiment;
    let kernels = [Kernel::Bc];
    for kernel in kernels {
        for dataset in [Dataset::Kron] {
            let w = cfg.workload(kernel, dataset);
            let base = cfg.machine(TieringMode::AutoNuma);
            println!(
                "== {} dram={}MB nvm={}MB steady_est={}MB peak_est={}MB ==",
                w.name(),
                base.mem.dram_capacity >> 20,
                base.mem.nvm_capacity >> 20,
                w.steady_app_bytes() >> 20,
                w.peak_app_bytes() >> 20,
            );
            let auto = run_workload(base.clone(), w).expect("autonuma run");
            dump("autonuma", &auto);
            let plan = plan_from_report(&auto, &base, false);
            println!(
                "plan: dram_used={} budget={} spilled={:?}",
                plan.dram_used, plan.dram_budget, plan.spilled_label
            );
            for (label, p) in plan.placement.iter() {
                println!("  {label:<22} -> {p:?}");
            }
            let mut sc = base.clone();
            sc.mode = TieringMode::StaticObject(plan);
            let stat = run_workload(sc, w).expect("static run");
            dump("static", &stat);
        }
    }
}
