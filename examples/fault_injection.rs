//! Fault injection: run a workload under a seeded `FaultPlan` and watch
//! the run complete in degraded mode instead of dying.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use tiersim::core::{
    run_workload, Dataset, FaultPlan, Kernel, MachineConfig, WorkloadConfig, RATE_ONE,
};
use tiersim::policy::TieringMode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(12).trials(2);
    let plan = FaultPlan {
        seed: 42,
        dram_alloc_fail_per_64k: RATE_ONE / 16, // ~6% of DRAM allocations fail transiently
        migrate_busy_per_64k: RATE_ONE / 2,     // 50% of migration attempts hit EBUSY
        reclaim_stall_per_64k: RATE_ONE / 8,    // ~12% of reclaim passes stall
        reclaim_stall_cycles: 10_000,
        ..FaultPlan::none()
    };
    let mut cfg = MachineConfig::scaled_default(workload.steady_app_bytes(), TieringMode::AutoNuma);
    cfg.mem.fault = plan;
    cfg.os.migrate_max_retries = 1;

    let faulty = run_workload(cfg, workload)?;
    let clean = run_workload(
        MachineConfig::scaled_default(workload.steady_app_bytes(), TieringMode::AutoNuma),
        workload,
    )?;

    println!("run under injected faults (seed {}):", faulty.workload.seed);
    println!(
        "  completed:        {:.4}s total (clean run: {:.4}s)",
        faulty.total_secs, clean.total_secs
    );
    println!("  degraded mode:    {}", faulty.ran_degraded());
    println!("  pgmigrate_retry:  {}", faulty.counters.pgmigrate_retry);
    println!("  pgmigrate_fail:   {}", faulty.counters.pgmigrate_fail);
    println!("  alloc transients: {}", faulty.fault_stats.dram_alloc_failures);
    println!("  busy migrations:  {}", faulty.fault_stats.migrate_busy_failures);
    println!("  reclaim stalls:   {}", faulty.fault_stats.reclaim_stalls);
    println!("\nsummary CSV:");
    faulty.write_summary_csv(std::io::stdout())?;
    Ok(())
}
