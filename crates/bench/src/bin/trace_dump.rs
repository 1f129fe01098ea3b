//! Dumps the paper artifact's trace files for one workload run:
//! `memory_trace.csv`, `mmap_trace.csv`, `munmap_trace.csv`,
//! `perfmem_trace_mapped_DRAM.csv` and `perfmem_trace_mapped_PMEM.csv`
//! (the outputs of the artifact's `start_post_process.sh` +
//! `start_mapping.sh` pipeline), into a directory named after the
//! workload, ready for the paper's plotting scripts.

use std::fs::{self, File};
use std::io::BufWriter;
use tiersim_bench::{banner, Cli};
use tiersim_core::{Dataset, Kernel};
use tiersim_mem::Tier;
use tiersim_policy::TieringMode;
use tiersim_profile::export;

fn main() {
    let cli = Cli::from_env_standalone();
    banner("trace dump (artifact CSV layout)", &cli);
    let mut text = String::new();
    for kernel in Kernel::PAPER {
        for dataset in Dataset::ALL {
            let w = cli.experiment.workload(kernel, dataset);
            let r = cli.experiment.run(w, TieringMode::AutoNuma).expect("workload run");
            let dir = std::path::PathBuf::from(w.name()).join("autonuma");
            fs::create_dir_all(&dir).expect("create output dir");
            let open = |name: &str| {
                BufWriter::new(File::create(dir.join(name)).expect("create trace file"))
            };
            export::write_memory_trace(open("memory_trace.csv"), &r.samples).unwrap();
            export::write_mmap_trace(open("mmap_trace.csv"), &r.tracker).unwrap();
            export::write_munmap_trace(open("munmap_trace.csv"), &r.tracker).unwrap();
            export::write_mapped_trace(
                open("perfmem_trace_mapped_DRAM.csv"),
                &r.samples,
                &r.tracker,
                Tier::Dram,
            )
            .unwrap();
            export::write_mapped_trace(
                open("perfmem_trace_mapped_PMEM.csv"),
                &r.samples,
                &r.tracker,
                Tier::Nvm,
            )
            .unwrap();
            let line = format!(
                "{}: {} samples, {} allocations -> {}/\n",
                w.name(),
                r.samples.len(),
                r.tracker.len(),
                dir.display()
            );
            print!("{line}");
            text.push_str(&line);
        }
    }
    cli.maybe_write_out(&text);
}
