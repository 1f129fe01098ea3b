//! One simulator cell (`run_workload` on one machine and workload), run
//! plainly for the end-to-end metrics or phase by phase for the traced
//! run.

use crate::util::{timed, RunTime};
use std::time::Instant;
use tiersim_core::{
    generate, run_workload, Kernel, LoadMode, MachineConfig, RunReport, WorkloadConfig,
};
use tiersim_graph::{bc, bfs, load_sim_csr_streamed, verify, BfsParams, CsrGraph, SourcePicker};
use tiersim_mem::{AccessStats, MemBackend};
use tiersim_os::VmCounters;

/// What the phase-by-phase runner needs from a machine beyond
/// `MemBackend`.
pub trait SimMachine: MemBackend {
    /// Streams `bytes` of the graph file through the page cache.
    fn file_read(&mut self, bytes: u64) -> Result<(), String>;
    /// Takes a timeline snapshot, as the runner does at phase ends.
    fn snapshot_now(&mut self);
}

/// One cell: a machine and a workload.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The machine configuration.
    pub machine: MachineConfig,
    /// The workload.
    pub workload: WorkloadConfig,
}

/// The simulated outcome of a run: what must be identical between
/// `run_workload` and any bench-side re-run of the same cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounts {
    /// Access-path statistics.
    pub stats: AccessStats,
    /// The OS counters.
    pub counters: VmCounters,
    /// Samples the profiler recorded.
    pub samples: usize,
    /// Simulated cycles at the end of the run.
    pub sim_cycles: u64,
    /// OS engine ticks.
    pub os_ticks: u64,
}

impl SimCounts {
    /// Checks these counts against a report of the same cell. The report
    /// keeps its end time in seconds, so the cycle count is checked
    /// through the machine's own conversion.
    pub fn check_against(&self, report: &RunReport, machine: &MachineConfig) -> Result<(), String> {
        let mut diffs = Vec::new();
        if self.stats != report.mem_stats {
            diffs.push(format!("access stats {:?} != {:?}", self.stats, report.mem_stats));
        }
        if self.counters != report.counters {
            diffs.push(format!("counters {:?} != {:?}", self.counters, report.counters));
        }
        if self.samples != report.samples.len() {
            diffs.push(format!("samples {} != {}", self.samples, report.samples.len()));
        }
        if machine.mem.cycles_to_secs(self.sim_cycles).to_bits() != report.total_secs.to_bits() {
            diffs.push(format!("end time {} cycles != {} s", self.sim_cycles, report.total_secs));
        }
        if self.os_ticks != report.os_ticks {
            diffs.push(format!("os ticks {} != {}", self.os_ticks, report.os_ticks));
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs.join("; "))
        }
    }
}

/// Digest of a report's summary CSV: the cell's simulated output.
pub fn summary_digest(report: &RunReport) -> u64 {
    let mut csv = Vec::new();
    report.write_summary_csv(&mut csv).expect("writing to a Vec cannot fail");
    crate::util::fnv1a64(&csv)
}

/// Runs the cell the way users do.
pub fn run_plain(spec: &CellSpec) -> (RunTime, Result<RunReport, String>) {
    let (time, r) = RunTime::of(|| run_workload(spec.machine.clone(), spec.workload));
    (time, r.map_err(|e| e.to_string()))
}

/// The host-side set-up of a cell's input: generation plus host CSR, the
/// paper's offline converter step.
pub fn setup_graph(workload: &WorkloadConfig) -> CsrGraph {
    CsrGraph::from_edges(&generate(workload), true)
}

/// Host seconds per phase of one phase-by-phase run.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    /// Building the machine.
    pub machine_new_s: f64,
    /// Edge-list generation.
    pub generate_s: f64,
    /// Host CSR construction.
    pub host_csr_s: f64,
    /// Streamed `.sg` load into simulated memory, file reads included.
    pub sg_load_s: f64,
    /// Kernel trials, verification excluded.
    pub kernel_s: f64,
    /// The whole run, verification excluded.
    pub total_s: f64,
    /// Kernel results checked against the host references.
    pub verified: u64,
    /// Mismatches found.
    pub verify_failures: Vec<String>,
}

impl Phases {
    /// Host seconds the named phases account for.
    pub fn covered_s(&self) -> f64 {
        self.machine_new_s + self.generate_s + self.host_csr_s + self.sg_load_s + self.kernel_s
    }
}

/// Runs the cell phase by phase on the machine `new` builds, mirroring
/// `tiersim_core::run_workload` step for step (so the simulated outcome is
/// the same) and checking every kernel result against the host reference.
pub fn run_phases<B: SimMachine>(
    spec: &CellSpec,
    new: impl FnOnce(MachineConfig) -> Result<B, String>,
) -> Result<(B, Phases), String> {
    let w = &spec.workload;
    if w.load != LoadMode::SgFile {
        return Err(format!("cells load from a .sg file, got {:?}", w.load));
    }
    let threads = spec.machine.threads;
    let mut ph = Phases::default();
    let start = Instant::now();

    let mut m = timed(&mut ph.machine_new_s, || new(spec.machine.clone()))?;
    let el = timed(&mut ph.generate_s, || generate(w));
    let host = timed(&mut ph.host_csr_s, || CsrGraph::from_edges(&el, true));
    drop(el);
    let g = timed(&mut ph.sg_load_s, || {
        let g =
            load_sim_csr_streamed(&mut m, &host, threads, 1 << 20, |m, bytes| m.file_read(bytes))?;
        // The runner snapshots at the end of the load and of the build,
        // which the streamed load merges.
        m.snapshot_now();
        m.snapshot_now();
        Ok::<_, String>(g)
    })?;

    // The runner's source picker seed.
    let mut picker = SourcePicker::new(w.seed ^ 0x5eed);
    let mut verify_s = 0.0;
    for _ in 0..w.trials {
        let source = picker.pick(&g);
        let result = match w.kernel {
            Kernel::Bfs => {
                let dist = timed(&mut ph.kernel_s, || {
                    bfs(&mut m, &g, source, threads, BfsParams::default()).dist.into_host(&mut m)
                });
                timed(&mut verify_s, || verify::bfs(&host, source, &dist))
            }
            Kernel::Bc => {
                let scores = timed(&mut ph.kernel_s, || {
                    bc(&mut m, &g, &[source], threads).into_host(&mut m)
                });
                timed(&mut verify_s, || verify::bc(&host, &[source], &scores))
            }
            other => return Err(format!("no benchmark cell runs kernel {other}")),
        };
        ph.verified += 1;
        if let Err(e) = result {
            ph.verify_failures.push(e);
        }
    }
    g.unmap(&mut m);
    m.snapshot_now();
    ph.total_s = start.elapsed().as_secs_f64() - verify_s;
    Ok((m, ph))
}
