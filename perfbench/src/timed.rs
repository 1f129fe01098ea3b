//! The access boundary, timed from outside: a `MemBackend` adapter that
//! forwards every call to a real `Machine` and times a sample of them.

use crate::cell::{SimCounts, SimMachine};
use crate::util::{SampledNs, SpanSampler};
use std::time::Instant;
use tiersim_core::{Machine, MachineConfig};
use tiersim_mem::{MemBackend, ThreadId, VirtAddr};

/// Mean gap between timed per-element ops.
const OP_SAMPLE_GAP: u64 = 64;

/// Host time at the `Machine` boundary.
#[derive(Debug, Default)]
pub struct MachineProbes {
    /// Per-element `load`/`store` calls (`Machine::op`).
    pub op_calls: u64,
    /// Sampled spans of those calls.
    pub op: SampledNs,
    /// Empty spans timed at the same calls: the timer's own cost.
    pub empty: SampledNs,
    /// Batched `load_run`/`store_run` calls.
    pub run_calls: u64,
    /// Elements those calls covered.
    pub run_elems: u64,
    /// Host ns spent in them (every call timed).
    pub run_ns: u128,
    /// `mmap` calls.
    pub mmap_calls: u64,
    /// Host ns spent in them (every call timed).
    pub mmap_ns: u128,
    /// `Machine::file_read` calls.
    pub file_read_calls: u64,
    /// Host ns spent in them (every call timed).
    pub file_read_ns: u128,
}

/// A `Machine` behind a timing `MemBackend`. Simulation is untouched: the
/// adapter only forwards, so its counts must equal `run_workload`'s.
#[derive(Debug)]
pub struct TimedMachine {
    /// The machine being driven.
    pub machine: Machine,
    /// What the adapter measured.
    pub probes: MachineProbes,
    sampler: SpanSampler,
}

impl TimedMachine {
    /// Builds the machine.
    pub fn new(cfg: MachineConfig) -> Result<TimedMachine, String> {
        Ok(TimedMachine {
            machine: Machine::new(cfg).map_err(|e| e.to_string())?,
            probes: MachineProbes::default(),
            sampler: SpanSampler::new(OP_SAMPLE_GAP),
        })
    }

    /// The simulated outcome, in the report's terms.
    pub fn counts(&self) -> SimCounts {
        let m = &self.machine;
        SimCounts {
            stats: *m.mem().stats(),
            counters: m.os().counters(),
            samples: m.samples().len(),
            sim_cycles: m.now_cycles(),
            os_ticks: m.os_ticks(),
        }
    }

    #[inline]
    fn op(&mut self, f: impl FnOnce(&mut Machine)) {
        self.probes.op_calls += 1;
        let mark = self.sampler.due().then(Instant::now);
        f(&mut self.machine);
        let mark = self.probes.op.lap(mark);
        self.probes.empty.lap(mark);
    }

    fn run(&mut self, count: u64, f: impl FnOnce(&mut Machine)) {
        let t = Instant::now();
        f(&mut self.machine);
        self.probes.run_ns += t.elapsed().as_nanos();
        self.probes.run_calls += 1;
        self.probes.run_elems += count;
    }
}

impl MemBackend for TimedMachine {
    fn mmap(&mut self, len: u64, label: &str) -> VirtAddr {
        let t = Instant::now();
        let addr = self.machine.mmap(len, label);
        self.probes.mmap_ns += t.elapsed().as_nanos();
        self.probes.mmap_calls += 1;
        addr
    }

    fn munmap(&mut self, addr: VirtAddr) {
        self.machine.munmap(addr);
    }

    fn load(&mut self, addr: VirtAddr, bytes: u32) {
        self.op(|m| m.load(addr, bytes));
    }

    fn store(&mut self, addr: VirtAddr, bytes: u32) {
        self.op(|m| m.store(addr, bytes));
    }

    fn load_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run(count, |m| m.load_run(addr, stride, count));
    }

    fn store_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run(count, |m| m.store_run(addr, stride, count));
    }

    fn set_thread(&mut self, tid: ThreadId) {
        self.machine.set_thread(tid);
    }

    fn cpu_work(&mut self, cycles: u64) {
        self.machine.cpu_work(cycles);
    }

    fn now_cycles(&self) -> u64 {
        self.machine.now_cycles()
    }
}

impl SimMachine for TimedMachine {
    fn file_read(&mut self, bytes: u64) -> Result<(), String> {
        let t = Instant::now();
        let r = self.machine.file_read(bytes).map_err(|e| e.to_string());
        self.probes.file_read_ns += t.elapsed().as_nanos();
        self.probes.file_read_calls += 1;
        r
    }

    fn snapshot_now(&mut self) {
        self.machine.snapshot_now();
    }
}
