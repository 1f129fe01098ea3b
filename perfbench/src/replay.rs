//! Component replay: the machine's access loop rebuilt from the layers'
//! public calls, so each layer can be timed on its own.
//!
//! `Replay` does what `tiersim_core::Machine` does for an AutoNUMA run,
//! using only `MemorySystem::{access, access_run, plain_window, mmap,
//! munmap}`, `AutoNuma::{handle_fault, on_access, tick, file_read,
//! next_event, rate_available_bytes}` and `Sampler::{observe,
//! observe_gap, until_due}`. It times those calls from outside. Its
//! counts are checked against `run_workload`'s report, so a drift from
//! the machine fails the traced run instead of publishing numbers for a
//! different program.

use crate::cell::{SimCounts, SimMachine};
use crate::util::{SampledNs, SpanSampler};
use std::time::Instant;
use tiersim_core::MachineConfig;
use tiersim_mem::{
    AccessError, AccessKind, MemBackend, MemPolicy, MemorySystem, ThreadId, VirtAddr, PAGE_SHIFT,
};
use tiersim_os::AutoNuma;
use tiersim_policy::TieringMode;
use tiersim_profile::Sampler;

/// The machine's syscall charge per `mmap`/`munmap`, in cycles.
const SYSCALL_COST_CYCLES: u64 = 1_300;
/// The machine's batched-run chunk, in elements.
const RUN_CHUNK_ELEMS: u64 = 4_096;
/// Mean gap between per-element ops whose components are timed.
const OP_SAMPLE_GAP: u64 = 64;

/// Host time per layer, measured around the layers' public calls.
#[derive(Debug, Default)]
pub struct ComponentProbes {
    /// Per-element ops.
    pub op_calls: u64,
    /// `MemorySystem::access` calls (a faulting access is retried).
    pub access_calls: u64,
    /// Sampled `MemorySystem::access` spans.
    pub access: SampledNs,
    /// `MemorySystem::access_run` elements.
    pub access_run_elems: u64,
    /// Host ns in `access_run` (every call timed).
    pub access_run_ns: u128,
    /// `AutoNuma::handle_fault` calls.
    pub handle_fault_calls: u64,
    /// Host ns in `handle_fault` (every call timed).
    pub handle_fault_ns: u128,
    /// Sampled `AutoNuma::on_access` spans.
    pub on_access: SampledNs,
    /// `AutoNuma::tick` calls.
    pub tick_calls: u64,
    /// Host ns in `tick` (every call timed).
    pub tick_ns: u128,
    /// Sampled `Sampler::observe` spans.
    pub observe: SampledNs,
    /// Sampled spans of the op's clock advance and housekeeping, OS ticks
    /// that fall in them included: the op's self time.
    pub glue: SampledNs,
    /// Empty spans timed at the same ops: the timer's own cost.
    pub empty: SampledNs,
}

/// The AutoNUMA machine rebuilt from its components.
#[derive(Debug)]
pub struct Replay {
    cfg: MachineConfig,
    mem: MemorySystem,
    os: AutoNuma,
    sampler: Sampler,
    clock_cycles: u64,
    clock_rem: u64,
    cur_thread: ThreadId,
    os_next_event: u64,
    os_ticks: u64,
    next_snapshot: u64,
    op_sampler: SpanSampler,
    /// What the replay measured.
    pub probes: ComponentProbes,
}

impl Replay {
    /// Builds the components as `Machine::new` does for an AutoNUMA run.
    pub fn new(cfg: MachineConfig) -> Result<Replay, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        if !matches!(cfg.mode, TieringMode::AutoNuma) || cfg.tick_budget != 0 {
            return Err(format!("replay covers AutoNUMA runs without a tick budget, got {cfg:?}"));
        }
        let mut os_cfg = cfg.os.clone();
        os_cfg.autonuma_enabled = true;
        let mem = MemorySystem::new(cfg.mem.clone()).map_err(|e| e.to_string())?;
        let os = AutoNuma::new(os_cfg).map_err(|e| e.to_string())?;
        Ok(Replay {
            os_next_event: os.next_event(),
            next_snapshot: cfg.timeline_period_cycles,
            sampler: Sampler::new(cfg.sample_period),
            mem,
            os,
            clock_cycles: 0,
            clock_rem: 0,
            cur_thread: ThreadId(0),
            os_ticks: 0,
            op_sampler: SpanSampler::new(OP_SAMPLE_GAP),
            probes: ComponentProbes::default(),
            cfg,
        })
    }

    /// The simulated outcome, in the report's terms.
    pub fn counts(&self) -> SimCounts {
        SimCounts {
            stats: *self.mem.stats(),
            counters: self.os.counters(),
            samples: self.sampler.samples().len(),
            sim_cycles: self.clock_cycles,
            os_ticks: self.os_ticks,
        }
    }

    fn advance_parallel(&mut self, cost: u64) {
        let total = cost + self.clock_rem;
        self.clock_cycles += total / self.cfg.threads as u64;
        self.clock_rem = total % self.cfg.threads as u64;
        self.housekeeping();
    }

    fn advance_wall(&mut self, cycles: u64) {
        self.clock_cycles += cycles;
        self.housekeeping();
    }

    fn housekeeping(&mut self) {
        if self.clock_cycles >= self.os_next_event {
            let t = Instant::now();
            self.os.tick(&mut self.mem, self.clock_cycles);
            self.probes.tick_ns += t.elapsed().as_nanos();
            self.probes.tick_calls += 1;
            self.os_next_event = self.os.next_event();
            self.os_ticks += 1;
        }
        if self.clock_cycles >= self.next_snapshot {
            self.snapshot();
            self.next_snapshot = self.clock_cycles + self.cfg.timeline_period_cycles;
        }
    }

    /// The one part of a timeline snapshot that touches simulated state:
    /// reading the promotion token bucket refills it at `now`.
    fn snapshot(&mut self) {
        self.os.rate_available_bytes(self.clock_cycles);
    }

    fn op(&mut self, addr: VirtAddr, kind: AccessKind) {
        self.probes.op_calls += 1;
        // A timed op takes one timestamp between consecutive components,
        // then one more: that last, empty span is the timer's own cost
        // measured in the same place.
        let timed = self.op_sampler.due();
        let mut mark = timed.then(Instant::now);
        let outcome = loop {
            self.probes.access_calls += 1;
            let r = self.mem.access(addr, kind, self.clock_cycles);
            mark = self.probes.access.lap(mark);
            match r {
                Ok(o) => break o,
                Err(AccessError::Fault(pf)) => {
                    let t = Instant::now();
                    let res = self.os.handle_fault(&mut self.mem, pf, self.clock_cycles);
                    self.probes.handle_fault_ns += t.elapsed().as_nanos();
                    self.probes.handle_fault_calls += 1;
                    match res {
                        Ok(res) => self.advance_parallel(res.cost_cycles),
                        Err(e) => panic!("unrecoverable fault at {addr}: {e}"),
                    }
                    mark = timed.then(Instant::now);
                }
                Err(AccessError::Segfault { addr }) => panic!("segfault at {addr}"),
            }
        };
        let os_cost = self.os.on_access(&mut self.mem, &outcome, self.clock_cycles);
        mark = self.probes.on_access.lap(mark);
        self.sampler.observe(kind, &outcome, addr, self.cur_thread, self.clock_cycles);
        mark = self.probes.observe.lap(mark);
        self.advance_parallel(self.cfg.cpu_cycles_per_op + outcome.cycles + os_cost);
        mark = self.probes.glue.lap(mark);
        self.probes.empty.lap(mark);
    }

    fn run(&mut self, addr: VirtAddr, stride: u32, count: u64, kind: AccessKind) {
        let stride64 = u64::from(stride.max(1));
        let mut i = 0u64;
        while i < count {
            let a = addr + i * stride64;
            let cap = ((RUN_CHUNK_ELEMS * stride64) >> PAGE_SHIFT) as usize + 2;
            let window_pages = self.mem.plain_window(a.page(), cap);
            let due = if self.sampler.is_enabled() { self.sampler.until_due() } else { u64::MAX };
            if window_pages == 0 || due == 1 {
                self.op(a, kind);
                i += 1;
                continue;
            }
            let window_end = (a.page().index() + window_pages as u64) << PAGE_SHIFT;
            let max_in_window = (window_end - 1 - a.raw()) / stride64 + 1;
            let chunk = (count - i).min(RUN_CHUNK_ELEMS).min(max_in_window).min(due - 1);
            let t = Instant::now();
            let out =
                self.mem.access_run(a, stride, chunk, kind, self.clock_cycles).unwrap_or_else(
                    |rf| panic!("fault inside a resident plain window: {:?}", rf.error),
                );
            self.probes.access_run_ns += t.elapsed().as_nanos();
            self.probes.access_run_elems += out.elems;
            self.sampler.observe_gap(out.elems);
            self.advance_parallel(self.cfg.cpu_cycles_per_op * out.elems + out.cycles);
            i += out.elems;
        }
    }
}

impl MemBackend for Replay {
    fn mmap(&mut self, len: u64, label: &str) -> VirtAddr {
        let addr = self
            .mem
            .mmap(len, MemPolicy::Default, label)
            .unwrap_or_else(|e| panic!("mmap of {len} bytes failed: {e}"));
        self.advance_parallel(SYSCALL_COST_CYCLES);
        addr
    }

    fn munmap(&mut self, addr: VirtAddr) {
        self.mem.munmap(addr).unwrap_or_else(|e| panic!("munmap at {addr} failed: {e}"));
        self.advance_parallel(SYSCALL_COST_CYCLES);
    }

    fn load(&mut self, addr: VirtAddr, _bytes: u32) {
        self.op(addr, AccessKind::Load);
    }

    fn store(&mut self, addr: VirtAddr, _bytes: u32) {
        self.op(addr, AccessKind::Store);
    }

    fn load_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run(addr, stride, count, AccessKind::Load);
    }

    fn store_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run(addr, stride, count, AccessKind::Store);
    }

    fn set_thread(&mut self, tid: ThreadId) {
        self.cur_thread = tid;
    }

    fn cpu_work(&mut self, cycles: u64) {
        self.advance_parallel(cycles);
    }

    fn now_cycles(&self) -> u64 {
        self.clock_cycles
    }
}

impl SimMachine for Replay {
    fn file_read(&mut self, bytes: u64) -> Result<(), String> {
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(1 << 20);
            let (_, wait) = self
                .os
                .file_read(&mut self.mem, chunk, self.clock_cycles)
                .map_err(|e| e.to_string())?;
            self.advance_wall(wait);
            remaining -= chunk;
        }
        Ok(())
    }

    fn snapshot_now(&mut self) {
        self.snapshot();
        self.next_snapshot = self.clock_cycles + self.cfg.timeline_period_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::SimVec;

    #[test]
    fn replay_clock_advances_like_the_machine() {
        let cfg = MachineConfig::scaled_default(4 << 20, TieringMode::AutoNuma);
        let mut m = tiersim_core::Machine::new(cfg.clone()).unwrap();
        let mut r = Replay::new(cfg).unwrap();
        let mut vm = SimVec::new(&mut m, "v", 1 << 14, 0u64);
        let mut vr = SimVec::new(&mut r, "v", 1 << 14, 0u64);
        vm.fill(&mut m, 3);
        vr.fill(&mut r, 3);
        for i in (0..1 << 14).step_by(7) {
            vm.set(&mut m, i, i as u64);
            vr.set(&mut r, i, i as u64);
        }
        assert_eq!(m.now_cycles(), r.now_cycles());
        assert_eq!(*m.mem().stats(), *r.mem.stats());
        assert_eq!(m.os().counters(), r.os.counters());
    }
}
