//! # tiersim-os — Linux memory-management model with AutoNUMA tiering
//!
//! A faithful behavioral model of the kernel machinery the paper
//! characterizes (Linux 5.15 + the AutoNUMA *tiering-0.8* patch series):
//!
//! - **First-touch placement**: allocations go to DRAM while it has free
//!   space, then spill to NVM (paper Finding 3).
//! - **NUMA-balancing scanner**: periodically marks resident pages so the
//!   next access raises a *hint page fault* ([`Scanner`]).
//! - **Promotion**: a hint fault on an NVM page whose *hint-fault latency*
//!   is below a dynamically adjusted threshold ([`ThresholdController`])
//!   promotes the page to DRAM, subject to a rate limit ([`TokenBucket`]).
//! - **Demotion**: kswapd demotes cold DRAM pages to NVM at the watermark
//!   ([`kswapd_reclaim`]); allocations under `mbind(DRAM)` pressure run
//!   synchronous direct reclaim ([`direct_reclaim_one`]).
//! - **Page cache**: file reads fill free DRAM with clean file pages that
//!   reclaim later demotes or drops (paper Finding 5).
//! - **Counters**: `vmstat`-style [`VmCounters`] (`pgpromote_success`,
//!   `pgpromote_demoted`, `pgdemote_kswapd`, `pgdemote_direct`, …) and
//!   `numastat`-style [`NumaStat`] snapshots, exactly the observables the
//!   paper reads in §6.5–6.7.
//!
//! - **Invariant auditing**: tiersim-audit ([`AuditReport`]) cross-checks
//!   frame ownership, tier capacity, TLB coherence, VMA coverage and
//!   counter conservation laws at configurable [`AutoNuma::tick`]
//!   checkpoints in debug builds (DESIGN.md §9).
//!
//! The central type is [`AutoNuma`]; see its documentation for the three
//! integration hooks (`handle_fault`, `on_access`, `tick`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod config;
mod counters;
mod engine;
mod error;
mod rate_limit;
mod reclaim;
mod replay;
mod scanner;
mod threshold;

pub use audit::{AuditReport, AuditSubject, AuditViolation};
pub use config::OsConfig;
pub use counters::{NumaStat, VmCounters};
pub use engine::{AutoNuma, FaultResolution};
pub use error::OsError;
pub use rate_limit::TokenBucket;
pub use reclaim::{
    coldest_dram_pages, direct_reclaim_one, drop_page_cache, kswapd_reclaim, ReclaimOutcome,
};
pub use replay::{replay_counters, replay_matches};
pub use scanner::{ScanReport, Scanner};
pub use threshold::ThresholdController;
