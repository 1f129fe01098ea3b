//! NUMA-balancing page-table scanner.

use tiersim_mem::{MemorySystem, PageNum, VirtAddr, HUGE_PAGE_PAGES, PAGE_SIZE};

/// Result of one scanner wakeup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Pages of address space walked.
    pub visited: u64,
    /// Resident pages hint-marked (`PROT_NONE` in the kernel).
    pub marked: u64,
}

/// The periodic scanner that marks pages for NUMA hinting.
///
/// Mirrors the kernel's task-work scanner: each wakeup walks a fixed
/// amount of address space (`numa_balancing_scan_size`, 256 MB by default)
/// from a persistent cursor, marking resident pages so their next access
/// raises a hint fault. Kernel-internal regions (labels in `[brackets]`,
/// e.g. the page cache) are skipped — NUMA balancing only scans process
/// pages.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{MemConfig, MemPolicy, MemorySystem, Tier, PAGE_SIZE};
/// use tiersim_os::Scanner;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = MemorySystem::new(MemConfig::default())?;
/// let a = mem.mmap(2 * PAGE_SIZE, MemPolicy::Default, "data")?;
/// mem.map_page(a.page(), Tier::Nvm, 0)?;
///
/// let mut s = Scanner::new();
/// let report = s.scan(&mut mem, 100, 5);
/// assert_eq!(report.marked, 1); // only the resident page
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scanner {
    cursor: u64,
}

impl Scanner {
    /// Creates a scanner with its cursor at the start of the address space.
    pub fn new() -> Self {
        Scanner::default()
    }

    /// Current cursor address (for observability/tests).
    pub fn cursor(&self) -> VirtAddr {
        VirtAddr::new(self.cursor)
    }

    /// Walks up to `budget_pages` pages of scannable address space from
    /// the cursor (wrapping around), hint-marking resident pages with scan
    /// time `now`.
    pub fn scan(&mut self, mem: &mut MemorySystem, budget_pages: u64, now: u64) -> ScanReport {
        let ranges: Vec<(u64, u64)> = mem
            .vmas()
            .filter(|v| !v.label.starts_with('['))
            .map(|v| (v.base.raw(), v.end().raw()))
            .collect();
        let mut report = ScanReport::default();
        let total_pages: u64 = ranges.iter().map(|(b, e)| (e - b) / PAGE_SIZE).sum();
        if total_pages == 0 {
            return report;
        }
        let budget = budget_pages.min(total_pages);
        while report.visited < budget {
            let Some(&(base, end)) = ranges.iter().find(|&&(_, e)| e > self.cursor) else {
                // Past the last VMA: wrap around.
                self.cursor = 0;
                continue;
            };
            let mut pn = VirtAddr::new(self.cursor.max(base)).page();
            let end_pn = VirtAddr::new(end).page();
            while pn < end_pn && report.visited < budget {
                if mem.is_huge(pn) {
                    // One PMD maps the whole collapsed block: mark the
                    // head once (its hint fault then speaks for all 512
                    // pages) and account the full block's address space
                    // against the scan budget, as the kernel does.
                    let head = pn.huge_head();
                    if mem.mark_hint(head, now) {
                        report.marked += 1;
                    }
                    let block_end = PageNum::new(head.index() + HUGE_PAGE_PAGES).min(end_pn);
                    report.visited += block_end.index() - pn.index();
                    pn = block_end;
                    continue;
                }
                if mem.mark_hint(pn, now) {
                    report.marked += 1;
                }
                report.visited += 1;
                pn = pn.next();
            }
            self.cursor = if pn < end_pn { pn.base().raw() } else { end };
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{MemConfig, MemPolicy, PageFlags, Tier};

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig {
            dram_capacity: 64 * PAGE_SIZE,
            nvm_capacity: 64 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn marks_only_resident_pages() {
        let mut m = mem();
        let a = m.mmap(4 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        m.map_page(a.page(), Tier::Dram, 0).unwrap();
        m.map_page((a + 2 * PAGE_SIZE).page(), Tier::Nvm, 0).unwrap();
        let mut s = Scanner::new();
        let r = s.scan(&mut m, 100, 7);
        assert_eq!(r.visited, 4);
        assert_eq!(r.marked, 2);
        assert!(m.page(a.page()).unwrap().flags.contains(PageFlags::HINT));
        assert_eq!(m.page(a.page()).unwrap().scan_time, 7);
    }

    #[test]
    fn budget_limits_walk_and_cursor_resumes() {
        let mut m = mem();
        let a = m.mmap(10 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        for i in 0..10 {
            m.map_page((a + i * PAGE_SIZE).page(), Tier::Dram, 0).unwrap();
        }
        let mut s = Scanner::new();
        assert_eq!(s.scan(&mut m, 4, 0).marked, 4);
        assert_eq!(s.cursor(), a + 4 * PAGE_SIZE);
        assert_eq!(s.scan(&mut m, 4, 0).marked, 4);
        // Two pages remain; the budget then wraps to the start and marks
        // two more (scan times prove the wrap).
        assert_eq!(s.scan(&mut m, 4, 9).marked, 4);
        assert_eq!(m.page((a + 9 * PAGE_SIZE).page()).unwrap().scan_time, 9);
        assert_eq!(m.page(a.page()).unwrap().scan_time, 9);
        assert_eq!(m.page((a + 2 * PAGE_SIZE).page()).unwrap().scan_time, 0);
    }

    #[test]
    fn wraps_around_to_beginning() {
        let mut m = mem();
        let a = m.mmap(2 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        m.map_page(a.page(), Tier::Dram, 0).unwrap();
        m.map_page((a + PAGE_SIZE).page(), Tier::Dram, 0).unwrap();
        let mut s = Scanner::new();
        s.scan(&mut m, 2, 0);
        // Second scan wraps to page 0 again.
        let r = s.scan(&mut m, 2, 1);
        assert_eq!(r.marked, 2);
        assert_eq!(m.page(a.page()).unwrap().scan_time, 1);
    }

    #[test]
    fn skips_kernel_regions() {
        let mut m = mem();
        let pc = m.mmap(2 * PAGE_SIZE, MemPolicy::Default, "[page_cache]").unwrap();
        m.map_page(pc.page(), Tier::Dram, 0).unwrap();
        let mut s = Scanner::new();
        let r = s.scan(&mut m, 100, 0);
        assert_eq!(r.visited, 0);
        assert_eq!(r.marked, 0);
        assert!(!m.page(pc.page()).unwrap().flags.contains(PageFlags::HINT));
    }

    #[test]
    fn huge_block_is_marked_once_at_its_head() {
        let mut m = MemorySystem::new(MemConfig {
            dram_capacity: 1024 * PAGE_SIZE,
            nvm_capacity: 1024 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap();
        let a = m.mmap(HUGE_PAGE_PAGES * PAGE_SIZE, MemPolicy::Default, "big").unwrap();
        for i in 0..HUGE_PAGE_PAGES {
            m.map_page((a + i * PAGE_SIZE).page(), Tier::Nvm, 0).unwrap();
        }
        assert!(m.collapse_huge(a.page()).is_some());
        let mut s = Scanner::new();
        let r = s.scan(&mut m, 2 * HUGE_PAGE_PAGES, 7);
        // The whole block is one PMD: visited jumps by the block size,
        // only the head is hint-marked.
        assert_eq!(r.visited, HUGE_PAGE_PAGES);
        assert_eq!(r.marked, 1);
        assert!(m.page(a.page()).unwrap().flags.contains(PageFlags::HINT));
        assert!(!m.page((a + PAGE_SIZE).page()).unwrap().flags.contains(PageFlags::HINT));
    }

    #[test]
    fn empty_address_space_is_harmless() {
        let mut m = mem();
        let mut s = Scanner::new();
        assert_eq!(s.scan(&mut m, 100, 0), ScanReport::default());
    }
}
