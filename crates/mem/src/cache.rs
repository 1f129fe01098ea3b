//! Generic set-associative cache with true-LRU replacement.

use crate::config::CacheGeometry;

/// Result of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled. If the victim way held a
    /// dirty line, its line number is reported so the caller can write it
    /// back to the next level.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// Returns `true` on a hit.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of dirty victims evicted.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; `0` if there were no lookups.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache over 64-byte lines.
///
/// Tags are full line numbers, so the cache can be indexed with simulated
/// virtual line numbers directly (the simulator has a single address space,
/// so there is no aliasing). Replacement is true LRU per set.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{CacheGeometry, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheGeometry { capacity: 4096, ways: 2, latency: 4 });
/// assert!(!c.access(7, false).is_hit()); // cold miss
/// assert!(c.access(7, false).is_hit());  // now cached
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    ways: usize,
    set_mask: u64,
    /// Tag per (set, way); `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    /// Per-set LRU order: `ways` way indices per set, MRU first. The
    /// victim is always the last entry, so a miss is an O(1) pick plus a
    /// small byte rotate instead of a per-way aging sweep. Initialized
    /// with way 0 last, so invalid ways are consumed in index order
    /// exactly like a first-free-way scan.
    order: Vec<u8>,
    dirty: Vec<bool>,
    stats: CacheStats,
}

const INVALID: u64 = u64::MAX;

impl SetAssocCache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (use
    /// [`CacheGeometry`] values validated by
    /// [`MemConfig::validate`](crate::MemConfig::validate)) or if
    /// associativity exceeds 255.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        let ways = geometry.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!((1..=255).contains(&ways), "associativity must be in 1..=255");
        let mut order = Vec::with_capacity(sets * ways);
        for _ in 0..sets {
            order.extend((0..ways as u8).rev());
        }
        SetAssocCache {
            geometry,
            ways,
            set_mask: sets as u64 - 1,
            tags: vec![INVALID; sets * ways],
            order,
            dirty: vec![false; sets * ways],
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Hit latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.geometry.latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up `line`; on a miss the line is filled, evicting the LRU way.
    ///
    /// `write` marks the line dirty (write-allocate, write-back).
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> CacheOutcome {
        debug_assert_ne!(line, INVALID);
        let set = self.set_of(line);
        let base = set * self.ways;
        let ways = &mut self.tags[base..base + self.ways];

        // Hit path.
        if let Some(w) = ways.iter().position(|&t| t == line) {
            self.touch(base, w as u8);
            if write {
                self.dirty[base + w] = true;
            }
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }

        // Miss: the victim is the LRU-order tail — an invalid way while
        // any remain (they start at the tail and are never touched), the
        // least recently used line afterwards.
        self.stats.misses += 1;
        let victim = self.pop_lru(base);
        let idx = base + usize::from(victim);
        let writeback = if self.tags[idx] != INVALID && self.dirty[idx] {
            self.stats.writebacks += 1;
            Some(self.tags[idx])
        } else {
            None
        };
        self.tags[idx] = line;
        self.dirty[idx] = write;
        CacheOutcome::Miss { writeback }
    }

    /// Credits `n` additional hits without touching replacement state.
    ///
    /// Used by the sequential fast lane for repeat accesses to the line
    /// just accessed: a repeat [`SetAssocCache::access`] of a set's MRU
    /// line leaves tags, ages and dirty bits unchanged (re-touching the
    /// MRU way is a no-op, and a store re-marks an already-dirty line),
    /// so the bulk credit is exactly equivalent to `n` repeat accesses.
    #[inline]
    pub fn record_hit_run(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Returns `true` if `line` is present, without disturbing LRU state.
    pub fn probe(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    /// Marks `line` dirty if present (used to propagate dirtiness from an
    /// evicted upper-level line). Returns `true` if the line was present.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.ways;
        if let Some(w) = self.tags[base..base + self.ways].iter().position(|&t| t == line) {
            self.dirty[base + w] = true;
            true
        } else {
            false
        }
    }

    /// Moves way `w` of the set at `base` to MRU position after a hit.
    #[inline]
    fn touch(&mut self, base: usize, w: u8) {
        let order = &mut self.order[base..base + self.ways];
        // Already MRU: nothing to move. Borrowed from bavy's minimal MMU
        // (SNIPPETS.md §2), whose hit path does zero bookkeeping;
        // streaming workloads re-touch the MRU way constantly.
        if order[0] == w {
            return;
        }
        let pos = order.iter().position(|&o| o == w).unwrap_or(0);
        order.copy_within(0..pos, 1);
        order[0] = w;
    }

    /// Pops the LRU-order tail of the set at `base` and re-inserts it at
    /// the MRU head, returning it — the victim way of a fill. One small
    /// byte rotate; no per-way aging sweep.
    #[inline]
    fn pop_lru(&mut self, base: usize) -> u8 {
        let order = &mut self.order[base..base + self.ways];
        let victim = order[self.ways - 1];
        order.copy_within(0..self.ways - 1, 1);
        order[0] = victim;
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, sets: usize) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry { capacity: (ways * sets) as u64 * 64, ways, latency: 1 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(2, 2);
        assert!(!c.access(10, false).is_hit());
        assert!(c.access(10, false).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 1);
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 1 is now LRU
        c.access(2, false); // evicts 1
        assert!(c.probe(0));
        assert!(!c.probe(1));
        assert!(c.probe(2));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1, 1);
        c.access(5, true);
        match c.access(6, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(5)),
            CacheOutcome::Hit => panic!("expected miss"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny(1, 1);
        c.access(5, false);
        match c.access(6, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, None),
            CacheOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn lines_map_to_distinct_sets() {
        let mut c = tiny(1, 4);
        for line in 0..4 {
            c.access(line, false);
        }
        for line in 0..4 {
            assert!(c.probe(line));
        }
    }

    #[test]
    fn mark_dirty_propagates() {
        let mut c = tiny(1, 1);
        c.access(9, false);
        assert!(c.mark_dirty(9));
        match c.access(10, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(9)),
            CacheOutcome::Hit => panic!("expected miss"),
        }
        assert!(!c.mark_dirty(42));
    }

    #[test]
    fn bulk_hit_credit_matches_repeat_accesses() {
        let mut looped = tiny(2, 1);
        looped.access(0, false);
        looped.access(1, true);
        let mut bulk = looped.clone();
        for _ in 0..4 {
            assert!(looped.access(1, true).is_hit());
        }
        assert!(bulk.access(1, true).is_hit());
        bulk.record_hit_run(3);
        assert_eq!(looped.stats(), bulk.stats());
        // Replacement state is untouched either way: line 0 is still the
        // LRU victim, and the dirty victim is still line 1's neighbor.
        looped.access(2, false);
        bulk.access(2, false);
        assert_eq!(looped.stats(), bulk.stats());
        assert!(looped.probe(1) && bulk.probe(1));
        assert!(!looped.probe(0) && !bulk.probe(0));
    }

    #[test]
    fn hit_ratio() {
        let mut c = tiny(2, 2);
        c.access(1, false);
        c.access(1, false);
        c.access(1, false);
        c.access(1, false);
        assert!((c.stats().hit_ratio() - 0.75).abs() < 1e-12);
    }
}
