//! A set-associative, write-allocate cache with true-LRU replacement.
//!
//! Used for both the per-SM L1 data cache and the shared L2. The cache
//! stores tags only — the simulator never materialises data — and counts
//! accesses, hits and evictions.
//!
//! Lookups are combinational — probe and fill resolve in the same tick
//! they are issued, with no state that evolves between accesses — so an
//! idle memory system fast-forwards (`MemSystem::fast_forward`) without
//! touching its caches.

use crate::config::CacheConfig;

/// Result of a cache probe-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    /// Per-set logical timestamp of the last touch.
    lru: u64,
}

/// Tag-only set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>,
    clock: u64,
    accesses: u64,
    hits: u64,
    evictions: u64,
    line_shift: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero sets/ways or a non-power-of-two
    /// line size.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets > 0 && config.ways > 0,
            "degenerate cache geometry"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    lru: 0,
                };
                config.sets * config.ways
            ],
            clock: 0,
            accesses: 0,
            hits: 0,
            evictions: 0,
            line_shift: config.line_bytes.trailing_zeros(),
            config,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        (line % self.config.sets as u64) as usize
    }

    /// Probes `addr` (byte address) and fills on miss. Touches LRU state.
    pub fn access(&mut self, addr: u64) -> Lookup {
        let line = addr >> self.line_shift;
        self.clock += 1;
        self.accesses += 1;
        let set = self.set_index(line);
        let base = set * self.config.ways;
        let ways = &mut self.ways[base..base + self.config.ways];

        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == line) {
            w.lru = self.clock;
            self.hits += 1;
            return Lookup::Hit;
        }

        // Miss: fill into an invalid way or evict the LRU victim. The
        // config validator rejects zero-way caches, so the set slice is
        // never empty; a miss is still counted if that ever regressed.
        let Some(victim) = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
        else {
            return Lookup::Miss;
        };
        if victim.valid {
            self.evictions += 1;
        }
        victim.tag = line;
        victim.valid = true;
        victim.lru = self.clock;
        Lookup::Miss
    }

    /// Probes without filling or touching LRU (used by victim-tag logic).
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = self.set_index(line);
        let base = set * self.config.ways;
        self.ways[base..base + self.config.ways]
            .iter()
            .any(|w| w.valid && w.tag == line)
    }

    /// Invalidates every line and resets the LRU clock (statistics are
    /// preserved).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
        self.clock = 0;
    }

    /// Total accesses since construction.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since construction.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Serializes the dynamic state (tags, LRU clock, statistics). The
    /// geometry is not written; decode reconstructs it from the config.
    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        w.usize(self.ways.len());
        for way in &self.ways {
            w.u64(way.tag);
            w.bool(way.valid);
            w.u64(way.lru);
        }
        w.u64(self.clock);
        w.u64(self.accesses);
        w.u64(self.hits);
        w.u64(self.evictions);
    }

    /// Rebuilds a cache of geometry `config` from [`Cache::encode`] bytes.
    pub(crate) fn decode(
        config: CacheConfig,
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let mut cache = Self::new(config);
        let at = r.offset();
        let n = r.seq_len(10)?;
        if n != cache.ways.len() {
            return Err(crate::snapshot::SnapshotError::Corrupt {
                offset: at,
                what: "cache way count differs from geometry",
            });
        }
        for way in &mut cache.ways {
            way.tag = r.u64()?;
            way.valid = r.bool()?;
            way.lru = r.u64()?;
        }
        cache.clock = r.u64()?;
        cache.accesses = r.u64()?;
        cache.hits = r.u64()?;
        cache.evictions = r.u64()?;
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 128,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(0), Lookup::Miss);
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.access(64), Lookup::Hit, "same line as 0");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // set 0 gets lines 0, 2, 4 (line = addr/128; set = line % 2)
        c.access(0); // line 0
        c.access(2 * 128); // line 2
        c.access(0); // touch line 0 -> line 2 is LRU
        c.access(4 * 128); // line 4 evicts line 2
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.access(2 * 128), Lookup::Miss, "line 2 was evicted");
        assert!(c.evictions() >= 1);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny(); // 4 lines total, 2 per set
                            // Cycle through 8 lines mapping to both sets: all misses after warmup.
        let mut misses = 0;
        for round in 0..10 {
            for line in 0..8u64 {
                if c.access(line * 128) == Lookup::Miss && round > 0 {
                    misses += 1;
                }
            }
        }
        assert_eq!(
            misses,
            8 * 9,
            "cyclic over-capacity access pattern must thrash LRU"
        );
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = tiny();
        for _ in 0..10 {
            for line in 0..4u64 {
                c.access(line * 128);
            }
        }
        // 4 cold misses, everything else hits.
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), Lookup::Miss);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn contains_does_not_fill() {
        let mut c = tiny();
        assert!(!c.contains(0));
        c.access(0);
        assert!(c.contains(0));
        assert!(!c.contains(128 * 2));
        assert_eq!(c.accesses(), 1, "contains() must not count as an access");
    }

    #[test]
    fn hit_rate_zero_without_accesses() {
        assert!(tiny().hit_rate().abs() < 1e-12);
    }
}
