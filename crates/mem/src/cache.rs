//! A set-associative cache with true-LRU replacement.
//!
//! Tags live in one flat `sets × ways` array: set `s` owns the `ways`
//! entries starting at `s * ways`, ordered most-recently-used first, with
//! `INVALID` filling the empty ways at the end. A hit rotates the tag to
//! the front of its set; a miss rotates the whole set one way down, which
//! drops the least-recently-used (or an empty) way, and writes the new tag
//! at the front. The array is allocated once at construction, so accesses
//! never allocate and every set is one contiguous run of memory.

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64, latency: u32) -> Self {
        let config = CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            latency,
        };
        #[expect(
            clippy::panic,
            reason = "invalid geometry is a caller bug; validate() names the problem"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache geometry: {e}"));
        config
    }

    /// Validates the geometry.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency: a zero size, way
    /// count or line size, a line size that is not a power of two, or a
    /// capacity that is not a whole number of sets.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err("cache geometry must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        match (self.ways as u64).checked_mul(self.line_bytes) {
            Some(set_bytes) if self.size_bytes.is_multiple_of(set_bytes) => Ok(()),
            _ => Err("capacity must be a whole number of sets".into()),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }

    /// The paper's L1 configuration: 32 KB, 4-way, 32-byte lines, 2 cycles.
    pub fn table1_l1() -> Self {
        CacheConfig::new(32 * 1024, 4, 32, 2)
    }

    /// The paper's L2 configuration: 512 KB, 4-way, 64-byte lines, 10 cycles.
    pub fn table1_l2() -> Self {
        CacheConfig::new(512 * 1024, 4, 64, 10)
    }
}

/// Whether an access hit or missed in a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (allocate-on-miss).
    Miss,
}

impl AccessOutcome {
    /// Returns `true` on [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        self == AccessOutcome::Hit
    }
}

/// Tag of an empty way. An access tag is the address shifted right by the
/// line and set bits, so it reaches `u64::MAX` only for a one-byte-line,
/// single-set cache at address `u64::MAX`.
const INVALID: u64 = u64::MAX;

/// A set-associative, true-LRU, allocate-on-miss cache.
///
/// The cache tracks only tags (no data): the simulator needs hit/miss
/// timing, not values.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    num_sets: usize,
    /// `num_sets × ways` tags, each set MRU first, empty ways `INVALID`.
    tags: Vec<u64>,
    /// `log2(line_bytes)` when the line size is a power of two — the common
    /// geometry — so the per-access address split is a shift/mask instead
    /// of two 64-bit divisions.
    line_shift: Option<u32>,
    /// `num_sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let line_shift = config
            .line_bytes
            .is_power_of_two()
            .then(|| config.line_bytes.trailing_zeros());
        let set_mask = num_sets.is_power_of_two().then(|| num_sets as u64 - 1);
        Cache {
            config,
            num_sets,
            tags: vec![INVALID; num_sets * config.ways],
            line_shift,
            set_mask,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn split(&self, addr: u64) -> (usize, u64) {
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_bytes,
        };
        match self.set_mask {
            Some(mask) => ((line & mask) as usize, line >> mask.count_ones()),
            None => (
                (line % self.num_sets as u64) as usize,
                line / self.num_sets as u64,
            ),
        }
    }

    /// Accesses byte address `addr`, updating LRU state and fill state.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let (set_idx, tag) = self.split(addr);
        debug_assert_ne!(tag, INVALID, "address {addr:#x} maps to the empty-way tag");
        let ways = self.config.ways;
        let set = &mut self.tags[set_idx * ways..(set_idx + 1) * ways];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            set[..=pos].rotate_right(1);
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            // Shift every way down one, dropping the LRU (or an empty) way.
            set.rotate_right(1);
            set[0] = tag;
            self.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Probes for presence of the line containing `addr` without updating state.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.split(addr);
        let ways = self.config.ways;
        self.tags[set_idx * ways..(set_idx + 1) * ways].contains(&tag)
    }

    /// Number of hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses so far (0 when no accesses were made).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 2 sets, 2 ways, 64-byte lines.
        Cache::new(CacheConfig::new(256, 2, 64, 1))
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let c = CacheConfig::table1_l1();
        assert_eq!(c.num_sets(), 256);
        let l2 = CacheConfig::table1_l2();
        assert_eq!(l2.num_sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn inconsistent_geometry_panics() {
        let _ = CacheConfig::new(100, 3, 32, 1);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small_cache();
        assert_eq!(c.access(0x1000), AccessOutcome::Miss);
        assert_eq!(c.access(0x1000), AccessOutcome::Hit);
        assert_eq!(c.access(0x1008), AccessOutcome::Hit, "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    #[expect(
        clippy::erasing_op,
        reason = "`0 * 64` names line 0 in the same form as lines 2 and 4"
    )]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Set 0 holds lines with even line index. Lines 0, 2, 4 map to set 0.
        c.access(0 * 64); // miss, set 0 = [0]
        c.access(2 * 64); // miss, set 0 = [2, 0]
        c.access(0 * 64); // hit,  set 0 = [0, 2]
        c.access(4 * 64); // miss, evicts 2; set 0 = [4, 0]
        assert!(c.contains(0 * 64));
        assert!(!c.contains(2 * 64));
        assert!(c.contains(4 * 64));
    }

    #[test]
    fn contains_does_not_change_state() {
        let mut c = small_cache();
        c.access(0x40);
        let before = (c.hits(), c.misses());
        assert!(c.contains(0x40));
        assert!(!c.contains(0x4000));
        assert_eq!((c.hits(), c.misses()), before);
    }

    #[test]
    fn miss_ratio_reflects_stream() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        // Touch 1024 distinct lines twice: first pass all miss, second pass all
        // hit (working set exactly equals capacity).
        for i in 0..1024u64 {
            c.access(i * 32);
        }
        for i in 0..1024u64 {
            c.access(i * 32);
        }
        assert!((c.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn streaming_beyond_capacity_always_misses() {
        let mut c = small_cache();
        for i in 0..64u64 {
            assert_eq!(c.access(i * 64 * 2), AccessOutcome::Miss);
        }
    }

    /// The cache as it was before its tags were flattened: one
    /// most-recently-used-first `Vec` per set.
    struct ReferenceLru {
        line_bytes: u64,
        ways: usize,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl ReferenceLru {
        fn new(config: CacheConfig) -> Self {
            ReferenceLru {
                line_bytes: config.line_bytes,
                ways: config.ways,
                sets: vec![Vec::new(); config.num_sets()],
                hits: 0,
                misses: 0,
            }
        }

        fn split(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.line_bytes;
            let n = self.sets.len() as u64;
            ((line % n) as usize, line / n)
        }

        fn access(&mut self, addr: u64) -> AccessOutcome {
            let (set_idx, tag) = self.split(addr);
            let lru = &mut self.sets[set_idx];
            if let Some(pos) = lru.iter().position(|&t| t == tag) {
                let t = lru.remove(pos);
                lru.insert(0, t);
                self.hits += 1;
                AccessOutcome::Hit
            } else {
                lru.insert(0, tag);
                if lru.len() > self.ways {
                    lru.pop();
                }
                self.misses += 1;
                AccessOutcome::Miss
            }
        }

        fn contains(&self, addr: u64) -> bool {
            let (set_idx, tag) = self.split(addr);
            self.sets[set_idx].contains(&tag)
        }
    }

    proptest::proptest! {
        /// Random address streams over several geometries — power-of-two
        /// and odd set counts, 1 to 8 ways — give the same outcomes,
        /// presence answers and counters as the per-set `Vec` model.
        #[test]
        fn flat_tags_match_the_per_set_reference(
            geometry in 0usize..6,
            addrs in proptest::collection::vec(0u64..1 << 16, 1..400),
            probes in proptest::collection::vec(0u64..1 << 16, 1..40),
        ) {
            // (sets, ways, line bytes)
            let (sets, ways, line) = [
                (4u64, 2usize, 64u64),
                (3, 2, 64),
                (16, 1, 32),
                (5, 1, 32),
                (1, 8, 64),
                (7, 4, 128),
            ][geometry];
            let config = CacheConfig::new(sets * ways as u64 * line, ways, line, 1);
            let mut cache = Cache::new(config);
            let mut reference = ReferenceLru::new(config);
            for (i, &a) in addrs.iter().enumerate() {
                proptest::prop_assert_eq!(cache.access(a), reference.access(a), "access {}", i);
                let p = probes[i % probes.len()];
                proptest::prop_assert_eq!(cache.contains(p), reference.contains(p));
            }
            proptest::prop_assert_eq!(cache.hits(), reference.hits);
            proptest::prop_assert_eq!(cache.misses(), reference.misses);
            for &a in addrs.iter().chain(&probes) {
                proptest::prop_assert_eq!(cache.contains(a), reference.contains(a));
            }
        }
    }
}
