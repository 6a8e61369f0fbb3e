/// A set-associative cache model with true LRU replacement, operating on
/// 32-byte sector addresses.
///
/// Used for both the per-SM L1 slices and the shared L2 of the timing
/// simulator. Tags are probed per access; this is a *functional* hit/miss
/// model (no MSHR merging), which is the fidelity level the PKA methodology
/// needs — miss rates and the resulting latency/bandwidth pressure.
///
/// Each set keeps its tags in recency order, most recent first: a hit moves
/// its line to the front, and a fill inserts at the front and, in a full
/// set, evicts the line at the back. That order alone decides true LRU, so
/// the cache stores one tag per line and nothing else.
///
/// A line's set is `line % sets` and its tag is `line / sets`, packed in a
/// `u32` (`u32::MAX` marks an invalid way), so a V100's L1 slices and L2
/// hold 2 MiB of tags in all. The cache accepts the addresses below
/// [`address_limit`](Self::address_limit): `sets` times 128 GiB with
/// 32-byte lines.
///
/// # Examples
///
/// ```
/// use pka_sim::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(1024, 4, 32);
/// assert!(!cache.access(0x1000)); // cold miss
/// assert!(cache.access(0x1000)); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]` holds `line / sets`, each set most recently
    /// used first; [`INVALID`] marks an empty way. The valid ways of a set
    /// are a prefix of it.
    tags: Vec<u32>,
    /// Sets filled since the last reset, recorded on their first fill (at
    /// most `sets / 4 + 1` entries; past that, `reset` clears everything).
    touched: Vec<u32>,
    accesses: u64,
    misses: u64,
}

/// The tag of an invalid way; no line's tag reaches it.
const INVALID: u32 = u32::MAX;

impl SetAssocCache {
    /// Creates a cache with `sets × ways` lines of `line_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, `sets` does not fit in a `u32`, or
    /// `line_bytes` is not a power of two.
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        assert!(
            u32::try_from(sets).is_ok(),
            "cache must have at most 2^32 - 1 sets"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![INVALID; sets * ways],
            touched: Vec::new(),
            accesses: 0,
            misses: 0,
        }
    }

    /// Builds a cache of `capacity_bytes` with the given associativity and
    /// line size (sets derived; capacity is rounded down to a whole number
    /// of sets, minimum one).
    pub fn with_capacity(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        let lines = (capacity_bytes / line_bytes).max(ways as u64);
        let sets = (lines as usize / ways).max(1);
        Self::new(sets, ways, line_bytes)
    }

    /// Probes (and fills on miss) the line containing `addr`. Returns `true`
    /// on hit.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not below [`address_limit`](Self::address_limit).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let sets = self.sets as u64;
        let (tag, set) = (line / sets, (line % sets) as usize);
        assert!(
            tag < u64::from(INVALID),
            "address {addr:#x} is past the cache's address limit"
        );
        let tag = tag as u32;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];

        // One pass finds the line, or else the way to refill: the first
        // invalid one, or the least recent (last) one of a full set. Either
        // way the line then moves to the front.
        let found = slots.iter().position(|&t| t == tag || t == INVALID);
        let hit = found.is_some_and(|way| slots[way] == tag);
        if !hit {
            self.misses += 1;
            // An invalid way 0 means the set is empty: this is its first
            // fill since the last reset.
            if slots[0] == INVALID && self.touched.len() <= self.sets / 4 {
                self.touched.push(set as u32);
            }
        }
        let way = found.unwrap_or(self.ways - 1);
        slots.copy_within(..way, 1);
        slots[0] = tag;
        hit
    }

    /// The first address [`access`](Self::access) does not accept: every
    /// line below it has a tag under `u32::MAX`. Saturates at `u64::MAX`.
    pub fn address_limit(&self) -> u64 {
        u64::from(INVALID)
            .saturating_mul(self.sets as u64)
            .saturating_mul(1 << self.line_shift)
    }

    /// Total probes so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in percent (0 when never accessed).
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64 * 100.0
        }
    }

    /// Invalidates all lines and resets statistics; the cache then behaves
    /// exactly like a new one.
    ///
    /// Costs time in proportion to the sets filled since the last reset; a
    /// cache that touched more than a quarter of its sets is cleared whole.
    pub fn reset(&mut self) {
        if self.touched.len() > self.sets / 4 {
            self.tags.fill(INVALID);
        } else {
            for &set in &self.touched {
                let base = set as usize * self.ways;
                self.tags[base..base + self.ways].fill(INVALID);
            }
        }
        self.touched.clear();
        self.accesses = 0;
        self.misses = 0;
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * (1u64 << self.line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "sets and ways")]
    fn zero_sets_panics() {
        let _ = SetAssocCache::new(0, 4, 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_line_size_panics() {
        let _ = SetAssocCache::new(16, 4, 48);
    }

    #[test]
    fn address_limit_bounds_the_tags() {
        let mut one_set = SetAssocCache::new(1, 2, 32);
        assert_eq!(one_set.address_limit(), u64::from(u32::MAX) * 32);
        let last = one_set.address_limit() - 1;
        assert!(!one_set.access(last));
        assert!(
            one_set.access(last),
            "the last line is cached like any other"
        );
        assert!(!one_set.access(0));
        assert!(one_set.access(last), "two ways hold both lines");
        let wide = SetAssocCache::new(1, 1, 1 << 40);
        assert_eq!(wide.address_limit(), u64::MAX, "saturates");
    }

    #[test]
    #[should_panic(expected = "address limit")]
    fn address_past_the_limit_panics() {
        let mut c = SetAssocCache::new(3, 2, 32);
        let _ = c.access(c.address_limit());
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(16, 2, 32);
        assert!(!c.access(64));
        assert!(c.access(64));
        assert!(c.access(95)); // same 32B line as 64? 95/32 = 2, 64/32 = 2 -> same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: addresses 0, 512, 1024 conflict (sets=1).
        let mut c = SetAssocCache::new(1, 2, 32);
        c.access(0); // miss, fill
        c.access(512); // miss, fill
        c.access(0); // hit, refresh
        c.access(1024); // miss, evicts 512
        assert!(c.access(0), "0 was most recent, must survive");
        assert!(!c.access(512), "512 was LRU, must be gone");
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = SetAssocCache::with_capacity(32 * 1024, 4, 32);
        let lines = 512; // 16 KiB of 32B lines, half the capacity
        for pass in 0..3 {
            for i in 0..lines {
                let hit = c.access(i * 32);
                if pass > 0 {
                    assert!(hit, "line {i} should be resident on pass {pass}");
                }
            }
        }
    }

    #[test]
    fn streaming_thrashes() {
        let mut c = SetAssocCache::with_capacity(4 * 1024, 4, 32);
        // Touch 100x the capacity once; everything misses.
        for i in 0..12_800u64 {
            c.access(i * 32);
        }
        assert_eq!(c.miss_rate_pct(), 100.0);
    }

    #[test]
    fn capacity_round_trip() {
        let c = SetAssocCache::with_capacity(6 * 1024 * 1024, 16, 32);
        assert_eq!(c.capacity_bytes(), 6 * 1024 * 1024);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = SetAssocCache::new(4, 2, 32);
        c.access(0);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert!(!c.access(0), "reset must invalidate");
    }

    /// The stamp-based true-LRU cache the recency-ordered sets replaced,
    /// kept as the reference oracle: every line carries the clock value of
    /// its last access, and a full set evicts its smallest stamp.
    struct StampLru {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        accesses: u64,
        misses: u64,
    }

    impl StampLru {
        fn new(sets: usize, ways: usize) -> Self {
            Self {
                sets,
                ways,
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                clock: 0,
                accesses: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.accesses += 1;
            let line = addr >> 5;
            let base = (line as usize % self.sets) * self.ways;
            let slots = &self.tags[base..base + self.ways];
            if let Some(way) = slots.iter().position(|&t| t == line) {
                self.stamps[base + way] = self.clock;
                return true;
            }
            self.misses += 1;
            let victim = slots
                .iter()
                .position(|&t| t == u64::MAX)
                .unwrap_or_else(|| {
                    let stamps = &self.stamps[base..base + self.ways];
                    (0..self.ways).min_by_key(|&w| stamps[w]).expect("ways > 0")
                });
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        fn reset(&mut self) {
            *self = Self::new(self.sets, self.ways);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Recency-ordered sets give the hit/miss sequence and counters of
        /// the stamp-based oracle, across geometries and resets.
        #[test]
        fn recency_order_matches_the_stamp_oracle(
            geometry in (0usize..3, 0usize..4, 0usize..3),
            ops in prop::collection::vec((0u32..100, any::<u64>()), 0..600),
        ) {
            let (s, w, span) = geometry;
            let (sets, ways) = ([1, 3, 64][s], [1, 2, 4, 16][w]);
            let span = [1u64 << 8, 1 << 12, 1 << 16][span];
            let mut cache = SetAssocCache::new(sets, ways, 32);
            let mut oracle = StampLru::new(sets, ways);
            let (mut hits, mut oracle_hits) = (Vec::new(), Vec::new());
            for &(op, raw) in &ops {
                if op < 3 {
                    cache.reset();
                    oracle.reset();
                } else {
                    let addr = raw % span;
                    hits.push(cache.access(addr));
                    oracle_hits.push(oracle.access(addr));
                }
                prop_assert_eq!(cache.accesses(), oracle.accesses);
                prop_assert_eq!(cache.misses(), oracle.misses);
            }
            prop_assert_eq!(hits, oracle_hits);
        }
    }

    const SETS: usize = 64;
    const WAYS: usize = 4;

    /// Runs `before` on a cache, resets it, then checks that `after` sees
    /// exactly what it sees on a new cache. Returns how many sets `before`
    /// recorded as touched, so callers can pin which reset path ran.
    fn reset_matches_new(before: &[u64], after: &[u64]) -> Result<usize, TestCaseError> {
        let mut reused = SetAssocCache::new(SETS, WAYS, 32);
        for &a in before {
            reused.access(a);
        }
        let touched = reused.touched.len();
        reused.reset();
        let mut fresh = SetAssocCache::new(SETS, WAYS, 32);
        prop_assert!(reused.tags == fresh.tags, "every line must be invalid");
        let hits_reused: Vec<bool> = after.iter().map(|&a| reused.access(a)).collect();
        let hits_fresh: Vec<bool> = after.iter().map(|&a| fresh.access(a)).collect();
        prop_assert_eq!(hits_reused, hits_fresh);
        prop_assert_eq!(reused.accesses(), fresh.accesses());
        prop_assert_eq!(reused.misses(), fresh.misses());
        Ok(touched)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Few sets touched: `reset` clears only the recorded sets.
        #[test]
        fn sparse_reset_matches_a_new_cache(
            before in prop::collection::vec(0u64..1 << 20, 0..SETS / 4 + 1),
            after in prop::collection::vec(0u64..1 << 20, 0..400),
        ) {
            let touched = reset_matches_new(&before, &after)?;
            prop_assert!(touched <= SETS / 4);
        }

        /// More than a quarter of the sets touched: `reset` clears the
        /// whole cache.
        #[test]
        fn full_reset_matches_a_new_cache(
            before in prop::collection::vec(0u64..1 << 20, 200..600),
            after in prop::collection::vec(0u64..1 << 20, 0..400),
        ) {
            let touched = reset_matches_new(&before, &after)?;
            prop_assert!(touched > SETS / 4);
        }

        /// Hits that refill no set and evictions of full sets add nothing
        /// to the record: every set appears in it at most once.
        #[test]
        fn touched_sets_are_recorded_once(
            addrs in prop::collection::vec(0u64..1 << 12, 0..400),
        ) {
            let mut c = SetAssocCache::new(SETS, WAYS, 32);
            for &a in &addrs {
                c.access(a);
            }
            let mut sets = c.touched.clone();
            sets.sort_unstable();
            sets.dedup();
            prop_assert_eq!(sets.len(), c.touched.len());
        }
    }
}
