//! Direct-mapped instruction-cache simulator.
//!
//! Fetches are fed the byte address and encoded size of each executed
//! instruction; an instruction spanning a line boundary touches both lines.
//! The paper measured "the impact of stalls in the instruction fetch unit
//! because there is a risk that the inlining enabled by flattening would
//! increase the size of the router code, leading to poor I-cache
//! performance" (§6) — and found the opposite: flattening *improved*
//! I-cache behaviour. This model lets that same experiment run here: miss
//! behaviour is a pure function of code layout and execution order.

/// Geometry and penalty of the instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ICacheParams {
    /// Total size in bytes (see `Default` for the scaling rationale).
    pub size: u64,
    /// Line size in bytes. Default 32, as on the Pentium Pro.
    pub line: u64,
    /// Stall cycles charged per miss.
    pub miss_stall: u64,
}

impl Default for ICacheParams {
    fn default() -> Self {
        // Scaled-down Pentium Pro: the real chip had 8 KiB of L1 I-cache
        // against hot paths of tens of KiB; our simulated routers are much
        // smaller, so a 4 KiB cache reproduces a comparable pressure ratio.
        ICacheParams { size: 4 * 1024, line: 32, miss_stall: 14 }
    }
}

/// A direct-mapped instruction cache.
#[derive(Debug, Clone)]
pub struct ICache {
    params: ICacheParams,
    /// Tag per line; `u64::MAX` marks an empty line.
    tags: Vec<u64>,
    misses: u64,
    accesses: u64,
}

impl ICache {
    /// Create an empty cache.
    pub fn new(params: ICacheParams) -> Self {
        assert!(params.line.is_power_of_two(), "line size must be a power of two");
        assert!(params.size.is_multiple_of(params.line), "size must be a multiple of line size");
        let nlines = (params.size / params.line) as usize;
        ICache { params, tags: vec![u64::MAX; nlines], misses: 0, accesses: 0 }
    }

    /// Simulate fetching `size` bytes starting at `addr`.
    /// Returns the stall cycles incurred.
    pub fn fetch(&mut self, addr: u64, size: u64) -> u64 {
        if self.params.miss_stall == 0 {
            return 0;
        }
        let first_line = addr / self.params.line;
        let last_line = (addr + size.max(1) - 1) / self.params.line;
        let nlines = self.tags.len() as u64;
        let mut stall = 0;
        for line in first_line..=last_line {
            let set = (line % nlines) as usize;
            let tag = line / nlines;
            self.accesses += 1;
            if self.tags[set] != tag {
                self.tags[set] = tag;
                self.misses += 1;
                stall += self.params.miss_stall;
            }
        }
        stall
    }

    /// Touch one predecoded line: bump the access counter and return 1 if
    /// the line missed (tag mismatch, now filled), else 0. The fast
    /// interpreter replays [`ICache::fetch`] with these against `(set,
    /// tag)` pairs computed once at `Machine` construction — the address
    /// arithmetic done ahead of time — but only where the answer is not
    /// known: a straight-line *line run* of instructions falling through
    /// on one line is checked once, at its first instruction, and its
    /// other fetches are guaranteed hits counted by
    /// [`ICache::count_hit`].
    /// Callers must skip the call entirely when `miss_stall` is zero,
    /// mirroring [`ICache::fetch`]'s early return (which counts nothing).
    #[inline]
    pub(crate) fn access_line(&mut self, (set, tag): (u32, u32)) -> u64 {
        self.accesses += 1;
        let slot = &mut self.tags[set as usize];
        if *slot != u64::from(tag) {
            *slot = u64::from(tag);
            self.misses += 1;
            1
        } else {
            0
        }
    }

    /// Count one access known to hit a resident line.
    #[inline]
    pub(crate) fn count_hit(&mut self) {
        self.accesses += 1;
    }

    /// A tagless placeholder left behind while the fast interpreter loop
    /// temporarily owns the real cache as a local (hot-loop counter
    /// locality); never accessed.
    pub(crate) fn placeholder(params: ICacheParams) -> Self {
        ICache { params, tags: Vec::new(), misses: 0, accesses: 0 }
    }

    /// Number of line accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidate all lines and zero the statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.misses = 0;
        self.accesses = 0;
    }

    /// Zero the statistics but keep cache contents (for warm measurements,
    /// matching the paper's steady-state packet timing).
    pub fn reset_stats(&mut self) {
        self.misses = 0;
        self.accesses = 0;
    }

    /// The cache geometry in use.
    pub fn params(&self) -> ICacheParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ICache {
        ICache::new(ICacheParams { size: 128, line: 32, miss_stall: 10 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.fetch(0, 4), 10);
        assert_eq!(c.fetch(4, 4), 0);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 2);
    }

    #[test]
    fn straddling_instruction_touches_two_lines() {
        let mut c = small();
        assert_eq!(c.fetch(30, 4), 20);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn conflict_eviction() {
        let mut c = small(); // 4 lines of 32B
        assert_eq!(c.fetch(0, 1), 10);
        // 128 bytes later maps to the same set with a different tag.
        assert_eq!(c.fetch(128, 1), 10);
        // Original line was evicted.
        assert_eq!(c.fetch(0, 1), 10);
    }

    #[test]
    fn compact_loop_fits_and_stops_missing() {
        let mut c = small();
        // Simulate executing a 64-byte loop body twice.
        for _ in 0..2 {
            for a in (0..64).step_by(4) {
                c.fetch(a, 4);
            }
        }
        // Only the two distinct lines miss, once each.
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn access_line_matches_fetch_for_straddle_pairs() {
        // The predecoded fast path replays a straddling fetch as two
        // `access_line` calls on consecutive (set, tag) pairs; both paths
        // must agree miss-for-miss. `small()` is 4 lines of 32 bytes, so
        // addr 30 size 4 touches lines 0 and 1 → sets 0 and 1, tag 0.
        let mut via_fetch = small();
        let mut via_lines = small();
        assert_eq!(via_fetch.fetch(30, 4), 20);
        assert_eq!(via_lines.access_line((0, 0)), 1, "first line cold-misses");
        assert_eq!(via_lines.access_line((1, 0)), 1, "second line cold-misses");
        assert_eq!(via_fetch.misses(), via_lines.misses());
        assert_eq!(via_fetch.accesses(), via_lines.accesses());
        // replaying the same straddle hits in both models
        assert_eq!(via_fetch.fetch(30, 4), 0);
        assert_eq!(via_lines.access_line((0, 0)), 0);
        assert_eq!(via_lines.access_line((1, 0)), 0);
        assert_eq!(via_fetch.misses(), via_lines.misses());
    }

    #[test]
    fn access_line_straddle_wraps_to_set_zero_with_next_tag() {
        // A straddle across the cache's last line wraps: addr 127 size 2
        // touches line 3 (set 3, tag 0) and line 4 (set 0, tag 1).
        let mut via_fetch = small();
        let mut via_lines = small();
        assert_eq!(via_fetch.fetch(127, 2), 20);
        assert_eq!(via_lines.access_line((3, 0)), 1);
        assert_eq!(via_lines.access_line((0, 1)), 1);
        // the wrapped fill evicted set 0's tag-0 occupant: refetching
        // address 0 must conflict-miss in both models
        assert_eq!(via_fetch.fetch(0, 1), 10);
        assert_eq!(via_lines.access_line((0, 0)), 1);
        assert_eq!(via_fetch.misses(), via_lines.misses());
        assert_eq!(via_fetch.accesses(), via_lines.accesses());
    }

    #[test]
    fn disabled_cache_counts_nothing() {
        let mut c = ICache::new(ICacheParams { size: 128, line: 32, miss_stall: 0 });
        assert_eq!(c.fetch(0, 4), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut c = small();
        c.fetch(0, 4);
        c.reset();
        assert_eq!(c.misses(), 0);
        assert_eq!(c.fetch(0, 4), 10);
    }
}
