//! Sectored set-associative cache timing model.
//!
//! Used for both the per-SM L1 data caches and the per-partition L2 slices
//! (Table I: 128-byte lines, 32-byte sectors, LRU). The cache models *tags
//! only* — data lives in the functional [`ValueMem`](crate::values::ValueMem)
//! — so a probe answers "would this access hit?" and a fill updates the tag
//! state. Sectoring matters for the paper: the baseline GPU coalesces atomics
//! into one transaction per cache sector, and DAB's flush coalescing merges
//! buffer entries that fall in the same sector (Section IV-F).
//!
//! # Examples
//!
//! ```
//! use gpu_sim::mem::cache::{SectoredCache, Probe};
//!
//! let mut c = SectoredCache::new(8 * 1024, 4, 128, 32);
//! assert_eq!(c.probe(0x100), Probe::LineMiss);
//! c.fill(0x100);
//! assert_eq!(c.probe(0x100), Probe::Hit);
//! // Same line, different sector: the line is resident but the sector is not.
//! assert_eq!(c.probe(0x120), Probe::SectorMiss);
//! ```

/// Result of probing the cache for one sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line resident and the requested sector valid.
    Hit,
    /// Line resident but the requested sector must be fetched.
    SectorMiss,
    /// Line not resident; a fill will (possibly) evict the LRU way.
    LineMiss,
}

/// What one probe found: its outcome and the line it touched.
///
/// `line` indexes the cache's way arrays (`set * assoc + way`); it is
/// `None` for a line miss, which touches no line. A caller that keeps the
/// results of a batch of probes can later [`replay`](SectoredCache::replay)
/// them while the cache's [`generation`](SectoredCache::generation) is
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probed {
    /// The probe's outcome.
    pub outcome: Probe,
    /// The line the probe stamped, if the line was resident.
    pub line: Option<u32>,
}

/// A sectored, set-associative, LRU cache (tags only).
///
/// The tag store is struct-of-arrays, one entry per way in set-major order
/// (`set * assoc + way`): a probe scans one contiguous run of `keys`.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    /// Per way: the line's tag plus one, or 0 for an invalid way.
    keys: Vec<u64>,
    /// Per way: bitmask of the valid sectors.
    sector_valid: Vec<u64>,
    /// Per way: the use clock of the line's last probe or fill.
    last_use: Vec<u64>,
    assoc: usize,
    num_sets: usize,
    /// `log2(line_size)`.
    line_shift: u32,
    /// `log2(sector_size)`.
    sector_shift: u32,
    /// `log2(num_sets)`.
    set_shift: u32,
    sectors_per_line: usize,
    use_clock: u64,
    /// Residency generation: bumped by every [`fill`](Self::fill) and by
    /// every [`evict_sector`](Self::evict_sector) that finds its line, the
    /// only operations that change which lines and sectors are resident.
    generation: u64,
}

impl SectoredCache {
    /// Creates a cache of `size` bytes, `assoc` ways, `line_size`-byte lines
    /// and `sector_size`-byte sectors.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, line not a
    /// multiple of sector, size not a multiple of `assoc * line_size`), or
    /// if the line size, sector size or set count is not a power of two
    /// (sets are indexed with shifts and masks).
    pub fn new(size: usize, assoc: usize, line_size: usize, sector_size: usize) -> Self {
        assert!(size > 0 && assoc > 0 && line_size > 0 && sector_size > 0);
        assert!(
            line_size.is_multiple_of(sector_size),
            "line must be whole sectors"
        );
        assert!(
            size.is_multiple_of(assoc * line_size),
            "size must be sets * assoc * line_size"
        );
        let num_sets = size / (assoc * line_size);
        assert!(
            line_size.is_power_of_two()
                && sector_size.is_power_of_two()
                && num_sets.is_power_of_two(),
            "line size, sector size and set count must be powers of two"
        );
        let sectors_per_line = line_size / sector_size;
        assert!(sectors_per_line <= 64, "a line holds at most 64 sectors");
        // A tag is at most `u64::MAX >> 1` once a line spans two bytes or
        // the cache has two sets, so `tag + 1` cannot wrap to the invalid key.
        assert!(line_size * num_sets > 1, "cache must hold two line slots");
        let ways = num_sets * assoc;
        assert!(u32::try_from(ways).is_ok(), "way index must fit in u32");
        Self {
            keys: vec![0; ways],
            sector_valid: vec![0; ways],
            last_use: vec![0; ways],
            assoc,
            num_sets,
            line_shift: line_size.trailing_zeros(),
            sector_shift: sector_size.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            sectors_per_line,
            use_clock: 0,
            generation: 0,
        }
    }

    /// Splits `addr` into its set's first way index, its line key
    /// (`tag + 1`) and its sector bit.
    #[inline]
    fn decompose(&self, addr: u64) -> (usize, u64, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & (self.num_sets as u64 - 1)) as usize;
        let key = (line_addr >> self.set_shift) + 1;
        let sector = (addr >> self.sector_shift) & (self.sectors_per_line as u64 - 1);
        (set * self.assoc, key, 1 << sector)
    }

    /// The line `addr` falls in (its address over the line size).
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The way index holding the line `key` in the set starting at `base`.
    #[inline]
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        self.keys[base..base + self.assoc]
            .iter()
            .position(|&k| k == key)
            .map(|w| base + w)
    }

    /// Probes for the sector containing `addr`, updating LRU. The cache
    /// keeps no hit or miss counts: a caller counts an access where the
    /// request it belongs to is admitted, not at every probe.
    pub fn probe(&mut self, addr: u64) -> Probe {
        self.probe_line(addr).outcome
    }

    /// [`probe`](Self::probe) that also reports the line it touched.
    pub fn probe_line(&mut self, addr: u64) -> Probed {
        self.use_clock += 1;
        let probed = self.peek_line(addr);
        if let Some(i) = probed.line {
            self.last_use[i as usize] = self.use_clock;
        }
        probed
    }

    /// Peeks whether the sector containing `addr` is resident without
    /// touching LRU state.
    pub fn peek(&self, addr: u64) -> Probe {
        self.peek_line(addr).outcome
    }

    /// [`peek`](Self::peek) that also reports the line a probe would touch:
    /// exactly what [`probe_line`](Self::probe_line) would return now.
    pub fn peek_line(&self, addr: u64) -> Probed {
        let (base, key, bit) = self.decompose(addr);
        match self.find(base, key) {
            Some(i) => Probed {
                outcome: if self.sector_valid[i] & bit != 0 {
                    Probe::Hit
                } else {
                    Probe::SectorMiss
                },
                line: Some(i as u32),
            },
            None => Probed {
                outcome: Probe::LineMiss,
                line: None,
            },
        }
    }

    /// Repeats a batch of probes recorded by [`probe_line`](Self::probe_line)
    /// without scanning tags: the same use-clock steps and `last_use`
    /// stamps, in the same order.
    ///
    /// Exact only while [`generation`](Self::generation) still equals its
    /// value when the batch was recorded: then no line gained or lost
    /// residency, so every probe would find the same outcome on the same
    /// line.
    pub fn replay(&mut self, probes: &[Probed]) {
        for p in probes {
            self.use_clock += 1;
            if let Some(i) = p.line {
                self.last_use[i as usize] = self.use_clock;
            }
        }
    }

    /// Fills the sector containing `addr`, allocating the line (evicting the
    /// LRU way) if needed. Returns `true` if a valid line was evicted.
    pub fn fill(&mut self, addr: u64) -> bool {
        self.use_clock += 1;
        self.generation += 1;
        let clock = self.use_clock;
        let (base, key, bit) = self.decompose(addr);
        if let Some(i) = self.find(base, key) {
            self.sector_valid[i] |= bit;
            self.last_use[i] = clock;
            return false;
        }
        // Prefer an invalid way, otherwise evict true-LRU (the first way
        // with the lowest stamp).
        let ways = base..base + self.assoc;
        let victim = match self.keys[ways.clone()].iter().position(|&k| k == 0) {
            Some(w) => base + w,
            None => ways
                .min_by_key(|&i| self.last_use[i])
                .expect("associativity is non-zero"),
        };
        let evicted = self.keys[victim] != 0;
        self.keys[victim] = key;
        self.sector_valid[victim] = bit;
        self.last_use[victim] = clock;
        evicted
    }

    /// Invalidates the sector containing `addr` if resident (used for the
    /// L1's write-evict policy and to mimic the virtual-write-queue
    /// experiment where out-of-order flush atomics trigger L2 evictions).
    pub fn evict_sector(&mut self, addr: u64) {
        let (base, key, bit) = self.decompose(addr);
        if let Some(i) = self.find(base, key) {
            self.generation += 1;
            self.sector_valid[i] &= !bit;
            if self.sector_valid[i] == 0 {
                self.keys[i] = 0;
            }
        }
    }

    /// The residency generation: equal readings mean no line gained or
    /// lost residency, and no sector became valid or invalid, in between.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of sets in the cache.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Sectors per line.
    pub fn sectors_per_line(&self) -> usize {
        self.sectors_per_line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SectoredCache {
        // 2 sets, 2 ways, 128B lines, 32B sectors.
        SectoredCache::new(512, 2, 128, 32)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.probe(0), Probe::LineMiss);
        c.fill(0);
        assert_eq!(c.probe(0), Probe::Hit);
        assert_eq!(c.peek(0), Probe::Hit);
    }

    #[test]
    fn sector_miss_on_resident_line() {
        let mut c = small();
        c.fill(0); // sector 0 of line 0
        assert_eq!(c.probe(32), Probe::SectorMiss);
        c.fill(32);
        assert_eq!(c.probe(32), Probe::Hit);
        assert_eq!(c.probe(0), Probe::Hit);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        // Three lines mapping to set 0: line addresses 0, 2, 4 (2 sets).
        c.fill(0);
        c.fill(256);
        c.probe(0); // make line 0 most recent
        c.fill(512); // evicts line at 256
        assert_eq!(c.peek(0), Probe::Hit);
        assert_eq!(c.peek(256), Probe::LineMiss);
        assert_eq!(c.peek(512), Probe::Hit);
    }

    #[test]
    fn fill_reports_eviction() {
        let mut c = small();
        assert!(!c.fill(0));
        assert!(!c.fill(256));
        assert!(c.fill(512));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        c.fill(0); // set 0
        c.fill(128); // set 1
        assert_eq!(c.peek(0), Probe::Hit);
        assert_eq!(c.peek(128), Probe::Hit);
    }

    #[test]
    fn evict_sector_clears() {
        let mut c = small();
        c.fill(0);
        c.fill(32);
        c.evict_sector(0);
        assert_eq!(c.peek(0), Probe::SectorMiss);
        assert_eq!(c.peek(32), Probe::Hit);
        c.evict_sector(32);
        assert_eq!(c.peek(32), Probe::LineMiss);
    }

    #[test]
    fn peek_does_not_count() {
        // A peek neither steps the use clock nor stamps a line, so it
        // cannot change a later victim choice.
        let mut c = small();
        c.fill(0);
        c.fill(256);
        let before = format!("{c:?}");
        assert_eq!(c.peek(0), Probe::Hit);
        assert_eq!(c.peek(64), Probe::SectorMiss);
        assert_eq!(format!("{c:?}"), before);
        c.fill(512);
        assert_eq!(c.peek(0), Probe::LineMiss, "line 0 stayed least recent");
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn bad_geometry_panics() {
        SectoredCache::new(512, 2, 100, 32);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_set_count_panics() {
        SectoredCache::new(3 * 2 * 128, 2, 128, 32);
    }

    #[test]
    fn generation_counts_residency_changes() {
        let mut c = small();
        c.probe(0);
        assert_eq!((c.peek(0), c.generation()), (Probe::LineMiss, 0));
        c.fill(0);
        c.fill(0);
        assert_eq!(c.generation(), 2);
        // Evicting a sector of an absent line changes nothing.
        c.evict_sector(256);
        assert_eq!(c.generation(), 2);
        c.evict_sector(32);
        assert_eq!(c.generation(), 3);
    }

    #[test]
    fn replay_repeats_recorded_probes() {
        let mut c = small();
        c.fill(0);
        c.fill(256);
        let probes = [c.probe_line(0), c.probe_line(32), c.probe_line(512)];
        assert_eq!(probes[0].outcome, Probe::Hit);
        assert_eq!(probes[1].line, probes[0].line);
        assert_eq!(
            probes[2],
            Probed {
                outcome: Probe::LineMiss,
                line: None
            }
        );
        let mut reprobed = c.clone();
        c.probe(256);
        reprobed.probe(256);
        c.replay(&probes);
        for a in [0, 32, 512] {
            reprobed.probe(a);
        }
        assert_eq!(format!("{c:?}"), format!("{reprobed:?}"));
        // Line 0 was stamped after line 256, so the next fill evicts 256.
        c.fill(512);
        assert_eq!(c.peek(256), Probe::LineMiss);
        assert_eq!(c.peek(0), Probe::Hit);
    }

    #[test]
    fn titan_v_l1_geometry() {
        use crate::config::GpuConfig;
        let cfg = GpuConfig::titan_v();
        let c = SectoredCache::new(cfg.l1_size, cfg.l1_assoc, cfg.line_size, cfg.sector_size);
        // 128KB / (64 * 128B) = 16 sets
        assert_eq!(c.num_sets(), 16);
        assert_eq!(c.sectors_per_line(), 4);
    }
}
