//! ATCache (Huang & Nagarajan, PACT 2014): tags-in-DRAM with an SRAM tag
//! cache.
//!
//! The DRAM organization is Loh-Hill-style (tags co-located with data in
//! the set's row, 64 B blocks, 16-way sets), but the tags of recently
//! accessed sets are cached in a small SRAM *tag cache*. A tag-cache hit
//! answers the tag check in SRAM and needs a single DRAM access for data;
//! a tag-cache miss reads the tags from DRAM first (like Loh-Hill) and
//! refills the tag cache, prefetching the tags of `PG` neighbouring sets
//! (the paper and our reproduction use `PG = 8`).
//!
//! **Modelling note:** in the original design the tags of a PG-group share
//! a DRAM row, so the group prefetch costs one extra burst. Our layout
//! keeps one set per row, so the group prefetch is modelled as one extra
//! 64 B tag burst on the accessed row — same timing, same warming effect.

use bimodal_core::{
    random_tag_xor, AccessKind, AccessOutcome, CacheAccess, ContentsDigest, DramCacheScheme,
    EccLedger, FaultTarget, MetadataFault, SchemeStats, SramModel,
};
use bimodal_dram::{Cycle, DeferredOp, MemorySystem, Op, Request, RowEvent, TrafficClass};
use bimodal_obs::anatomy::{self, Component};
use bimodal_obs::span::{self, SpanId};
use bimodal_prng::SmallRng;

use crate::common::{IndexLru, RowMapper};

/// Ways per set.
const WAYS: usize = 16;
/// Bytes read for a DRAM tag lookup (16 tags in one burst).
const TAG_READ_BYTES: u32 = 64;

/// Configuration of an [`AtCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtCacheConfig {
    /// Capacity in bytes.
    pub cache_bytes: u64,
    /// Block size (64 B).
    pub block_bytes: u32,
    /// Number of sets whose tags the SRAM tag cache can hold.
    pub tag_cache_sets: usize,
    /// Tag-prefetch group size `PG`.
    pub prefetch_group: u64,
    /// Cycles to compare tags after they arrive.
    pub tag_compare_cycles: Cycle,
    /// Protect the DRAM tag blocks with SECDED ECC: injected flips are
    /// ledgered and detected at the next DRAM tag read of the set instead
    /// of corrupting it, at the cost of a 12.5% wider tag burst. The SRAM
    /// tag cache is parity-protected: a locator upset invalidates the
    /// entry, and the next access re-reads the tags from DRAM.
    pub metadata_ecc: bool,
}

impl AtCacheConfig {
    /// Paper-style configuration for `mb` megabytes: 4 K-set tag cache
    /// (~64 KB of SRAM) and `PG = 8`.
    #[must_use]
    pub fn for_cache_mb(mb: u64) -> Self {
        AtCacheConfig {
            cache_bytes: mb << 20,
            block_bytes: 64,
            tag_cache_sets: 4096,
            prefetch_group: 8,
            tag_compare_cycles: 1,
            metadata_ecc: false,
        }
    }

    /// Enables or disables SECDED ECC over the DRAM tag blocks.
    #[must_use]
    pub fn with_metadata_ecc(mut self, ecc: bool) -> Self {
        self.metadata_ecc = ecc;
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// The ATCache organization.
#[derive(Debug)]
pub struct AtCache {
    config: AtCacheConfig,
    n_sets: u64,
    sets: Vec<Vec<Line>>,
    /// Tag-cache: set indices currently cached in SRAM, in recency order.
    tag_cache: IndexLru,
    tag_cache_cycles: Cycle,
    mapper: Option<RowMapper>,
    ledger: EccLedger,
    stats: SchemeStats,
}

impl AtCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete set, or so many sets
    /// that their indices overflow `u32`.
    #[must_use]
    pub fn new(config: AtCacheConfig) -> Self {
        // Each set: 16 ways x 64 B data + one tag block, filling a 2 KB row
        // with some slack.
        let n_sets = config.cache_bytes / (u64::from(config.block_bytes) * WAYS as u64);
        assert!(n_sets > 0, "capacity must hold at least one set");
        let sram = SramModel::new();
        // Tag-cache entry: ~16 tags x 4 B.
        let tag_cache_bytes = config.tag_cache_sets as u64 * 64;
        AtCache {
            sets: vec![Vec::new(); usize::try_from(n_sets).expect("set count fits usize")],
            n_sets,
            tag_cache: IndexLru::new(n_sets),
            tag_cache_cycles: sram.access_cycles(tag_cache_bytes),
            mapper: None,
            ledger: EccLedger::new(),
            stats: SchemeStats::default(),
            config,
        }
    }

    /// Paper-style ATCache of `mb` megabytes.
    #[must_use]
    pub fn with_capacity_mb(mb: u64) -> Self {
        AtCache::new(AtCacheConfig::for_cache_mb(mb))
    }

    fn set_of(&self, addr: u64) -> u64 {
        (addr / u64::from(self.config.block_bytes)) % self.n_sets
    }

    fn tag_of(&self, addr: u64) -> u64 {
        (addr / u64::from(self.config.block_bytes)) / self.n_sets
    }

    fn line_addr(&self, tag: u64, set: u64) -> u64 {
        (tag * self.n_sets + set) * u64::from(self.config.block_bytes)
    }

    /// Probes the SRAM tag cache for `set`; refreshes recency on hit.
    fn tag_cache_lookup(&mut self, set: u64) -> bool {
        self.tag_cache.touch(set)
    }

    /// Fills the tag cache with `set`'s group of `PG` neighbouring sets:
    /// absent sets enter at the MRU end in ascending order, cached ones
    /// keep their recency, then the LRU end is trimmed to capacity.
    fn tag_cache_fill_group(&mut self, set: u64) {
        let pg = self.config.prefetch_group;
        let group_base = (set / pg) * pg;
        for s in group_base..(group_base + pg).min(self.n_sets) {
            self.tag_cache.insert_front(s);
        }
        while self.tag_cache.len() > self.config.tag_cache_sets {
            self.tag_cache.pop_back();
        }
    }

    /// The tag cache's set indices, most recently used first (the
    /// checkpointed form).
    fn tag_cache_order(&self) -> Vec<u64> {
        self.tag_cache.iter().collect()
    }

    /// Bytes moved per DRAM tag lookup (target set + PG-group burst):
    /// SECDED check bits widen each burst by one byte per eight.
    fn dram_tag_bytes(&self) -> u32 {
        let per_burst = if self.config.metadata_ecc {
            TAG_READ_BYTES + TAG_READ_BYTES.div_ceil(8)
        } else {
            TAG_READ_BYTES
        };
        per_burst * 2
    }

    /// SECDED detection for every ledgered fault of `set_idx`: the DRAM
    /// tag read that just completed decoded the protected tag block.
    /// Single-bit flips are corrected in place; multi-bit flips are
    /// detected but uncorrectable, so the described line is dropped
    /// (dirty data written back first, like an eviction).
    fn scrub_set(
        &mut self,
        set_idx: u64,
        loc: bimodal_dram::Location,
        at: Cycle,
        mem: &mut MemorySystem,
    ) {
        for fault in self.ledger.drain_set(set_idx) {
            if fault.multi_bit {
                self.stats.ecc_detected_uncorrected += 1;
                let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
                if let Some(pos) = set.iter().position(|l| l.tag == fault.orig_tag) {
                    let line = set.remove(pos);
                    if line.dirty {
                        let bytes = self.config.block_bytes;
                        mem.defer(
                            at,
                            DeferredOp::MainWrite {
                                addr: self.line_addr(line.tag, set_idx),
                                bytes,
                                class: TrafficClass::Writeback,
                            },
                        );
                        self.stats.writebacks += 1;
                        self.stats.offchip_writeback_bytes += u64::from(bytes);
                    }
                }
            } else {
                self.stats.ecc_corrected += 1;
            }
            // Scrub write of the repaired tag block, off the critical path.
            mem.defer(
                at,
                DeferredOp::CacheWrite {
                    loc,
                    bytes: 64,
                    class: TrafficClass::Scrub,
                },
            );
        }
    }
}

impl FaultTarget for AtCache {
    fn inject_metadata_flip(
        &mut self,
        rng: &mut SmallRng,
        multi_bit: bool,
    ) -> Option<MetadataFault> {
        // Probe sets from a random start for a non-empty one.
        let n = usize::try_from(self.n_sets).expect("set count fits usize");
        let start = rng.gen_range(0..n);
        for probe in 0..n {
            let idx = (start + probe) % n;
            if self.sets[idx].is_empty() {
                continue;
            }
            let way = rng.gen_range(0..self.sets[idx].len());
            let xor = random_tag_xor(rng, multi_bit);
            let apply = !self.config.metadata_ecc;
            let line = &mut self.sets[idx][way];
            let (orig_tag, new_tag) = (line.tag, line.tag ^ xor);
            if apply {
                line.tag = new_tag;
            }
            let fault = MetadataFault {
                set: idx as u64,
                big: false,
                way: way.min(usize::from(u8::MAX)) as u8,
                orig_tag,
                new_tag,
                multi_bit,
                applied: apply,
            };
            if !apply {
                self.ledger.push(fault);
            }
            return Some(fault);
        }
        None
    }

    fn inject_locator_flip(&mut self, rng: &mut SmallRng) -> bool {
        // The SRAM tag cache is parity-protected: an upset entry is
        // detected and invalidated, so the next access to that set pays a
        // DRAM tag read instead of consulting a stale copy. Pure timing,
        // never correctness.
        if self.tag_cache.is_empty() {
            return false;
        }
        let pos = rng.gen_range(0..self.tag_cache.len());
        self.tag_cache.remove_nth(pos);
        self.stats.locator_heals += 1;
        true
    }

    fn inject_predictor_upset(&mut self, _rng: &mut SmallRng) -> bool {
        false // no predictor state
    }

    fn contents_digest(&self) -> u64 {
        // The SRAM tag cache is deliberately excluded: it is a hint
        // structure whose contents only shift timing.
        let mut d = ContentsDigest::new();
        for (s, set) in self.sets.iter().enumerate() {
            for line in set {
                d.mix(s as u64);
                d.mix(line.tag);
                d.mix(u64::from(line.dirty));
            }
        }
        d.value()
    }

    fn flush_faults(&mut self) -> (u64, u64) {
        let mut corrected = 0u64;
        let mut uncorrected = 0u64;
        for fault in self.ledger.drain_all() {
            if fault.multi_bit {
                uncorrected += 1;
                self.stats.ecc_detected_uncorrected += 1;
                let set = &mut self.sets[usize::try_from(fault.set).expect("set fits usize")];
                if let Some(pos) = set.iter().position(|l| l.tag == fault.orig_tag) {
                    set.remove(pos);
                }
            } else {
                corrected += 1;
                self.stats.ecc_corrected += 1;
            }
        }
        (corrected, uncorrected)
    }
}

impl DramCacheScheme for AtCache {
    fn name(&self) -> &str {
        "ATCache"
    }

    fn access(&mut self, access: CacheAccess, mem: &mut MemorySystem) -> AccessOutcome {
        mem.drain_deferred(access.now);
        self.stats.accesses += 1;
        match access.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
            AccessKind::Prefetch => self.stats.prefetches += 1,
        }
        let set_idx = self.set_of(access.addr);
        let tag = self.tag_of(access.addr);
        let op = if access.is_write() {
            Op::Write
        } else {
            Op::Read
        };
        let mapper = *self
            .mapper
            .get_or_insert_with(|| RowMapper::new(mem.cache_dram.config()));
        let loc = mapper.location(set_idx);

        let tc_hit = {
            let _g = span::enter(SpanId::LocatorProbe);
            span::add_cycles(SpanId::LocatorProbe, self.tag_cache_cycles);
            self.tag_cache_lookup(set_idx)
        };
        // A fused tag+data substrate (TDRAM-style) only helps the DRAM
        // tag-read path: the widened burst carries the candidate block, so
        // a read hit after a tag-cache miss needs no second column access.
        let fused = mem.fused_tag_data() && !tc_hit;
        let tags_checked = if tc_hit {
            self.stats.locator_hits += 1;
            self.stats.breakdown.sram += self.tag_cache_cycles;
            access.now + self.tag_cache_cycles
        } else {
            self.stats.locator_misses += 1;
            // DRAM tag read: target set's tags plus the PG-group burst.
            let span_tag = span::enter(SpanId::TagRead);
            mem.cache_dram.set_class(TrafficClass::MetadataRead);
            let t = mem.cache_dram.access(Request {
                loc,
                bytes: self.dram_tag_bytes() + if fused { self.config.block_bytes } else { 0 },
                op: Op::Read,
                arrival: access.now + self.tag_cache_cycles,
            });
            self.stats.md_accesses += 1;
            if t.row_event == RowEvent::Hit {
                self.stats.md_row_hits += 1;
            }
            if !self.ledger.is_empty() {
                // The DRAM read just decoded the protected tags: scrub.
                self.scrub_set(set_idx, loc, t.done, mem);
            }
            self.tag_cache_fill_group(set_idx);
            self.stats.breakdown.sram += self.tag_cache_cycles;
            self.stats.breakdown.dram_tag += (t.done + self.config.tag_compare_cycles)
                .saturating_sub(access.now + self.tag_cache_cycles);
            span::add_cycles(
                SpanId::TagRead,
                (t.done + self.config.tag_compare_cycles)
                    .saturating_sub(access.now + self.tag_cache_cycles),
            );
            drop(span_tag);
            if anatomy::active() {
                anatomy::charge_dram(Component::TagProbe);
                anatomy::add(Component::TagProbe, self.config.tag_compare_cycles);
            }
            t.done + self.config.tag_compare_cycles
        };
        if anatomy::active() {
            // The SRAM tag cache is ATCache's locator analogue; both the
            // tc-hit and tc-miss paths serialize behind it.
            anatomy::add(Component::Locator, self.tag_cache_cycles);
        }

        let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
        let hit_pos = set.iter().position(|l| l.tag == tag);
        let is_hit = hit_pos.is_some();
        let mut offchip_bytes = 0u64;
        let complete;
        if let Some(pos) = hit_pos {
            let line = set.remove(pos);
            set.insert(
                0,
                Line {
                    dirty: line.dirty || access.is_write(),
                    ..line
                },
            );
            complete = if fused && op == Op::Read {
                // Data rode the fused tag burst.
                if anatomy::active() {
                    anatomy::fused_saved(mem.cache_dram.column_cost(self.config.block_bytes));
                }
                tags_checked
            } else {
                mem.cache_dram.set_class(TrafficClass::DataHit);
                let data =
                    mem.cache_dram
                        .column_access(loc, self.config.block_bytes, op, tags_checked);
                self.stats.data_accesses += 1;
                if data.row_event == RowEvent::Hit {
                    self.stats.data_row_hits += 1;
                }
                if anatomy::active() {
                    anatomy::charge_dram(Component::DataBurst);
                }
                data.done
            };
            self.stats.hits += 1;
            self.stats.big_hits += 1;
            self.stats.breakdown.dram_data += complete.saturating_sub(tags_checked);
        } else {
            let _span_fill = span::enter(SpanId::Fill);
            self.stats.misses += 1;
            let bytes = self.config.block_bytes;
            let base = access.addr & !u64::from(bytes - 1);
            mem.main.set_class(TrafficClass::MainMemRefill);
            let fetch = mem.main.read(base, bytes, tags_checked);
            self.stats.offchip_fetched_bytes += u64::from(bytes);
            offchip_bytes += u64::from(bytes);
            set.insert(
                0,
                Line {
                    tag,
                    dirty: access.is_write(),
                },
            );
            if set.len() > WAYS {
                let victim = set.pop().expect("set overflowed");
                self.stats.evictions += 1;
                if victim.dirty {
                    let _g = span::enter(SpanId::Writeback);
                    let victim_addr = self.line_addr(victim.tag, set_idx);
                    mem.defer(
                        fetch.done,
                        DeferredOp::MainWrite {
                            addr: victim_addr,
                            bytes,
                            class: TrafficClass::Writeback,
                        },
                    );
                    self.stats.writebacks += 1;
                    self.stats.offchip_writeback_bytes += u64::from(bytes);
                    offchip_bytes += u64::from(bytes);
                }
            }
            self.stats.fills_big += 1;
            mem.defer(
                fetch.done,
                DeferredOp::CacheWrite {
                    loc,
                    bytes,
                    class: TrafficClass::DataFill,
                },
            );
            mem.defer(
                fetch.done,
                DeferredOp::CacheWrite {
                    loc,
                    bytes: 64,
                    class: TrafficClass::MetadataWrite,
                },
            );
            complete = fetch.done;
            if anatomy::active() {
                let _ = anatomy::take_dram();
                anatomy::add(Component::OffChip, complete.saturating_sub(tags_checked));
            }
            span::add_cycles(SpanId::Fill, complete.saturating_sub(tags_checked));
            self.stats.breakdown.offchip += complete.saturating_sub(tags_checked);
        }
        self.stats.total_latency += complete.saturating_sub(access.now);
        AccessOutcome {
            complete,
            hit: is_hit,
            offchip_bytes,
            small_block: false,
        }
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn fault_target(&mut self) -> Option<&mut dyn FaultTarget> {
        Some(self)
    }

    fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        w.u8(1);
        self.sets.save(w);
        self.tag_cache_order().save(w);
        self.ledger.save(w);
        self.stats.save(w);
    }

    fn restore_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        crate::alloy::expect_stateful_marker(r, "AtCache")?;
        let sets: Vec<Vec<Line>> = Snapshot::load(r)?;
        if sets.len() != self.sets.len() {
            return Err(r.corrupt(format!(
                "checkpoint has {} sets, configuration expects {}",
                sets.len(),
                self.sets.len()
            )));
        }
        let order: Vec<u64> = Snapshot::load(r)?;
        if order.len() > self.config.tag_cache_sets {
            return Err(r.corrupt(format!(
                "tag cache holds {} sets, capacity is {}",
                order.len(),
                self.config.tag_cache_sets
            )));
        }
        // Rebuild LRU end first so the saved MRU-first order is restored.
        let mut tag_cache = IndexLru::new(self.n_sets);
        for &s in order.iter().rev() {
            if s >= self.n_sets {
                return Err(r.corrupt(format!(
                    "tag cache names set {s}, configuration has {} sets",
                    self.n_sets
                )));
            }
            if !tag_cache.insert_front(s) {
                return Err(r.corrupt(format!("tag cache names set {s} twice")));
            }
        }
        self.sets = sets;
        self.tag_cache = tag_cache;
        self.ledger = Snapshot::load(r)?;
        self.stats = Snapshot::load(r)?;
        Ok(())
    }
}

impl bimodal_ckpt::Snapshot for Line {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        w.u64(self.tag);
        w.bool(self.dirty);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        Ok(Line {
            tag: r.u64()?,
            dirty: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> (AtCache, MemorySystem) {
        (AtCache::with_capacity_mb(1), MemorySystem::quad_core())
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x6000, 0), &mut mem);
        assert!(!a.hit);
        let b = c.access(CacheAccess::read(0x6000, a.complete), &mut mem);
        assert!(b.hit);
    }

    #[test]
    fn tag_cache_hit_after_first_touch_of_a_set() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x6000, 0), &mut mem);
        assert_eq!(c.stats().locator_misses, 1);
        let _ = c.access(CacheAccess::read(0x6000, a.complete), &mut mem);
        assert_eq!(c.stats().locator_hits, 1);
    }

    #[test]
    fn group_prefetch_warms_neighbouring_sets() {
        let (mut c, mut mem) = cache();
        // Touch set 0; its PG-group (sets 0..8) tags are now cached.
        let a = c.access(CacheAccess::read(0, 0), &mut mem);
        // An access to set 3 hits the tag cache without a DRAM tag read.
        let _ = c.access(CacheAccess::read(3 * 64, a.complete), &mut mem);
        assert_eq!(c.stats().locator_hits, 1);
        assert_eq!(
            c.stats().md_accesses,
            1,
            "only the first access read tags from DRAM"
        );
    }

    #[test]
    fn tag_cache_hit_is_faster_than_tag_cache_miss() {
        // Refresh-free memory so the comparison is not skewed by a stall.
        let mut stacked = bimodal_dram::DramConfig::stacked(2, 8);
        stacked.timing = stacked.timing.without_refresh();
        let mut offchip = bimodal_dram::DramConfig::ddr3(1, 2);
        offchip.timing = offchip.timing.without_refresh();
        let mut mem = MemorySystem::new(stacked, offchip);
        let mut c = AtCache::with_capacity_mb(1);
        let a = c.access(CacheAccess::read(0x6000, 0), &mut mem);
        // Same line again (tag cache hit, row may have closed — use a long
        // gap for both to equalize row state).
        let b = c.access(CacheAccess::read(0x6000, a.complete + 100_000), &mut mem);
        // A far set whose tags are not cached (tag cache miss).
        let far = 64 * c.n_sets / 2;
        let d = c.access(CacheAccess::read(far, b.complete + 100_000), &mut mem);
        let b_lat = b.complete - (a.complete + 100_000);
        let d_lat = d.complete - (b.complete + 100_000);
        assert!(
            b_lat < d_lat,
            "tag-cache hit {b_lat} must beat miss {d_lat}"
        );
    }

    #[test]
    fn sixteen_way_lru() {
        let (mut c, mut mem) = cache();
        let stride = c.n_sets * 64;
        let mut now = 0;
        for k in 0..17u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        assert_eq!(c.stats().evictions, 1);
        let r = c.access(CacheAccess::read(0, now), &mut mem);
        assert!(!r.hit, "LRU way 0 was evicted");
    }

    #[test]
    fn tag_cache_capacity_is_bounded() {
        let (mut c, mut mem) = cache();
        let mut now = 0;
        for set in 0..(c.config.tag_cache_sets as u64 + 100) {
            let r = c.access(CacheAccess::read(set * 64, now), &mut mem);
            now = r.complete;
        }
        assert!(c.tag_cache.len() <= c.config.tag_cache_sets);
    }

    /// The tag-cache rules over a plain `Vec` of set indices in
    /// MRU-to-LRU order, scanned linearly: the reference `IndexLru` is
    /// checked against.
    struct VecTagCache {
        order: Vec<u64>,
        capacity: usize,
        pg: u64,
        n_sets: u64,
    }

    impl VecTagCache {
        fn lookup(&mut self, set: u64) -> bool {
            if let Some(pos) = self.order.iter().position(|&s| s == set) {
                let s = self.order.remove(pos);
                self.order.insert(0, s);
                true
            } else {
                false
            }
        }

        fn fill_group(&mut self, set: u64) {
            let group_base = (set / self.pg) * self.pg;
            for s in group_base..(group_base + self.pg).min(self.n_sets) {
                if !self.order.contains(&s) {
                    self.order.insert(0, s);
                }
            }
            while self.order.len() > self.capacity {
                self.order.pop();
            }
        }

        fn locator_flip(&mut self, rng: &mut SmallRng) -> bool {
            if self.order.is_empty() {
                return false;
            }
            let pos = rng.gen_range(0..self.order.len());
            self.order.remove(pos);
            true
        }
    }

    fn small_atcache(n_sets: u64, tag_cache_sets: usize) -> AtCache {
        AtCache::new(AtCacheConfig {
            cache_bytes: n_sets * 64 * WAYS as u64,
            tag_cache_sets,
            ..AtCacheConfig::for_cache_mb(1)
        })
    }

    fn snapshot(c: &AtCache) -> Vec<u8> {
        let mut w = bimodal_ckpt::SnapshotWriter::new();
        DramCacheScheme::save_state(c, &mut w);
        w.into_bytes()
    }

    /// A snapshot laid out as `save_state` writes it, with `tag_cache` as
    /// the tag-cache section.
    fn snapshot_with_tag_cache(c: &AtCache, tag_cache: &Vec<u64>) -> Vec<u8> {
        use bimodal_ckpt::Snapshot;
        let mut w = bimodal_ckpt::SnapshotWriter::new();
        w.u8(1);
        c.sets.save(&mut w);
        tag_cache.save(&mut w);
        c.ledger.save(&mut w);
        c.stats.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn tag_cache_matches_the_vec_oracle() {
        // Capacities below PG, groups clipped at `n_sets` (13, 5, 100 are
        // not multiples of 8), a single set, and a zero-entry tag cache.
        let shapes = [
            (1, 1),
            (5, 3),
            (13, 0),
            (13, 3),
            (13, 8),
            (13, 64),
            (64, 7),
            (100, 20),
            (1024, 64),
        ];
        for (n_sets, capacity) in shapes {
            for seed in 0..4 {
                let mut c = small_atcache(n_sets, capacity);
                let mut oracle = VecTagCache {
                    order: Vec::new(),
                    capacity,
                    pg: c.config.prefetch_group,
                    n_sets,
                };
                let mut rng = SmallRng::seed_from_u64(seed * 7919 + n_sets);
                for step in 0..1_500 {
                    let set = rng.gen_range(0..n_sets);
                    let op = rng.gen_range(0..16u32);
                    match op {
                        // Probe, and on a miss fill the group: the access path.
                        0..=9 => {
                            let hit = c.tag_cache_lookup(set);
                            assert_eq!(hit, oracle.lookup(set), "probe of set {set}");
                            if !hit {
                                c.tag_cache_fill_group(set);
                                oracle.fill_group(set);
                            }
                        }
                        // A bare group fill, whether or not `set` is cached.
                        10..=12 => {
                            c.tag_cache_fill_group(set);
                            oracle.fill_group(set);
                        }
                        // Parity-detected upset: drop the pos-th entry.
                        13 | 14 => {
                            let mut oracle_rng = rng.clone();
                            assert_eq!(
                                c.inject_locator_flip(&mut rng),
                                oracle.locator_flip(&mut oracle_rng)
                            );
                            assert_eq!(rng, oracle_rng, "same draws");
                        }
                        // Checkpoint round trip, in the pre-existing format.
                        _ => {
                            let bytes = snapshot(&c);
                            assert_eq!(bytes, snapshot_with_tag_cache(&c, &oracle.order));
                            let mut resumed = small_atcache(n_sets, capacity);
                            let mut r = bimodal_ckpt::SnapshotReader::new(&bytes, "scheme");
                            resumed.restore_state(&mut r).expect("own snapshot loads");
                            c = resumed;
                        }
                    }
                    assert_eq!(
                        c.tag_cache_order(),
                        oracle.order,
                        "n_sets {n_sets}, capacity {capacity}, seed {seed}, step {step}, op {op}"
                    );
                    assert_eq!(c.tag_cache.len(), oracle.order.len());
                }
            }
        }
    }

    #[test]
    fn restore_rejects_out_of_range_and_duplicate_tag_cache_sets() {
        let c = AtCache::with_capacity_mb(1);
        for (tag_cache, want) in [
            (vec![3, c.n_sets], "configuration has"),
            (vec![5, 2, 5], "twice"),
        ] {
            let bytes = snapshot_with_tag_cache(&c, &tag_cache);
            let mut fresh = AtCache::with_capacity_mb(1);
            let mut r = bimodal_ckpt::SnapshotReader::new(&bytes, "scheme");
            let err = fresh
                .restore_state(&mut r)
                .expect_err("crafted snapshot is rejected");
            assert!(
                matches!(&err, bimodal_ckpt::CkptError::Corrupt { detail, .. } if detail.contains(want)),
                "{tag_cache:?}: {err}"
            );
            assert!(
                fresh.tag_cache.is_empty(),
                "a rejected restore applies nothing"
            );
        }
    }
}
