//! Scheme selection and construction.

use bimodal_baselines::{
    AlloyCache, AlloyConfig, AtCache, AtCacheConfig, FootprintCache, FootprintConfig, LohHillCache,
    LohHillConfig,
};
use bimodal_core::{
    BiModalCache, BiModalConfig, CacheGeometry, DramCacheScheme, FunctionalConfig, SramModel,
};

use crate::config::SystemConfig;

/// The DRAM cache organizations under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The full Bi-Modal cache (way locator + bi-modal blocks).
    BiModal,
    /// Bi-modal blocks without the way locator (Figure 8a ablation).
    BiModalOnly,
    /// Fixed 512 B blocks with the way locator (Figure 8a ablation).
    WayLocatorOnly,
    /// Fixed 512 B blocks, no way locator (Figure 9a baseline).
    Fixed512,
    /// The Bi-Modal cache with co-located metadata (Figure 9b ablation).
    BiModalColocatedMetadata,
    /// The Bi-Modal cache with the optional hit/miss predictor deployed
    /// (the paper's footnote 11 extension).
    BiModalMissPredict,
    /// AlloyCache (the paper's baseline).
    Alloy,
    /// Loh-Hill 29-way tags-in-DRAM.
    LohHill,
    /// ATCache: tags-in-DRAM with SRAM tag cache.
    AtCache,
    /// Footprint Cache: 2 KB pages, tags in SRAM.
    Footprint,
}

impl SchemeKind {
    /// Every scheme, in presentation order.
    #[must_use]
    pub fn all() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Alloy,
            SchemeKind::LohHill,
            SchemeKind::AtCache,
            SchemeKind::Footprint,
            SchemeKind::Fixed512,
            SchemeKind::WayLocatorOnly,
            SchemeKind::BiModalOnly,
            SchemeKind::BiModal,
        ]
    }

    /// The schemes compared in the Figure 8(c) latency study.
    #[must_use]
    pub fn comparison_set() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Alloy,
            SchemeKind::LohHill,
            SchemeKind::AtCache,
            SchemeKind::Footprint,
            SchemeKind::BiModal,
        ]
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::BiModal => "BiModal",
            SchemeKind::BiModalOnly => "BiModal-Only",
            SchemeKind::WayLocatorOnly => "WayLocator-Only",
            SchemeKind::Fixed512 => "Fixed512",
            SchemeKind::BiModalColocatedMetadata => "BiModal-CoLocMeta",
            SchemeKind::BiModalMissPredict => "BiModal+MP",
            SchemeKind::Alloy => "AlloyCache",
            SchemeKind::LohHill => "Loh-Hill",
            SchemeKind::AtCache => "ATCache",
            SchemeKind::Footprint => "FootprintCache",
        }
    }

    /// Builds the scheme for `system`.
    #[must_use]
    pub fn build(&self, system: &SystemConfig) -> Box<dyn DramCacheScheme> {
        self.build_with(system, false, None)
    }

    /// Builds the scheme, optionally enabling prefetch-miss bypass on the
    /// Bi-Modal variants (PREF_BYPASS, Table VI) and overriding the
    /// adaptation epoch (scaled runs need shorter epochs than the paper's
    /// 1 M accesses so the global mix controller still adapts).
    #[must_use]
    pub fn build_with(
        &self,
        system: &SystemConfig,
        prefetch_bypass: bool,
        adapt_epoch: Option<u64>,
    ) -> Box<dyn DramCacheScheme> {
        self.build_inner(system, prefetch_bypass, adapt_epoch, false)
    }

    /// Builds the scheme with metadata SECDED ECC enabled or disabled —
    /// the constructor used by fault-injection campaigns. With
    /// `ecc = false` this is identical to [`SchemeKind::build_with`]
    /// without prefetch bypass.
    #[must_use]
    pub fn build_resilient(
        &self,
        system: &SystemConfig,
        adapt_epoch: Option<u64>,
        ecc: bool,
    ) -> Box<dyn DramCacheScheme> {
        self.build_inner(system, false, adapt_epoch, ecc)
    }

    fn build_inner(
        &self,
        system: &SystemConfig,
        prefetch_bypass: bool,
        adapt_epoch: Option<u64>,
        ecc: bool,
    ) -> Box<dyn DramCacheScheme> {
        if let Some(config) = self.bimodal_config(system, prefetch_bypass, adapt_epoch) {
            return Box::new(BiModalCache::new(config.with_metadata_ecc(ecc)));
        }
        let mb = system.cache_mb;
        match self {
            SchemeKind::BiModal
            | SchemeKind::BiModalOnly
            | SchemeKind::WayLocatorOnly
            | SchemeKind::Fixed512
            | SchemeKind::BiModalColocatedMetadata
            | SchemeKind::BiModalMissPredict => unreachable!("handled by bimodal_config"),
            SchemeKind::Alloy => Box::new(AlloyCache::new(
                AlloyConfig::for_cache_mb(mb).with_metadata_ecc(ecc),
            )),
            SchemeKind::LohHill => Box::new(LohHillCache::new(
                LohHillConfig::for_cache_mb(mb).with_metadata_ecc(ecc),
            )),
            SchemeKind::AtCache => {
                // The full-scale design's tag cache covers ~3% of sets;
                // keep that fraction under scaling (a fixed 4096-entry
                // cache would cover half of a scaled-down cache's sets).
                let n_sets = (mb << 20) / (64 * 16);
                let mut c = AtCacheConfig::for_cache_mb(mb).with_metadata_ecc(ecc);
                c.tag_cache_sets = usize::try_from((n_sets / 32).max(64)).expect("fits");
                Box::new(AtCache::new(c))
            }
            SchemeKind::Footprint => {
                // Charge the SRAM tag store at the capacity the design
                // would need at full scale (scaled experiments shrink the
                // cache and would otherwise make tags-in-SRAM unrealistically
                // fast — the very cost the paper's design avoids).
                let full_bytes =
                    (system.cache_bytes() as f64 / system.footprint_scale.max(1e-9)) as u64;
                let tag_bytes = full_bytes / 2048 * 12;
                let cycles = SramModel::new().access_cycles(tag_bytes);
                Box::new(FootprintCache::new(
                    FootprintConfig::for_cache_mb(mb)
                        .with_tag_latency(cycles)
                        .with_metadata_ecc(ecc),
                ))
            }
        }
    }

    /// Checks this organization can be built with a `cache_mb` megabyte
    /// cache: every scheme needs a positive capacity whose byte count
    /// fits `u64`, and the Bi-Modal variants a power-of-two one.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn check_capacity(&self, cache_mb: u64) -> Result<(), String> {
        if cache_mb == 0 {
            return Err("cache capacity must be positive".into());
        }
        let bytes = cache_mb
            .checked_mul(1 << 20)
            .ok_or_else(|| format!("a {cache_mb} MB cache overflows a byte count"))?;
        if self.bimodal_variant().is_some() {
            CacheGeometry::try_paper_default(bytes)
                .map_err(|e| format!("{} needs a power-of-two capacity: {e}", self.name()))?;
        }
        Ok(())
    }

    /// The functional shadow-model geometry for this organization, plus
    /// the conformance-region granularity (log2 bytes) a shadow checker
    /// should compare hits at.
    ///
    /// The granularity is each scheme's allocation unit: 512 B for the
    /// Bi-Modal variants (big-block grain), 64 B for the line-grain
    /// baselines, and 2 KB for the Footprint Cache — whose predictor may
    /// legitimately fill never-demanded lines of a resident page, so
    /// only page-grain residency is oracle-checkable.
    #[must_use]
    pub fn shadow_model(&self, cache_bytes: u64) -> (FunctionalConfig, u32) {
        match self {
            SchemeKind::BiModal
            | SchemeKind::BiModalOnly
            | SchemeKind::WayLocatorOnly
            | SchemeKind::Fixed512
            | SchemeKind::BiModalColocatedMetadata
            | SchemeKind::BiModalMissPredict => (FunctionalConfig::new(cache_bytes, 512, 16), 9),
            SchemeKind::Alloy => (FunctionalConfig::new(cache_bytes, 64, 1), 6),
            SchemeKind::LohHill => (
                FunctionalConfig::with_geometry(cache_bytes / 2048, 64, 29),
                6,
            ),
            SchemeKind::AtCache => (FunctionalConfig::new(cache_bytes, 64, 16), 6),
            SchemeKind::Footprint => (FunctionalConfig::new(cache_bytes, 2048, 4), 11),
        }
    }

    /// How this Bi-Modal variant derives its configuration from the
    /// paper default, or `None` for the baseline organizations.
    fn bimodal_variant(&self) -> Option<fn(BiModalConfig) -> BiModalConfig> {
        Some(match self {
            SchemeKind::BiModal => |c| c,
            SchemeKind::BiModalOnly => BiModalConfig::bimodal_only,
            SchemeKind::WayLocatorOnly => BiModalConfig::way_locator_only,
            SchemeKind::Fixed512 => BiModalConfig::fixed_big_blocks,
            SchemeKind::BiModalColocatedMetadata => BiModalConfig::with_colocated_metadata,
            SchemeKind::BiModalMissPredict => |c| c.with_miss_predictor(true),
            _ => return None,
        })
    }

    /// The [`BiModalConfig`] this kind would run with, or `None` for the
    /// baseline organizations that are not Bi-Modal caches.
    ///
    /// Exposed so external drivers (e.g. fault-injection campaigns) can
    /// reproduce the exact configuration [`SchemeKind::build_with`] uses
    /// and layer extra options (such as metadata ECC) on top.
    #[must_use]
    pub fn bimodal_config(
        &self,
        system: &SystemConfig,
        prefetch_bypass: bool,
        adapt_epoch: Option<u64>,
    ) -> Option<BiModalConfig> {
        let epoch = adapt_epoch.unwrap_or_else(|| epoch_for(system));
        // Scaled-down runs (shorter measurement windows) sample the
        // tracker more densely so the block size predictor still trains.
        let sample_interval = if system.footprint_scale < 0.5 { 8 } else { 32 };
        let variant = self.bimodal_variant()?;
        Some(
            variant(
                BiModalConfig::for_cache_mb(system.cache_mb)
                    .with_stacked_dram(system.stacked.clone()),
            )
            .with_epoch(epoch)
            .with_sample_interval(sample_interval)
            .with_prefetch_bypass(prefetch_bypass),
        )
    }
}

/// Default adaptation epoch when no run-length hint is available: scale
/// the paper's 1 M accesses with the footprint scale.
fn epoch_for(system: &SystemConfig) -> u64 {
    let scaled = (1_000_000.0 * system.footprint_scale) as u64;
    scaled.clamp(2_000, 1_000_000)
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimodal_core::CacheAccess;

    #[test]
    fn every_scheme_builds_and_services_an_access() {
        let system = SystemConfig::quad_core().with_cache_mb(4);
        for kind in SchemeKind::all() {
            let mut scheme = kind.build(&system);
            let mut mem = system.build_memory();
            let out = scheme.access(CacheAccess::read(0x9000, 0), &mut mem);
            assert!(!out.hit, "{kind}: cold access must miss");
            assert_eq!(scheme.stats().accesses, 1, "{kind}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = SchemeKind::all().iter().map(SchemeKind::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SchemeKind::all().len());
    }

    #[test]
    fn comparison_set_is_a_subset_of_all() {
        let all = SchemeKind::all();
        for k in SchemeKind::comparison_set() {
            assert!(all.contains(&k));
        }
    }

    #[test]
    fn every_scheme_exposes_a_fault_target_and_shadow_model() {
        let system = SystemConfig::quad_core().with_cache_mb(4);
        for kind in SchemeKind::all() {
            let mut scheme = kind.build_resilient(&system, Some(2_000), true);
            assert!(
                scheme.fault_target().is_some(),
                "{kind}: no fault-injection surface"
            );
            let (config, region_bits) = kind.shadow_model(system.cache_bytes());
            let shadow = bimodal_core::FunctionalCache::new(config);
            assert!(shadow.config().cache_bytes > 0, "{kind}");
            assert!((6..=11).contains(&region_bits), "{kind}");
        }
    }

    #[test]
    fn build_resilient_without_ecc_matches_build_with() {
        // Campaigns rely on this equivalence for clean-vs-faulted runs.
        let system = SystemConfig::quad_core().with_cache_mb(4);
        for kind in SchemeKind::all() {
            let mut a = kind.build_resilient(&system, Some(2_000), false);
            let mut b = kind.build_with(&system, false, Some(2_000));
            let mut mem_a = system.build_memory();
            let mut mem_b = system.build_memory();
            let mut now = 0;
            for k in 0..200u64 {
                let ra = a.access(CacheAccess::read(k * 64 % 4096 * 96, now), &mut mem_a);
                let rb = b.access(CacheAccess::read(k * 64 % 4096 * 96, now), &mut mem_b);
                assert_eq!(ra.complete, rb.complete, "{kind}");
                assert_eq!(ra.hit, rb.hit, "{kind}");
                now = ra.complete + 10;
            }
        }
    }

    #[test]
    fn miss_predict_variant_builds_with_predictor() {
        let system = SystemConfig::quad_core().with_cache_mb(4);
        let mut scheme = SchemeKind::BiModalMissPredict.build(&system);
        let mut mem = system.build_memory();
        // Train a region to predict miss, then the speculative path runs.
        let mut now = 0;
        for k in 0..400u64 {
            let out = scheme.access(CacheAccess::read(0x40_0000 + k * 512, now), &mut mem);
            now = out.complete + 20;
        }
        assert!(scheme.stats().spec_fetches > 0, "speculation should engage");
        assert_eq!(scheme.name(), "BiModal+MP");
    }

    #[test]
    fn footprint_tag_latency_is_charged_at_full_scale() {
        // Scaled system: FPC must still pay the full-scale SRAM latency.
        let scaled = SystemConfig::quad_core().with_cache_mb(8);
        let mut fpc_scaled = SchemeKind::Footprint.build(&scaled);
        let mut mem = scaled.build_memory();
        let mut now = 0;
        for k in 0..50u64 {
            let out = fpc_scaled.access(CacheAccess::read(k * 2048, now), &mut mem);
            now = out.complete + 10;
        }
        // All latency paths include the >= 6-cycle SRAM component.
        assert!(fpc_scaled.stats().breakdown.sram >= 50 * 6);
    }

    #[test]
    fn scaled_sampling_is_denser() {
        // Indirectly observable: the scaled build trains the predictor
        // fast enough that sparse single-line traffic flips to small fills
        // within a short run.
        let system = SystemConfig::quad_core().with_cache_mb(4);
        let mut scheme = SchemeKind::BiModal.build_with(&system, false, Some(50));
        let mut mem = system.build_memory();
        let mut now = 0;
        // Cycle 12 single-line regions through one (sampled) set: with
        // dense sampling the predictor flips them to small within the run.
        let set_stride = 1u64 << 20; // 4 MB cache: 2048 sets x 512 B
        for _round in 0..20u64 {
            for k in 0..12u64 {
                let out = scheme.access(CacheAccess::read(k * set_stride, now), &mut mem);
                now = out.complete + 20;
            }
        }
        assert!(scheme.stats().fills_small > 0);
    }
}
