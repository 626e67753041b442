//! Microbenchmarks of the hot structures (criterion-free wall-clock).
//!
//! Reports nanoseconds per operation for the way locator, block size
//! predictor, bi-modal set, DRAM bank engine and a whole ATCache access —
//! the inner loops of the simulator.

use std::hint::black_box;
use std::time::Instant;

use bimodal_core::{
    BiModalSet, BlockSize, BlockSizePredictor, CacheAccess, CacheGeometry, FunctionalCache,
    FunctionalConfig, PredictorConfig, WayLocator, WayLocatorConfig,
};
use bimodal_dram::{DramConfig, DramModule, Location, Request};
use bimodal_sim::{SchemeKind, SystemConfig};

fn time<F: FnMut(u64) -> u64>(label: &str, iters: u64, mut f: F) {
    // Warm up.
    let mut acc = 0u64;
    for i in 0..iters / 10 {
        acc = acc.wrapping_add(f(i));
    }
    let start = Instant::now();
    for i in 0..iters {
        acc = acc.wrapping_add(f(i));
    }
    let elapsed = start.elapsed();
    black_box(acc);
    println!(
        "{label:40} {:>8.1} ns/op  ({iters} iters)",
        elapsed.as_nanos() as f64 / iters as f64
    );
}

fn main() {
    bimodal_bench::banner(
        "Microbenchmarks — simulator hot paths",
        "way locator, predictor, set, functional cache, DRAM engine and ATCache",
    );
    let iters = 2_000_000;

    let mut wl = WayLocator::new(WayLocatorConfig {
        index_bits: 14,
        addr_bits: 32,
        offset_bits: 9,
    });
    for i in 0..100_000u64 {
        wl.insert(i * 512, BlockSize::Big, (i % 4) as u8);
    }
    time("way locator lookup", iters, |i| {
        u64::from(wl.lookup(black_box(i * 512 % (1 << 30))).is_some())
    });

    let mut p = BlockSizePredictor::new(PredictorConfig::paper_default());
    time("predictor predict", iters, |i| {
        u64::from(p.predict(black_box(i * 512)) == BlockSize::Big)
    });
    time("predictor update", iters, |i| {
        p.update(black_box(i * 512), i % 3 == 0);
        0
    });

    let geometry = CacheGeometry::paper_default(1 << 20);
    let mut set = BiModalSet::new(&geometry);
    let global = geometry.allowed_states()[1];
    time("bi-modal set insert+lookup", iters / 4, |i| {
        let size = if i % 3 == 0 {
            BlockSize::Small
        } else {
            BlockSize::Big
        };
        set.insert(size, i % 1000, (i % 8) as u8, global, &mut |n| {
            (i % u64::from(n)) as u8
        });
        u64::from(set.lookup(i % 1000, (i % 8) as u8).is_some())
    });

    let mut fc = FunctionalCache::new(FunctionalConfig::new(1 << 22, 512, 4));
    time("functional cache access", iters, |i| {
        u64::from(fc.access(black_box((i * 8_191) % (1 << 28))))
    });

    let mut dram = DramModule::new(DramConfig::stacked(2, 8));
    time("dram module access", iters, |i| {
        let loc = Location::new((i % 2) as u32, 0, (i % 8) as u32, (i * 31) % 1024);
        dram.access(Request::read(loc, 64, i * 20)).done
    });

    // ATCache as the 16-core comparisons build it (32 MB, 1 K-set SRAM tag
    // cache). Nine accesses in ten go to 256 hot sets the tag cache
    // holds; the tenth goes to a random set and almost always misses it,
    // close to the ~10% tag-cache miss rate of S1 runs.
    let system = SystemConfig::sixteen_core().with_cache_mb(32);
    let mut atcache = SchemeKind::AtCache.build(&system);
    let mut mem = system.build_memory();
    let n_sets = system.cache_bytes() / (64 * 16);
    let mut now = 0;
    time("atcache access (~10% tag-cache misses)", iters / 4, |i| {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let set = if h % 10 == 0 {
            (h >> 20) % n_sets
        } else {
            (h >> 20) % 256
        };
        let tag = (h >> 44) % 8;
        let out = atcache.access(CacheAccess::read((tag * n_sets + set) * 64, now), &mut mem);
        now = out.complete;
        u64::from(out.hit)
    });
    let s = atcache.stats();
    println!(
        "{:40} {:>8.1} %  tag-cache misses",
        "",
        100.0 * s.locator_misses as f64 / (s.locator_hits + s.locator_misses).max(1) as f64
    );
}
