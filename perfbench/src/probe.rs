//! Measurement shims the benchmark wraps around the simulator from
//! outside: a loop hook riding the engine's hook points, which counts
//! issued accesses and interleaves the calibration kernel, and a scheme
//! wrapper that times every `access` call (traced runs) or reports one
//! hit as a miss (the perturbed run the tests use to prove the
//! determinism check can fail).

use std::time::Instant;

use bimodal_core::{AccessOutcome, CacheAccess, DramCacheScheme, SchemeStats};
use bimodal_dram::MemorySystem;
use bimodal_obs::Observer;
use bimodal_sim::{AccessContext, RunHook};

use crate::host::Calibrator;

/// Counts the demand accesses the engine issues, warm-up and post-finish
/// issue included, and with a calibrator runs its slices between them.
/// Plain runs call the (no-op) hook anyway, so without a calibrator this
/// adds one store per access and nothing else.
#[derive(Default)]
pub struct LoopHook {
    /// Accesses issued so far.
    pub issued: u64,
    /// The calibration kernel interleaved with the loop, if any.
    pub calibrator: Option<Calibrator>,
}

impl RunHook for LoopHook {
    fn on_access(
        &mut self,
        ctx: AccessContext,
        _scheme: &mut dyn DramCacheScheme,
        _mem: &mut MemorySystem,
        _obs: &mut Observer,
    ) {
        self.issued = ctx.seq + 1;
        if let Some(c) = &mut self.calibrator {
            c.tick();
        }
    }
}

/// Wraps a built scheme. With `timed`, records the host nanoseconds of
/// every `access` call; with `flip_one_hit`, its final statistics report
/// one hit as a miss (hits + misses still equal accesses, so only the
/// cross-run determinism check can notice).
pub struct Probe<'a> {
    inner: &'a mut dyn DramCacheScheme,
    timed: bool,
    flip_one_hit: bool,
    /// Host nanoseconds per `access` call, in issue order (timed only).
    pub access_ns: Vec<u32>,
    patched: Option<SchemeStats>,
}

impl<'a> Probe<'a> {
    /// Wraps `inner`; `expected_calls` sizes the sample buffer up front so
    /// the timed loop never reallocates.
    pub fn new(
        inner: &'a mut dyn DramCacheScheme,
        timed: bool,
        flip_one_hit: bool,
        expected_calls: usize,
    ) -> Self {
        Probe {
            inner,
            timed,
            flip_one_hit,
            access_ns: Vec::with_capacity(if timed { expected_calls } else { 0 }),
            patched: None,
        }
    }
}

impl DramCacheScheme for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn access(&mut self, access: CacheAccess, mem: &mut MemorySystem) -> AccessOutcome {
        if !self.timed {
            return self.inner.access(access, mem);
        }
        time_call(&mut self.access_ns, || self.inner.access(access, mem))
    }

    fn stats(&self) -> &SchemeStats {
        self.patched.as_ref().unwrap_or_else(|| self.inner.stats())
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn finalize(&mut self) {
        self.inner.finalize();
        if self.flip_one_hit {
            let mut s = self.inner.stats().clone();
            if s.hits > 0 {
                s.hits -= 1;
                s.misses += 1;
            }
            self.patched = Some(s);
        }
    }
}

/// Runs `f`, pushing its host nanoseconds onto `samples`.
#[inline]
fn time_call<R>(samples: &mut Vec<u32>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos();
    samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
    out
}

/// The cost of [`Probe`]'s timing, from 200 k empty calls timed the way
/// `Probe::access` times a scheme call (fastest of three rounds), in host
/// nanoseconds per call: `(recorded, whole)`. `recorded` is the part of
/// the timer pair that falls inside the timed window, which every
/// recorded `access` time carries on top of the scheme's own; `whole` is
/// everything the timing adds to the loop, push included.
#[must_use]
pub fn empty_call_ns() -> (f64, f64) {
    const CALLS: usize = 200_000;
    let mut samples = Vec::with_capacity(CALLS);
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        samples.clear();
        let t = Instant::now();
        for _ in 0..CALLS {
            time_call(&mut samples, || std::hint::black_box(()));
        }
        let whole = t.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
        let recorded = samples.iter().map(|&ns| f64::from(ns)).sum::<f64>() / CALLS as f64;
        best = (best.0.min(recorded), best.1.min(whole));
    }
    best
}
