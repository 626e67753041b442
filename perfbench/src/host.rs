//! Host-speed calibration.
//!
//! On a shared host the simulator's speed drifts by up to 2.5× over
//! minutes while the program stays the same. The benchmark therefore
//! interleaves a fixed kernel — code of its own, which no change to the
//! simulator touches — with every timed engine loop, and divides the
//! loop's host times by how much slower than [`REFERENCE_NS_PER_OP`] the
//! kernel ran during that loop. The host-time metrics are thereby
//! seconds of a host in the reference state; the `#` lines print the raw
//! figures and the slowdowns beside them.
//!
//! The kernel is hash-map churn: lookups, inserts and removals on a
//! `std::collections::HashMap` of about 75 k live keys, with a fixed
//! hasher so every run builds the same table. It runs in slices of
//! [`SLICE_OPS`] operations, one every [`SLICE_EVERY`] issued accesses,
//! from the engine's per-access hook, so it samples the host throughout
//! the loop instead of beside it; the slices' time is taken out of the
//! loop's time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// Kernel operations per slice.
pub const SLICE_OPS: u64 = 2048;

/// Issued accesses between slices.
pub const SLICE_EVERY: u64 = 32_768;

/// Distinct keys the churn draws from.
const KEYS: u64 = 100_000;

/// Host nanoseconds per kernel operation, in slices, that count as a
/// slowdown of 1. A fixed scale: on the reference host (a 2-vCPU Xeon
/// virtual machine) slices ran at 190–320 ns per operation in slow
/// spells, when the kernel run on its own took about twice its quickest
/// time, so 110 ns puts normalised figures near that host's quickest
/// state.
pub const REFERENCE_NS_PER_OP: f64 = 110.0;

type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The calibration kernel's state across the slices of one loop.
pub struct Calibrator {
    table: Table,
    rng: u64,
    until_slice: u64,
    ops: u64,
    time: Duration,
}

impl Calibrator {
    /// Builds the kernel's table and touches all of it, so no slice pays
    /// for first-touch page faults.
    #[must_use]
    pub fn new() -> Self {
        let mut table = Table::with_capacity_and_hasher(1 << 17, BuildHasherDefault::default());
        for key in 0..KEYS {
            table.insert(key, 0);
        }
        table.clear();
        Calibrator {
            table,
            rng: 12_345,
            until_slice: SLICE_EVERY,
            ops: 0,
            time: Duration::ZERO,
        }
    }

    /// Counts one issued access, and runs a slice every [`SLICE_EVERY`].
    #[inline]
    pub fn tick(&mut self) {
        self.until_slice -= 1;
        if self.until_slice == 0 {
            self.until_slice = SLICE_EVERY;
            self.slice();
        }
    }

    #[cold]
    fn slice(&mut self) {
        let mut x = self.rng;
        let t = Instant::now();
        for _ in 0..SLICE_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KEYS;
            match self.table.get_mut(&key) {
                Some(v) if *v >= 3 => {
                    self.table.remove(&key);
                }
                Some(v) => *v += 1,
                None => {
                    self.table.insert(key, 0);
                }
            }
        }
        self.time += t.elapsed();
        self.rng = x;
        self.ops += SLICE_OPS;
    }

    /// Host time spent in slices so far.
    #[must_use]
    pub fn time(&self) -> Duration {
        self.time
    }

    /// How many times slower than the reference state the slices ran; 1
    /// when none ran.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.ops == 0 {
            return 1.0;
        }
        self.time.as_secs_f64() * 1e9 / self.ops as f64 / REFERENCE_NS_PER_OP
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_run_every_slice_every_ticks_and_set_the_slowdown() {
        let mut c = Calibrator::new();
        assert_eq!(c.slowdown(), 1.0, "no slice yet");
        for _ in 0..SLICE_EVERY - 1 {
            c.tick();
        }
        assert_eq!(c.time(), Duration::ZERO);
        c.tick();
        assert_eq!(c.ops, SLICE_OPS);
        assert!(c.time() > Duration::ZERO);
        let expected = c.time().as_secs_f64() * 1e9 / SLICE_OPS as f64 / REFERENCE_NS_PER_OP;
        assert!((c.slowdown() - expected).abs() < 1e-12);
    }
}
