//! Crash-safe checkpoint/resume for timed runs.
//!
//! The engine's loop state is a pure function of the experiment
//! configuration and the accesses issued so far, so a run can be frozen
//! mid-flight and resumed into a byte-identical continuation: the
//! checkpoint captures every piece of mutable state (trace cursors, PRNG
//! streams, cache contents, predictors, DRAM timing, deferred queues,
//! observability accumulators) while everything config-derived (geometry,
//! layouts, address maps) is rebuilt fresh at resume.
//!
//! Checkpoints use the versioned, per-section-checksummed
//! `bimodal-ckpt-v1` container ([`bimodal_ckpt::CkptFile`]); writes are
//! double-buffered (previous file kept as `.prev`) and atomic
//! (temp + rename), so a crash mid-write never destroys the last good
//! snapshot.

use std::path::{Path, PathBuf};

use bimodal_ckpt::{CkptError, CkptFile};

use crate::engine::StallDiagnostic;

/// Section names of an engine checkpoint, shared by writer and reader.
pub(crate) mod section {
    /// Run fingerprint (options, scheme, core count).
    pub const META: &str = "meta";
    /// Engine loop scalars and per-core issue state.
    pub const ENGINE: &str = "engine";
    /// Per-core trace generator cursors and PRNG streams.
    pub const TRACES: &str = "traces";
    /// Scheme (cache organization) state.
    pub const SCHEME: &str = "scheme";
    /// Memory system (both DRAM modules, deferred queue).
    pub const MEM: &str = "mem";
    /// Observer accumulators (histograms, epochs, bandwidth series).
    pub const OBS: &str = "obs";
    /// LLSC front-end and prefetcher state.
    pub const FRONTEND: &str = "frontend";
}

/// Where and how often a run writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file path; the previous snapshot is kept at
    /// `<path>.prev`.
    pub path: PathBuf,
    /// Write a checkpoint every `every` globally issued accesses.
    pub every: u64,
}

impl CheckpointSpec {
    /// Creates a spec, validating the cadence.
    ///
    /// # Errors
    ///
    /// Returns an error when `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Result<Self, CkptError> {
        if every == 0 {
            return Err(CkptError::Mismatch {
                detail: "checkpoint cadence must be positive".into(),
            });
        }
        Ok(CheckpointSpec {
            path: path.into(),
            every,
        })
    }
}

/// Error from a checkpointed run: either the simulation itself failed
/// (watchdog) or the checkpoint machinery did (I/O, corruption,
/// configuration mismatch).
#[derive(Debug)]
pub enum CkptRunError {
    /// The run parameters are unusable (zero accesses, or access counts
    /// that overflow the engine's counters).
    Invalid(String),
    /// Checkpoint could not be written, read or applied.
    Ckpt(CkptError),
    /// The forward-progress watchdog aborted the run.
    Stall(Box<StallDiagnostic>),
}

impl std::fmt::Display for CkptRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptRunError::Invalid(msg) => write!(f, "invalid run: {msg}"),
            CkptRunError::Ckpt(e) => write!(f, "checkpoint error: {e}"),
            CkptRunError::Stall(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for CkptRunError {}

impl From<CkptError> for CkptRunError {
    fn from(e: CkptError) -> Self {
        CkptRunError::Ckpt(e)
    }
}

impl From<Box<StallDiagnostic>> for CkptRunError {
    fn from(d: Box<StallDiagnostic>) -> Self {
        CkptRunError::Stall(d)
    }
}

/// Reads a checkpoint file for resumption.
///
/// # Errors
///
/// Propagates I/O and container-format errors ([`CkptError`]).
pub fn read_checkpoint(path: &Path) -> Result<CkptFile, CkptError> {
    CkptFile::read(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cadence_is_rejected() {
        assert!(CheckpointSpec::new("x.ckpt", 0).is_err());
        assert!(CheckpointSpec::new("x.ckpt", 1000).is_ok());
    }

    #[test]
    fn error_display_covers_both_arms() {
        let e = CkptRunError::from(CkptError::BadMagic);
        assert!(e.to_string().contains("checkpoint"));
    }
}
