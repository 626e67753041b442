//! High-level simulation facade.

use bimodal_workloads::WorkloadMix;

use crate::antt::AnttReport;
use crate::config::SystemConfig;
use crate::engine::{Engine, EngineOptions};
use crate::prefetch::PrefetchMode;
use crate::report::RunReport;
use crate::scheme_kind::SchemeKind;

/// Errors from a simulation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run parameters are unusable (zero accesses, core mismatch...).
    InvalidRun(String),
    /// The forward-progress watchdog aborted a run that stopped
    /// completing accesses; the diagnostic snapshots the wedged state.
    Stalled(Box<crate::engine::StallDiagnostic>),
    /// A checkpoint could not be written, or a resume snapshot is
    /// unreadable, corrupt, or from a different experiment.
    Checkpoint(bimodal_ckpt::CkptError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidRun(msg) => write!(f, "invalid run: {msg}"),
            SimError::Stalled(d) => write!(f, "{d}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl From<Box<crate::engine::StallDiagnostic>> for SimError {
    fn from(d: Box<crate::engine::StallDiagnostic>) -> Self {
        SimError::Stalled(d)
    }
}

impl From<bimodal_ckpt::CkptError> for SimError {
    fn from(e: bimodal_ckpt::CkptError) -> Self {
        SimError::Checkpoint(e)
    }
}

impl From<crate::checkpoint::CkptRunError> for SimError {
    fn from(e: crate::checkpoint::CkptRunError) -> Self {
        match e {
            crate::checkpoint::CkptRunError::Invalid(msg) => SimError::InvalidRun(msg),
            crate::checkpoint::CkptRunError::Ckpt(e) => SimError::Checkpoint(e),
            crate::checkpoint::CkptRunError::Stall(d) => SimError::Stalled(d),
        }
    }
}

impl std::error::Error for SimError {}

/// One scheme on one system, ready to run workloads.
#[derive(Debug, Clone)]
pub struct Simulation {
    system: SystemConfig,
    kind: SchemeKind,
    prefetch: Option<(u32, PrefetchMode)>,
}

impl Simulation {
    /// Pairs a system configuration with a scheme.
    #[must_use]
    pub fn new(system: SystemConfig, kind: SchemeKind) -> Self {
        Simulation {
            system,
            kind,
            prefetch: None,
        }
    }

    /// Enables the next-N-lines prefetcher (Table VI).
    #[must_use]
    pub fn with_prefetch(mut self, n: u32, mode: PrefetchMode) -> Self {
        self.prefetch = Some((n, mode));
        self
    }

    /// The system configuration.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The scheme under test.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// The engine options [`Simulation::run_mix`] drives the run with.
    ///
    /// Public so external drivers (e.g. fault-injection campaigns) can
    /// reproduce the exact run and layer hooks or a watchdog on top.
    #[must_use]
    pub fn engine_options(&self, accesses_per_core: u64) -> EngineOptions {
        let mut o = EngineOptions {
            accesses_per_core,
            warmup_per_core: self.system.warmup_per_core,
            prefetch: None,
            mlp: self.system.mlp,
            llsc: None,
            watchdog: None,
        };
        if let Some((n, mode)) = self.prefetch {
            o = o.with_prefetch(n, mode);
        }
        o
    }

    /// Checks that a run of `accesses_per_core` accesses on `cores` cores
    /// can be built and driven: the access counts fit the engine's
    /// counters and the scheme accepts the cache capacity. The run
    /// methods call this before building anything.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unusable parameter.
    pub fn check(&self, accesses_per_core: u64, cores: usize) -> Result<(), String> {
        self.engine_options(accesses_per_core)
            .issue_per_core(cores)?;
        self.kind.check_capacity(self.system.cache_mb)
    }

    /// The adaptation epoch [`Simulation::build_scheme`] tunes the scheme
    /// with for a run of `accesses_per_core` accesses on `cores` cores.
    #[must_use]
    pub fn adapt_epoch(&self, accesses_per_core: u64, cores: u64) -> u64 {
        // Give the global mix controller ~10 adaptation epochs per run
        // (the paper's 1 M-access epoch assumes billion-instruction runs).
        let epoch = ((accesses_per_core + self.system.warmup_per_core) * cores / 10).max(1_000);
        epoch.min(1_000_000)
    }

    /// Builds the scheme exactly as [`Simulation::run_mix`] would for a
    /// run of `accesses_per_core` accesses on `cores` cores.
    #[must_use]
    pub fn build_scheme(
        &self,
        accesses_per_core: u64,
        cores: u64,
    ) -> Box<dyn bimodal_core::DramCacheScheme> {
        let bypass = matches!(self.prefetch, Some((_, PrefetchMode::Bypass)));
        self.kind.build_with(
            &self.system,
            bypass,
            Some(self.adapt_epoch(accesses_per_core, cores)),
        )
    }

    /// The per-core traces [`Simulation::run_mix`] would drive: the mix
    /// scaled to the system's footprint, seeded per core.
    #[must_use]
    pub fn traces_for(&self, mix: &WorkloadMix) -> Vec<bimodal_workloads::ProgramTrace> {
        mix.clone()
            .with_footprint_scale(self.system.footprint_scale)
            .programs()
            .iter()
            .enumerate()
            .map(|(core, p)| p.trace(self.system.seed, u32::try_from(core).expect("few cores")))
            .collect()
    }

    /// Runs `mix` for `accesses_per_core` measured accesses on each core.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRun`] if [`Simulation::check`] rejects
    /// the run.
    pub fn run_mix(
        &self,
        mix: &WorkloadMix,
        accesses_per_core: u64,
    ) -> Result<RunReport, SimError> {
        self.run_mix_observed(
            mix,
            accesses_per_core,
            &mut bimodal_obs::Observer::disabled(),
        )
    }

    /// Like [`Simulation::run_mix`], but records into `obs` (latency
    /// histograms, epoch time series, event trace, wall-clock profile).
    /// The observer is borrowed so the caller can export its event trace
    /// after reading the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRun`] if [`Simulation::check`] rejects
    /// the run.
    pub fn run_mix_observed(
        &self,
        mix: &WorkloadMix,
        accesses_per_core: u64,
        obs: &mut bimodal_obs::Observer,
    ) -> Result<RunReport, SimError> {
        self.check(accesses_per_core, mix.cores())
            .map_err(SimError::InvalidRun)?;
        let traces = self.traces_for(mix);
        let mut scheme = self.build_scheme(accesses_per_core, mix.cores() as u64);
        let mut mem = self.system.build_memory();
        Ok(
            Engine::new(self.engine_options(accesses_per_core)).run_observed(
                scheme.as_mut(),
                &mut mem,
                traces,
                obs,
            ),
        )
    }

    /// Like [`Simulation::run_mix_observed`], but crash-safe: writes a
    /// checkpoint of the full deterministic run state every `ckpt.every`
    /// accesses and/or resumes from the snapshot at `resume`. A resumed
    /// run's report is byte-identical to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRun`] if [`Simulation::check`] rejects
    /// the run,
    /// [`SimError::Checkpoint`] when a snapshot cannot be written or the
    /// resume file is unreadable, corrupt, or from a different experiment,
    /// and [`SimError::Stalled`] when an armed watchdog fires.
    pub fn run_mix_checkpointed(
        &self,
        mix: &WorkloadMix,
        accesses_per_core: u64,
        obs: &mut bimodal_obs::Observer,
        ckpt: Option<&crate::checkpoint::CheckpointSpec>,
        resume: Option<&std::path::Path>,
    ) -> Result<RunReport, SimError> {
        self.check(accesses_per_core, mix.cores())
            .map_err(SimError::InvalidRun)?;
        let snapshot = resume.map(crate::checkpoint::read_checkpoint).transpose()?;
        let traces = self.traces_for(mix);
        let mut scheme = self.build_scheme(accesses_per_core, mix.cores() as u64);
        let mut mem = self.system.build_memory();
        Engine::new(self.engine_options(accesses_per_core))
            .try_run_checkpointed(
                scheme.as_mut(),
                &mut mem,
                traces,
                obs,
                &mut crate::engine::NoopHook,
                ckpt,
                snapshot.as_ref(),
            )
            .map_err(SimError::from)
    }

    /// Runs each of `mix`'s programs standalone (alone on the machine) and
    /// combines the cycle counts into an ANTT report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRun`] if [`Simulation::check`] rejects
    /// the run.
    pub fn run_antt(
        &self,
        mix: &WorkloadMix,
        accesses_per_core: u64,
    ) -> Result<AnttReport, SimError> {
        self.run_antt_jobs(mix, accesses_per_core, 1)
    }

    /// [`Simulation::run_antt`] fanned over up to `jobs` worker threads.
    ///
    /// The multiprogrammed run and each program's standalone baseline are
    /// independent units (own scheme, own memory, own seeded traces), and
    /// the report is assembled in canonical (core) order, so the result
    /// is bit-identical to the serial path for any `jobs`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRun`] if [`Simulation::check`] rejects
    /// the run, or
    /// the first (in canonical order) error any unit produced.
    pub fn run_antt_jobs(
        &self,
        mix: &WorkloadMix,
        accesses_per_core: u64,
        jobs: usize,
    ) -> Result<AnttReport, SimError> {
        self.run_antt_jobs_with_progress(mix, accesses_per_core, jobs, None)
    }

    /// [`Simulation::run_antt_jobs`] with an optional fleet-progress
    /// aggregate: each unit attaches a sink heartbeat to an otherwise
    /// disabled observer, so `--heartbeat --jobs N` prints one merged
    /// fleet line instead of nothing. Progress reporting is passive —
    /// the report stays bit-identical to the serial path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRun`] if [`Simulation::check`] rejects
    /// the run, or
    /// the first (in canonical order) error any unit produced.
    pub fn run_antt_jobs_with_progress(
        &self,
        mix: &WorkloadMix,
        accesses_per_core: u64,
        jobs: usize,
        progress: Option<&std::sync::Arc<bimodal_exec::FleetProgress>>,
    ) -> Result<AnttReport, SimError> {
        self.check(accesses_per_core, mix.cores())
            .map_err(SimError::InvalidRun)?;
        enum Unit {
            Multi,
            Solo(Box<bimodal_workloads::ProgramTrace>),
        }
        enum Done {
            Multi(Box<RunReport>),
            Solo(u64),
        }
        let units: Vec<Unit> = std::iter::once(Unit::Multi)
            .chain(
                self.traces_for(mix)
                    .into_iter()
                    .map(|t| Unit::Solo(Box::new(t))),
            )
            .collect();
        // A unit's observer is disabled except for the optional sink
        // heartbeat, which only reports progress — never measurements —
        // so the fan-out stays bit-identical to the serial path.
        let unit_obs = |unit: usize| -> bimodal_obs::Observer {
            let mut obs = bimodal_obs::Observer::disabled();
            if let Some(fleet) = progress {
                obs.heartbeat = Some(bimodal_obs::Heartbeat::to_sink(
                    fleet.interval(),
                    std::sync::Arc::clone(fleet) as std::sync::Arc<dyn bimodal_obs::ProgressSink>,
                    unit,
                ));
            }
            obs
        };
        let results =
            bimodal_exec::map_indexed(jobs, units, |idx, unit| -> Result<Done, SimError> {
                let mut obs = unit_obs(idx);
                match unit {
                    Unit::Multi => self
                        .run_mix_observed(mix, accesses_per_core, &mut obs)
                        .map(|r| Done::Multi(Box::new(r))),
                    Unit::Solo(trace) => {
                        let mut scheme = self.build_scheme(accesses_per_core, 1);
                        let mut mem = self.system.build_memory();
                        let report = Engine::new(self.engine_options(accesses_per_core))
                            .run_observed(scheme.as_mut(), &mut mem, vec![*trace], &mut obs);
                        Ok(Done::Solo(report.core_cycles[0]))
                    }
                }
            });
        let mut mp = None;
        let mut standalone = Vec::with_capacity(results.len().saturating_sub(1));
        for done in results {
            match done? {
                Done::Multi(r) => mp = Some(r),
                Done::Solo(cycles) => standalone.push(cycles),
            }
        }
        let mp = mp.expect("the multiprogrammed unit always runs");
        Ok(AnttReport::from_cycles(
            mix.name(),
            self.kind.name(),
            &mp.core_cycles,
            &standalone,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_system() -> SystemConfig {
        SystemConfig::quad_core().with_cache_mb(4).with_warmup(200)
    }

    #[test]
    fn run_mix_produces_stats() {
        let mix = WorkloadMix::quad("Q1").expect("known");
        let r = Simulation::new(quick_system(), SchemeKind::BiModal)
            .run_mix(&mix, 500)
            .expect("runs");
        assert!(r.dram_cache_accesses() >= 2_000);
        assert!(r.scheme.hit_rate() > 0.0);
    }

    #[test]
    fn zero_accesses_is_an_error() {
        let mix = WorkloadMix::quad("Q1").expect("known");
        let e = Simulation::new(quick_system(), SchemeKind::Alloy).run_mix(&mix, 0);
        assert!(e.is_err());
    }

    #[test]
    fn antt_reports_slowdowns_above_one() {
        let mix = WorkloadMix::quad("Q2").expect("known");
        let r = Simulation::new(quick_system(), SchemeKind::BiModal)
            .run_antt(&mix, 300)
            .expect("runs");
        assert_eq!(r.slowdowns.len(), 4);
        // Sharing the machine cannot speed programs up (beyond noise).
        assert!(r.antt() > 0.8, "got {}", r.antt());
    }

    #[test]
    fn parallel_antt_is_bit_identical_to_serial() {
        let mix = WorkloadMix::quad("Q2").expect("known");
        let sim = Simulation::new(quick_system(), SchemeKind::BiModal);
        let serial = sim.run_antt(&mix, 300).expect("runs");
        let parallel = sim.run_antt_jobs(&mix, 300, 4).expect("runs");
        assert_eq!(serial.slowdowns, parallel.slowdowns);
        assert_eq!(serial.antt().to_bits(), parallel.antt().to_bits());
    }

    #[test]
    fn check_rejects_unrunnable_parameters_before_building() {
        let mix = WorkloadMix::quad("Q1").expect("known");
        let sim = |mb, kind| Simulation::new(quick_system().with_cache_mb(mb), kind);
        assert!(sim(4, SchemeKind::Alloy).check(500, 4).is_ok());
        assert!(sim(3, SchemeKind::Alloy).check(500, 4).is_ok());
        let overflow = sim(4, SchemeKind::Alloy).check(u64::MAX, 4).unwrap_err();
        assert!(overflow.contains("overflow"), "{overflow}");
        let zero = sim(0, SchemeKind::Alloy).check(500, 4).unwrap_err();
        assert!(zero.contains("positive"), "{zero}");
        let odd = sim(3, SchemeKind::BiModal).run_mix(&mix, 500).unwrap_err();
        assert!(
            matches!(&odd, SimError::InvalidRun(m) if m.contains("power-of-two")),
            "{odd}"
        );
    }

    #[test]
    fn error_display() {
        let e = SimError::InvalidRun("nope".into());
        assert!(e.to_string().contains("nope"));
    }
}
