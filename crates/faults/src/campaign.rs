//! Seeded fault campaigns: a clean reference run, a faulted run under
//! the injector, and a report classifying every injected corruption.

use bimodal_core::{AccessOutcome, DramCacheScheme};
use bimodal_dram::MemorySystem;
use bimodal_obs::{Json, Observer};
use bimodal_sim::{
    AccessContext, AnttReport, Engine, RunHook, RunReport, SchemeKind, Simulation, StallDiagnostic,
    SystemConfig, WatchdogConfig,
};
use bimodal_workloads::WorkloadMix;

use crate::injector::{FaultInjector, FaultRates, InjectionCounts, InjectionRecord};
use crate::shadow::ShadowChecker;

/// Errors from a campaign request.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The campaign parameters are unusable.
    Invalid(String),
    /// The forward-progress watchdog aborted one of the runs.
    Stalled(Box<StallDiagnostic>),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Invalid(msg) => write!(f, "invalid campaign: {msg}"),
            CampaignError::Stalled(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<Box<StallDiagnostic>> for CampaignError {
    fn from(d: Box<StallDiagnostic>) -> Self {
        CampaignError::Stalled(d)
    }
}

/// One campaign: scheme, workload, fault rates, and the resilience
/// mechanisms to arm.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The machine.
    pub system: SystemConfig,
    /// The organization under test: any of the Bi-Modal variants or the
    /// baseline organizations — every scheme exposes its own fault
    /// surface (metadata/tag store, locator hints, predictor state).
    pub kind: SchemeKind,
    /// The workload mix.
    pub mix: WorkloadMix,
    /// Measured accesses per core.
    pub accesses_per_core: u64,
    /// Campaign seed: drives the injection schedule only (the workload
    /// keeps the system's own seed).
    pub seed: u64,
    /// Per-access injection probabilities.
    pub rates: FaultRates,
    /// Restrict injection to this global-sequence window.
    pub window: Option<(u64, u64)>,
    /// Protect metadata entries with SECDED ECC (wider entries, wider
    /// tag reads, but every ledgered flip is detected).
    pub ecc: bool,
    /// Shadow-model comparison cadence in accesses (0 disables the
    /// checker).
    pub shadow_cadence: u64,
    /// Forward-progress watchdog; campaigns arm a default one so a
    /// wedged faulted run reports instead of spinning.
    pub watchdog: Option<WatchdogConfig>,
    /// Also compute ANTT for the clean and faulted runs (adds one
    /// standalone run per core).
    pub antt: bool,
}

impl CampaignConfig {
    /// A campaign with no faults, shadow checking every 256 accesses, a
    /// default watchdog, and no ANTT runs.
    #[must_use]
    pub fn new(system: SystemConfig, kind: SchemeKind, mix: WorkloadMix) -> Self {
        let seed = system.seed;
        CampaignConfig {
            system,
            kind,
            mix,
            accesses_per_core: 1_000,
            seed,
            rates: FaultRates::default(),
            window: None,
            ecc: false,
            shadow_cadence: 256,
            watchdog: Some(WatchdogConfig::default()),
            antt: false,
        }
    }

    /// Sets the measured access count per core.
    #[must_use]
    pub fn with_accesses(mut self, n: u64) -> Self {
        self.accesses_per_core = n;
        self
    }

    /// Sets the injection seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the injection rates.
    #[must_use]
    pub fn with_rates(mut self, rates: FaultRates) -> Self {
        self.rates = rates;
        self
    }

    /// Restricts injection to `[start, end)` global sequence numbers.
    #[must_use]
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self
    }

    /// Enables or disables metadata ECC.
    #[must_use]
    pub fn with_ecc(mut self, ecc: bool) -> Self {
        self.ecc = ecc;
        self
    }

    /// Sets the shadow cadence (0 disables the checker).
    #[must_use]
    pub fn with_shadow_cadence(mut self, cadence: u64) -> Self {
        self.shadow_cadence = cadence;
        self
    }

    /// Overrides (or, with `None`, disarms) the watchdog.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Option<WatchdogConfig>) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Enables the ANTT degradation measurement.
    #[must_use]
    pub fn with_antt(mut self, antt: bool) -> Self {
        self.antt = antt;
        self
    }

    /// Runs the campaign: one clean run, one faulted run (same scheme,
    /// same traces, same engine options), optional standalone runs for
    /// ANTT, and a final ledger flush classifying faults the workload
    /// never tripped over.
    ///
    /// `obs` records the faulted run (latency histograms, event trace
    /// with the fault lane, epoch series).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] when [`Simulation::check`] rejects the
    /// run;
    /// [`CampaignError::Stalled`] when the watchdog aborts a run.
    pub fn run(&self, obs: &mut Observer) -> Result<CampaignReport, CampaignError> {
        let sim = Simulation::new(self.system.clone(), self.kind);
        sim.check(self.accesses_per_core, self.mix.cores())
            .map_err(CampaignError::Invalid)?;
        if self.shadow_cadence > 0 && !self.system.cache_bytes().is_power_of_two() {
            // The functional shadow model indexes its sets with a mask.
            return Err(CampaignError::Invalid(format!(
                "the shadow checker needs a power-of-two capacity, not {} MB \
                 (a shadow cadence of 0 turns it off)",
                self.system.cache_mb
            )));
        }
        let cores = self.mix.cores() as u64;
        let mut options = sim.engine_options(self.accesses_per_core);
        if let Some(wd) = self.watchdog {
            options = options.with_watchdog(wd);
        }
        let engine = Engine::new(options);

        // Clean reference run (same configuration, ECC included, so the
        // degradation numbers isolate the faults).
        let mut clean_shadow = self.shadow();
        let mut scheme = self.build_scheme(&sim, cores);
        let mut mem = self.system.build_memory();
        let mut hook = CampaignHook {
            injector: None,
            shadow: clean_shadow.as_mut(),
        };
        let clean = engine.try_run(
            scheme.as_mut(),
            &mut mem,
            sim.traces_for(&self.mix),
            &mut Observer::disabled(),
            &mut hook,
        )?;
        let clean_digest = digest(scheme.as_mut());

        // Faulted run.
        let mut injector = FaultInjector::new(self.seed, self.rates, self.window);
        let mut faulted_shadow = self.shadow();
        let mut scheme = self.build_scheme(&sim, cores);
        let mut mem = self.system.build_memory();
        let mut hook = CampaignHook {
            injector: Some(&mut injector),
            shadow: faulted_shadow.as_mut(),
        };
        let faulted = engine.try_run(
            scheme.as_mut(),
            &mut mem,
            sim.traces_for(&self.mix),
            obs,
            &mut hook,
        )?;
        // Ledgered flips the workload never tripped over: scrub them now
        // so every injected fault ends up classified.
        let (flushed_corrected, flushed_uncorrected) = scheme
            .fault_target()
            .map_or((0, 0), bimodal_core::FaultTarget::flush_faults);
        let faulted_digest = digest(scheme.as_mut());

        let (clean_antt, faulted_antt) = if self.antt {
            let standalone = self.standalone_cycles(&sim)?;
            let antt_of = |mp: &RunReport| {
                AnttReport::from_cycles(
                    self.mix.name(),
                    self.kind.name(),
                    &mp.core_cycles,
                    &standalone,
                )
                .antt()
            };
            (Some(antt_of(&clean)), Some(antt_of(&faulted)))
        } else {
            (None, None)
        };

        let counts = injector.counts();
        Ok(CampaignReport {
            scheme: self.kind.name().to_owned(),
            mix: self.mix.name().to_owned(),
            seed: self.seed,
            accesses_per_core: self.accesses_per_core,
            ecc: self.ecc,
            counts,
            schedule: injector.schedule().to_vec(),
            detected_corrected: faulted.scheme.ecc_corrected
                + faulted.scheme.locator_heals
                + flushed_corrected,
            detected_uncorrected: faulted.scheme.ecc_detected_uncorrected + flushed_uncorrected,
            silent_corruptions: counts.metadata_applied,
            shadow: match (clean_shadow, faulted_shadow) {
                (Some(c), Some(f)) => Some(ShadowOutcome {
                    clean_violations: c.violations(),
                    faulted_violations: f.violations(),
                    checks: f.checks(),
                    max_drift: f.max_drift(),
                    shadow_hit_rate: f.shadow_hit_rate(),
                }),
                _ => None,
            },
            clean_digest,
            faulted_digest,
            clean,
            faulted,
            clean_antt,
            faulted_antt,
        })
    }

    fn shadow(&self) -> Option<ShadowChecker> {
        (self.shadow_cadence > 0).then(|| {
            let (config, region_bits) = self.kind.shadow_model(self.system.cache_bytes());
            ShadowChecker::with_model(config, region_bits, self.shadow_cadence)
        })
    }

    fn build_scheme(&self, sim: &Simulation, cores: u64) -> Box<dyn DramCacheScheme> {
        self.kind.build_resilient(
            &self.system,
            Some(sim.adapt_epoch(self.accesses_per_core, cores)),
            self.ecc,
        )
    }

    /// One clean single-core run per program, for the ANTT denominators.
    fn standalone_cycles(&self, sim: &Simulation) -> Result<Vec<u64>, CampaignError> {
        let mut options = sim.engine_options(self.accesses_per_core);
        if let Some(wd) = self.watchdog {
            options = options.with_watchdog(wd);
        }
        let engine = Engine::new(options);
        let mut cycles = Vec::with_capacity(self.mix.cores());
        for trace in sim.traces_for(&self.mix) {
            let mut scheme = self.build_scheme(sim, 1);
            let mut mem = self.system.build_memory();
            let report = engine.try_run(
                scheme.as_mut(),
                &mut mem,
                vec![trace],
                &mut Observer::disabled(),
                &mut CampaignHook {
                    injector: None,
                    shadow: None,
                },
            )?;
            cycles.push(report.core_cycles[0]);
        }
        Ok(cycles)
    }
}

/// FNV-1a digest of the cache's functional contents, `None` when the
/// scheme exposes no fault surface.
fn digest(scheme: &mut dyn DramCacheScheme) -> Option<u64> {
    scheme.fault_target().map(|ft| ft.contents_digest())
}

/// The engine hook wiring the injector (before each access) and the
/// shadow checker (after each outcome) into a run.
struct CampaignHook<'a> {
    injector: Option<&'a mut FaultInjector>,
    shadow: Option<&'a mut ShadowChecker>,
}

impl RunHook for CampaignHook<'_> {
    fn on_access(
        &mut self,
        ctx: AccessContext,
        scheme: &mut dyn DramCacheScheme,
        mem: &mut MemorySystem,
        obs: &mut Observer,
    ) {
        if let Some(inj) = self.injector.as_deref_mut() {
            inj.maybe_inject(ctx, scheme, mem, obs);
        }
    }

    fn on_outcome(&mut self, ctx: AccessContext, outcome: &AccessOutcome, _obs: &mut Observer) {
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.observe(ctx.addr, outcome.hit, ctx.warmed_up);
        }
    }
}

/// Shadow-checker outcome for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowOutcome {
    /// Impossible hits in the clean run (must be zero — anything else is
    /// a checker or model bug, not a fault).
    pub clean_violations: u64,
    /// Impossible hits in the faulted run: silent corruptions the
    /// workload tripped over.
    pub faulted_violations: u64,
    /// Cadence comparisons performed on the faulted run.
    pub checks: u64,
    /// Largest timed-vs-shadow hit-rate divergence at any check.
    pub max_drift: f64,
    /// The shadow model's hit rate over the faulted measured stream.
    pub shadow_hit_rate: f64,
}

/// Everything a campaign measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Scheme name.
    pub scheme: String,
    /// Mix name.
    pub mix: String,
    /// Injection seed.
    pub seed: u64,
    /// Measured accesses per core.
    pub accesses_per_core: u64,
    /// Whether metadata ECC was armed.
    pub ecc: bool,
    /// Landed injections by kind.
    pub counts: InjectionCounts,
    /// Every injection attempt, in issue order.
    pub schedule: Vec<InjectionRecord>,
    /// Corruptions detected and repaired: ECC single-bit corrections
    /// plus way-locator self-heals (including the end-of-run ledger
    /// flush).
    pub detected_corrected: u64,
    /// Corruptions detected but not correctable (multi-bit ECC hits;
    /// the way is dropped, dirty data written back).
    pub detected_uncorrected: u64,
    /// Corruptions no mechanism saw: metadata flips applied raw because
    /// ECC was off. Structurally zero when ECC is armed.
    pub silent_corruptions: u64,
    /// Shadow-checker outcome, when the checker ran.
    pub shadow: Option<ShadowOutcome>,
    /// Functional-contents digest after the clean run.
    pub clean_digest: Option<u64>,
    /// Functional-contents digest after the faulted run (post-flush).
    pub faulted_digest: Option<u64>,
    /// The clean run's full report.
    pub clean: RunReport,
    /// The faulted run's full report.
    pub faulted: RunReport,
    /// Clean-run ANTT, when measured.
    pub clean_antt: Option<f64>,
    /// Faulted-run ANTT, when measured.
    pub faulted_antt: Option<f64>,
}

impl CampaignReport {
    /// Hit-rate lost to the faults (clean minus faulted).
    #[must_use]
    pub fn hit_rate_degradation(&self) -> f64 {
        self.clean.scheme.hit_rate() - self.faulted.scheme.hit_rate()
    }

    /// Average-latency cycles added by the faults (faulted minus clean).
    #[must_use]
    pub fn latency_degradation(&self) -> f64 {
        self.faulted.avg_latency() - self.clean.avg_latency()
    }

    /// ANTT added by the faults, when ANTT was measured.
    #[must_use]
    pub fn antt_degradation(&self) -> Option<f64> {
        Some(self.faulted_antt? - self.clean_antt?)
    }

    /// Serializes the campaign report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut injected = Json::object();
        injected
            .set("metadata", self.counts.metadata)
            .set("metadata_multi", self.counts.metadata_multi)
            .set("locator", self.counts.locator)
            .set("predictor", self.counts.predictor)
            .set("dram", self.counts.dram)
            .set("metadata_applied", self.counts.metadata_applied)
            .set("total", self.counts.total());
        let run = |r: &RunReport, antt: Option<f64>| {
            let mut o = Json::object();
            o.set("hit_rate", r.scheme.hit_rate())
                .set("avg_latency", r.avg_latency())
                .set("mean_core_cycles", r.mean_core_cycles())
                .set("locator_heals", r.scheme.locator_heals)
                .set("ecc_corrected", r.scheme.ecc_corrected)
                .set(
                    "ecc_detected_uncorrected",
                    r.scheme.ecc_detected_uncorrected,
                )
                .set("antt", antt);
            o
        };
        let mut degradation = Json::object();
        degradation
            .set("hit_rate", self.hit_rate_degradation())
            .set("avg_latency", self.latency_degradation())
            .set("antt", self.antt_degradation());
        let mut o = Json::object();
        o.set("scheme", self.scheme.as_str())
            .set("mix", self.mix.as_str())
            .set("seed", self.seed)
            .set("accesses_per_core", self.accesses_per_core)
            .set("ecc", self.ecc)
            .set("injected", injected)
            .set("injections", self.schedule.len())
            .set("detected_corrected", self.detected_corrected)
            .set("detected_uncorrected", self.detected_uncorrected)
            .set("silent_corruptions", self.silent_corruptions)
            .set(
                "shadow",
                self.shadow.as_ref().map(|s| {
                    let mut sh = Json::object();
                    sh.set("clean_violations", s.clean_violations)
                        .set("faulted_violations", s.faulted_violations)
                        .set("checks", s.checks)
                        .set("max_hit_rate_drift", s.max_drift)
                        .set("shadow_hit_rate", s.shadow_hit_rate);
                    sh
                }),
            )
            .set("clean_digest", self.clean_digest)
            .set("faulted_digest", self.faulted_digest)
            .set("clean", run(&self.clean, self.clean_antt))
            .set("faulted", run(&self.faulted, self.faulted_antt))
            .set("degradation", degradation);
        o
    }
}
