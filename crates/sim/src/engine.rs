//! The multi-core trace interleaving engine.
//!
//! Each core models an out-of-order processor's memory-level parallelism:
//! it issues LLSC misses paced by the trace's compute gaps, with up to
//! `mlp` requests outstanding (the paper's cores are OOO Alpha with large
//! MSHR files). When all `mlp` slots are busy the core stalls until the
//! oldest request returns. Cores interleave in global time order, so bank
//! conflicts, bus contention and queueing emerge in the shared memory
//! system. After all cores pass warm-up, statistics reset and each core's
//! measured-portion completion time is recorded; cores keep running (and
//! keep generating contention) until every core finishes its measured
//! accesses, mirroring the paper's methodology.

use bimodal_ckpt::{CkptError, CkptFile, SnapshotWriter};
use bimodal_core::{AccessKind, AccessOutcome, CacheAccess, DramCacheScheme, SchemeStats};
use bimodal_dram::{Cycle, DramStats, MemorySystem};
use bimodal_obs::anatomy::{self, FlightEntry, FlightRecorder, Journey};
use bimodal_obs::span::{self, SpanId};
use bimodal_obs::{
    Counters, EventKind, MemoryBandwidth, Observer, RequestClass, SpanProfile, TraceEvent,
};
use bimodal_workloads::ProgramTrace;

use crate::checkpoint::{section, CheckpointSpec, CkptRunError};
use crate::llsc::{LlscCache, LlscConfig};
use crate::prefetch::{NextNPrefetcher, PrefetchMode};
use crate::report::RunReport;

/// Knobs of a timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Measured accesses per core.
    pub accesses_per_core: u64,
    /// Warm-up accesses per core (excluded from statistics).
    pub warmup_per_core: u64,
    /// Optional next-N-lines prefetcher between the LLSC and the cache.
    pub prefetch: Option<(u32, PrefetchMode)>,
    /// Outstanding misses per core (memory-level parallelism).
    pub mlp: u32,
    /// Optional LLSC front-end: traces are treated as raw reference
    /// streams and filtered through this SRAM cache; only its misses (and
    /// dirty writebacks) reach the DRAM cache. `None` (default) treats
    /// traces as LLSC-miss streams, the generators' native meaning.
    pub llsc: Option<LlscConfig>,
    /// Optional forward-progress watchdog: when the completion frontier
    /// stops advancing, [`Engine::try_run`] returns a structured
    /// [`StallDiagnostic`] instead of looping forever.
    pub watchdog: Option<WatchdogConfig>,
}

impl EngineOptions {
    /// A run of `n` measured accesses per core with default warm-up and
    /// a blocking core (MLP 1), matching [`crate::SystemConfig`]'s default.
    #[must_use]
    pub fn measured(n: u64) -> Self {
        EngineOptions {
            accesses_per_core: n,
            warmup_per_core: n / 5,
            prefetch: None,
            mlp: 1,
            llsc: None,
            watchdog: None,
        }
    }

    /// Treats traces as raw reference streams filtered through an LLSC.
    #[must_use]
    pub fn with_llsc(mut self, config: LlscConfig) -> Self {
        self.llsc = Some(config);
        self
    }

    /// Overrides the per-core memory-level parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `mlp` is zero.
    #[must_use]
    pub fn with_mlp(mut self, mlp: u32) -> Self {
        assert!(mlp > 0, "MLP must be at least 1");
        self.mlp = mlp;
        self
    }

    /// Adds a prefetcher.
    #[must_use]
    pub fn with_prefetch(mut self, n: u32, mode: PrefetchMode) -> Self {
        self.prefetch = Some((n, mode));
        self
    }

    /// Overrides the warm-up length.
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup_per_core = warmup;
        self
    }

    /// Arms the forward-progress watchdog.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Accesses each of `cores` cores issues (warm-up plus measured),
    /// checked against the engine's `u64` counters.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the measured count is
    /// zero, or when the per-core or all-core issue count overflows.
    pub fn issue_per_core(&self, cores: usize) -> Result<u64, String> {
        if self.accesses_per_core == 0 {
            return Err("accesses_per_core must be positive".into());
        }
        self.warmup_per_core
            .checked_add(self.accesses_per_core)
            .filter(|per_core| per_core.checked_mul(cores as u64).is_some())
            .ok_or_else(|| {
                format!(
                    "{} warm-up plus {} measured accesses on each of {cores} core(s) \
                     overflow the access counters",
                    self.warmup_per_core, self.accesses_per_core
                )
            })
    }
}

/// Forward-progress watchdog limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Simulated cycles the run may advance without the global completion
    /// frontier moving before it aborts.
    pub stall_cycles: Cycle,
    /// Engine iterations without frontier progress before the run aborts —
    /// the second trigger catches a wedged controller whose clock is
    /// frozen too (completions pinned at cycle 0 never advance `now`).
    pub stall_iterations: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Far beyond anything a healthy run produces: the frontier
        // normally advances every few iterations.
        WatchdogConfig {
            stall_cycles: 10_000_000,
            stall_iterations: 1_000_000,
        }
    }
}

/// One core's state at the moment the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Core index.
    pub core: u32,
    /// Accesses issued so far (warm-up included).
    pub issued: u64,
    /// Cycle the core would issue its next access at.
    pub next_issue: Cycle,
    /// Requests still outstanding (occupied MLP slots).
    pub inflight: usize,
    /// The core's retirement frontier.
    pub frontier: Cycle,
}

/// Structured diagnostic returned by [`Engine::try_run`] when the
/// forward-progress watchdog fires: the simulation stopped retiring work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostic {
    /// Cycle at which the watchdog fired.
    pub now: Cycle,
    /// The global completion frontier that stopped advancing.
    pub frontier: Cycle,
    /// Cycle at which the frontier last advanced.
    pub last_progress: Cycle,
    /// Engine iterations executed since the frontier last advanced.
    pub stalled_iterations: u64,
    /// Per-core queue/issue snapshots.
    pub cores: Vec<CoreSnapshot>,
    /// Background DRAM operations still queued in the memory system.
    pub deferred_pending: usize,
    /// The last access issued before the abort: `(core, addr, is_write)`.
    pub last_access: Option<(u32, u64, bool)>,
    /// Flight-recorder contents: the last accesses issued before the
    /// abort, oldest first.
    pub recent: Vec<FlightEntry>,
}

impl std::fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation stalled at cycle {}: completion frontier stuck at {} \
             since cycle {} ({} iterations); {} deferred ops pending",
            self.now,
            self.frontier,
            self.last_progress,
            self.stalled_iterations,
            self.deferred_pending
        )?;
        for c in &self.cores {
            write!(
                f,
                "; core {}: issued {}, next issue {}, {} inflight, frontier {}",
                c.core, c.issued, c.next_issue, c.inflight, c.frontier
            )?;
        }
        if let Some((core, addr, is_write)) = self.last_access {
            write!(
                f,
                "; last access: core {} {} {:#x}",
                core,
                if is_write { "write" } else { "read" },
                addr
            )?;
        }
        if !self.recent.is_empty() {
            writeln!(f, "\nlast {} accesses before the stall:", self.recent.len())?;
            for e in &self.recent {
                writeln!(
                    f,
                    "  seq {:>8} core {} {} {:#014x} issue {:>10} complete {:>10} {}",
                    e.seq,
                    e.core,
                    if e.is_write { "write" } else { "read " },
                    e.addr,
                    e.at,
                    e.complete,
                    if e.hit { "hit" } else { "miss" },
                )?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for StallDiagnostic {}

/// Where and when a demand access is issued, as seen by a [`RunHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessContext {
    /// Global issue sequence number (warm-up included).
    pub seq: u64,
    /// Issuing core.
    pub core: u32,
    /// Issue cycle.
    pub now: Cycle,
    /// Physical byte address.
    pub addr: u64,
    /// Whether the trace access is a write.
    pub is_write: bool,
    /// True once every core passed warm-up (statistics are live).
    pub warmed_up: bool,
}

/// Observation/intervention points the engine exposes around each demand
/// access (prefetches and LLSC writebacks are not hooked). Resilience
/// campaigns use these to inject faults and cross-check a shadow model;
/// the default bodies do nothing, so a hook only pays for what it uses.
pub trait RunHook {
    /// Called before the access is issued to the scheme.
    fn on_access(
        &mut self,
        ctx: AccessContext,
        scheme: &mut dyn DramCacheScheme,
        mem: &mut MemorySystem,
        obs: &mut Observer,
    ) {
        let _ = (ctx, scheme, mem, obs);
    }

    /// Called after the scheme serviced the access.
    fn on_outcome(&mut self, ctx: AccessContext, outcome: &AccessOutcome, obs: &mut Observer) {
        let _ = (ctx, outcome, obs);
    }
}

/// The do-nothing hook plain runs use.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl RunHook for NoopHook {}

struct CoreState {
    trace: ProgramTrace,
    next_issue: Cycle,
    issued: u64,
    /// Completion times of requests currently in flight (<= mlp).
    inflight: Vec<Cycle>,
    /// Latest completion seen (retirement frontier).
    frontier: Cycle,
    start_at: Option<Cycle>,
    finished_at: Option<Cycle>,
}

/// Drives one scheme over one set of per-core traces.
#[derive(Debug)]
pub struct Engine {
    options: EngineOptions,
}

impl Engine {
    /// Creates an engine.
    #[must_use]
    pub fn new(options: EngineOptions) -> Self {
        Engine { options }
    }

    /// Runs the simulation to completion without observability.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the measured access count is zero.
    pub fn run(
        &self,
        scheme: &mut dyn DramCacheScheme,
        mem: &mut MemorySystem,
        traces: Vec<ProgramTrace>,
    ) -> RunReport {
        self.run_observed(scheme, mem, traces, &mut Observer::disabled())
    }

    /// Runs the simulation to completion, recording into `obs`.
    ///
    /// With a disabled observer every instrumentation site reduces to one
    /// predictable branch, so `run` pays nothing for the plumbing. The
    /// observer is borrowed (not consumed) so the caller can still export
    /// its event trace after reading the report.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty, the measured access count is zero, or
    /// an armed watchdog fires (plain runs want the loud failure; use
    /// [`Engine::try_run`] to handle the diagnostic).
    pub fn run_observed(
        &self,
        scheme: &mut dyn DramCacheScheme,
        mem: &mut MemorySystem,
        traces: Vec<ProgramTrace>,
        obs: &mut Observer,
    ) -> RunReport {
        self.try_run(scheme, mem, traces, obs, &mut NoopHook)
            .unwrap_or_else(|d| panic!("{d}"))
    }

    /// Runs the simulation with a [`RunHook`] around every demand access
    /// and, when armed, a forward-progress watchdog.
    ///
    /// With [`NoopHook`] and no watchdog this is exactly
    /// [`Engine::run_observed`] — the hook points compile to empty calls,
    /// so resilience plumbing costs plain runs nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] when the watchdog detects that the
    /// completion frontier stopped advancing (a wedged controller would
    /// otherwise spin this loop forever).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty, or the access counts are unusable
    /// (see [`EngineOptions::issue_per_core`]).
    pub fn try_run(
        &self,
        scheme: &mut dyn DramCacheScheme,
        mem: &mut MemorySystem,
        traces: Vec<ProgramTrace>,
        obs: &mut Observer,
        hook: &mut dyn RunHook,
    ) -> Result<RunReport, Box<StallDiagnostic>> {
        match self.run_loop(scheme, mem, traces, obs, hook, None, None) {
            Ok(report) => Ok(report),
            Err(CkptRunError::Stall(d)) => Err(d),
            Err(CkptRunError::Invalid(msg)) => panic!("invalid run: {msg}"),
            Err(CkptRunError::Ckpt(e)) => {
                unreachable!("checkpoint error without checkpointing requested: {e}")
            }
        }
    }

    /// [`Engine::try_run`] with crash-safety: when `ckpt` is set, a
    /// [`bimodal_ckpt`] snapshot of the full deterministic state is
    /// written every `ckpt.every` issued accesses (atomically, keeping the
    /// previous snapshot as `.prev`); when `resume` is set, the run picks
    /// up from that snapshot and produces a report byte-identical to an
    /// uninterrupted run's.
    ///
    /// The checkpoint fingerprints the experiment (options, scheme, core
    /// count, observability), so resuming under a different configuration
    /// fails with [`CkptError::Mismatch`] instead of silently diverging.
    /// Span profiling and event tracing are rejected alongside
    /// checkpointing — their buffers are not serialized, so a resumed run
    /// could not reproduce them.
    ///
    /// # Errors
    ///
    /// [`CkptRunError::Invalid`] when the access counts are unusable (see
    /// [`EngineOptions::issue_per_core`]);
    /// [`CkptRunError::Stall`] when an armed watchdog fires;
    /// [`CkptRunError::Ckpt`] when a checkpoint cannot be written or the
    /// resume snapshot is corrupt or mismatched.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn try_run_checkpointed(
        &self,
        scheme: &mut dyn DramCacheScheme,
        mem: &mut MemorySystem,
        traces: Vec<ProgramTrace>,
        obs: &mut Observer,
        hook: &mut dyn RunHook,
        ckpt: Option<&CheckpointSpec>,
        resume: Option<&CkptFile>,
    ) -> Result<RunReport, CkptRunError> {
        self.run_loop(scheme, mem, traces, obs, hook, ckpt, resume)
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)] // the engine's central loop
    fn run_loop(
        &self,
        scheme: &mut dyn DramCacheScheme,
        mem: &mut MemorySystem,
        traces: Vec<ProgramTrace>,
        obs: &mut Observer,
        hook: &mut dyn RunHook,
        ckpt: Option<&CheckpointSpec>,
        resume: Option<&CkptFile>,
    ) -> Result<RunReport, CkptRunError> {
        assert!(!traces.is_empty(), "need at least one core trace");
        let target = self
            .options
            .issue_per_core(traces.len())
            .map_err(CkptRunError::Invalid)?;
        if (ckpt.is_some() || resume.is_some())
            && obs.is_enabled()
            && (obs.spans || obs.trace.is_some() || obs.journeys.is_some())
        {
            return Err(CkptError::Mismatch {
                detail: "checkpointing is incompatible with span profiling, event \
                         tracing and journey sampling: their buffers are not \
                         serialized, so a resumed run could not reproduce them \
                         (anatomy accumulators alone checkpoint fine)"
                    .into(),
            }
            .into());
        }
        let warmup = self.options.warmup_per_core;

        // Span profiling is per-thread state: the engine owns begin/end so
        // component-level spans (locator, tag read, fills...) recorded deep
        // inside the scheme land in this run's profile.
        let profiling = obs.is_enabled() && obs.spans;
        if profiling {
            span::begin_run();
        }

        // Anatomy attribution is likewise per-thread state: the engine
        // brackets the run so component charges recorded deep inside the
        // schemes land in this run's accumulators. The guard re-disables
        // the thread-local gate on every exit path, including panics.
        struct AnatomyGuard;
        impl Drop for AnatomyGuard {
            fn drop(&mut self) {
                anatomy::end_thread();
            }
        }
        let anatomy_on = obs.is_enabled() && obs.anatomy.is_some();
        let _anatomy_guard = anatomy_on.then(|| {
            anatomy::begin_thread();
            AnatomyGuard
        });

        // Always-on bounded flight recorder: a constant-memory ring of
        // the last accesses, dumped to stderr if the run panics and
        // attached to the watchdog's stall diagnostic.
        struct FlightGuard(FlightRecorder);
        impl Drop for FlightGuard {
            fn drop(&mut self) {
                if std::thread::panicking() && self.0.seen() > 0 {
                    eprintln!("{}", self.0.dump());
                }
            }
        }
        let mut flight = FlightGuard(FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY));

        if obs.is_enabled() {
            // The per-set heatmap allocates per touched row, so it is
            // opt-in with the rest of the observability layer; the flat
            // per-class counters are always on (plain adds).
            mem.cache_dram.enable_heatmap();
        }

        let mut prefetcher = self
            .options
            .prefetch
            .map(|(n, mode)| NextNPrefetcher::new(n, mode, 64 * 1024));
        let mut llsc = self.options.llsc.map(LlscCache::new);

        let mlp = self.options.mlp as usize;
        let mut cores: Vec<CoreState> = traces
            .into_iter()
            .map(|trace| CoreState {
                trace,
                next_issue: 0,
                issued: 0,
                inflight: Vec::with_capacity(mlp),
                frontier: 0,
                start_at: None,
                finished_at: None,
            })
            .collect();
        let mut stats_reset = warmup == 0;
        if stats_reset {
            for c in &mut cores {
                c.start_at = Some(0);
            }
        }

        // Heartbeat progress denominators, and the offset that keeps the
        // epoch series' cumulative counters monotone across the warm-up
        // stats reset.
        let issue_target = target * cores.len() as u64;
        let mut issued_total: u64 = 0;
        let mut epoch_base = Counters::default();

        // Forward-progress watchdog state: the global completion frontier
        // and when (in cycles and iterations) it last advanced.
        let mut wd_frontier: Cycle = 0;
        let mut wd_last_progress: Cycle = 0;
        let mut wd_stalled_iters: u64 = 0;

        // The fingerprint ties a snapshot to the exact experiment whose
        // state it froze: same knobs, same scheme, same core count, same
        // observability (a heatmap-enabled module serializes differently),
        // same memory-substrate backend (a resumed run must replay on the
        // timing model that produced the frozen bank/bus state).
        let fingerprint = format!(
            "{:?}|{}|{}|{}|{}",
            self.options,
            scheme.name(),
            cores.len(),
            obs.is_enabled(),
            mem.backend().name()
        );
        if let Some(file) = resume {
            let v = restore_run(
                file,
                &fingerprint,
                &mut cores,
                scheme,
                mem,
                obs,
                prefetcher.as_mut(),
                llsc.as_mut(),
                mlp,
            )?;
            stats_reset = v.stats_reset;
            issued_total = v.issued_total;
            epoch_base = v.epoch_base;
            wd_frontier = v.wd_frontier;
            wd_last_progress = v.wd_last_progress;
            wd_stalled_iters = v.wd_stalled_iters;
        }

        // Reused across iterations so the prefetch path allocates once
        // per run, not once per access.
        let mut pf_lines: Vec<u64> = Vec::new();

        while cores.iter().any(|c| c.finished_at.is_none()) {
            // Next core to issue: earliest next_issue; ties by index.
            // Finished cores keep issuing (they still contend) until every
            // core completes its measured portion.
            let (idx, _) = cores
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (c.next_issue, *i))
                .expect("at least one active core");
            let now = cores[idx].next_issue;
            let access = {
                let _g = span::enter(SpanId::TraceDecode);
                cores[idx].trace.next().expect("traces are endless")
            };
            let kind = if access.is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let ctx = AccessContext {
                seq: issued_total,
                core: u32::try_from(idx).expect("few cores"),
                now,
                addr: access.addr,
                is_write: access.is_write,
                warmed_up: stats_reset,
            };
            hook.on_access(ctx, scheme, mem, obs);
            // Sampled tracing snapshots the (O(1)) counters around the
            // access and diffs them afterwards, deriving fill / eviction /
            // predictor / way-locator / DRAM-command events without
            // widening the scheme trait.
            let pre = if obs.is_enabled() && obs.trace.as_mut().is_some_and(|r| r.sample()) {
                Some((scheme.stats().clone(), mem.cache_dram.stats()))
            } else {
                None
            };
            // With an LLSC front-end, hits are absorbed in SRAM and dirty
            // victims become writes into the DRAM cache.
            if anatomy_on {
                anatomy::start_access();
            }
            let span_access = span::enter(SpanId::SchemeAccess);
            let outcome = if let Some(l) = llsc.as_mut() {
                let r = l.access(access.addr, access.is_write);
                if r.hit {
                    bimodal_core::AccessOutcome {
                        complete: now + l.config().hit_cycles,
                        hit: true,
                        offchip_bytes: 0,
                        small_block: false,
                    }
                } else {
                    if let Some(victim) = r.writeback {
                        let _ = scheme.access(CacheAccess::write(victim, now), mem);
                        if anatomy_on {
                            // The victim writeback is not part of the
                            // demand access's latency: restart attribution
                            // so its components are not charged here.
                            anatomy::start_access();
                        }
                    }
                    // The demand miss reaches the DRAM cache as a read
                    // (the LLSC allocates and owns the dirty state).
                    scheme.access(
                        CacheAccess {
                            addr: access.addr,
                            kind: AccessKind::Read,
                            now,
                        },
                        mem,
                    )
                }
            } else {
                scheme.access(
                    CacheAccess {
                        addr: access.addr,
                        kind,
                        now,
                    },
                    mem,
                )
            };
            span::add_cycles(SpanId::SchemeAccess, outcome.complete.saturating_sub(now));
            drop(span_access);
            hook.on_outcome(ctx, &outcome, obs);
            flight.0.record(FlightEntry {
                seq: ctx.seq,
                core: ctx.core,
                addr: access.addr,
                is_write: access.is_write,
                at: now,
                complete: outcome.complete,
                hit: outcome.hit,
            });

            if obs.is_enabled() {
                let latency = outcome.complete.saturating_sub(now);
                let class = if access.is_write {
                    RequestClass::Write
                } else {
                    RequestClass::Read
                };
                obs.record_latency(class, outcome.hit, latency);
                if anatomy_on {
                    let rec = anatomy::finish_access(latency);
                    if let Some(a) = obs.anatomy.as_mut() {
                        a.record(class, outcome.hit, latency, &rec);
                        if let Some(bg) = anatomy::take_background() {
                            a.merge_background(&bg);
                        }
                    }
                    if let Some(j) = obs.journeys.as_mut() {
                        j.maybe_record(Journey {
                            seq: ctx.seq,
                            core: ctx.core,
                            addr: access.addr,
                            is_write: access.is_write,
                            at: now,
                            latency,
                            hit: outcome.hit,
                            comps: rec.comps,
                        });
                    }
                }
                if let Some((pre_scheme, pre_dram)) = pre {
                    derive_trace_events(
                        obs,
                        &*scheme,
                        &*mem,
                        &pre_scheme,
                        pre_dram,
                        TraceSite {
                            at: now,
                            dur: latency,
                            core: u32::try_from(idx).expect("few cores"),
                            addr: access.addr,
                            hit: outcome.hit,
                        },
                    );
                }
            }

            // The prefetcher reacts to the demand access as it is seen
            // (prefetch-on-miss-detection); issuing at `now` also keeps
            // request arrival times nondecreasing, which the transaction-
            // level resource model requires.
            if let Some(pf) = prefetcher.as_mut() {
                pf.observe(access.addr);
                pf.candidates_into(access.addr, &mut pf_lines);
                for &line in &pf_lines {
                    if anatomy_on {
                        anatomy::start_access();
                    }
                    let po = scheme.access(CacheAccess::prefetch(line, now), mem);
                    if obs.is_enabled() {
                        let lat = po.complete.saturating_sub(now);
                        obs.record_latency(RequestClass::Prefetch, po.hit, lat);
                        if anatomy_on {
                            let rec = anatomy::finish_access(lat);
                            if let Some(a) = obs.anatomy.as_mut() {
                                a.record(RequestClass::Prefetch, po.hit, lat, &rec);
                                if let Some(bg) = anatomy::take_background() {
                                    a.merge_background(&bg);
                                }
                            }
                        }
                    }
                    pf.mark_present(line);
                }
            }

            let core = &mut cores[idx];
            core.issued += 1;
            core.frontier = core.frontier.max(outcome.complete);
            core.inflight.push(outcome.complete);
            // Pace by the compute gap; stall for the oldest outstanding
            // request only when every MLP slot is busy.
            let mut earliest = now + access.gap;
            if core.inflight.len() >= mlp {
                let (min_pos, &min_done) = core
                    .inflight
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &d)| d)
                    .expect("inflight is non-empty");
                earliest = earliest.max(min_done);
                core.inflight.swap_remove(min_pos);
            }
            core.next_issue = earliest;
            if core.issued == warmup {
                core.start_at = Some(core.next_issue);
            }
            if core.issued >= target && core.finished_at.is_none() {
                core.finished_at = Some(core.frontier);
            }

            issued_total += 1;
            if obs.is_enabled() {
                let _g = span::enter(SpanId::EpochObserve);
                let c = cumulative_counters(&*scheme, mem, &epoch_base);
                let queued = mem.deferred_pending() as u64;
                let epochs_before = obs.epochs.epochs().len();
                obs.epochs.observe(now, &c, queued);
                if obs.epochs.epochs().len() > epochs_before {
                    // An epoch closed: sample the cumulative per-channel
                    // class cycles for the counter-event trace lanes.
                    obs.bandwidth
                        .push(now, mem.cache_dram.bandwidth().channel_class_cycles());
                }
            }
            // The heartbeat is decoupled from the rest of the
            // observability layer: fleet fan-outs attach a sink heartbeat
            // to an otherwise-disabled observer so workers report
            // progress without paying for histograms and epoch series.
            if let Some(hb) = obs.heartbeat.as_mut() {
                hb.tick(issued_total.min(issue_target), issue_target, now);
            }

            if !stats_reset && cores.iter().all(|c| c.issued >= warmup) {
                if obs.is_enabled() {
                    // Fold the warm-up counters into the base so the epoch
                    // series stays monotone across the reset; histograms
                    // restart so they describe the measured portion only.
                    epoch_base = cumulative_counters(&*scheme, mem, &epoch_base);
                    obs.reset_measurement();
                    obs.timers.mark("warmup");
                }
                scheme.reset_stats();
                mem.reset_stats();
                stats_reset = true;
            }

            if let Some(wd) = self.options.watchdog {
                if outcome.complete > wd_frontier {
                    wd_frontier = outcome.complete;
                    wd_last_progress = now;
                    wd_stalled_iters = 0;
                } else {
                    wd_stalled_iters += 1;
                    if wd_stalled_iters >= wd.stall_iterations
                        || now.saturating_sub(wd_last_progress) > wd.stall_cycles
                    {
                        return Err(CkptRunError::Stall(Box::new(StallDiagnostic {
                            now,
                            frontier: wd_frontier,
                            last_progress: wd_last_progress,
                            stalled_iterations: wd_stalled_iters,
                            cores: cores
                                .iter()
                                .enumerate()
                                .map(|(i, c)| CoreSnapshot {
                                    core: u32::try_from(i).expect("few cores"),
                                    issued: c.issued,
                                    next_issue: c.next_issue,
                                    inflight: c.inflight.len(),
                                    frontier: c.frontier,
                                })
                                .collect(),
                            deferred_pending: mem.deferred_pending(),
                            last_access: Some((ctx.core, ctx.addr, ctx.is_write)),
                            recent: flight.0.entries(),
                        })));
                    }
                }
            }

            // Checkpoint at the iteration boundary: every piece of loop
            // state is quiescent here, so the snapshot resumes exactly
            // where this iteration left off. The final iteration is
            // skipped — a finished run has a report, not a checkpoint.
            if let Some(spec) = ckpt {
                if issued_total.is_multiple_of(spec.every)
                    && cores.iter().any(|c| c.finished_at.is_none())
                {
                    save_run(
                        spec,
                        &fingerprint,
                        &cores,
                        &*scheme,
                        mem,
                        obs,
                        prefetcher.as_ref(),
                        llsc.as_ref(),
                        SavedVars {
                            stats_reset,
                            issued_total,
                            epoch_base,
                            wd_frontier,
                            wd_last_progress,
                            wd_stalled_iters,
                        },
                    )?;
                }
            }
        }

        scheme.finalize();
        let end_cycle = cores.iter().map(|c| c.frontier).max().unwrap_or(0);
        if obs.is_enabled() {
            obs.timers.mark("measured");
            let c = cumulative_counters(&*scheme, mem, &epoch_base);
            let queued = mem.deferred_pending() as u64;
            obs.epochs.finish(end_cycle, &c, queued);
            obs.bandwidth
                .push(end_cycle, mem.cache_dram.bandwidth().channel_class_cycles());
        }
        if let Some(hb) = obs.heartbeat.as_mut() {
            // Fleet aggregation needs units to end at 100% even when
            // they finish between beats.
            hb.finish(issue_target, issue_target, end_cycle);
        }
        let profile = if profiling {
            span::end_run()
        } else {
            SpanProfile::default()
        };
        let core_cycles = cores
            .iter()
            .map(|c| {
                c.finished_at
                    .expect("all cores finished")
                    .saturating_sub(c.start_at.expect("all cores started"))
            })
            .collect();

        let (md_rbh, data_rbh) = bank_group_rbh(mem);
        const HOT_SET_TOP_K: usize = 8;
        Ok(RunReport {
            scheme_name: scheme.name().to_owned(),
            backend: mem.backend().name(),
            scheme: scheme.stats().clone(),
            cache_dram: mem.cache_dram.stats(),
            offchip: mem.main.stats(),
            core_cycles,
            accesses_per_core: self.options.accesses_per_core,
            metadata_bank_rbh: md_rbh,
            data_bank_rbh: data_rbh,
            obs: obs.summary(end_cycle),
            bandwidth: MemoryBandwidth {
                elapsed_cycles: end_cycle,
                cache: mem.cache_dram.bandwidth().summary(end_cycle, HOT_SET_TOP_K),
                offchip: mem.main.bandwidth().summary(end_cycle, HOT_SET_TOP_K),
                deferred_queue: mem.queue_depth(),
            },
            profile,
            anatomy: obs.anatomy.as_ref().map(|a| a.summarize()),
        })
    }
}

/// The engine-loop scalars a checkpoint carries alongside the per-core,
/// scheme, memory and observer state.
#[derive(Clone, Copy)]
struct SavedVars {
    stats_reset: bool,
    issued_total: u64,
    epoch_base: Counters,
    wd_frontier: Cycle,
    wd_last_progress: Cycle,
    wd_stalled_iters: u64,
}

/// Writes one checkpoint of the full run state (atomic, double-buffered).
#[allow(clippy::too_many_arguments)] // one call site, gathering the whole loop
fn save_run(
    spec: &CheckpointSpec,
    fingerprint: &str,
    cores: &[CoreState],
    scheme: &dyn DramCacheScheme,
    mem: &MemorySystem,
    obs: &Observer,
    prefetcher: Option<&NextNPrefetcher>,
    llsc: Option<&LlscCache>,
    vars: SavedVars,
) -> Result<(), CkptError> {
    use bimodal_ckpt::Snapshot;
    let mut file = CkptFile::new();

    let mut w = SnapshotWriter::new();
    w.str(fingerprint);
    file.put(section::META, w.into_bytes());

    let mut w = SnapshotWriter::new();
    w.bool(vars.stats_reset);
    w.u64(vars.issued_total);
    w.u64(vars.epoch_base.accesses);
    w.u64(vars.epoch_base.hits);
    w.u64(vars.epoch_base.row_hits);
    w.u64(vars.epoch_base.row_accesses);
    w.u64(vars.epoch_base.offchip_bytes);
    w.u64(vars.epoch_base.wasted_bytes);
    w.u64(vars.wd_frontier);
    w.u64(vars.wd_last_progress);
    w.u64(vars.wd_stalled_iters);
    w.usize(cores.len());
    for c in cores {
        w.u64(c.next_issue);
        w.u64(c.issued);
        c.inflight.save(&mut w);
        w.u64(c.frontier);
        c.start_at.save(&mut w);
        c.finished_at.save(&mut w);
    }
    file.put(section::ENGINE, w.into_bytes());

    let mut w = SnapshotWriter::new();
    for c in cores {
        c.trace.save_state(&mut w);
    }
    file.put(section::TRACES, w.into_bytes());

    let mut w = SnapshotWriter::new();
    scheme.save_state(&mut w);
    file.put(section::SCHEME, w.into_bytes());

    let mut w = SnapshotWriter::new();
    mem.save_state(&mut w);
    file.put(section::MEM, w.into_bytes());

    let mut w = SnapshotWriter::new();
    obs.save_accumulators(&mut w);
    file.put(section::OBS, w.into_bytes());

    let mut w = SnapshotWriter::new();
    w.bool(prefetcher.is_some());
    if let Some(pf) = prefetcher {
        pf.save_state(&mut w);
    }
    w.bool(llsc.is_some());
    if let Some(l) = llsc {
        l.save_state(&mut w);
    }
    file.put(section::FRONTEND, w.into_bytes());

    file.write(&spec.path)
}

/// Restores a checkpoint into freshly built run state, validating the
/// experiment fingerprint and every structural invariant on the way in.
#[allow(clippy::too_many_arguments)] // one call site, scattering the whole loop
fn restore_run(
    file: &CkptFile,
    fingerprint: &str,
    cores: &mut [CoreState],
    scheme: &mut dyn DramCacheScheme,
    mem: &mut MemorySystem,
    obs: &mut Observer,
    prefetcher: Option<&mut NextNPrefetcher>,
    llsc: Option<&mut LlscCache>,
    mlp: usize,
) -> Result<SavedVars, CkptError> {
    use bimodal_ckpt::Snapshot;

    let mut r = file.section(section::META)?;
    let stored = r.str()?;
    if stored != fingerprint {
        return Err(CkptError::Mismatch {
            detail: format!(
                "checkpoint was taken by a different experiment:\n  \
                 checkpoint: {stored}\n  this run:   {fingerprint}"
            ),
        });
    }

    let mut r = file.section(section::ENGINE)?;
    let vars = SavedVars {
        stats_reset: r.bool()?,
        issued_total: r.u64()?,
        epoch_base: Counters {
            accesses: r.u64()?,
            hits: r.u64()?,
            row_hits: r.u64()?,
            row_accesses: r.u64()?,
            offchip_bytes: r.u64()?,
            wasted_bytes: r.u64()?,
        },
        wd_frontier: r.u64()?,
        wd_last_progress: r.u64()?,
        wd_stalled_iters: r.u64()?,
    };
    let n = r.usize()?;
    if n != cores.len() {
        return Err(r.corrupt(format!(
            "checkpoint has {n} cores, this run has {}",
            cores.len()
        )));
    }
    for c in cores.iter_mut() {
        c.next_issue = r.u64()?;
        c.issued = r.u64()?;
        let inflight: Vec<Cycle> = Snapshot::load(&mut r)?;
        if inflight.len() > mlp {
            return Err(r.corrupt(format!(
                "core has {} requests in flight, MLP is {mlp}",
                inflight.len()
            )));
        }
        c.inflight = inflight;
        c.frontier = r.u64()?;
        c.start_at = Snapshot::load(&mut r)?;
        c.finished_at = Snapshot::load(&mut r)?;
    }

    let mut r = file.section(section::TRACES)?;
    for c in cores.iter_mut() {
        c.trace.load_state(&mut r)?;
    }

    let mut r = file.section(section::SCHEME)?;
    scheme.restore_state(&mut r)?;

    let mut r = file.section(section::MEM)?;
    mem.load_state(&mut r)?;

    let mut r = file.section(section::OBS)?;
    obs.restore_accumulators(&mut r)?;

    // The fingerprint already pins the options that decide front-end
    // presence, so these marker mismatches only fire on a corrupt file.
    let mut r = file.section(section::FRONTEND)?;
    match (r.bool()?, prefetcher) {
        (true, Some(pf)) => pf.load_state(&mut r)?,
        (false, None) => {}
        _ => return Err(r.corrupt("prefetcher presence differs from checkpoint")),
    }
    match (r.bool()?, llsc) {
        (true, Some(l)) => l.load_state(&mut r)?,
        (false, None) => {}
        _ => return Err(r.corrupt("LLSC presence differs from checkpoint")),
    }

    Ok(vars)
}

/// Cumulative vital-sign counters for the epoch recorder. `base` carries
/// the totals folded away by the warm-up stats reset, keeping the series
/// monotone over the whole run.
fn cumulative_counters(
    scheme: &dyn DramCacheScheme,
    mem: &MemorySystem,
    base: &Counters,
) -> Counters {
    let s = scheme.stats();
    let d = mem.cache_dram.stats().totals;
    Counters {
        accesses: base.accesses + s.accesses,
        hits: base.hits + s.hits,
        row_hits: base.row_hits + d.row_hits,
        row_accesses: base.row_accesses + d.accesses(),
        offchip_bytes: base.offchip_bytes + s.offchip_bytes(),
        wasted_bytes: base.wasted_bytes + s.offchip_wasted_bytes,
    }
}

/// Where a sampled access happened, for event attribution.
struct TraceSite {
    at: Cycle,
    dur: Cycle,
    core: u32,
    addr: u64,
    hit: bool,
}

/// Diffs the scheme and stacked-DRAM counters across one access and turns
/// the deltas into trace events: what filled, what was evicted, what the
/// predictors and the way locator did, and what the DRAM executed.
fn derive_trace_events(
    obs: &mut Observer,
    scheme: &dyn DramCacheScheme,
    mem: &MemorySystem,
    pre_scheme: &SchemeStats,
    pre_dram: DramStats,
    site: TraceSite,
) {
    let s = scheme.stats();
    let d = mem.cache_dram.stats().totals;
    let pd = pre_dram.totals;
    let Some(ring) = obs.trace.as_mut() else {
        return;
    };
    let mut push = |kind: EventKind, dur: Cycle, what: &'static str, detail: u64| {
        ring.push(TraceEvent {
            at: site.at,
            dur,
            kind,
            core: site.core,
            addr: site.addr,
            what,
            detail,
        });
    };
    push(
        EventKind::Access,
        site.dur,
        if site.hit { "hit" } else { "miss" },
        s.offchip_fetched_bytes - pre_scheme.offchip_fetched_bytes,
    );
    let fills_big = s.fills_big - pre_scheme.fills_big;
    let fills_small = s.fills_small - pre_scheme.fills_small;
    if fills_big > 0 {
        push(EventKind::Fill, 0, "big", fills_big);
    }
    if fills_small > 0 {
        push(EventKind::Fill, 0, "small", fills_small);
    }
    let evictions = s.evictions - pre_scheme.evictions;
    if evictions > 0 {
        push(EventKind::Eviction, 0, "block", evictions);
    }
    // The granularity predictor's decision is visible as which fill
    // happened; the miss predictor's as a speculative fetch.
    if fills_big + fills_small > 0 {
        let what = if fills_big > 0 && fills_small > 0 {
            "mixed"
        } else if fills_big > 0 {
            "big"
        } else {
            "small"
        };
        push(EventKind::Predictor, 0, what, fills_big + fills_small);
    }
    let spec = s.spec_fetches - pre_scheme.spec_fetches;
    if spec > 0 {
        push(EventKind::Predictor, 0, "spec_fetch", spec);
    }
    let loc_hits = s.locator_hits - pre_scheme.locator_hits;
    let loc_misses = s.locator_misses - pre_scheme.locator_misses;
    if loc_hits + loc_misses > 0 {
        push(
            EventKind::WayLocator,
            0,
            if loc_misses == 0 { "hit" } else { "miss" },
            loc_hits + loc_misses,
        );
    }
    let activates = d.activates - pd.activates;
    let columns = (d.reads + d.writes) - (pd.reads + pd.writes);
    if activates > 0 {
        push(EventKind::DramCommand, 0, "activate", activates);
    }
    if columns > 0 {
        push(EventKind::DramCommand, 0, "column", columns);
    }
}

/// Row-buffer hit rates of the last bank of each channel (where dedicated
/// metadata lives) versus all other banks.
fn bank_group_rbh(mem: &MemorySystem) -> (Option<f64>, Option<f64>) {
    let cfg = mem.cache_dram.config().clone();
    let last_bank = cfg.banks_per_rank - 1;
    let mut md = bimodal_dram::BankStats::default();
    let mut data = bimodal_dram::BankStats::default();
    for ch in 0..cfg.channels {
        for rank in 0..cfg.ranks_per_channel {
            for bank in 0..cfg.banks_per_rank {
                let s = mem.cache_dram.bank_stats(ch, rank, bank);
                let into = if bank == last_bank {
                    &mut md
                } else {
                    &mut data
                };
                into.row_hits += s.row_hits;
                into.row_misses += s.row_misses;
                into.row_empty += s.row_empty;
            }
        }
    }
    let wrap = |s: bimodal_dram::BankStats| {
        if s.accesses() == 0 {
            None
        } else {
            Some(s.row_buffer_hit_rate())
        }
    };
    (wrap(md), wrap(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimodal_core::{BiModalCache, BiModalConfig};
    use bimodal_workloads::{spec_profile, WorkloadSpec};

    fn small_traces(cores: u32) -> Vec<ProgramTrace> {
        let spec: WorkloadSpec = spec_profile("gcc")
            .expect("known")
            .with_footprint_scale(0.01);
        (0..cores).map(|c| spec.trace(11, c)).collect()
    }

    fn scheme() -> (BiModalCache, MemorySystem) {
        let config = BiModalConfig::for_cache_mb(4).with_epoch(1_000);
        (BiModalCache::new(config), MemorySystem::quad_core())
    }

    #[test]
    fn run_completes_and_reports() {
        let (mut s, mut mem) = scheme();
        let report =
            Engine::new(EngineOptions::measured(500)).run(&mut s, &mut mem, small_traces(4));
        assert_eq!(report.core_cycles.len(), 4);
        assert!(report.core_cycles.iter().all(|&c| c > 0));
        // Statistics reset when the slowest core exits warm-up; faster
        // cores may already be ahead, so the measured total is slightly
        // below cores x measured.
        assert!(report.dram_cache_accesses() >= 4 * 400);
        assert!(report.avg_latency() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (mut s, mut mem) = scheme();
            Engine::new(EngineOptions::measured(300)).run(&mut s, &mut mem, small_traces(2))
        };
        let a = run();
        let b = run();
        assert_eq!(a.core_cycles, b.core_cycles);
        assert_eq!(a.scheme, b.scheme);
    }

    #[test]
    fn warmup_is_excluded_from_stats() {
        // A footprint small enough that warm-up touches all of it.
        let spec = spec_profile("gcc")
            .expect("known")
            .with_footprint_scale(0.002);
        let traces = |n: u32| (0..n).map(|c| spec.trace(11, c)).collect::<Vec<_>>();
        let (mut s, mut mem) = scheme();
        let report = Engine::new(EngineOptions::measured(500).with_warmup(3_000)).run(
            &mut s,
            &mut mem,
            traces(1),
        );
        // Warmed-up run: stats only cover the measured tail.
        assert!(report.scheme.accesses <= 501);
        // Hit rate after warm-up must be clearly better than a cold run.
        let (mut s2, mut mem2) = scheme();
        let cold = Engine::new(EngineOptions::measured(500).with_warmup(0)).run(
            &mut s2,
            &mut mem2,
            traces(1),
        );
        assert!(
            report.scheme.hit_rate() > cold.scheme.hit_rate(),
            "warmed {} vs cold {}",
            report.scheme.hit_rate(),
            cold.scheme.hit_rate()
        );
    }

    #[test]
    fn more_cores_mean_more_contention() {
        let (mut s1, mut mem1) = scheme();
        let one =
            Engine::new(EngineOptions::measured(400)).run(&mut s1, &mut mem1, small_traces(1));
        let (mut s4, mut mem4) = scheme();
        let four =
            Engine::new(EngineOptions::measured(400)).run(&mut s4, &mut mem4, small_traces(4));
        // The same per-core work takes longer when sharing the system.
        assert!(four.mean_core_cycles() > one.mean_core_cycles() * 0.9);
    }

    #[test]
    fn prefetcher_issues_prefetches() {
        let (mut s, mut mem) = scheme();
        let report = Engine::new(
            EngineOptions::measured(300).with_prefetch(1, PrefetchMode::Normal),
        )
        .run(&mut s, &mut mem, small_traces(2));
        assert!(report.scheme.prefetches > 0);
    }

    #[test]
    fn llsc_front_end_absorbs_reuse() {
        use crate::llsc::LlscConfig;
        let (mut s, mut mem) = scheme();
        let filtered = Engine::new(EngineOptions::measured(400).with_llsc(LlscConfig::table_iv(4)))
            .run(&mut s, &mut mem, small_traces(2));
        let (mut s2, mut mem2) = scheme();
        let raw =
            Engine::new(EngineOptions::measured(400)).run(&mut s2, &mut mem2, small_traces(2));
        // The LLSC absorbs hits, so far fewer requests reach the DRAM cache.
        assert!(
            filtered.scheme.accesses < raw.scheme.accesses,
            "LLSC must filter: {} vs {}",
            filtered.scheme.accesses,
            raw.scheme.accesses
        );
    }

    #[test]
    fn observed_run_matches_unobserved_and_records() {
        use bimodal_obs::ObserverConfig;
        let (mut s, mut mem) = scheme();
        let plain =
            Engine::new(EngineOptions::measured(300)).run(&mut s, &mut mem, small_traces(2));
        let mut obs = Observer::enabled(
            ObserverConfig::default()
                .with_epoch_cycles(50_000)
                .with_trace(4096, 1),
        );
        let (mut s2, mut mem2) = scheme();
        let observed = Engine::new(EngineOptions::measured(300)).run_observed(
            &mut s2,
            &mut mem2,
            small_traces(2),
            &mut obs,
        );
        // Observation must not perturb the simulation.
        assert_eq!(plain.core_cycles, observed.core_cycles);
        assert_eq!(plain.scheme, observed.scheme);
        assert!(plain.obs.is_empty());
        // Bandwidth attribution is always on and identical either way;
        // only the heatmap (per-set allocation) is observer-gated.
        assert_eq!(
            plain.bandwidth.cache.class_totals,
            observed.bandwidth.cache.class_totals
        );
        assert_eq!(
            plain.bandwidth.offchip.class_totals,
            observed.bandwidth.offchip.class_totals
        );
        assert!(plain.bandwidth.cache.hot_sets.is_empty());
        assert!(!observed.bandwidth.cache.hot_sets.is_empty());
        // The observed run also sampled the per-class series for the
        // counter-track trace export.
        assert!(!obs.bandwidth.is_empty());
        // ...and must actually record.
        assert!(!observed.obs.is_empty());
        let read = &observed.obs.latency[0];
        assert_eq!(read.0, "read");
        assert!(read.1.count > 0);
        assert!(read.1.p99 >= read.1.p50);
        assert!(!observed.obs.epochs.is_empty());
        let wall = observed.obs.wall.as_ref().expect("wall profile");
        assert!(wall.phases.iter().any(|(n, _)| n == "warmup"));
        assert!(wall.phases.iter().any(|(n, _)| n == "measured"));
        assert!(wall.sim_cycles > 0);
        // The trace holds the demand accesses plus derived events.
        let ring = obs.trace.as_ref().expect("tracing on");
        assert!(!ring.is_empty());
        let events = ring.events();
        assert!(events.iter().any(|e| e.kind == EventKind::Access));
        assert!(events.iter().any(|e| e.kind == EventKind::Fill));
        assert!(events.iter().any(|e| e.kind == EventKind::DramCommand));
    }

    #[test]
    fn bandwidth_classes_sum_to_channel_busy_on_both_modules() {
        let (mut s, mut mem) = scheme();
        let report =
            Engine::new(EngineOptions::measured(500)).run(&mut s, &mut mem, small_traces(2));
        let bw = &report.bandwidth;
        assert!(bw.elapsed_cycles > 0);
        assert!(bw.cache.total_busy_cycles() > 0);
        assert!(bw.offchip.total_busy_cycles() > 0);
        for (module, summary) in [("cache", &bw.cache), ("offchip", &bw.offchip)] {
            for (ch, c) in summary.channels.iter().enumerate() {
                assert_eq!(
                    c.busy.total_cycles(),
                    c.busy_cycles,
                    "{module} ch{ch}: per-class cycles must sum to total busy"
                );
            }
            assert_eq!(
                summary.class_totals.total_cycles(),
                summary.channels.iter().map(|c| c.busy_cycles).sum::<u64>()
            );
        }
        assert!(bw.deferred_queue.high_water > 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_traces_panic() {
        let (mut s, mut mem) = scheme();
        let _ = Engine::new(EngineOptions::measured(10)).run(&mut s, &mut mem, vec![]);
    }

    /// A controller that never completes anything: every access "finishes"
    /// at cycle 0, so the retirement frontier cannot advance.
    struct WedgedScheme {
        stats: SchemeStats,
    }

    impl DramCacheScheme for WedgedScheme {
        fn name(&self) -> &str {
            "Wedged"
        }

        fn access(&mut self, _access: CacheAccess, _mem: &mut MemorySystem) -> AccessOutcome {
            AccessOutcome {
                complete: 0,
                hit: false,
                offchip_bytes: 0,
                small_block: false,
            }
        }

        fn stats(&self) -> &SchemeStats {
            &self.stats
        }

        fn reset_stats(&mut self) {}
    }

    #[test]
    fn watchdog_turns_a_wedged_run_into_a_structured_error() {
        let mut s = WedgedScheme {
            stats: SchemeStats::default(),
        };
        let mut mem = MemorySystem::quad_core();
        let options = EngineOptions::measured(10_000).with_watchdog(WatchdogConfig {
            stall_cycles: 1_000_000,
            stall_iterations: 500,
        });
        let err = Engine::new(options)
            .try_run(
                &mut s,
                &mut mem,
                small_traces(2),
                &mut Observer::disabled(),
                &mut NoopHook,
            )
            .expect_err("a wedged controller must trip the watchdog");
        assert_eq!(err.stalled_iterations, 500);
        assert_eq!(err.cores.len(), 2);
        assert!(err.cores.iter().map(|c| c.issued).sum::<u64>() <= 501);
        assert!(err.to_string().contains("stalled"));
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bimodal-engine-{name}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let path = ckpt_path("resume");
        let spec = CheckpointSpec::new(&path, 700).expect("positive cadence");

        // The uninterrupted reference run.
        let (mut s, mut mem) = scheme();
        let reference =
            Engine::new(EngineOptions::measured(600)).run(&mut s, &mut mem, small_traces(2));

        // The same run, writing checkpoints along the way. 2 cores x
        // (120 warmup + 600 measured) = 1440 issues, so snapshots land at
        // 700 and 1400; the file on disk holds the 1400-issue state.
        let (mut s2, mut mem2) = scheme();
        let checkpointed = Engine::new(EngineOptions::measured(600))
            .try_run_checkpointed(
                &mut s2,
                &mut mem2,
                small_traces(2),
                &mut Observer::disabled(),
                &mut NoopHook,
                Some(&spec),
                None,
            )
            .expect("checkpointed run completes");
        assert_eq!(reference.scheme, checkpointed.scheme);

        // Resume from the last snapshot into fresh state: the final
        // report must match the uninterrupted run exactly.
        let file = CkptFile::read(&path).expect("snapshot on disk");
        let (mut s3, mut mem3) = scheme();
        let resumed = Engine::new(EngineOptions::measured(600))
            .try_run_checkpointed(
                &mut s3,
                &mut mem3,
                small_traces(2),
                &mut Observer::disabled(),
                &mut NoopHook,
                None,
                Some(&file),
            )
            .expect("resumed run completes");
        assert_eq!(reference.scheme, resumed.scheme);
        assert_eq!(reference.core_cycles, resumed.core_cycles);
        assert_eq!(reference.cache_dram, resumed.cache_dram);
        assert_eq!(reference.offchip, resumed.offchip);
        assert_eq!(
            reference.bandwidth.cache.class_totals,
            resumed.bandwidth.cache.class_totals
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
    }

    #[test]
    fn resume_rejects_a_mismatched_experiment() {
        let path = ckpt_path("mismatch");
        let spec = CheckpointSpec::new(&path, 500).expect("positive cadence");
        let (mut s, mut mem) = scheme();
        let _ = Engine::new(EngineOptions::measured(600))
            .try_run_checkpointed(
                &mut s,
                &mut mem,
                small_traces(2),
                &mut Observer::disabled(),
                &mut NoopHook,
                Some(&spec),
                None,
            )
            .expect("checkpointed run completes");
        let file = CkptFile::read(&path).expect("snapshot on disk");
        // Different access count, different core count: both must refuse.
        let (mut s2, mut mem2) = scheme();
        let err = Engine::new(EngineOptions::measured(900))
            .try_run_checkpointed(
                &mut s2,
                &mut mem2,
                small_traces(2),
                &mut Observer::disabled(),
                &mut NoopHook,
                None,
                Some(&file),
            )
            .expect_err("mismatched options must be rejected");
        assert!(matches!(
            err,
            CkptRunError::Ckpt(CkptError::Mismatch { .. })
        ));
        let (mut s3, mut mem3) = scheme();
        let err = Engine::new(EngineOptions::measured(600))
            .try_run_checkpointed(
                &mut s3,
                &mut mem3,
                small_traces(4),
                &mut Observer::disabled(),
                &mut NoopHook,
                None,
                Some(&file),
            )
            .expect_err("mismatched core count must be rejected");
        assert!(matches!(
            err,
            CkptRunError::Ckpt(CkptError::Mismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
    }

    #[test]
    fn checkpointing_rejects_span_profiling_and_tracing() {
        use bimodal_obs::ObserverConfig;
        let path = ckpt_path("reject-obs");
        let spec = CheckpointSpec::new(&path, 500).expect("positive cadence");
        let (mut s, mut mem) = scheme();
        let mut obs = Observer::enabled(ObserverConfig::default().with_trace(1024, 1));
        let err = Engine::new(EngineOptions::measured(600))
            .try_run_checkpointed(
                &mut s,
                &mut mem,
                small_traces(2),
                &mut obs,
                &mut NoopHook,
                Some(&spec),
                None,
            )
            .expect_err("tracing plus checkpointing must be rejected");
        assert!(matches!(
            err,
            CkptRunError::Ckpt(CkptError::Mismatch { .. })
        ));
        assert!(!path.exists(), "no snapshot may be written");
    }

    #[test]
    fn armed_watchdog_does_not_disturb_a_healthy_run() {
        let (mut s, mut mem) = scheme();
        let plain =
            Engine::new(EngineOptions::measured(300)).run(&mut s, &mut mem, small_traces(2));
        let (mut s2, mut mem2) = scheme();
        let watched =
            Engine::new(EngineOptions::measured(300).with_watchdog(WatchdogConfig::default()))
                .try_run(
                    &mut s2,
                    &mut mem2,
                    small_traces(2),
                    &mut Observer::disabled(),
                    &mut NoopHook,
                )
                .expect("healthy run passes the watchdog");
        assert_eq!(plain.core_cycles, watched.core_cycles);
        assert_eq!(plain.scheme, watched.scheme);
    }
}
