//! The repository benchmark: three batch workloads assembled from the
//! simulator's public API, timed from outside the program.
//!
//! Every run is built the way `Simulation::run_mix` builds it —
//! `Simulation::traces_for`, `Simulation::build_scheme`,
//! `SystemConfig::build_memory`, `Simulation::engine_options` — and driven
//! through `Engine::try_run`, so set-up is timed apart from the timed loop
//! without touching the simulator. Untraced runs give the end-to-end
//! metrics, their host times normalised for host drift by a calibration
//! kernel interleaved with each loop (see [`host`]); a traced run
//! (scheme-call timing wrapper plus the span profiler) gives the
//! per-layer split. Every simulation run is checked; a run that errors,
//! panics or fails a check counts as failed.

pub mod catalog;
pub mod host;
pub mod probe;

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use bimodal_obs::anatomy::AnatomySummary;
use bimodal_obs::{Json, Observer, ObserverConfig, SpanId, SpanProfile};
use bimodal_sim::{Engine, RunReport, SchemeKind, Simulation, SystemConfig};
use bimodal_workloads::WorkloadMix;

use probe::{empty_call_ns, LoopHook, Probe};

/// The benchmark's workloads. Each is a batch job run to completion at a
/// fixed input size; the README records why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BiModal on mix Q1, 4 cores, 8 MB cache, observer disabled.
    Q1Bimodal,
    /// The four baselines on mix S1, 16 cores, 32 MB cache, fanned over
    /// two workers the way `compare --jobs 2` fans them.
    S1Baselines,
    /// `Q1Bimodal` with the latency-anatomy observer enabled.
    Q1Anatomy,
}

/// Baselines fanned by `s1-baselines`, in `compare`'s order.
const BASELINES: [SchemeKind; 4] = [
    SchemeKind::Alloy,
    SchemeKind::LohHill,
    SchemeKind::AtCache,
    SchemeKind::Footprint,
];

/// Workers `s1-baselines` fans its units over.
const FAN_WORKERS: usize = 2;

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Q1Bimodal,
        Workload::S1Baselines,
        Workload::Q1Anatomy,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Q1Bimodal => "q1-bimodal",
            Workload::S1Baselines => "s1-baselines",
            Workload::Q1Anatomy => "q1-anatomy",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn units(self) -> &'static [SchemeKind] {
        match self {
            Workload::Q1Bimodal | Workload::Q1Anatomy => &[SchemeKind::BiModal],
            Workload::S1Baselines => &BASELINES,
        }
    }

    fn workers(self) -> usize {
        match self {
            Workload::S1Baselines => FAN_WORKERS,
            Workload::Q1Bimodal | Workload::Q1Anatomy => 1,
        }
    }

    fn anatomy(self) -> bool {
        self == Workload::Q1Anatomy
    }

    fn mix(self) -> WorkloadMix {
        match self {
            Workload::S1Baselines => WorkloadMix::sixteen("S1").expect("S1 is a known mix"),
            Workload::Q1Bimodal | Workload::Q1Anatomy => {
                WorkloadMix::quad("Q1").expect("Q1 is a known mix")
            }
        }
    }

    /// The CLI's default scale for the mix's core count, on the default
    /// `paper2014` backend, seeded by the benchmark's `--seed`.
    fn system(self, seed: u64) -> SystemConfig {
        let base = match self {
            Workload::S1Baselines => SystemConfig::sixteen_core().with_cache_mb(32),
            Workload::Q1Bimodal | Workload::Q1Anatomy => SystemConfig::quad_core().with_cache_mb(8),
        };
        base.with_seed(seed)
    }

    fn accesses_per_core(self, scale: &Scale) -> u64 {
        match self {
            Workload::S1Baselines => scale.s1_accesses_per_core,
            Workload::Q1Bimodal | Workload::Q1Anatomy => scale.q1_accesses_per_core,
        }
    }
}

/// Measured accesses per core of each workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Per-core accesses of `q1-bimodal` and `q1-anatomy`.
    pub q1_accesses_per_core: u64,
    /// Per-core accesses of each `s1-baselines` unit.
    pub s1_accesses_per_core: u64,
}

impl Scale {
    /// The benchmark's fixed input size.
    pub const FULL: Scale = Scale {
        q1_accesses_per_core: 200_000,
        s1_accesses_per_core: 15_000,
    };
}

/// One benchmark invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed, passed to the system through `SystemConfig::with_seed`.
    pub seed: u64,
    /// Host seconds the timed repetitions run for.
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
    /// Test hook: the timed repetition (0-based) whose scheme reports one
    /// hit as a miss, which the determinism check must catch.
    pub perturb_rep: Option<usize>,
}

impl Config {
    /// The benchmark at full size.
    #[must_use]
    pub fn full(seed: u64, seconds: f64) -> Self {
        Config {
            seed,
            seconds,
            scale: Scale::FULL,
            perturb_rep: None,
        }
    }
}

/// Fewest timed repetitions (fans) of an untraced run, however long they
/// take; the traced run always completes at least one full ABBA cycle.
const MIN_REPS: usize = 3;

/// What one workload invocation produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that errored, panicked or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Emitted metrics, in emission order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context lines (sample counts, host slowdowns, raw
    /// figures beside the normalised ones).
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every run passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`
    /// (each `{"value", "unit"}`).
    ///
    /// # Panics
    ///
    /// Panics if a metric is missing from the catalogue (a benchmark bug).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for &(name, value) in &self.metrics {
            let unit =
                catalog::unit(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
            let mut v = Json::object();
            v.set("value", value).set("unit", unit);
            metrics.set(name, v);
        }
        let mut o = Json::object();
        o.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        o
    }
}

/// Runs `workload` untraced (`traced = false`, end-to-end metrics) or
/// traced (per-layer metrics).
#[must_use]
pub fn run(workload: Workload, cfg: &Config, traced: bool) -> Outcome {
    let bench = Bench::new(workload, cfg);
    if traced {
        bench.traced()
    } else {
        bench.untraced()
    }
}

/// How one unit runs.
#[derive(Debug, Clone, Copy)]
struct Mode {
    anatomy: bool,
    /// Time every `scheme.access` call through [`Probe`].
    timed: bool,
    /// Enable the observer's span profiler.
    spans: bool,
    flip_one_hit: bool,
    /// Interleave the calibration kernel with the engine loop.
    calibrate: bool,
}

/// One finished simulation run.
struct UnitRun {
    kind: SchemeKind,
    report: RunReport,
    issued: u64,
    /// Building traces, scheme, memory and engine.
    setup: Duration,
    loop_time: Duration,
    /// Setup plus loop, timed inside the worker closure.
    unit_time: Duration,
    /// The worker thread the unit ran on.
    worker: ThreadId,
    /// The host slowdown the calibration kernel measured during the loop
    /// (1 when not calibrated).
    slowdown: f64,
    /// Host time of the calibration kernel inside the unit, its table's
    /// build included; no unit time counts it.
    calibration: Duration,
    /// Per-`access` host nanoseconds (timed runs only).
    access_ns: Vec<u32>,
}

/// One fan of every unit of a workload.
struct Fan {
    wall: Duration,
    runs: Vec<UnitRun>,
}

impl Fan {
    fn loop_s(&self) -> f64 {
        self.runs.iter().map(|r| r.loop_time.as_secs_f64()).sum()
    }

    fn issued(&self) -> u64 {
        self.runs.iter().map(|r| r.issued).sum()
    }

    fn unit_s(&self) -> f64 {
        self.runs.iter().map(|r| r.unit_time.as_secs_f64()).sum()
    }

    /// The mean of the units' host slowdowns.
    fn slowdown(&self) -> f64 {
        ratio_f(
            self.runs.iter().map(|r| r.slowdown).sum(),
            self.runs.len() as f64,
        )
    }

    /// Issued accesses per second of loop, each unit's loop divided by
    /// its host slowdown when `normalised`.
    fn rate(&self, normalised: bool) -> f64 {
        let loop_s: f64 = self
            .runs
            .iter()
            .map(|r| r.loop_time.as_secs_f64() / r.scale(normalised))
            .sum();
        ratio_f(self.issued() as f64, loop_s)
    }

    /// The fan's wall time without the calibration kernel in it: the
    /// busiest worker's summed unit times (set-up plus loop), each
    /// divided by its unit's host slowdown when `normalised`.
    fn worker_wall_s(&self, normalised: bool) -> f64 {
        let mut per_worker: HashMap<ThreadId, f64> = HashMap::new();
        for r in &self.runs {
            *per_worker.entry(r.worker).or_default() +=
                r.unit_time.as_secs_f64() / r.scale(normalised);
        }
        per_worker.into_values().fold(0.0, f64::max)
    }

    /// Summed set-up times, each divided by its unit's host slowdown.
    fn normalised_setup_s(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.setup.as_secs_f64() / r.slowdown)
            .sum()
    }
}

impl UnitRun {
    fn scale(&self, normalised: bool) -> f64 {
        if normalised {
            self.slowdown
        } else {
            1.0
        }
    }
}

/// The simulated statistics a host-only change must leave identical.
#[derive(Debug, Clone, PartialEq)]
struct SimSig {
    scheme: bimodal_core::SchemeStats,
    cache_dram: bimodal_dram::DramStats,
    offchip: bimodal_dram::DramStats,
    core_cycles: Vec<u64>,
    metadata_bank_rbh: Option<f64>,
    data_bank_rbh: Option<f64>,
    issued: u64,
}

impl SimSig {
    fn of(run: &UnitRun) -> Self {
        let r = &run.report;
        SimSig {
            scheme: r.scheme.clone(),
            cache_dram: r.cache_dram,
            offchip: r.offchip,
            core_cycles: r.core_cycles.clone(),
            metadata_bank_rbh: r.metadata_bank_rbh,
            data_bank_rbh: r.data_bank_rbh,
            issued: run.issued,
        }
    }
}

/// Checks every run and keeps the tally behind `attempted`/`failed`.
///
/// The first run of each scheme in an invocation is its reference: every
/// later run — repeats, traced runs, anatomy-off pairs, the serial re-run
/// of a fan — must reproduce its simulated statistics exactly, and every
/// anatomy-collecting run must reproduce the first one's anatomy.
#[derive(Default)]
struct Checker {
    sigs: BTreeMap<&'static str, SimSig>,
    anatomy: BTreeMap<&'static str, AnatomySummary>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn record(&mut self, label: &str, result: Result<UnitRun, String>) -> Option<UnitRun> {
        self.attempted += 1;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{label}: {e}"));
                return None;
            }
        };
        let problems = self.problems(&run);
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures
                    .push(format!("{label} {}: {p}", run.kind.name()));
            }
        }
        Some(run)
    }

    fn problems(&mut self, run: &UnitRun) -> Vec<String> {
        let mut out = Vec::new();
        let s = &run.report.scheme;
        if s.hits + s.misses != s.accesses {
            out.push(format!(
                "hits {} + misses {} != accesses {}",
                s.hits, s.misses, s.accesses
            ));
        }
        if run.report.backend != "paper2014" {
            out.push(format!("ran on backend {}", run.report.backend));
        }
        let name = run.kind.name();
        let sig = SimSig::of(run);
        match self.sigs.get(name) {
            None => {
                self.sigs.insert(name, sig);
            }
            Some(reference) if *reference != sig => {
                out.push("simulated statistics differ from the first run".into());
            }
            Some(_) => {}
        }
        if let Some(a) = &run.report.anatomy {
            for p in &a.populations {
                let sum: u64 = p.components.iter().map(|c| c.cycles).sum();
                if sum != p.total_latency {
                    out.push(format!(
                        "anatomy of {} sums to {sum} cycles, measured {}",
                        p.name, p.total_latency
                    ));
                }
            }
            match self.anatomy.get(name) {
                None => {
                    self.anatomy.insert(name, a.clone());
                }
                Some(reference) if reference != a => {
                    out.push("latency anatomy differs from the first run".into());
                }
                Some(_) => {}
            }
        }
        out
    }
}

struct Bench<'a> {
    workload: Workload,
    cfg: &'a Config,
    system: SystemConfig,
    mix: WorkloadMix,
    n: u64,
    checker: Checker,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl<'a> Bench<'a> {
    fn new(workload: Workload, cfg: &'a Config) -> Self {
        Bench {
            workload,
            cfg,
            system: workload.system(cfg.seed),
            mix: workload.mix(),
            n: workload.accesses_per_core(&cfg.scale),
            checker: Checker::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn emit(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn finish(self) -> Outcome {
        Outcome {
            attempted: self.checker.attempted,
            failed: self.checker.failed,
            failures: self.checker.failures,
            metrics: self.metrics,
            notes: self.notes,
        }
    }

    fn untraced_mode(&self, flip_one_hit: bool) -> Mode {
        Mode {
            anatomy: self.workload.anatomy(),
            timed: false,
            spans: false,
            flip_one_hit,
            calibrate: false,
        }
    }

    /// Runs every unit once over the workload's workers and checks each.
    fn fan(&mut self, label: &str, workers: usize, mode: Mode) -> Fan {
        let (system, mix, n) = (&self.system, &self.mix, self.n);
        let start = Instant::now();
        let results = bimodal_exec::map(workers, self.workload.units().to_vec(), |kind| {
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| run_unit(system, kind, mix, n, mode)))
                .unwrap_or_else(|p| Err(format!("{} panicked: {}", kind.name(), panic_text(&p))));
            result.map(|mut run| {
                run.unit_time = t.elapsed() - run.calibration;
                run
            })
        });
        let wall = start.elapsed();
        let runs = results
            .into_iter()
            .filter_map(|r| self.checker.record(label, r))
            .collect();
        Fan { wall, runs }
    }

    /// A warm-up repetition, then timed repetitions until the window
    /// closes. Every unit of a timed repetition interleaves the
    /// calibration kernel with its engine loop.
    ///
    /// Host-time metrics are the median over the timed repetitions, with
    /// each unit's times divided by the host slowdown measured during its
    /// loop (see [`host`]): on the 2-vCPU reference host the raw times
    /// drift by up to 2.5× over minutes, which no estimator over a
    /// 30-second window can undo. The `#` lines print the raw figures.
    fn untraced(mut self) -> Outcome {
        let workers = self.workload.workers();
        let start = Instant::now();
        let warm_up = self.untraced_mode(self.cfg.perturb_rep == Some(0));
        self.fan("warm-up rep", workers, warm_up);
        // Peak RSS of one execution of the workload, read before the
        // kernel's table and later fans' allocator fragmentation (which
        // depends on which worker reused which arena) can raise it.
        let peak_rss = peak_rss_mb();
        let units = self.workload.units().len();
        let mut fans = Vec::new();
        for rep in 1.. {
            let mode = Mode {
                calibrate: true,
                ..self.untraced_mode(self.cfg.perturb_rep == Some(rep))
            };
            let fan = self.fan("timed rep", workers, mode);
            if fan.runs.len() == units {
                fans.push(fan);
            }
            if rep >= MIN_REPS && start.elapsed().as_secs_f64() >= self.cfg.seconds {
                break;
            }
        }
        self.serial_check();
        let per_fan = |f: fn(&Fan) -> f64| fans.iter().map(f).collect::<Vec<f64>>();
        let slowdowns = per_fan(Fan::slowdown);
        let rates = per_fan(|f| f.rate(false));
        let walls = per_fan(|f| f.worker_wall_s(false));
        self.notes.push(format!(
            "{} timed reps after a warm-up; host slowdown against the calibration kernel's \
             reference {} ns/op: median {} (fastest {}, slowest {})",
            fans.len(),
            host::REFERENCE_NS_PER_OP,
            median(&slowdowns),
            min(&slowdowns),
            max(&slowdowns)
        ));
        self.notes.push(format!(
            "raw, not host-normalised: accesses_per_s median {} fastest {}; wall_s median {} \
             fastest {}",
            median(&rates),
            max(&rates),
            median(&walls),
            min(&walls)
        ));
        self.emit("accesses_per_s", median(&per_fan(|f| f.rate(true))));
        self.emit("wall_s", median(&per_fan(|f| f.worker_wall_s(true))));
        self.emit("setup_s", median(&per_fan(Fan::normalised_setup_s)));
        self.emit("peak_rss_mb", peak_rss.unwrap_or(0.0));
        let pooled = fans
            .first()
            .map(|f| Pooled::of(&f.runs))
            .unwrap_or_default();
        self.emit("sim.hit_rate", pooled.hit_rate());
        self.emit("sim.avg_latency_cycles", pooled.avg_latency());
        self.emit(
            "sim.offchip_bytes_per_access",
            pooled.offchip_bytes_per_access(),
        );
        self.finish()
    }

    /// Re-runs a fanned workload's units serially once per invocation:
    /// the checker holds them to the fanned runs' statistics, which is the
    /// bit-identity `compare --jobs` promises.
    fn serial_check(&mut self) {
        if self.workload.workers() > 1 {
            let mode = self.untraced_mode(false);
            self.fan("serial re-run", 1, mode);
        }
    }

    fn traced(mut self) -> Outcome {
        let workers = self.workload.workers();
        // ABBA-ordered cycles so host-speed drift cancels between the
        // variants compared: U untraced, T with every scheme call timed,
        // and on q1-anatomy B, the untraced loop with anatomy off.
        let cycle: &[Variant] = if self.workload.anatomy() {
            &[
                Variant::U,
                Variant::B,
                Variant::T,
                Variant::T,
                Variant::B,
                Variant::U,
            ]
        } else {
            &[Variant::U, Variant::T, Variant::T, Variant::U]
        };
        let mut by_variant: BTreeMap<Variant, Vec<Fan>> = BTreeMap::new();
        let start = Instant::now();
        loop {
            for &v in cycle {
                let mode = Mode {
                    anatomy: self.workload.anatomy() && v != Variant::B,
                    timed: v == Variant::T,
                    spans: false,
                    flip_one_hit: false,
                    calibrate: false,
                };
                let fan = self.fan(v.label(), workers, mode);
                if fan.runs.len() == self.workload.units().len() {
                    by_variant.entry(v).or_default().push(fan);
                }
            }
            if start.elapsed().as_secs_f64() >= self.cfg.seconds {
                break;
            }
        }
        // The span profiler needs an enabled observer, whose per-access
        // epoch bookkeeping would swamp the timed loops above; it runs
        // once on its own and only its per-call span times are read.
        let spans = self.fan(
            "span-profiled run",
            workers,
            Mode {
                anatomy: self.workload.anatomy(),
                timed: false,
                spans: true,
                flip_one_hit: false,
                calibrate: false,
            },
        );
        self.serial_check();
        let fastest = |v| {
            by_variant
                .get(&v)
                .and_then(|fans| fans.iter().min_by(|a, b| a.loop_s().total_cmp(&b.loop_s())))
        };
        let (untraced, traced, anatomy_off) = (
            fastest(Variant::U),
            fastest(Variant::T),
            fastest(Variant::B),
        );
        self.notes.push(format!(
            "loops per variant (fastest used): {}",
            by_variant
                .iter()
                .map(|(v, fans)| format!("{} {}", v.label(), fans.len()))
                .collect::<Vec<_>>()
                .join(", ")
        ));

        let decode_ns = self.decode_ns_per_access(traced);
        self.emit("workloads.decode_ns_per_access", decode_ns);

        let access_ns_total = traced.map_or(0.0, |fan| {
            fan.runs
                .iter()
                .flat_map(|r| r.access_ns.iter())
                .map(|&ns| f64::from(ns))
                .sum()
        });
        let calls = traced.map_or(0, |fan| {
            fan.runs.iter().map(|r| r.access_ns.len() as u64).sum()
        });
        let issued = traced.map_or(0, Fan::issued);
        self.emit(
            "scheme.access_ns.mean",
            access_ns_total / calls.max(1) as f64,
        );
        self.emit(
            "scheme.access_ns.p50",
            traced.map_or(0.0, |f| percentile(f, 0.50)),
        );
        self.emit(
            "scheme.access_ns.p99",
            traced.map_or(0.0, |f| percentile(f, 0.99)),
        );
        self.emit("scheme.calls", calls as f64);

        let profile = span_of(&spans);
        for &(id, ns_name, calls_name) in SPANS {
            let stat = profile.get(id).unwrap_or_default();
            self.emit(ns_name, ratio(stat.host_ns, stat.calls));
            self.emit(calls_name, stat.calls as f64);
        }

        let pooled = untraced.map(|f| Pooled::of(&f.runs)).unwrap_or_default();
        let per_access = |x: u64| ratio(x, pooled.accesses);
        self.emit(
            "dram.stacked_ops_per_access",
            per_access(pooled.stacked.reads + pooled.stacked.writes),
        );
        self.emit(
            "dram.stacked_activates_per_access",
            per_access(pooled.stacked.activates),
        );
        self.emit("dram.stacked_rbh", pooled.stacked.row_buffer_hit_rate());
        self.emit(
            "dram.offchip_ops_per_access",
            per_access(pooled.offchip.reads + pooled.offchip.writes),
        );
        self.emit(
            "dram.metadata_rbh",
            ratio(pooled.md_row_hits, pooled.md_accesses),
        );
        self.emit(
            "core.locator_hit_rate",
            ratio(
                pooled.locator_hits,
                pooled.locator_hits + pooled.locator_misses,
            ),
        );
        self.emit(
            "core.small_block_frac",
            per_access(pooled.small_block_accesses),
        );
        self.emit("scheme.fills_per_access", per_access(pooled.fills));
        self.emit(
            "scheme.writebacks_per_access",
            per_access(pooled.writebacks),
        );

        // The engine's own time per issued access, from the traced loop:
        // what is left once the wrapper's timing (measured on empty calls
        // in this run), the scheme's calls net of the timer part inside
        // each window, and trace decode are taken out. Timing a call also
        // slows the call itself (the timer reads stop it overlapping its
        // neighbours), so the traced loop net of timing still exceeds the
        // untraced loop; the note shows by how much. Taking the scheme's
        // time from the traced loop and the rest from the untraced one
        // would charge that excess to the engine as a negative time.
        let (empty_ns, whole_ns) = empty_call_ns();
        let calls_per_issued = ratio(calls, issued);
        let scheme_ns = (access_ns_total / calls.max(1) as f64 - empty_ns) * calls_per_issued;
        let per_issued =
            |f: Option<&Fan>| f.map_or(0.0, |f| ratio_f(f.loop_s() * 1e9, f.issued() as f64));
        let untraced_ns = per_issued(untraced);
        let traced_net_ns = per_issued(traced) - whole_ns * calls_per_issued;
        let engine_ns = traced_net_ns - scheme_ns - decode_ns;
        self.notes.push(format!(
            "per issued access: traced loop less {whole_ns:.1} ns of timing per call \
             {traced_net_ns:.1} ns = scheme.access {scheme_ns:.1} (recorded less {empty_ns:.1} ns \
             of timer) + decode {decode_ns:.1} + engine {engine_ns:.1}; untraced loop \
             {untraced_ns:.1} ns"
        ));
        self.emit(
            "sim.engine_self_ns_per_access",
            if issued == 0 { 0.0 } else { engine_ns },
        );
        self.emit("sim.issued_per_measured", per_access(issued));

        // The pool only does work on a fanned workload; elsewhere its
        // metrics read 0.
        let fans: &[Fan] = if workers > 1 {
            by_variant.get(&Variant::U).map_or(&[], Vec::as_slice)
        } else {
            &[]
        };
        for &(kind, name) in EXEC_UNITS {
            let unit_s: Vec<f64> = fans
                .iter()
                .filter_map(|f| f.runs.iter().find(|r| r.kind == kind))
                .map(|r| r.unit_time.as_secs_f64())
                .collect();
            self.emit(name, min(&unit_s));
        }
        let best_wall = fans.iter().min_by(|a, b| a.wall.cmp(&b.wall));
        let wall_s = best_wall.map_or(0.0, |f| f.wall.as_secs_f64());
        let unit_s = best_wall.map_or(0.0, Fan::unit_s);
        self.emit("exec.busy_frac", ratio_f(unit_s, workers as f64 * wall_s));
        self.emit("exec.speedup", ratio_f(unit_s, wall_s));

        // A missing variant (every run of it failed) reads as no overhead.
        let overhead = |a: Option<&Fan>, b: Option<&Fan>| match (a, b) {
            (Some(a), Some(b)) => a.loop_s() / b.loop_s() - 1.0,
            _ => 0.0,
        };
        self.emit("obs.anatomy_overhead_frac", overhead(untraced, anatomy_off));
        self.emit("trace.overhead_frac", overhead(traced, untraced));
        self.finish()
    }

    /// Host ns per access of a decode-only pass: fresh copies of each
    /// unit's traces, pulled round-robin for as many accesses as the
    /// traced run issued. Fastest of three passes.
    fn decode_ns_per_access(&self, traced: Option<&Fan>) -> f64 {
        let Some(fan) = traced else { return 0.0 };
        // Traces depend on the system and the mix, not on the scheme.
        let sim = Simulation::new(self.system.clone(), SchemeKind::BiModal);
        let passes: Vec<f64> = (0..3)
            .map(|_| {
                let mut ns = 0.0;
                for run in &fan.runs {
                    let mut traces = sim.traces_for(&self.mix);
                    let t = Instant::now();
                    let mut sink = 0u64;
                    let mut left = run.issued;
                    'outer: loop {
                        for trace in &mut traces {
                            if left == 0 {
                                break 'outer;
                            }
                            let a = trace.next().expect("traces are endless");
                            sink = sink.wrapping_add(a.addr);
                            left -= 1;
                        }
                    }
                    std::hint::black_box(sink);
                    ns += t.elapsed().as_secs_f64() * 1e9;
                }
                ns / fan.issued() as f64
            })
            .collect();
        min(&passes)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Variant {
    /// Untraced, with the workload's own observer setting.
    U,
    /// Traced: every scheme call timed by the wrapper.
    T,
    /// Untraced with anatomy off (`q1-anatomy` only).
    B,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::U => "untraced loop",
            Variant::T => "traced loop",
            Variant::B => "anatomy-off loop",
        }
    }
}

/// The existing spans the per-layer table reads, with their metric names.
const SPANS: &[(SpanId, &str, &str)] = &[
    (
        SpanId::LocatorProbe,
        "span.locator.probe.ns_per_call",
        "span.locator.probe.calls",
    ),
    (
        SpanId::TagRead,
        "span.tag.read.ns_per_call",
        "span.tag.read.calls",
    ),
    (
        SpanId::PredictorLookup,
        "span.predictor.lookup.ns_per_call",
        "span.predictor.lookup.calls",
    ),
    (SpanId::Fill, "span.fill.ns_per_call", "span.fill.calls"),
    (
        SpanId::Writeback,
        "span.writeback.ns_per_call",
        "span.writeback.calls",
    ),
    (
        SpanId::DeferredDrain,
        "span.deferred.drain.ns_per_call",
        "span.deferred.drain.calls",
    ),
];

/// Fanned units and their per-unit time metric.
const EXEC_UNITS: &[(SchemeKind, &str)] = &[
    (SchemeKind::Alloy, "exec.unit_s.alloy"),
    (SchemeKind::LohHill, "exec.unit_s.lohhill"),
    (SchemeKind::AtCache, "exec.unit_s.atcache"),
    (SchemeKind::Footprint, "exec.unit_s.footprint"),
];

fn span_of(fan: &Fan) -> SpanProfile {
    let mut p = SpanProfile::default();
    for r in &fan.runs {
        p.merge(&r.report.profile);
    }
    p
}

/// The `q`-quantile of a fan's per-call scheme times, pooled over units.
fn percentile(fan: &Fan, q: f64) -> f64 {
    let mut all: Vec<u32> = fan
        .runs
        .iter()
        .flat_map(|r| r.access_ns.iter().copied())
        .collect();
    if all.is_empty() {
        return 0.0;
    }
    let idx = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len()) - 1;
    let (_, v, _) = all.select_nth_unstable(idx);
    f64::from(*v)
}

/// Counters summed over a fan's units: the simulated statistics of the
/// modelled designs, pooled so one number describes the workload.
#[derive(Debug, Default)]
struct Pooled {
    accesses: u64,
    hits: u64,
    total_latency: u64,
    offchip_bytes: u64,
    md_accesses: u64,
    md_row_hits: u64,
    locator_hits: u64,
    locator_misses: u64,
    small_block_accesses: u64,
    fills: u64,
    writebacks: u64,
    stacked: bimodal_dram::BankStats,
    offchip: bimodal_dram::BankStats,
}

impl Pooled {
    fn of(runs: &[UnitRun]) -> Self {
        let mut p = Pooled::default();
        for r in runs {
            let s = &r.report.scheme;
            p.accesses += s.accesses;
            p.hits += s.hits;
            p.total_latency += s.total_latency;
            p.offchip_bytes += s.offchip_bytes();
            p.md_accesses += s.md_accesses;
            p.md_row_hits += s.md_row_hits;
            p.locator_hits += s.locator_hits;
            p.locator_misses += s.locator_misses;
            p.small_block_accesses += s.small_block_accesses;
            p.fills += s.fills_big + s.fills_small;
            p.writebacks += s.writebacks;
            add_bank(&mut p.stacked, &r.report.cache_dram.totals);
            add_bank(&mut p.offchip, &r.report.offchip.totals);
        }
        p
    }

    fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.accesses)
    }

    fn avg_latency(&self) -> f64 {
        ratio(self.total_latency, self.accesses)
    }

    fn offchip_bytes_per_access(&self) -> f64 {
        ratio(self.offchip_bytes, self.accesses)
    }
}

fn add_bank(into: &mut bimodal_dram::BankStats, b: &bimodal_dram::BankStats) {
    into.row_hits += b.row_hits;
    into.row_misses += b.row_misses;
    into.row_empty += b.row_empty;
    into.activates += b.activates;
    into.precharges += b.precharges;
    into.reads += b.reads;
    into.writes += b.writes;
    into.bytes_read += b.bytes_read;
    into.bytes_written += b.bytes_written;
}

/// Builds and runs one unit exactly as `Simulation::run_mix` would,
/// timing set-up and the engine loop separately.
fn run_unit(
    system: &SystemConfig,
    kind: SchemeKind,
    mix: &WorkloadMix,
    n: u64,
    mode: Mode,
) -> Result<UnitRun, String> {
    let t0 = Instant::now();
    let sim = Simulation::new(system.clone(), kind);
    let traces = sim.traces_for(mix);
    let cores = mix.cores() as u64;
    let mut scheme = sim.build_scheme(n, cores);
    let mut mem = system.build_memory();
    let engine = Engine::new(sim.engine_options(n));
    let setup = t0.elapsed();

    let mut obs = if mode.anatomy || mode.spans {
        let mut c = ObserverConfig::default();
        if mode.anatomy {
            c = c.with_anatomy();
        }
        if mode.spans {
            c = c.with_spans();
        }
        Observer::enabled(c)
    } else {
        Observer::disabled()
    };
    let t_cal = Instant::now();
    let mut hook = LoopHook {
        issued: 0,
        calibrator: mode.calibrate.then(host::Calibrator::new),
    };
    let table_build = t_cal.elapsed();
    // Finished cores keep issuing until the slowest one is done: issue
    // reached 1.7x warm-up plus measured on Q1 and 3x on S1. Sizing the
    // timing buffer at 4x keeps it from reallocating inside the loop.
    let expected = usize::try_from((n + system.warmup_per_core) * cores * 4).unwrap_or(0);
    let t1 = Instant::now();
    let (result, access_ns) = if mode.timed || mode.flip_one_hit {
        let mut p = Probe::new(scheme.as_mut(), mode.timed, mode.flip_one_hit, expected);
        let r = engine.try_run(&mut p, &mut mem, traces, &mut obs, &mut hook);
        (r, p.access_ns)
    } else {
        let r = engine.try_run(scheme.as_mut(), &mut mem, traces, &mut obs, &mut hook);
        (r, Vec::new())
    };
    let calibrator = hook.calibrator.as_ref();
    let slices = calibrator.map_or(Duration::ZERO, host::Calibrator::time);
    let loop_time = t1.elapsed() - slices;
    let report = result.map_err(|d| format!("{} stalled: {d}", kind.name()))?;
    Ok(UnitRun {
        kind,
        report,
        issued: hook.issued,
        setup,
        loop_time,
        unit_time: setup + loop_time,
        worker: std::thread::current().id(),
        slowdown: calibrator.map_or(1.0, host::Calibrator::slowdown),
        calibration: table_build + slices,
        access_ns,
    })
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Largest of `xs`; 0 if empty.
fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Smallest of `xs`; 0 if empty.
fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The run-conditions note printed with every result.
#[must_use]
pub fn conditions(workload: Workload, cfg: &Config) -> String {
    let system = workload.system(cfg.seed);
    format!(
        "{}: seed {}, {} cores, {} MB cache, paper2014 backend, {} measured accesses/core; \
         modelled caches start empty apart from the system's {}-access-per-core warm-up",
        workload.name(),
        cfg.seed,
        system.cores,
        system.cache_mb,
        workload.accesses_per_core(&cfg.scale),
        system.warmup_per_core
    )
}
