//! Conformance tests every DRAM cache organization must pass.
//!
//! These run each scheme through the same behavioural contract: cold
//! misses then hits, statistics consistency, warm-up resets, writeback
//! accounting, and determinism.

use bimodal::cache::CacheAccess;
use bimodal::faults::CampaignConfig;
use bimodal::obs::Observer;
use bimodal::sim::{SchemeKind, Simulation, SystemConfig};
use bimodal::workloads::WorkloadMix;

fn system() -> SystemConfig {
    SystemConfig::quad_core().with_cache_mb(4)
}

fn all_schemes() -> Vec<SchemeKind> {
    let mut v = SchemeKind::all();
    v.push(SchemeKind::BiModalColocatedMetadata);
    v
}

#[test]
fn miss_then_hit_everywhere() {
    for kind in all_schemes() {
        // FootprintCache bypasses single-use pages; use a second access to
        // establish reuse before expecting a hit.
        let mut scheme = kind.build(&system());
        let mut mem = system().build_memory();
        let a = scheme.access(CacheAccess::read(0x12340, 0), &mut mem);
        assert!(!a.hit, "{kind}: cold access must miss");
        let b = scheme.access(CacheAccess::read(0x12340, a.complete), &mut mem);
        let c = scheme.access(CacheAccess::read(0x12340, b.complete), &mut mem);
        assert!(c.hit, "{kind}: third access to the same line must hit");
        assert!(c.complete > b.complete, "{kind}: time advances");
    }
}

#[test]
fn stats_are_consistent() {
    for kind in all_schemes() {
        let mut scheme = kind.build(&system());
        let mut mem = system().build_memory();
        let mut now = 0;
        let mut x = 77u64;
        for i in 0..2_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let addr = (x >> 20) % (16 << 20);
            let access = if i % 4 == 0 {
                CacheAccess::write(addr, now)
            } else {
                CacheAccess::read(addr, now)
            };
            let out = scheme.access(access, &mut mem);
            now = out.complete + 10;
        }
        let s = scheme.stats();
        assert_eq!(s.accesses, 2_000, "{kind}");
        assert_eq!(
            s.hits + s.misses,
            s.accesses,
            "{kind}: hits + misses = accesses"
        );
        assert_eq!(s.reads + s.writes + s.prefetches, s.accesses, "{kind}");
        assert!(s.total_latency > 0, "{kind}");
        // Misses may bypass or fetch, but every fetched byte must come
        // from a miss (or a speculative fetch riding on one).
        assert!(
            s.misses > 0 || s.offchip_fetched_bytes == 0,
            "{kind}: fetched bytes without misses"
        );
        assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0, "{kind}");
    }
}

#[test]
fn latency_is_never_zero_or_backwards() {
    for kind in all_schemes() {
        let mut scheme = kind.build(&system());
        let mut mem = system().build_memory();
        let mut now = 1000;
        for i in 0..500u64 {
            let out = scheme.access(CacheAccess::read(i * 4096, now), &mut mem);
            assert!(out.complete > now, "{kind}: completion must be after issue");
            now = out.complete + 5;
        }
    }
}

#[test]
fn reset_stats_keeps_contents() {
    for kind in all_schemes() {
        let mut scheme = kind.build(&system());
        let mut mem = system().build_memory();
        let a = scheme.access(CacheAccess::read(0x88000, 0), &mut mem);
        let b = scheme.access(CacheAccess::read(0x88000, a.complete), &mut mem);
        scheme.reset_stats();
        assert_eq!(scheme.stats().accesses, 0, "{kind}");
        let c = scheme.access(CacheAccess::read(0x88000, b.complete), &mut mem);
        assert!(c.hit, "{kind}: contents survive a stats reset");
    }
}

#[test]
fn dirty_data_is_written_back_under_conflict_pressure() {
    for kind in all_schemes() {
        let mut scheme = kind.build(&system());
        let mut mem = system().build_memory();
        let mut now = 0;
        // Dirty many lines (twice: single-use-bypassing schemes only
        // allocate on reuse), then stream far past the capacity — twice,
        // for the same reason — so evictions must occur.
        for _ in 0..2 {
            for k in 0..200u64 {
                let out = scheme.access(CacheAccess::write(k * 64, now), &mut mem);
                now = out.complete + 5;
            }
        }
        for _ in 0..2 {
            for k in 0..30_000u64 {
                let out = scheme.access(CacheAccess::read((1 << 23) + k * 2048, now), &mut mem);
                now = out.complete + 5;
            }
        }
        // Drain any deferred writebacks so the DRAM counters settle.
        mem.drain_deferred(now + 1_000_000);
        let s = scheme.stats();
        assert!(
            s.writebacks > 0,
            "{kind}: dirty lines must eventually be written back (evictions: {})",
            s.evictions
        );
        assert_eq!(
            s.offchip_writeback_bytes,
            s.writebacks * 64,
            "{kind}: 64 B per writeback"
        );
        assert!(
            mem.main.stats().totals.bytes_written >= s.offchip_writeback_bytes / 2,
            "{kind}"
        );
    }
}

#[test]
fn armed_but_silent_injector_is_invisible_for_every_scheme() {
    // The resilience plumbing must cost clean runs nothing, on every
    // organization: a campaign with all rates at zero produces a faulted
    // run byte-identical (JSON included) to the clean one, and identical
    // to the plain simulation facade on the same inputs.
    let sys = || system().with_warmup(300);
    for kind in SchemeKind::comparison_set() {
        let mix = WorkloadMix::quad("Q1").expect("known mix");
        let report = CampaignConfig::new(sys(), kind, mix)
            .with_accesses(600)
            .run(&mut Observer::disabled())
            .expect("zero-rate campaign runs");
        assert_eq!(report.counts.total(), 0, "{kind}");
        assert!(report.schedule.is_empty(), "{kind}");
        assert_eq!(report.clean, report.faulted, "{kind}");
        assert_eq!(report.clean_digest, report.faulted_digest, "{kind}");
        assert!(report.clean_digest.is_some(), "{kind}: digest exposed");
        let j = report.to_json();
        let clean = j.get("clean").expect("clean section").to_pretty();
        let faulted = j.get("faulted").expect("faulted section").to_pretty();
        assert_eq!(clean, faulted, "{kind}: byte-identical JSON sections");
        let shadow = report.shadow.expect("shadow on by default");
        assert_eq!(shadow.clean_violations, 0, "{kind}");
        assert_eq!(shadow.faulted_violations, 0, "{kind}");
        let mix = WorkloadMix::quad("Q1").expect("known mix");
        let plain = Simulation::new(sys(), kind)
            .run_mix(&mix, 600)
            .expect("runs");
        assert_eq!(report.faulted.scheme, plain.scheme, "{kind}");
        assert_eq!(report.faulted.core_cycles, plain.core_cycles, "{kind}");
    }
}

#[test]
fn deterministic_across_runs() {
    for kind in all_schemes() {
        let run = || {
            let mut scheme = kind.build(&system());
            let mut mem = system().build_memory();
            let mut now = 0;
            let mut sig = 0u64;
            let mut x = 3u64;
            for _ in 0..1_500 {
                x = x.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3);
                let out = scheme.access(CacheAccess::read((x >> 24) % (8 << 20), now), &mut mem);
                now = out.complete + 7;
                sig = sig.wrapping_mul(31).wrapping_add(out.complete);
            }
            (sig, scheme.stats().hits)
        };
        assert_eq!(run(), run(), "{kind}: identical inputs give identical runs");
    }
}

#[test]
fn every_scheme_resumes_byte_identically_from_a_mid_run_checkpoint() {
    // The crash-safety contract: snapshot an engine run mid-flight,
    // restore into a fresh engine, and the final machine-readable report
    // is byte-identical to the uninterrupted run — for every scheme, so
    // a baseline with unserialized state cannot slip through.
    use bimodal::sim::CheckpointSpec;
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let n = 5_000u64;
    for (i, kind) in all_schemes().into_iter().enumerate() {
        let reference = Simulation::new(system(), kind)
            .run_mix(&mix, n)
            .expect("reference run");
        let path =
            std::env::temp_dir().join(format!("bimodal-conf-ckpt-{i}-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // 4 cores x 5000 accesses = 20000 issued; a 3000 cadence leaves
        // the last snapshot mid-run (18000), not at the finish line.
        let spec = CheckpointSpec::new(path.clone(), 3_000).expect("valid cadence");
        let mut obs = Observer::disabled();
        let checkpointed = Simulation::new(system(), kind)
            .run_mix_checkpointed(&mix, n, &mut obs, Some(&spec), None)
            .expect("checkpointed run");
        assert_eq!(
            checkpointed.to_json().to_compact(),
            reference.to_json().to_compact(),
            "{kind}: writing checkpoints must not perturb the run"
        );
        assert!(path.exists(), "{kind}: a mid-run snapshot was written");
        let mut obs = Observer::disabled();
        let resumed = Simulation::new(system(), kind)
            .run_mix_checkpointed(&mix, n, &mut obs, None, Some(&path))
            .expect("resumed run");
        assert_eq!(
            resumed.to_json().to_compact(),
            reference.to_json().to_compact(),
            "{kind}: a resumed run must report byte-identically"
        );
        let _ = std::fs::remove_file(&path);
        let mut prev = path.into_os_string();
        prev.push(".prev");
        let _ = std::fs::remove_file(prev);
    }
}

/// The memory-substrate refactor's hard contract: under the default
/// `paper2014` backend, every scheme's `--json` report is byte-identical
/// to the pre-refactor goldens in `tests/golden/`. The comparison runs
/// through `bimodal diff --exact`, which strips exactly the volatile
/// wall-clock and profile sections. Regenerate a golden deliberately
/// (same commit as the model change) with:
/// `bimodal run --mix Q1 --scheme <s> --accesses 5000 --cache-mb 4
/// --seed 7 --json tests/golden/run_q1_<s>_5000.json`.
#[test]
fn default_backend_reports_match_pre_refactor_goldens() {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    for (scheme, slug) in [
        ("bimodal", "bimodal"),
        ("alloy", "alloy"),
        ("lohhill", "lohhill"),
        ("atcache", "atcache"),
        ("footprint", "footprint"),
    ] {
        let golden = golden_dir.join(format!("run_q1_{slug}_5000.json"));
        assert!(golden.exists(), "{scheme}: golden report is checked in");
        let fresh =
            std::env::temp_dir().join(format!("bimodal-golden-{slug}-{}.json", std::process::id()));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bimodal"))
            .args([
                "run",
                "--mix",
                "Q1",
                "--scheme",
                scheme,
                "--accesses",
                "5000",
                "--cache-mb",
                "4",
                "--seed",
                "7",
                "--json",
                fresh.to_str().expect("utf8"),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{scheme}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let diff = std::process::Command::new(env!("CARGO_BIN_EXE_bimodal"))
            .args(["diff", golden.to_str().expect("utf8")])
            .arg(&fresh)
            .arg("--exact")
            .output()
            .expect("binary runs");
        assert!(
            diff.status.success(),
            "{scheme}: default-backend report drifted from its golden:\n{}{}",
            String::from_utf8_lossy(&diff.stdout),
            String::from_utf8_lossy(&diff.stderr)
        );
        std::fs::remove_file(&fresh).expect("cleanup");
    }
}

#[test]
fn checkpoint_resume_is_byte_identical_on_non_default_backends() {
    // Checkpoint/resume and the substrate registry compose: a snapshot
    // taken mid-run on a non-default backend restores into a report
    // byte-identical to the uninterrupted run on that same backend.
    use bimodal::dram::BackendKind;
    use bimodal::sim::CheckpointSpec;
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let n = 5_000u64;
    for backend in [BackendKind::Hbm2, BackendKind::PcmFar] {
        let sys = || system().with_backend(backend);
        let reference = Simulation::new(sys(), SchemeKind::BiModal)
            .run_mix(&mix, n)
            .expect("reference run");
        let path = std::env::temp_dir().join(format!(
            "bimodal-conf-bkend-ckpt-{}-{}.bin",
            backend.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // 4 cores x 5000 accesses = 20000 issued; a 3000 cadence leaves
        // the last snapshot mid-run (18000), not at the finish line.
        let spec = CheckpointSpec::new(path.clone(), 3_000).expect("valid cadence");
        let mut obs = Observer::disabled();
        let checkpointed = Simulation::new(sys(), SchemeKind::BiModal)
            .run_mix_checkpointed(&mix, n, &mut obs, Some(&spec), None)
            .expect("checkpointed run");
        assert_eq!(
            checkpointed.to_json().to_compact(),
            reference.to_json().to_compact(),
            "{}: writing checkpoints must not perturb the run",
            backend.name()
        );
        assert!(path.exists(), "{}: a snapshot was written", backend.name());
        let mut obs = Observer::disabled();
        let resumed = Simulation::new(sys(), SchemeKind::BiModal)
            .run_mix_checkpointed(&mix, n, &mut obs, None, Some(&path))
            .expect("resumed run");
        assert_eq!(
            resumed.to_json().to_compact(),
            reference.to_json().to_compact(),
            "{}: a resumed run must report byte-identically",
            backend.name()
        );
        let _ = std::fs::remove_file(&path);
        let mut prev = path.into_os_string();
        prev.push(".prev");
        let _ = std::fs::remove_file(prev);
    }
}

#[test]
fn resuming_under_a_different_backend_is_a_typed_mismatch() {
    // The backend is part of the checkpoint fingerprint: a snapshot
    // taken on paper2014 must refuse to resume under hbm2 with a typed
    // `Mismatch`, never silently diverge.
    use bimodal::ckpt::CkptError;
    use bimodal::dram::BackendKind;
    use bimodal::sim::{CheckpointSpec, SimError};
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let path = std::env::temp_dir().join(format!(
        "bimodal-conf-xbkend-ckpt-{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let spec = CheckpointSpec::new(path.clone(), 3_000).expect("valid cadence");
    let mut obs = Observer::disabled();
    Simulation::new(system(), SchemeKind::BiModal)
        .run_mix_checkpointed(&mix, 5_000, &mut obs, Some(&spec), None)
        .expect("checkpointed default-backend run");
    let mut obs = Observer::disabled();
    let err = Simulation::new(
        system().with_backend(BackendKind::Hbm2),
        SchemeKind::BiModal,
    )
    .run_mix_checkpointed(&mix, 5_000, &mut obs, None, Some(&path))
    .expect_err("a cross-backend resume must fail");
    match err {
        SimError::Checkpoint(CkptError::Mismatch { detail }) => {
            assert!(detail.contains("paper2014"), "names the stored backend");
            assert!(detail.contains("hbm2"), "names the requested backend");
        }
        other => panic!("expected a fingerprint Mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
    let mut prev = path.into_os_string();
    prev.push(".prev");
    let _ = std::fs::remove_file(prev);
}

/// Collecting anatomy must be a pure observer: every pre-existing
/// report field stays byte-identical, and the new `anatomy` section is
/// strictly appended as the last key. (Host wall-clock timing is the
/// one legitimately volatile section; it is stripped on both sides.)
#[test]
fn anatomy_reports_keep_existing_fields_byte_identical() {
    use bimodal::obs::{Json, ObserverConfig};
    fn stripped(j: Json, drop_anatomy: bool) -> String {
        let Json::Obj(mut pairs) = j else {
            panic!("report serializes to an object");
        };
        if drop_anatomy {
            pairs.retain(|(k, _)| k != "anatomy");
        }
        for (k, v) in &mut pairs {
            if k == "obs" {
                if let Json::Obj(op) = v {
                    op.retain(|(k, _)| k != "wall");
                }
            }
        }
        Json::Obj(pairs).to_compact()
    }
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    for kind in all_schemes() {
        let mut plain_obs = Observer::enabled(ObserverConfig::default());
        let base = Simulation::new(system(), kind)
            .run_mix_observed(&mix, 2_000, &mut plain_obs)
            .expect("plain observed run");
        let mut obs = Observer::enabled(ObserverConfig::default().with_anatomy());
        let observed = Simulation::new(system(), kind)
            .run_mix_observed(&mix, 2_000, &mut obs)
            .expect("anatomy observed run");
        let j = observed.to_json();
        let Json::Obj(pairs) = &j else {
            panic!("report serializes to an object");
        };
        assert_eq!(
            pairs.last().map(|(k, _)| k.as_str()),
            Some("anatomy"),
            "{kind}: anatomy must be appended last"
        );
        assert_eq!(
            stripped(observed.to_json(), true),
            stripped(base.to_json(), false),
            "{kind}: anatomy collection must not perturb any existing field"
        );
    }
}

/// Anatomy accumulators are part of the crash-safety contract: a run
/// that checkpoints mid-flight and resumes must reproduce the exact
/// anatomy section (counts, per-component cycles, histograms) of an
/// uninterrupted run.
#[test]
fn anatomy_checkpoint_resume_round_trips_byte_identically() {
    use bimodal::obs::{Json, ObserverConfig};
    use bimodal::sim::CheckpointSpec;
    fn nonvolatile(j: Json) -> String {
        let Json::Obj(mut pairs) = j else {
            panic!("report serializes to an object");
        };
        for (k, v) in &mut pairs {
            if k == "obs" {
                if let Json::Obj(op) = v {
                    op.retain(|(k, _)| k != "wall");
                }
            }
        }
        Json::Obj(pairs).to_compact()
    }
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let n = 5_000u64;
    for (i, kind) in all_schemes().into_iter().enumerate() {
        let mut obs = Observer::enabled(ObserverConfig::default().with_anatomy());
        let reference = Simulation::new(system(), kind)
            .run_mix_observed(&mix, n, &mut obs)
            .expect("reference run");
        assert!(
            reference.anatomy.is_some(),
            "{kind}: reference run collected anatomy"
        );
        let path =
            std::env::temp_dir().join(format!("bimodal-anat-ckpt-{i}-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(path.clone(), 3_000).expect("valid cadence");
        let mut obs = Observer::enabled(ObserverConfig::default().with_anatomy());
        let checkpointed = Simulation::new(system(), kind)
            .run_mix_checkpointed(&mix, n, &mut obs, Some(&spec), None)
            .expect("checkpointed run");
        assert_eq!(
            nonvolatile(checkpointed.to_json()),
            nonvolatile(reference.to_json()),
            "{kind}: writing checkpoints must not perturb anatomy"
        );
        assert!(path.exists(), "{kind}: a mid-run snapshot was written");
        let mut obs = Observer::enabled(ObserverConfig::default().with_anatomy());
        let resumed = Simulation::new(system(), kind)
            .run_mix_checkpointed(&mix, n, &mut obs, None, Some(&path))
            .expect("resumed run");
        assert_eq!(
            nonvolatile(resumed.to_json()),
            nonvolatile(reference.to_json()),
            "{kind}: a resumed run must reproduce the anatomy section exactly"
        );
        let _ = std::fs::remove_file(&path);
        let mut prev = path.into_os_string();
        prev.push(".prev");
        let _ = std::fs::remove_file(prev);
    }
}

/// Journey buffers are not serialized, so checkpointing a journey-
/// sampling run is a typed mismatch error up front — while anatomy
/// alone checkpoints fine (covered above).
#[test]
fn journeys_under_checkpointing_is_a_typed_mismatch() {
    use bimodal::obs::ObserverConfig;
    use bimodal::sim::CheckpointSpec;
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let path =
        std::env::temp_dir().join(format!("bimodal-journey-ckpt-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let spec = CheckpointSpec::new(path.clone(), 1_000).expect("valid cadence");
    let mut obs = Observer::enabled(ObserverConfig::default().with_journeys(10));
    let err = Simulation::new(system(), SchemeKind::BiModal)
        .run_mix_checkpointed(&mix, 2_000, &mut obs, Some(&spec), None)
        .expect_err("journey sampling cannot checkpoint");
    assert!(
        err.to_string().contains("journey"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}
