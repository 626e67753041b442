//! The benchmark's own tests: its output contract, that its checks can
//! fail, and that a held-out seed passes them with different results.

use bimodal_obs::Json;
use bimodal_perfbench::catalog;
use bimodal_perfbench::{run, Config, Outcome, Scale, Workload};

/// A seconds-long configuration: tiny inputs, the fewest repetitions.
fn quick(seed: u64) -> Config {
    Config {
        seed,
        seconds: 0.0,
        scale: Scale {
            q1_accesses_per_core: 3_000,
            s1_accesses_per_core: 1_000,
        },
        perturb_rep: None,
    }
}

/// The `sim.*` end-to-end metrics `BENCHMARK.json` declares.
fn sim_metrics() -> impl Iterator<Item = &'static str> {
    catalog::for_mode(false)
        .iter()
        .map(|d| d.name.as_str())
        .filter(|n| n.starts_with("sim."))
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .1
}

#[test]
fn every_declared_metric_is_emitted_once_per_workload() {
    let declared_workloads: Vec<Workload> = catalog::workloads()
        .iter()
        .map(|w| Workload::parse(w).unwrap_or_else(|| panic!("unknown workload {w}")))
        .collect();
    assert_eq!(declared_workloads, Workload::ALL);
    for workload in Workload::ALL {
        for traced in [false, true] {
            let out = run(workload, &quick(7), traced);
            let what = format!("{} trace={traced}", workload.name());
            assert!(out.correct(), "{what}: {:?}", out.failures);
            let declared: Vec<&str> = catalog::for_mode(traced)
                .iter()
                .map(|d| d.name.as_str())
                .collect();
            let mut emitted: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
            emitted.sort_unstable();
            let mut expected = declared.clone();
            expected.sort_unstable();
            assert_eq!(
                emitted, expected,
                "{what}: each declared metric exactly once"
            );
            for (name, v) in &out.metrics {
                assert!(v.is_finite(), "{what}: {name} = {v}");
            }

            // The printed line carries exactly the contract's keys, and
            // every metric a value and a legal unit.
            let json = Json::parse(&out.to_json().to_compact()).expect("valid JSON");
            let Json::Obj(keys) = &json else {
                panic!("{what}: result is not an object")
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert!(json.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            for name in declared {
                let m = json.get("metrics").and_then(|m| m.get(name)).expect(name);
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                assert!(catalog::legal_name(name), "{what}: bad name {name}");
                assert!(
                    catalog::legal_unit(unit),
                    "{what}: bad unit {unit} of {name}"
                );
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{what}: {name}"
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let out = run(workload, &quick(3), false);
        for (name, v) in &out.metrics {
            assert!(*v > 0.0, "{}: {name} = {v}", workload.name());
        }
    }
}

#[test]
fn a_perturbed_run_trips_the_determinism_check() {
    let mut cfg = quick(7);
    cfg.perturb_rep = Some(1);
    let out = run(Workload::Q1Bimodal, &cfg, false);
    assert!(!out.correct());
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(out.failed_frac() > 0.0);
    assert!(
        out.failures
            .iter()
            .any(|f| f.contains("simulated statistics differ")),
        "{:?}",
        out.failures
    );
    let json = out.to_json();
    assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(json.get("failed").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn a_second_seed_changes_every_sim_metric_and_passes_every_check() {
    for workload in [Workload::Q1Bimodal, Workload::S1Baselines] {
        let a = run(workload, &quick(1), false);
        let b = run(workload, &quick(2), false);
        assert!(a.correct(), "{:?}", a.failures);
        assert!(b.correct(), "{:?}", b.failures);
        for name in sim_metrics() {
            assert_ne!(
                value(&a, name),
                value(&b, name),
                "{}: {name} equal across seeds",
                workload.name()
            );
        }
    }
}

#[test]
fn sim_metrics_repeat_exactly_for_a_seed() {
    let a = run(Workload::Q1Anatomy, &quick(5), false);
    let b = run(Workload::Q1Anatomy, &quick(5), false);
    for name in sim_metrics() {
        assert_eq!(value(&a, name).to_bits(), value(&b, name).to_bits());
    }
}
