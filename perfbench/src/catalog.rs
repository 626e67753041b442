//! The benchmark's declaration, read from `BENCHMARK.json` at the
//! repository root (compiled in), so that file is the one list of
//! workloads and metrics with their units. Which end-to-end metric each
//! per-layer metric should move, and on which workload, is tabulated in
//! this directory's README.

use std::sync::OnceLock;

use bimodal_obs::Json;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Dotted metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
}

struct Catalog {
    workloads: Vec<String>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let json = Json::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json does not parse: {e}"));
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is not a list"))
        };
        let field = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
                .to_owned()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                })
                .collect()
        };
        Catalog {
            workloads: list("workloads").iter().map(|w| field(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// The declared workload names, in declaration order.
#[must_use]
pub fn workloads() -> &'static [String] {
    &catalog().workloads
}

/// The metrics a run with tracing `traced` must emit: `per_layer` when
/// traced, `end_to_end` otherwise.
#[must_use]
pub fn for_mode(traced: bool) -> &'static [MetricDef] {
    let c = catalog();
    if traced {
        &c.per_layer
    } else {
        &c.end_to_end
    }
}

/// The declared unit of metric `name`.
#[must_use]
pub fn unit(name: &str) -> Option<&'static str> {
    for_mode(false)
        .iter()
        .chain(for_mode(true))
        .find(|d| d.name == name)
        .map(|d| d.unit.as_str())
}

/// True when `name` obeys the benchmark's naming rule: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` obeys the unit rule: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn legal_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
