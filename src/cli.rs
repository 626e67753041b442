//! The `bimodal` command line's flag table: which `--flag`s each command
//! accepts and which of them stand alone without a value. The binary
//! parses against it, and the CLI tests walk it.

/// Flags that stand alone (`--ecc`); an explicit value still works via
/// `--flag=value`.
pub const BARE_FLAGS: &[&str] = &[
    "ecc",
    "antt",
    "no-watchdog",
    "exact-tails",
    "quick",
    "stream",
    "profile",
    "anatomy",
    "check-history",
    "exact",
];

/// Flags each command accepts; anything else is rejected up front. An
/// unknown command accepts none.
#[must_use]
pub fn allowed_flags(command: &str) -> &'static [&'static str] {
    const RUN: &[&str] = &[
        "mix",
        "backend",
        "scheme",
        "accesses",
        "cache-mb",
        "seed",
        "warmup",
        "mlp",
        "prefetch",
        "json",
        "trace-out",
        "stream",
        "sample-every",
        "epoch",
        "heartbeat",
        "exact-tails",
        "profile",
        "metrics-out",
        "metrics-format",
        "anatomy",
        "journeys",
        "checkpoint",
        "checkpoint-every",
        "resume",
    ];
    const INJECT: &[&str] = &[
        "mix",
        "backend",
        "scheme",
        "accesses",
        "cache-mb",
        "seed",
        "seeds",
        "jobs",
        "warmup",
        "mlp",
        "metadata-rate",
        "multi-bit",
        "locator-rate",
        "predictor-rate",
        "dram-rate",
        "ecc",
        "antt",
        "shadow-every",
        "watchdog",
        "no-watchdog",
        "json",
        "trace-out",
        "sample-every",
        "epoch",
        "heartbeat",
        "exact-tails",
        "metrics-out",
        "metrics-format",
        "manifest",
        "retries",
        "retry-backoff-ms",
        "checkpoint",
        "checkpoint-every",
        "resume",
    ];
    const COMPARE: &[&str] = &[
        "mix",
        "backend",
        "accesses",
        "cache-mb",
        "seed",
        "warmup",
        "mlp",
        "prefetch",
        "jobs",
        "json",
        "heartbeat",
        "metrics-out",
        "metrics-format",
        "manifest",
        "checkpoint",
        "checkpoint-every",
        "resume",
    ];
    const ANTT: &[&str] = &[
        "mix",
        "backend",
        "scheme",
        "accesses",
        "cache-mb",
        "seed",
        "warmup",
        "mlp",
        "prefetch",
        "jobs",
        "json",
        "heartbeat",
    ];
    const SWEEP: &[&str] = &[
        "mix",
        "backend",
        "accesses",
        "cache-mb",
        "seed",
        "jobs",
        "json",
        "heartbeat",
        "manifest",
    ];
    const RECORD: &[&str] = &["program", "out", "n", "seed"];
    const BENCH: &[&str] = &[
        "quick",
        "backend",
        "jobs",
        "min-speedup",
        "out",
        "history",
        "check-history",
        "window",
        "max-regress",
    ];
    const BANDWIDTH: &[&str] = &[
        "mix", "backend", "scheme", "accesses", "cache-mb", "seed", "warmup", "mlp", "prefetch",
        "jobs", "json",
    ];
    const LATENCY: &[&str] = &[
        "mix", "backend", "scheme", "accesses", "cache-mb", "seed", "warmup", "mlp", "prefetch",
        "jobs", "json",
    ];
    const EXPLAIN: &[&str] = &[
        "mix", "backend", "scheme", "addr", "accesses", "cache-mb", "seed", "warmup", "mlp",
        "prefetch",
    ];
    match command {
        "run" => RUN,
        "compare" => COMPARE,
        "antt" => ANTT,
        "sweep" => SWEEP,
        "record" => RECORD,
        "inject" => INJECT,
        "bench" => BENCH,
        "bandwidth" => BANDWIDTH,
        "latency" => LATENCY,
        "explain" => EXPLAIN,
        _ => &[],
    }
}
