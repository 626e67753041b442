//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out FILE]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--workload all` each workload runs in its own child process (so peak
//! RSS is per workload) and the combined results are printed, and written
//! to `--out` when given.

use std::process::{Command, ExitCode};

use bimodal_obs::Json;
use bimodal_perfbench::{conditions, run, Config, Workload};

const USAGE: &str = "usage: perfbench --workload <q1-bimodal|s1-baselines|q1-anatomy|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--out FILE]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(if v == "all" {
                    None
                } else {
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?)
                });
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {v} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                });
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) => Ok(run_one(w, &args)),
        None => run_all(&args),
    };
    let json = match result {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.out {
        let path = std::path::Path::new(path);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json.to_pretty() + "\n"));
        if let Err(e) = written {
            let path = path.display();
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", json.to_compact());
    ExitCode::SUCCESS
}

fn run_one(workload: Workload, args: &Args) -> Json {
    let cfg = Config::full(args.seed, args.seconds);
    println!("# {}", conditions(workload, &cfg));
    let outcome = run(workload, &cfg, args.trace);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value) in &outcome.metrics {
        println!("# {name:<36} {value}");
    }
    println!(
        "# attempted {} failed {} (failed_frac {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed_frac()
    );
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    outcome.to_json()
}

/// Runs every workload in its own child process, in order, and combines
/// their result lines under `workloads`.
fn run_all(args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut combined = Json::object();
    let mut all_correct = true;
    for w in Workload::ALL {
        eprintln!("running {} ...", w.name());
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result =
            Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
        all_correct &= result.get("correct") == Some(&Json::Bool(true));
        combined.set(w.name(), result);
    }
    let mut o = Json::object();
    o.set("correct", all_correct)
        .set("seed", args.seed)
        .set("trace", args.trace)
        .set("workloads", combined);
    Ok(o)
}
