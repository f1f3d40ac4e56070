//! `cxl0-benchmark` — named end-to-end and per-layer metrics of
//! `cxl0-runtime` over four durable-structure workloads. README.md
//! defines every metric and workload; `BENCHMARK.json` at the repository
//! root is the contract this program is run under.
//!
//! ```text
//! cxl0-benchmark bench --workload W --seed S --seconds N --trace 0|1   one run, result line last
//! cxl0-benchmark run [--seed S] [--seconds N] [--repeat R] [--quick] [--out FILE]
//! cxl0-benchmark compare A.json B.json
//! cxl0-benchmark manifest                                              prints BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod bench;
mod compare;
mod json;
mod metrics;
mod model;
mod passes;
mod probes;
mod spans;
mod sut;
mod util;
mod workload;

use std::process::ExitCode;

use bench::Outcome;
use json::Json;
use metrics::{MetricDef, RUN_SECONDS};
use workload::{Sizes, Spec};

/// Seed of `run` when none is given; README.md also names a held-out
/// seed no change should be tuned on.
const DEFAULT_SEED: u64 = 20_260_930;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cxl0-benchmark bench --workload W --seed S --seconds N --trace 0|1\n\
         \x20      cxl0-benchmark run [--seed S] [--seconds N] [--repeat R] [--quick] [--out FILE]\n\
         \x20      cxl0-benchmark compare A.json B.json\n\
         \x20      cxl0-benchmark manifest"
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--quick`, checked against `known`.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = if name == "quick" {
            "1".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} takes a value"))?
                .clone()
        };
        out.push((name.to_string(), value));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<Option<T>, String> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| {
            v.parse::<T>()
                .map_err(|_| format!("--{name}: bad value {v:?}"))
        })
        .transpose()
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result(defs: &[MetricDef], outcome: &Outcome) -> Vec<(&'static str, Json)> {
    vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.values.to_contract(defs)),
    ]
}

/// One run's record in a `run --out` file: which run it was, then the
/// contract's result fields.
fn record(spec: &Spec, seed: u64, trace: bool, defs: &[MetricDef], outcome: &Outcome) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(trace)))),
    ];
    fields.extend(result(defs, outcome));
    Json::object(fields)
}

fn run_one(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
) -> (Outcome, Vec<MetricDef>) {
    if trace {
        (
            bench::per_layer(spec, seed, seconds, sizes),
            metrics::per_layer(),
        )
    } else {
        (
            bench::end_to_end(spec, seed, seconds, sizes),
            metrics::end_to_end(),
        )
    }
}

/// Every metric by name with its unit, for people (stderr in `bench`,
/// stdout in `run`).
fn describe(
    spec: &Spec,
    seed: u64,
    defs: &[MetricDef],
    outcome: &Outcome,
    mut line: impl FnMut(String),
) {
    for d in defs {
        let value = outcome.values.get(&d.name).unwrap_or(0.0);
        line(format!(
            "{:<16} {:<34} {:>18.4} {}",
            spec.name, d.name, value, d.unit
        ));
    }
    for note in &outcome.notes {
        line(format!("{:<16} {note}", spec.name));
    }
    line(format!(
        "{:<16} seed {seed}: {} attempted, {} failed",
        spec.name, outcome.attempted, outcome.failed
    ));
}

/// The contract mode: one workload, one result line.
fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace", "quick"])?;
    let name: String = flag(&flags, "workload")?.ok_or("--workload is required")?;
    let spec = workload::spec(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flag(&flags, "seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flag(&flags, "seconds")?.unwrap_or(RUN_SECONDS as f64);
    let trace = match flag::<u8>(&flags, "trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let sizes = if flag::<u8>(&flags, "quick")?.is_some() {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let (outcome, defs) = run_one(&spec, seed, seconds, trace, &sizes);
    describe(&spec, seed, &defs, &outcome, |l| eprintln!("{l}"));
    println!("{}", Json::object(result(&defs, &outcome)));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// All four workloads, both runs each, `repeat` times on consecutive
/// seeds.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["seed", "seconds", "repeat", "quick", "out"])?;
    let quick = flag::<u8>(&flags, "quick")?.is_some();
    let sizes = if quick { Sizes::quick() } else { Sizes::full() };
    let seed: u64 = flag(&flags, "seed")?.unwrap_or(DEFAULT_SEED);
    let default_seconds = if quick { 0.5 } else { RUN_SECONDS as f64 };
    let seconds: f64 = flag(&flags, "seconds")?.unwrap_or(default_seconds);
    let repeat: u64 = flag(&flags, "repeat")?.unwrap_or(1);
    let out: Option<String> = flag(&flags, "out")?;
    if !(seconds.is_finite() && seconds > 0.0) || repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    println!(
        "cxl0-benchmark: {} worker threads on {} available; simulated metrics are a single-thread pass",
        workload::WORKERS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut runs = Vec::new();
    let mut failed = 0;
    for r in 0..repeat {
        for spec in workload::specs() {
            for trace in [false, true] {
                let (outcome, defs) = run_one(&spec, seed + r, seconds, trace, &sizes);
                describe(&spec, seed + r, &defs, &outcome, |l| println!("{l}"));
                failed += outcome.failed;
                runs.push(record(&spec, seed + r, trace, &defs, &outcome));
            }
        }
    }
    if let Some(path) = out {
        let doc = Json::object(vec![
            ("seconds", Json::Num(seconds)),
            ("quick", Json::Bool(quick)),
            ("runs", Json::Arr(runs)),
        ]);
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
        }
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!("{failed} failed operations");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, failed_b) = compare::compare(&load(a)?, &load(b)?)?;
    Ok(ExitCode::from(compare::report(&rows, failed_b) as u8))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "bench" => cmd_bench(rest),
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("cxl0-benchmark: {e}");
        ExitCode::from(2)
    })
}
