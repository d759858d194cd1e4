//! `perfbench` — runs one workload of the repository's benchmark and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the checkout root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- ARGS`.
//! The next-to-last stdout line is a JSON object with the environment,
//! sample counts and the layer → end-to-end map; the last line is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics untraced and the per-layer metrics traced. Any
//! failed correctness check prints `correct: false`, lists the
//! violations on stderr and exits with code 1. With `--workload all`,
//! metric names are prefixed by the workload, and `peak_rss_mb` is the
//! process's peak up to the end of that workload.

use perfbench::{run_workload, MetricDef, RunOptions, END_TO_END, LAYER_MAP, PER_LAYER, WORKLOADS};
use serde::{Map, Value};
use serde_json::json;

const USAGE: &str = "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(Vec<&'static str>, RunOptions), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let names: Vec<&'static str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name => vec![*WORKLOADS
            .iter()
            .find(|n| **n == name)
            .ok_or(format!("unknown workload {name}"))?],
    };
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let opts = RunOptions {
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    };
    Ok((names, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (names, opts) = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let catalog: &[MetricDef] = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Map::new();
    let mut info = Map::new();
    for name in &names {
        let mut report = run_workload(name, &opts).expect("workload names were validated");
        for def in catalog {
            let value = report.metrics.get(def.name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                report.violations.push(format!("{} is {value}", def.name));
            }
            // With several workloads, prefix each metric with its workload.
            let key = if names.len() == 1 {
                def.name.to_string()
            } else {
                format!("{name}.{}", def.name)
            };
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.insert(key, json!({"value": value, "unit": def.unit}));
        }
        if report.attempted == 0 {
            report.violations.push("no trial was attempted".to_string());
        }
        for v in &report.violations {
            eprintln!("perfbench: {name}: correctness violation: {v}");
        }
        correct &= report.violations.is_empty();
        attempted += report.attempted;
        failed += report.failed;
        let samples: Map = report
            .samples
            .iter()
            .map(|(k, n)| (k.to_string(), json!(*n as u64)))
            .collect();
        let not_applicable: Vec<Value> = report.not_applicable.iter().map(|n| json!(*n)).collect();
        info.insert(
            name.to_string(),
            json!({
                "failed_frac": report.failed as f64 / report.attempted.max(1) as f64,
                "violations": report.violations.len() as u64,
                "samples": Value::Object(samples),
                "not_applicable": Value::Array(not_applicable),
            }),
        );
    }
    let layer_map: Map = LAYER_MAP
        .iter()
        .map(|(layer, moves)| (layer.to_string(), json!(*moves)))
        .collect();
    let header = json!({
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "environment": perfbench::env::describe(&perfbench::service::state_root()),
        "workloads": Value::Object(info),
        "layer_map": Value::Object(layer_map),
    });
    println!(
        "{}",
        serde_json::to_string(&header).expect("serialise header")
    );
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialise result")
    );
    if !correct {
        std::process::exit(1);
    }
}
