//! `sim-hypertune`: Hyper-Tune via `run` on the discrete-event
//! simulator, the paper's own experimental substrate.
//!
//! Each study tunes the `nas-cifar10` table (CIFAR-10-Valid analogue)
//! with 8 virtual workers for the paper's 24 h virtual budget. Evaluation
//! is a table lookup, so host time is almost all suggestion.
//!
//! The study seeds are a fixed panel: regret is deterministic per seed,
//! so the panel's mean regret is the quality guard for any change that
//! alters RNG draws, and it must read the same on both commits. The run
//! seed orders each pass over the panel.

use std::sync::Arc;
use std::time::Instant;

use hypertune::benchmarks::{tasks, Benchmark, TabularNasBench};
use hypertune::core::{run, MethodKind, ResourceLevels, RunConfig, RunResult};

use crate::layers::{MethodProbe, TimedBenchmark};
use crate::panel::{fingerprint, run_panel, Unit};
use crate::trace::Trace;
use crate::{Report, RunOptions};

/// Study seeds of every run.
pub const PANEL: [u64; 4] = [1, 2, 3, 4];
/// Virtual workers.
pub const WORKERS: usize = 8;
/// Virtual budget: the paper's 24 h for CIFAR-10-Valid.
pub const BUDGET_S: f64 = 24.0 * 3600.0;

/// Runs one study with `seed`; `trace` decorates it and enables
/// telemetry. Returns the runner's result and the study's summary.
pub fn study(seed: u64, trace: Option<&Trace>) -> (RunResult, Unit) {
    let t0 = Instant::now();
    let table: Arc<TabularNasBench> = Arc::new(tasks::nas_cifar10_valid(0));
    let levels = ResourceLevels::new(table.max_resource(), 3);
    let method = MethodKind::HyperTune.build(&levels, seed);
    let setup = t0.elapsed().as_secs_f64();

    let mut method = MethodProbe::new(method, trace.map(|t| Arc::clone(&t.rec)));
    let mut config = RunConfig::new(WORKERS, BUDGET_S, seed);
    let timed;
    let bench: &dyn Benchmark = match trace {
        Some(t) => {
            config.telemetry = t.telemetry.clone();
            timed = TimedBenchmark::new(table.clone(), Arc::clone(&t.rec));
            &timed
        }
        None => &*table,
    };
    let t1 = Instant::now();
    let r = run(&mut method, bench, &config);
    let wall = t1.elapsed().as_secs_f64();

    let optimum = table
        .optimum()
        .expect("tabular benchmarks know their optimum");
    let regret = r
        .best_config
        .as_ref()
        .map_or(f64::INFINITY, |c| table.final_error(c) - optimum);
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    let evals = r.total_evals;
    check(evals > 0, "no evaluations".to_string());
    check(
        r.measurements.len() == evals && r.evals_per_level.iter().sum::<usize>() == evals,
        format!("{} measurements for {evals} evals", r.measurements.len()),
    );
    check(
        method.booked() == evals && method.double_booked() == 0,
        format!(
            "{} distinct ids booked for {evals} evals, {} booked twice",
            method.booked(),
            method.double_booked()
        ),
    );
    check(
        r.n_failed_attempts + r.n_retries + r.n_quarantined + r.n_orphaned == 0,
        "fault-free study saw failures or retries".to_string(),
    );
    check(regret.is_finite(), "no incumbent".to_string());
    let unit = Unit {
        setup,
        wall,
        evals,
        regret,
        busy_frac: r.utilization,
        fingerprint: fingerprint(&r.measurements, true),
        attempted: (evals + r.n_failed_attempts) as u64,
        failed: (r.n_failed_attempts + r.n_quarantined + r.n_orphaned) as u64,
        violations,
    };
    (r, unit)
}

/// Runs the workload.
pub fn run_workload(opts: &RunOptions) -> Report {
    run_panel(opts, &PANEL, |seed, trace| Ok(study(seed, trace).1))
}
