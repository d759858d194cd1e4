//! `tcp-hypertune`: Hyper-Tune via `run_distributed` on a loopback
//! `TcpCluster`.
//!
//! One in-process worker with 4 pipelined slots serves each study; an
//! evaluation costs a fixed 3 ms sleep plus `evaluate` on the 8+8
//! `counting-ones` objective, and a study stops at 300 evaluations.
//! Prefetch stays at its default. Evaluation and suggestion cost about
//! the same here, so the worker's idle time is what a user pays for.
//!
//! With one worker the evaluator serves dispatches strictly in FIFO
//! order, so the measurement stream is bit-identical run to run. As in
//! `sim-hypertune`, the study seeds are a fixed panel (regret per seed
//! is part of the quality guard) and the run seed orders each pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hypertune::benchmarks::Eval;
use hypertune::cluster::{Executor, TcpCluster, TcpClusterOptions};
use hypertune::core::{
    run_distributed, MethodKind, ResourceLevels, ThreadedJob, ThreadedRunConfig, ThreadedRunResult,
};
use hypertune::registry;
use hypertune::space::ConfigSpace;
use serde_json::json;

use crate::fleet::{Fleet, FleetSpec};
use crate::layers::{MethodProbe, TimedExecutor};
use crate::panel::{fingerprint, run_panel, Unit};
use crate::trace::Trace;
use crate::{Report, RunOptions};

/// Study seeds of every run.
pub const PANEL: [u64; 4] = [1, 2, 3, 4];
/// Registry name of the objective.
pub const BENCH: &str = "counting-ones";
/// Evaluations per study.
pub const MAX_EVALS: usize = 300;
/// Pipelined dispatch slots of the single worker.
pub const SLOTS: usize = 4;
/// Fixed cost of every evaluation.
pub const EVAL_SLEEP: Duration = Duration::from_millis(3);

fn drive<E: Executor<ThreadedJob, Eval>>(
    method: &mut MethodProbe,
    levels: &ResourceLevels,
    space: &ConfigSpace,
    executor: E,
    config: &ThreadedRunConfig,
) -> (ThreadedRunResult, f64) {
    let t = Instant::now();
    let result = run_distributed(method, space, levels, executor, config);
    (result, t.elapsed().as_secs_f64())
}

/// Runs one study with `seed` on a fresh loopback fleet; `trace`
/// decorates it and enables telemetry. Returns the driver's result and
/// the study's summary.
pub fn study(seed: u64, trace: Option<&Trace>) -> Result<(ThreadedRunResult, Unit), String> {
    let t0 = Instant::now();
    let rec = trace.map(|t| Arc::clone(&t.rec));
    let fleet = Fleet::start(
        1,
        &FleetSpec {
            slots: SLOTS,
            sleep: EVAL_SLEEP,
            rec: rec.clone(),
        },
    )
    .map_err(|e| format!("worker start: {e}"))?;
    let cluster: TcpCluster<ThreadedJob, Eval> = TcpCluster::connect(
        &fleet.addrs,
        json!({"bench": BENCH, "seed": seed}),
        TcpClusterOptions::default(),
    )
    .map_err(|e| format!("connect: {e}"))?;
    let bench = registry::make_bench(BENCH, seed).ok_or("benchmark is registered")?;
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut method = MethodProbe::new(MethodKind::HyperTune.build(&levels, seed), rec.clone());
    let mut config = ThreadedRunConfig::new(cluster.n_workers(), MAX_EVALS, seed);
    let setup = t0.elapsed().as_secs_f64();

    let (result, wall) = match (trace, rec) {
        (Some(t), Some(rec)) => {
            config.telemetry = t.telemetry.clone();
            let timed = TimedExecutor::new(cluster, rec);
            drive(&mut method, &levels, bench.space(), timed, &config)
        }
        _ => drive(&mut method, &levels, bench.space(), cluster, &config),
    };
    let ledger = Arc::clone(&fleet.ledger);
    fleet.join()?;

    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    let r = &result;
    let evals = r.total_evals;
    check(
        evals == MAX_EVALS,
        format!("{evals} evals, budget {MAX_EVALS}"),
    );
    check(
        r.measurements.len() == evals,
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
        ledger.evals() == (evals + r.n_quarantined) as u64,
        format!(
            "{} dispatches evaluated, {evals} completed + {} quarantined",
            ledger.evals(),
            r.n_quarantined
        ),
    );
    check(
        ledger.repeats() == 0 && ledger.errors() == 0,
        format!(
            "{} attempts evaluated twice, {} undecodable",
            ledger.repeats(),
            ledger.errors()
        ),
    );
    check(
        r.n_failed_attempts + r.n_retries + r.n_quarantined + r.n_orphaned == 0,
        "fault-free study saw failures or retries".to_string(),
    );
    let optimum = bench.optimum().ok_or("counting-ones knows its optimum")?;
    let unit = Unit {
        setup,
        wall,
        evals,
        regret: r.best_value - optimum,
        busy_frac: ledger.busy() / wall,
        fingerprint: fingerprint(&r.measurements, false),
        attempted: (evals + r.n_failed_attempts) as u64,
        failed: (r.n_failed_attempts + r.n_quarantined + r.n_orphaned) as u64,
        violations,
    };
    Ok((result, unit))
}

/// Runs the workload.
pub fn run_workload(opts: &RunOptions) -> Report {
    run_panel(opts, &PANEL, |seed, trace| study(seed, trace).map(|s| s.1))
}
