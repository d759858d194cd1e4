//! The repository's benchmark: whole tuning studies on three workloads.
//!
//! | workload | what runs | stresses |
//! |---|---|---|
//! | `sim-hypertune` | Hyper-Tune via `run` on the simulator, `nas-cifar10`, 8 virtual workers, 24 h virtual budget | suggestion path: surrogate fits, acquisition, θ |
//! | `tcp-hypertune` | Hyper-Tune via `run_distributed` on a loopback `TcpCluster`, one in-process worker with 4 slots, 3 ms + `evaluate` per trial, 300-eval studies | worker idle time: suggestion vs evaluation, prefetch |
//! | `service-tcp` | `TuningService` with a WAL state dir over 2 in-process multi-study workers (4 slots each), 16 concurrent tenants of 64-eval `counting-ones-small` studies, ASHA / A-Random alternating | wire, booking, fair share, WAL |
//!
//! All three are closed loops: a study's next trial is suggested only
//! when a slot frees, and a finished study is replaced at once.
//!
//! Untraced runs (`--trace 0`) print the [`END_TO_END`] metrics. Traced
//! runs (`--trace 1`) run every unit twice, bare and decorated, and
//! print the [`PER_LAYER`] metrics: call timings taken from outside by
//! the decorators of [`layers`], plus the spans and counters the
//! program already emits through `TelemetryHandle::snapshot()`.
//! [`LAYER_MAP`] records which end-to-end metric each layer should move
//! on which workload.

pub mod env;
pub mod fleet;
pub mod layers;
pub mod panel;
pub mod service;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod trace;

use std::collections::BTreeMap;

/// One metric of the catalog.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of untraced runs, printed by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("trials_per_s", "1/s", "higher"),
    m("studies_per_s", "1/s", "higher"),
    m("study_s_p50", "s", "lower"),
    m("study_s_p90", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("regret_final", "objective", "lower"),
    m("worker_busy_frac", "ratio", "higher"),
];

/// Metrics of traced runs, printed by every workload. Counts and times
/// are per study (mean over the run's traced studies); a layer that
/// does not run on a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.suggest.calls", "1/study", "lower"),
    m("core.suggest.busy_s", "s/study", "lower"),
    m("core.suggest.self_s", "s/study", "lower"),
    m("core.suggest.ms_p50", "ms", "lower"),
    m("core.suggest.ms_p99", "ms", "lower"),
    m("core.on_result.calls", "1/study", "lower"),
    m("core.on_result.busy_s", "s/study", "lower"),
    m("core.theta_refresh.calls", "1/study", "lower"),
    m("core.theta_refresh.busy_s", "s/study", "lower"),
    m("surrogate.fit.calls", "1/study", "lower"),
    m("surrogate.fit.busy_s", "s/study", "lower"),
    m("surrogate.acquisition.calls", "1/study", "lower"),
    m("surrogate.acquisition.busy_s", "s/study", "lower"),
    m("surrogate.rescore_ops", "1/study", "lower"),
    m("core.prefetch.hit_ratio", "ratio", "higher"),
    m("cluster.submit.calls", "1/study", "lower"),
    m("cluster.submit.busy_s", "s/study", "lower"),
    m("cluster.next_completion.wait_s", "s/study", "lower"),
    m("cluster.queue_and_wire_ms_p50", "ms", "lower"),
    m("cluster.queue_and_wire_ms_p99", "ms", "lower"),
    m("cluster.net.dispatches", "1/study", "lower"),
    m("cluster.net.results", "1/study", "lower"),
    m("cluster.net.heartbeats", "1/study", "lower"),
    m("service.create_study.ms_p50", "ms", "lower"),
    m("service.suggest_ms_p99", "ms", "lower"),
    m("service.wal.flushes", "1/study", "lower"),
    m("service.wal.records", "1/study", "lower"),
    m("service.wal.bytes_per_trial", "B/trial", "lower"),
    m("service.control_plane_s", "s/study", "lower"),
    m("benchmarks.evaluate.calls", "1/study", "lower"),
    m("benchmarks.evaluate.busy_s", "s/study", "lower"),
    m("core.driver.unattributed_s", "s/study", "lower"),
    m("telemetry.overhead_frac", "ratio", "lower"),
];

/// Which end-to-end metric each layer's metrics should move, on which
/// workload (`layer prefix`, `prediction`).
pub const LAYER_MAP: &[(&str, &str)] = &[
    (
        "core.suggest, core.on_result, surrogate.*",
        "trials_per_s on sim-hypertune; worker_busy_frac and trials_per_s on tcp-hypertune; no change on service-tcp",
    ),
    (
        "core.theta_refresh",
        "as above, and on service-tcp (ASHA refreshes theta)",
    ),
    ("core.prefetch.hit_ratio", "worker_busy_frac on tcp-hypertune"),
    (
        "cluster.*",
        "trials_per_s and study_s_p50 on service-tcp; no change on tcp-hypertune",
    ),
    ("service.*", "studies_per_s on service-tcp only"),
    (
        "benchmarks.evaluate",
        "fixed by design: the evaluation work is identical on both commits",
    ),
    (
        "core.driver.unattributed_s",
        "every workload; a driver-loop refactor must keep it flat",
    ),
    (
        "telemetry.overhead_frac",
        "no end-to-end metric (those runs are untraced)",
    ),
];

/// The workloads, by name; `BENCHMARK.json` records why each was
/// chosen.
pub const WORKLOADS: &[&str] = &["sim-hypertune", "tcp-hypertune", "service-tcp"];

/// What the command line asks of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// How long to keep measuring, in seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Trial dispatch attempts.
    pub attempted: u64,
    /// Failed, orphaned and quarantined attempts.
    pub failed: u64,
    /// Correctness violations; any makes the run fail.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each metric that is a statistic of samples.
    pub samples: BTreeMap<&'static str, usize>,
    /// Metrics of the catalog whose layer does not run on this workload.
    pub not_applicable: Vec<&'static str>,
}

impl Report {
    /// Records a violation when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Runs workload `name`, or `None` if there is no such workload.
pub fn run_workload(name: &str, opts: &RunOptions) -> Option<Report> {
    Some(match name {
        "sim-hypertune" => sim::run_workload(opts),
        "tcp-hypertune" => tcp::run_workload(opts),
        "service-tcp" => service::run_workload(opts),
        _ => return None,
    })
}
