//! Per-layer attribution for traced runs: decorator timings plus the
//! spans and counters the program emits through its telemetry handle.

use std::sync::Arc;

use hypertune::telemetry::{MetricsSnapshot, Telemetry, TelemetryHandle};

use crate::layers::Recorder;
use crate::stats::{quantile, union_len};
use crate::{Report, PER_LAYER};

/// Layers timed on the driver side; their union is the attributed part
/// of the driver's wall time.
pub const DRIVER_LAYERS: &[&str] = &[
    "core.suggest",
    "core.on_result",
    "benchmarks.evaluate",
    "cluster.submit",
    "cluster.next_completion",
    "service.create_study",
];

/// The instruments of one traced run, shared by all its traced studies.
pub struct Trace {
    /// Decorator timings.
    pub rec: Arc<Recorder>,
    /// Wall-clock telemetry with no sink: metrics and spans only.
    pub telemetry: TelemetryHandle,
    /// Traced studies run.
    pub studies: usize,
    /// Summed wall time of the traced units.
    pub traced_wall: f64,
    /// Summed wall time of the same units run bare.
    pub bare_wall: f64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Fresh instruments.
    pub fn new() -> Self {
        Self {
            rec: Recorder::new(),
            telemetry: Telemetry::new().build(),
            studies: 0,
            traced_wall: 0.0,
            bare_wall: 0.0,
        }
    }

    /// The telemetry snapshot (empty when nothing was recorded).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot().unwrap_or_default()
    }

    /// Fills every per-layer metric the run observed into `report`.
    /// `extra_attributed` is driver time attributed by spans rather than
    /// decorators (the service's suggestion path); metrics of layers
    /// that did not run read 0 and are listed as not applicable.
    pub fn finish(&self, report: &mut Report, extra_attributed: f64) {
        let Report {
            metrics,
            samples,
            not_applicable,
            ..
        } = report;
        let per = 1.0 / self.studies.max(1) as f64;
        let snap = self.snapshot();
        let hist = |name: &str| {
            snap.histogram(name)
                .map_or((0.0, 0.0), |h| (h.count as f64, h.sum))
        };
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;

        let (theta_n, theta_s) = hist("span.theta_refresh");
        let (fit_n, fit_s) = hist("span.surrogate_fit");
        let (acq_n, acq_s) = hist("span.acquisition");
        let suggest = self.rec.calls("core.suggest");
        let (suggest_n, suggest_s) = if suggest.count() > 0 {
            let ms = suggest.durations_ms();
            metrics.insert("core.suggest.ms_p50", quantile(&ms, 0.5));
            metrics.insert("core.suggest.ms_p99", quantile(&ms, 0.99));
            samples.insert("core.suggest.ms_p99", ms.len());
            (suggest.count() as f64, suggest.busy())
        } else {
            // No method decorator (the service builds its own methods):
            // the program's suggestion span covers the same calls.
            hist("span.suggest_batch")
        };
        if suggest_n > 0.0 {
            metrics.insert("core.suggest.calls", suggest_n * per);
            metrics.insert("core.suggest.busy_s", suggest_s * per);
            let self_s = suggest_s - theta_s - fit_s - acq_s;
            metrics.insert("core.suggest.self_s", self_s * per);
        }
        let on_result = self.rec.calls("core.on_result");
        if on_result.count() > 0 {
            metrics.insert("core.on_result.calls", on_result.count() as f64 * per);
            metrics.insert("core.on_result.busy_s", on_result.busy() * per);
        }
        for (n, s, calls, busy) in [
            (
                theta_n,
                theta_s,
                "core.theta_refresh.calls",
                "core.theta_refresh.busy_s",
            ),
            (fit_n, fit_s, "surrogate.fit.calls", "surrogate.fit.busy_s"),
            (
                acq_n,
                acq_s,
                "surrogate.acquisition.calls",
                "surrogate.acquisition.busy_s",
            ),
        ] {
            if n > 0.0 {
                metrics.insert(calls, n * per);
                metrics.insert(busy, s * per);
            }
        }
        let rescore = counter("batch.rescore_ops");
        if rescore > 0.0 {
            metrics.insert("surrogate.rescore_ops", rescore * per);
        }
        let (hit, miss, discarded) = (
            counter("prefetch.hit"),
            counter("prefetch.miss"),
            counter("prefetch.discarded"),
        );
        if hit + miss + discarded > 0.0 {
            metrics.insert("core.prefetch.hit_ratio", hit / (hit + miss + discarded));
        }

        let submit = self.rec.calls("cluster.submit");
        if submit.count() > 0 {
            metrics.insert("cluster.submit.calls", submit.count() as f64 * per);
            metrics.insert("cluster.submit.busy_s", submit.busy() * per);
            let wait = self.rec.calls("cluster.next_completion").busy();
            metrics.insert("cluster.next_completion.wait_s", wait * per);
            let wire = self.rec.wire_ms();
            metrics.insert("cluster.queue_and_wire_ms_p50", quantile(&wire, 0.5));
            metrics.insert("cluster.queue_and_wire_ms_p99", quantile(&wire, 0.99));
            samples.insert("cluster.queue_and_wire_ms_p99", wire.len());
            for (counter_name, metric) in [
                ("net.dispatches", "cluster.net.dispatches"),
                ("net.results", "cluster.net.results"),
                ("net.heartbeats", "cluster.net.heartbeats"),
            ] {
                metrics.insert(metric, counter(counter_name) * per);
            }
        }
        let evaluate = self.rec.calls("benchmarks.evaluate");
        if evaluate.count() > 0 {
            metrics.insert("benchmarks.evaluate.calls", evaluate.count() as f64 * per);
            metrics.insert("benchmarks.evaluate.busy_s", evaluate.busy() * per);
        }

        let attributed = union_len(self.rec.spans_of(DRIVER_LAYERS)) + extra_attributed;
        metrics.insert(
            "core.driver.unattributed_s",
            (self.traced_wall - attributed) * per,
        );
        if self.bare_wall > 0.0 {
            metrics.insert(
                "telemetry.overhead_frac",
                self.traced_wall / self.bare_wall - 1.0,
            );
        }
        for def in PER_LAYER {
            if !metrics.contains_key(def.name) {
                metrics.insert(def.name, 0.0);
                not_applicable.push(def.name);
            }
        }
    }
}
