//! Decorators that time calls into each layer's public surface from
//! outside the program.
//!
//! A [`Recorder`] collects, per layer name, every call's start and end
//! on one monotonic clock. The decorators forward every trait method to
//! the wrapped object unchanged, so a decorated run produces the same
//! measurement stream as a bare one (`tests/transparency.rs` pins this):
//!
//! - [`MethodProbe`] wraps a [`Method`]: `core.suggest` (`next_job` /
//!   `next_jobs`) and `core.on_result`. Without a recorder it only
//!   checks that no job id is booked twice, which every run does.
//! - [`TimedBenchmark`] wraps a [`Benchmark`]: `benchmarks.evaluate`.
//! - [`TimedExecutor`] wraps an [`Executor`]: `cluster.submit` and
//!   `cluster.next_completion`, plus each job's submit → completion
//!   time minus its evaluation time (queue and wire).
//! - The worker eval closures of [`crate::fleet`] report each job's
//!   evaluation time here ([`Recorder::note_eval`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hypertune::benchmarks::{Benchmark, Eval};
use hypertune::cluster::{ClusterError, Executor, PoolResult};
use hypertune::core::{JobSpec, Method, MethodContext, Outcome, ThreadedJob};
use hypertune::service::ServiceJob;
use hypertune::space::{Config, ConfigSpace};
use hypertune::telemetry::TelemetryHandle;

/// Identifies one dispatch attempt: `(study, job id, attempt)`.
pub type JobKey = (u64, u64, usize);

/// Payloads whose dispatch attempt can be identified.
pub trait Keyed {
    /// The attempt's key.
    fn key(&self) -> JobKey;
}

impl Keyed for ThreadedJob {
    fn key(&self) -> JobKey {
        (0, self.spec.id, self.attempt)
    }
}

impl Keyed for ServiceJob {
    fn key(&self) -> JobKey {
        (self.study, self.job.spec.id, self.job.attempt)
    }
}

/// Calls recorded for one layer.
#[derive(Debug, Clone, Default)]
pub struct Calls {
    /// `(start, end)` of every call, seconds since the recorder's origin.
    pub spans: Vec<(f64, f64)>,
}

impl Calls {
    /// Number of calls.
    pub fn count(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Total time inside the calls.
    pub fn busy(&self) -> f64 {
        self.spans.iter().map(|(s, e)| e - s).sum()
    }

    /// Each call's duration in milliseconds.
    pub fn durations_ms(&self) -> Vec<f64> {
        self.spans.iter().map(|(s, e)| (e - s) * 1e3).collect()
    }
}

#[derive(Default)]
struct State {
    layers: BTreeMap<&'static str, Calls>,
    submitted: HashMap<JobKey, f64>,
    eval_secs: HashMap<JobKey, f64>,
    wire_ms: Vec<f64>,
}

/// Shared sink for the decorators' timings.
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a decorator panicked while recording")
    }

    /// Runs `f`, recording its interval under `layer`.
    pub fn time<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.state()
            .layers
            .entry(layer)
            .or_default()
            .spans
            .push((start, end));
        out
    }

    /// The calls recorded under `layer` (empty if none).
    pub fn calls(&self, layer: &str) -> Calls {
        self.state().layers.get(layer).cloned().unwrap_or_default()
    }

    /// Every interval recorded under any of `layers`.
    pub fn spans_of(&self, layers: &[&str]) -> Vec<(f64, f64)> {
        let state = self.state();
        layers
            .iter()
            .filter_map(|l| state.layers.get(l))
            .flat_map(|c| c.spans.iter().copied())
            .collect()
    }

    /// Records a worker-side evaluation of `key` that took `secs`.
    pub fn note_eval(&self, key: JobKey, secs: f64) {
        self.state().eval_secs.insert(key, secs);
    }

    /// Queue-and-wire times (submit → completion minus evaluation) of
    /// every completed job, in milliseconds.
    pub fn wire_ms(&self) -> Vec<f64> {
        self.state().wire_ms.clone()
    }

    fn note_submit(&self, key: JobKey, at: f64) {
        self.state().submitted.insert(key, at);
    }

    fn note_completion(&self, key: JobKey, at: f64) {
        let mut state = self.state();
        if let (Some(sent), Some(eval)) =
            (state.submitted.remove(&key), state.eval_secs.remove(&key))
        {
            state.wire_ms.push((at - sent - eval).max(0.0) * 1e3);
        }
    }
}

/// Runs `f`, timed under `layer` when a recorder is attached.
fn timed<R>(rec: &Option<Arc<Recorder>>, layer: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.time(layer, f),
        None => f(),
    }
}

/// [`Method`] decorator: times suggestions and result delivery when a
/// recorder is attached, and always checks that each job id reaches
/// `on_result` at most once.
pub struct MethodProbe {
    inner: Box<dyn Method>,
    rec: Option<Arc<Recorder>>,
    booked: HashSet<u64>,
    double_booked: u64,
}

impl MethodProbe {
    /// Wraps `inner`; `rec = None` records no timings.
    pub fn new(inner: Box<dyn Method>, rec: Option<Arc<Recorder>>) -> Self {
        Self {
            inner,
            rec,
            booked: HashSet::new(),
            double_booked: 0,
        }
    }

    /// Results delivered for a job id that had already been booked.
    pub fn double_booked(&self) -> u64 {
        self.double_booked
    }

    /// Distinct job ids booked so far.
    pub fn booked(&self) -> usize {
        self.booked.len()
    }
}

impl Method for MethodProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_job(&mut self, ctx: &mut MethodContext<'_>) -> Option<JobSpec> {
        timed(&self.rec, "core.suggest", || self.inner.next_job(ctx))
    }

    fn next_jobs(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<JobSpec> {
        timed(&self.rec, "core.suggest", || self.inner.next_jobs(ctx, k))
    }

    fn on_result(&mut self, outcome: &Outcome, ctx: &mut MethodContext<'_>) {
        if !self.booked.insert(outcome.spec.id) {
            self.double_booked += 1;
        }
        timed(&self.rec, "core.on_result", || {
            self.inner.on_result(outcome, ctx)
        })
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.set_telemetry(telemetry);
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.inner.set_degraded(degraded);
    }
}

/// [`Benchmark`] decorator timing `evaluate` as `benchmarks.evaluate`.
pub struct TimedBenchmark {
    inner: Arc<dyn Benchmark>,
    rec: Arc<Recorder>,
}

impl TimedBenchmark {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Benchmark>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl Benchmark for TimedBenchmark {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn max_resource(&self) -> f64 {
        self.inner.max_resource()
    }

    fn evaluate(&self, config: &Config, resource: f64, seed: u64) -> Eval {
        self.rec.time("benchmarks.evaluate", || {
            self.inner.evaluate(config, resource, seed)
        })
    }

    fn optimum(&self) -> Option<f64> {
        self.inner.optimum()
    }
}

/// [`Executor`] decorator timing `submit` and `next_completion`.
pub struct TimedExecutor<E> {
    inner: E,
    rec: Arc<Recorder>,
}

impl<E> TimedExecutor<E> {
    /// Wraps `inner`.
    pub fn new(inner: E, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl<J: Keyed, O, E: Executor<J, O>> Executor<J, O> for TimedExecutor<E> {
    fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        let key = job.key();
        let sent = self.rec.now();
        let out = self.rec.time("cluster.submit", || self.inner.submit(job));
        if out.is_ok() {
            self.rec.note_submit(key, sent);
        }
        out
    }

    fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError> {
        let out = self
            .rec
            .time("cluster.next_completion", || self.inner.next_completion());
        if let Ok(result) = &out {
            self.rec.note_completion(result.job.key(), self.rec.now());
        }
        out
    }

    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn idle_workers(&self) -> usize {
        self.inner.idle_workers()
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.set_telemetry(telemetry);
    }
}
