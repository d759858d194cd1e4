//! In-process loopback workers: `serve_worker` sessions on threads of
//! this process, with benchmark-side accounting in their eval closures.
//!
//! Every eval closure keeps a [`Ledger`]: how many evaluations ran, how
//! long the evaluator was busy, and whether any dispatch attempt was
//! evaluated twice. When a [`Recorder`] is attached it also reports each
//! job's evaluation time, so the executor decorator can split submit →
//! completion into evaluation and queue-and-wire, and times
//! `Benchmark::evaluate` through [`TimedBenchmark`].

use std::collections::{BTreeMap, HashSet};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hypertune::benchmarks::Benchmark;
use hypertune::cluster::{serve_worker, EvalFn, JobStatus, WorkerOptions};
use hypertune::core::ThreadedJob;
use hypertune::registry;
use hypertune::service::ServiceJob;
use hypertune::space::Config;
use serde::{Deserialize, Value};

use crate::layers::{JobKey, Keyed, Recorder, TimedBenchmark};

#[derive(Default)]
struct LedgerState {
    keys: HashSet<JobKey>,
    evals: u64,
    repeats: u64,
    errors: u64,
    busy: f64,
}

/// Worker-side accounting shared by every eval closure of one fleet.
#[derive(Default)]
pub struct Ledger {
    state: Mutex<LedgerState>,
}

impl Ledger {
    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerState> {
        self.state.lock().expect("an eval closure panicked")
    }

    fn record(&self, key: JobKey, secs: f64) {
        let mut s = self.lock();
        s.evals += 1;
        s.busy += secs;
        if !s.keys.insert(key) {
            s.repeats += 1;
        }
    }

    fn error(&self) {
        self.lock().errors += 1;
    }

    /// Evaluations served.
    pub fn evals(&self) -> u64 {
        self.lock().evals
    }

    /// Dispatch attempts evaluated more than once.
    pub fn repeats(&self) -> u64 {
        self.lock().repeats
    }

    /// Dispatches the evaluator could not decode or resolve.
    pub fn errors(&self) -> u64 {
        self.lock().errors
    }

    /// Total evaluator busy time in seconds.
    pub fn busy(&self) -> f64 {
        self.lock().busy
    }
}

/// How a fleet's workers evaluate.
#[derive(Clone)]
pub struct FleetSpec {
    /// Pipelined dispatch slots per connection.
    pub slots: usize,
    /// Fixed cost added to every evaluation.
    pub sleep: Duration,
    /// Times evaluations and per-job eval durations when set.
    pub rec: Option<Arc<Recorder>>,
}

/// Running in-process workers; [`Fleet::join`] waits for their sessions
/// to end (which happens when the driver's cluster is dropped).
pub struct Fleet {
    /// Loopback addresses to connect to.
    pub addrs: Vec<String>,
    /// Shared worker-side accounting.
    pub ledger: Arc<Ledger>,
    handles: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Fleet {
    /// Starts `n` single-session workers. Each session's `Hello` either
    /// names one benchmark (`{"bench", "seed"}`, payloads are
    /// [`ThreadedJob`]s) or asks for multi-study mode
    /// (`{"multi_study": true}`, payloads are [`ServiceJob`]s naming
    /// their own benchmark), as the `hypertune-worker` binary does.
    pub fn start(n: usize, spec: &FleetSpec) -> std::io::Result<Self> {
        let ledger = Arc::new(Ledger::default());
        let mut addrs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?.to_string());
            let opts = WorkerOptions {
                once: true,
                slots: spec.slots,
                ..WorkerOptions::default()
            };
            let spec = spec.clone();
            let ledger = Arc::clone(&ledger);
            handles.push(std::thread::spawn(move || {
                serve_worker(listener, opts, |hello: &Value| {
                    make_eval(hello, &spec, Arc::clone(&ledger))
                })
            }));
        }
        Ok(Self {
            addrs,
            ledger,
            handles,
        })
    }

    /// Waits for every worker session to end.
    pub fn join(self) -> Result<(), String> {
        for h in self.handles {
            h.join()
                .map_err(|_| "worker thread panicked".to_string())?
                .map_err(|e| format!("worker accept loop failed: {e}"))?;
        }
        Ok(())
    }
}

fn resolve(name: &str, seed: u64, rec: &Option<Arc<Recorder>>) -> Option<Arc<dyn Benchmark>> {
    let bench: Arc<dyn Benchmark> = Arc::from(registry::make_bench(name, seed)?);
    Some(match rec {
        Some(rec) => Arc::new(TimedBenchmark::new(bench, Arc::clone(rec))),
        None => bench,
    })
}

fn make_eval(hello: &Value, spec: &FleetSpec, ledger: Arc<Ledger>) -> Result<EvalFn, String> {
    let obj = hello.as_object().ok_or("Hello payload must be an object")?;
    let spec = spec.clone();
    let multi = obj.get("multi_study").and_then(Value::as_bool) == Some(true);
    if multi {
        let cache: Mutex<BTreeMap<(String, u64), Arc<dyn Benchmark>>> = Mutex::default();
        return Ok(Box::new(move |payload: &Value| {
            let started = Instant::now();
            let Ok(job) = ServiceJob::from_value(payload) else {
                ledger.error();
                return (JobStatus::Errored, Value::Null);
            };
            let bench = {
                let mut cache = cache.lock().expect("benchmark cache poisoned");
                let key = (job.bench.clone(), job.bench_seed);
                match cache.get(&key) {
                    Some(b) => Arc::clone(b),
                    None => match resolve(&job.bench, job.bench_seed, &spec.rec) {
                        Some(b) => Arc::clone(cache.entry(key).or_insert(b)),
                        None => {
                            ledger.error();
                            return (JobStatus::Errored, Value::Null);
                        }
                    },
                }
            };
            let trial = &job.job.spec;
            let out = evaluate(
                &*bench,
                &trial.config,
                trial.resource,
                job.bench_seed,
                &spec,
            );
            finish(&ledger, &spec, job.key(), started);
            out
        }));
    }
    let name = obj
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("Hello payload needs a `bench` string")?;
    let seed = obj.get("seed").and_then(Value::as_u64).unwrap_or(0);
    let bench = resolve(name, seed, &spec.rec).ok_or(format!("unknown benchmark `{name}`"))?;
    Ok(Box::new(move |payload: &Value| {
        let started = Instant::now();
        let Ok(job) = ThreadedJob::from_value(payload) else {
            ledger.error();
            return (JobStatus::Errored, Value::Null);
        };
        let out = evaluate(&*bench, &job.spec.config, job.spec.resource, seed, &spec);
        finish(&ledger, &spec, job.key(), started);
        out
    }))
}

fn evaluate(
    bench: &dyn Benchmark,
    config: &Config,
    resource: f64,
    seed: u64,
    spec: &FleetSpec,
) -> (JobStatus, Value) {
    if !spec.sleep.is_zero() {
        std::thread::sleep(spec.sleep);
    }
    let eval = bench.evaluate(config, resource, seed);
    (JobStatus::Succeeded, serde_json::to_value(&eval))
}

fn finish(ledger: &Ledger, spec: &FleetSpec, key: JobKey, started: Instant) {
    let secs = started.elapsed().as_secs_f64();
    ledger.record(key, secs);
    if let Some(rec) = &spec.rec {
        rec.note_eval(key, secs);
    }
}
