//! `service-tcp`: a durable multi-tenant `TuningService` over a
//! loopback TCP fleet.
//!
//! The fleet is 2 in-process multi-study workers with 4 slots each; the
//! service keeps a per-study WAL and sidecar in a fresh state directory
//! (default group commit, no fsync). 16 tenants run concurrently, each a
//! 64-eval `counting-ones-small` study, alternating ASHA and A-Random,
//! and each finished study is replaced at once until the wave's
//! [`STUDIES`] studies are done. Suggestion is cheap and has no
//! acquisition, so wire, booking, fair share and the WAL dominate.
//!
//! A run is a sequence of waves of the same shape (study count, budget,
//! tenants, method mix), each on a fresh service, fleet and state
//! directory, so every wave does the same amount of work however long
//! the run; each wave's study seeds are derived from the run seed and
//! the wave's index, so the run's mean regret covers many studies.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypertune::benchmarks::Eval;
use hypertune::cluster::{Executor, TcpCluster, TcpClusterOptions};
use hypertune::core::MethodKind;
use hypertune::registry;
use hypertune::service::{
    BenchResolver, ServiceConfig, ServiceJob, StudySpec, StudyStatus, TuningService,
};
use serde_json::json;

use crate::env::peak_rss_mb;
use crate::fleet::{Fleet, FleetSpec};
use crate::layers::{Recorder, TimedExecutor};
use crate::stats::{median, mix, quantile};
use crate::trace::Trace;
use crate::{Report, RunOptions};

/// Concurrent tenants.
pub const TENANTS: usize = 16;
/// Studies per wave (each tenant runs `STUDIES / TENANTS` in turn).
pub const STUDIES: usize = 128;
/// Evaluations per study.
pub const MAX_EVALS: usize = 64;
/// Registry name of every study's objective.
pub const BENCH: &str = "counting-ones-small";
/// Workers (loopback connections) in the fleet.
pub const WORKERS: usize = 2;
/// Pipelined dispatch slots per worker.
pub const SLOTS: usize = 4;

/// Where waves keep their state directories, inside the checkout.
pub fn state_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".state")
}

/// What one wave measured and checked.
#[derive(Debug, Default)]
pub struct Wave {
    /// Fleet start, connect and service construction.
    pub setup: f64,
    /// First `create_study` to the last study's completion.
    pub wall: f64,
    /// Each study's lifetime, creation to observed completion.
    pub study_secs: Vec<f64>,
    /// Each study's incumbent minus the objective's optimum.
    pub regrets: Vec<f64>,
    /// Trials booked.
    pub trials: usize,
    /// Evaluator busy time over evaluator threads × wall.
    pub busy_frac: f64,
    /// Time inside `run_completions`.
    pub service_secs: f64,
    /// `suggest_p99()` of the service, in seconds.
    pub suggest_p99: f64,
    /// Bytes in the state directory at the end.
    pub state_bytes: u64,
    /// Dispatch attempts.
    pub attempted: u64,
    /// Failed, orphaned and quarantined attempts.
    pub failed: u64,
    /// Correctness violations.
    pub violations: Vec<String>,
}

/// The wave's `i`-th study.
pub fn spec(seed: u64, i: usize) -> StudySpec {
    let method = if i.is_multiple_of(2) {
        MethodKind::Asha
    } else {
        MethodKind::ARandom
    };
    StudySpec::new(format!("tenant-{}-{i}", i % TENANTS), BENCH, method)
        .with_seed(mix(seed, i as u64))
        .with_max_evals(MAX_EVALS)
}

fn dir_stats(dir: &Path) -> std::io::Result<(u64, usize, usize)> {
    let (mut bytes, mut sidecars, mut wals) = (0, 0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        bytes += entry.metadata()?.len();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("study-") {
            sidecars += usize::from(name.ends_with(".json"));
            wals += usize::from(name.ends_with(".wal"));
        }
    }
    Ok((bytes, sidecars, wals))
}

/// Drives the closed loop on `svc` until `STUDIES` studies completed.
fn drive<E: Executor<ServiceJob, Eval>>(
    svc: &mut TuningService<E>,
    seed: u64,
    rec: Option<&Recorder>,
    wave: &mut Wave,
) -> std::io::Result<()> {
    let started = Instant::now();
    let mut created = 0;
    let mut live = Vec::with_capacity(TENANTS);
    let create = |svc: &mut TuningService<E>, created: &mut usize| {
        let spec = spec(seed, *created);
        *created += 1;
        let handle = match rec {
            Some(rec) => rec.time("service.create_study", || svc.create_study(spec)),
            None => svc.create_study(spec),
        }?;
        Ok::<_, std::io::Error>((handle, Instant::now()))
    };
    while created < TENANTS {
        live.push(create(svc, &mut created)?);
    }
    while !live.is_empty() {
        let step = Instant::now();
        let progressed = svc.run_completions(1)?;
        wave.service_secs += step.elapsed().as_secs_f64();
        let mut i = 0;
        while i < live.len() {
            let (handle, born) = live[i];
            if svc.status(handle) == Some(StudyStatus::Running) {
                i += 1;
                continue;
            }
            wave.study_secs.push(born.elapsed().as_secs_f64());
            live.swap_remove(i);
            if created < STUDIES {
                live.push(create(svc, &mut created)?);
            }
        }
        if progressed == 0 && !live.is_empty() {
            wave.violations.push(format!(
                "service drained with {} studies running",
                live.len()
            ));
            break;
        }
    }
    wave.wall = started.elapsed().as_secs_f64();
    Ok(())
}

/// Checks the finished service's books and fills the wave's results.
fn audit<E: Executor<ServiceJob, Eval>>(svc: &TuningService<E>, wave: &mut Wave) {
    let stats = svc.stats();
    let mut check = |ok: bool, what: String| {
        if !ok {
            wave.violations.push(what);
        }
    };
    check(
        stats.studies.len() == STUDIES,
        format!("{} studies created, {STUDIES} planned", stats.studies.len()),
    );
    for s in &stats.studies {
        check(
            s.status == StudyStatus::Completed && s.completed == MAX_EVALS,
            format!("study {}: {:?} with {} trials", s.id, s.status, s.completed),
        );
        check(
            s.dispatched == s.completed && s.outstanding == 0 && s.quarantined == 0,
            format!(
                "study {}: {} dispatched, {} completed, {} in flight, {} quarantined",
                s.id, s.dispatched, s.completed, s.outstanding, s.quarantined
            ),
        );
        check(
            s.failures.is_empty(),
            format!("study {}: failures {:?}", s.id, s.failures),
        );
        wave.failed += (s.failures.total() + s.quarantined) as u64;
        // counting-ones is minimised at -1.
        wave.regrets.push(s.best.map_or(f64::INFINITY, |b| b + 1.0));
    }
    wave.trials = stats.total_completed;
    wave.suggest_p99 = svc.suggest_p99().unwrap_or(0.0);
}

/// Runs one wave in `dir` with studies derived from `seed`; `trace`
/// decorates the executor and enables telemetry.
pub fn wave(seed: u64, dir: &Path, trace: Option<&Trace>) -> Result<Wave, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut wave = Wave::default();
    let t0 = Instant::now();
    let rec = trace.map(|t| Arc::clone(&t.rec));
    let fleet = Fleet::start(
        WORKERS,
        &FleetSpec {
            slots: SLOTS,
            sleep: Duration::ZERO,
            rec: rec.clone(),
        },
    )
    .map_err(|e| format!("worker start: {e}"))?;
    let cluster: TcpCluster<ServiceJob, Eval> = TcpCluster::connect(
        &fleet.addrs,
        json!({"multi_study": true}),
        TcpClusterOptions::default(),
    )
    .map_err(|e| format!("connect: {e}"))?;
    let resolver: BenchResolver = Arc::new(registry::make_bench);
    let mut config = ServiceConfig::new().with_state_dir(dir);
    let io = |e: std::io::Error| format!("service: {e}");
    match (trace, rec) {
        (Some(t), Some(rec)) => {
            config = config.with_telemetry(t.telemetry.clone());
            let executor = TimedExecutor::new(cluster, Arc::clone(&rec));
            let mut svc = TuningService::new(executor, resolver, config).map_err(io)?;
            wave.setup = t0.elapsed().as_secs_f64();
            drive(&mut svc, seed, Some(&rec), &mut wave).map_err(io)?;
            audit(&svc, &mut wave);
        }
        _ => {
            let mut svc = TuningService::new(cluster, resolver, config).map_err(io)?;
            wave.setup = t0.elapsed().as_secs_f64();
            drive(&mut svc, seed, None, &mut wave).map_err(io)?;
            audit(&svc, &mut wave);
        }
    }
    // The service (and with it the cluster) is gone: sessions end.
    let ledger = Arc::clone(&fleet.ledger);
    fleet.join()?;
    wave.attempted = ledger.evals();
    wave.busy_frac = ledger.busy() / (WORKERS as f64 * wave.wall);
    let trials = wave.trials as u64;
    if ledger.evals() != trials || ledger.repeats() != 0 || ledger.errors() != 0 {
        wave.violations.push(format!(
            "fleet evaluated {} attempts ({} twice, {} undecodable) for {trials} booked trials",
            ledger.evals(),
            ledger.repeats(),
            ledger.errors()
        ));
    }
    let (bytes, sidecars, wals) = dir_stats(dir).map_err(|e| format!("state dir: {e}"))?;
    wave.state_bytes = bytes;
    if sidecars != STUDIES || wals != STUDIES {
        wave.violations.push(format!(
            "state dir holds {sidecars} sidecars and {wals} WALs for {STUDIES} studies"
        ));
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("state dir cleanup: {e}"))?;
    Ok(wave)
}

fn absorb(report: &mut Report, w: Result<Wave, String>) -> Option<Wave> {
    match w {
        Ok(w) => {
            report.attempted += w.attempted;
            report.failed += w.failed;
            report.violations.extend(w.violations.iter().cloned());
            Some(w)
        }
        Err(e) => {
            report.violations.push(e);
            None
        }
    }
}

/// Runs waves for `opts.seconds` (at least two).
pub fn run_workload(opts: &RunOptions) -> Report {
    let mut report = Report::default();
    let mut trace = opts.trace.then(Trace::new);
    let dir = state_root().join(format!("run-{}", std::process::id()));
    let started = Instant::now();
    let (mut setups, mut study_secs, mut regrets) = (Vec::new(), Vec::new(), Vec::new());
    let (mut trials_rate, mut studies_rate, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let (mut suggest_p99, mut state_bytes, mut booked, mut service_secs) =
        (Vec::new(), 0u64, 0usize, 0.0);
    while setups.len() < 2 || started.elapsed().as_secs_f64() < opts.seconds {
        let seed = mix(opts.seed, setups.len() as u64);
        let Some(bare) = absorb(&mut report, wave(seed, &dir, None)) else {
            break;
        };
        if let Some(t) = trace.as_mut() {
            let Some(traced) = absorb(&mut report, wave(seed, &dir, Some(t))) else {
                break;
            };
            t.studies += STUDIES;
            t.traced_wall += traced.wall;
            t.bare_wall += bare.wall;
            suggest_p99.push(traced.suggest_p99 * 1e3);
            state_bytes += traced.state_bytes;
            booked += traced.trials;
            service_secs += traced.service_secs;
        }
        setups.push(bare.setup);
        trials_rate.push(bare.trials as f64 / bare.wall);
        studies_rate.push(STUDIES as f64 / bare.wall);
        busy.push(bare.busy_frac);
        study_secs.extend(bare.study_secs);
        regrets.extend(bare.regrets);
    }
    let _ = std::fs::remove_dir(state_root());
    if let Some(t) = &trace {
        let snap = t.snapshot();
        let per = 1.0 / t.studies.max(1) as f64;
        let create = t.rec.calls("service.create_study").durations_ms();
        let executor =
            t.rec.calls("cluster.submit").busy() + t.rec.calls("cluster.next_completion").busy();
        let records = snap
            .histogram("wal.group_commit.records")
            .map_or(0.0, |h| h.sum);
        let flushes = snap.counter("wal.group_commit.flushes").unwrap_or(0) as f64;
        let suggest_span = snap.histogram("span.suggest_batch").map_or(0.0, |h| h.sum);
        for (name, value) in [
            ("service.create_study.ms_p50", median(&create)),
            ("service.suggest_ms_p99", median(&suggest_p99)),
            ("service.wal.flushes", flushes * per),
            ("service.wal.records", records * per),
            (
                "service.wal.bytes_per_trial",
                state_bytes as f64 / booked.max(1) as f64,
            ),
            ("service.control_plane_s", (service_secs - executor) * per),
        ] {
            report.metrics.insert(name, value);
        }
        report
            .samples
            .insert("service.create_study.ms_p50", create.len());
        t.finish(&mut report, suggest_span);
    }
    let mean_regret = regrets.iter().sum::<f64>() / regrets.len().max(1) as f64;
    for (name, value, n) in [
        ("setup_s", median(&setups), setups.len()),
        ("trials_per_s", median(&trials_rate), trials_rate.len()),
        ("studies_per_s", median(&studies_rate), studies_rate.len()),
        ("study_s_p50", quantile(&study_secs, 0.5), study_secs.len()),
        ("study_s_p90", quantile(&study_secs, 0.9), study_secs.len()),
        ("peak_rss_mb", peak_rss_mb(), 1),
        ("regret_final", mean_regret, regrets.len()),
        ("worker_busy_frac", median(&busy), busy.len()),
    ] {
        report.metrics.insert(name, value);
        report.samples.insert(name, n);
    }
    report
}
