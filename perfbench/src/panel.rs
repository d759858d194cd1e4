//! The run loop shared by the single-study workloads: passes over a
//! fixed panel of study seeds until the run's time is up.
//!
//! Every pass runs the whole panel in an order set by the run seed, so
//! each seed runs at least twice in an untraced run and its measurement
//! stream and regret must repeat exactly. A traced run follows each
//! bare study with a decorated one, which must match it bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::env::peak_rss_mb;
use crate::stats::{median, mix, quantile, shuffled};
use crate::trace::Trace;
use crate::{Report, RunOptions};

/// One study's contribution to the run.
#[derive(Debug, Default)]
pub struct Unit {
    /// Set-up time before the study's first suggestion.
    pub setup: f64,
    /// Wall time of the study itself.
    pub wall: f64,
    /// Completed evaluations.
    pub evals: usize,
    /// Incumbent minus the objective's optimum.
    pub regret: f64,
    /// Fraction of evaluator time spent evaluating.
    pub busy_frac: f64,
    /// Hash of the measurement stream (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Dispatch attempts.
    pub attempted: u64,
    /// Failed, orphaned and quarantined attempts.
    pub failed: u64,
    /// Correctness violations.
    pub violations: Vec<String>,
}

/// Order-sensitive hash of a measurement stream. `with_finish` adds
/// the completion timestamps, which are virtual (deterministic) on the
/// simulator and wall-clock elsewhere.
pub fn fingerprint<'a>(
    ms: impl IntoIterator<Item = &'a hypertune::core::Measurement>,
    with_finish: bool,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for m in ms {
        m.config.hash(&mut h);
        m.level.hash(&mut h);
        for x in [m.resource, m.value, m.test_value, m.cost] {
            x.to_bits().hash(&mut h);
        }
        if with_finish {
            m.finished_at.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Runs `study` over `panel` for `opts.seconds` (at least two passes
/// untraced, one traced) and summarises the end-to-end metrics.
pub fn run_panel(
    opts: &RunOptions,
    panel: &[u64],
    study: impl Fn(u64, Option<&Trace>) -> Result<Unit, String>,
) -> Report {
    let mut report = Report::default();
    let mut trace = opts.trace.then(Trace::new);
    let started = Instant::now();
    let mut seen: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut regrets = BTreeMap::new();
    let (mut setups, mut walls, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pass_trials, mut pass_studies) = (Vec::new(), Vec::new());
    let absorb = |report: &mut Report, seed: u64, u: Result<Unit, String>| match u {
        Ok(u) => {
            report.attempted += u.attempted;
            report.failed += u.failed;
            report
                .violations
                .extend(u.violations.iter().map(|v| format!("seed {seed}: {v}")));
            Some(u)
        }
        Err(e) => {
            report.violations.push(format!("seed {seed}: {e}"));
            None
        }
    };
    let min_passes = if opts.trace { 1 } else { 2 };
    let mut pass = 0u64;
    while pass < min_passes || started.elapsed().as_secs_f64() < opts.seconds {
        let (mut evals, mut wall) = (0usize, 0.0);
        for seed in shuffled(panel, mix(opts.seed, pass)) {
            let Some(bare) = absorb(&mut report, seed, study(seed, None)) else {
                return report;
            };
            let key = (bare.fingerprint, bare.regret.to_bits());
            let first = *seen.entry(seed).or_insert(key);
            report.check(first == key, || {
                format!("seed {seed}: measurement stream or regret differs between repeats")
            });
            if let Some(t) = trace.as_mut() {
                let Some(traced) = absorb(&mut report, seed, study(seed, Some(t))) else {
                    return report;
                };
                report.check((traced.fingerprint, traced.regret.to_bits()) == key, || {
                    format!("seed {seed}: the decorated study diverged from the bare one")
                });
                t.studies += 1;
                t.traced_wall += traced.wall;
                t.bare_wall += bare.wall;
            }
            setups.push(bare.setup);
            walls.push(bare.wall);
            busy.push(bare.busy_frac);
            regrets.insert(seed, bare.regret);
            evals += bare.evals;
            wall += bare.wall;
        }
        pass_trials.push(evals as f64 / wall);
        pass_studies.push(panel.len() as f64 / wall);
        pass += 1;
    }
    if let Some(t) = &trace {
        t.finish(&mut report, 0.0);
    }
    let mean_regret = regrets.values().sum::<f64>() / regrets.len() as f64;
    for (name, value, n) in [
        ("setup_s", median(&setups), setups.len()),
        ("trials_per_s", median(&pass_trials), pass_trials.len()),
        ("studies_per_s", median(&pass_studies), pass_studies.len()),
        ("study_s_p50", quantile(&walls, 0.5), walls.len()),
        ("study_s_p90", quantile(&walls, 0.9), walls.len()),
        ("peak_rss_mb", peak_rss_mb(), 1),
        ("regret_final", mean_regret, regrets.len()),
        ("worker_busy_frac", median(&busy), busy.len()),
    ] {
        report.metrics.insert(name, value);
        report.samples.insert(name, n);
    }
    report
}
