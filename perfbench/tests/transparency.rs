//! The decorators must be transparent: a decorated study produces the
//! bit-identical measurement stream of an undecorated one. And the
//! metric names the benchmark prints must be the names `BENCHMARK.json`
//! declares.

use hypertune::benchmarks::{tasks, Benchmark, Eval};
use hypertune::cluster::{TcpCluster, TcpClusterOptions};
use hypertune::core::{
    run, run_distributed, Measurement, MethodKind, ResourceLevels, RunConfig, ThreadedJob,
    ThreadedRunConfig,
};
use hypertune::registry;
use perfbench::fleet::{Fleet, FleetSpec};
use perfbench::panel::{run_panel, Unit};
use perfbench::trace::Trace;
use perfbench::{sim, tcp, RunOptions, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use serde_json::json;

type Key = (hypertune::space::Config, usize, [u64; 4]);

/// Everything but wall-clock timestamps, bit for bit.
fn keys(ms: &[Measurement]) -> Vec<Key> {
    ms.iter()
        .map(|m| {
            let bits = [m.resource, m.value, m.test_value, m.cost].map(f64::to_bits);
            (m.config.clone(), m.level, bits)
        })
        .collect()
}

#[test]
fn decorated_sim_study_matches_a_bare_run() {
    let seed = sim::PANEL[0];
    let table = tasks::nas_cifar10_valid(0);
    let levels = ResourceLevels::new(table.max_resource(), 3);
    let mut bare = MethodKind::HyperTune.build(&levels, seed);
    let config = RunConfig::new(sim::WORKERS, sim::BUDGET_S, seed);
    let reference = run(bare.as_mut(), &table, &config);

    let trace = Trace::new();
    let (decorated, unit) = sim::study(seed, Some(&trace));
    assert!(unit.violations.is_empty(), "{:?}", unit.violations);
    assert_eq!(keys(&reference.measurements), keys(&decorated.measurements));
    let finish = |ms: &[Measurement]| {
        ms.iter()
            .map(|m| m.finished_at.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        finish(&reference.measurements),
        finish(&decorated.measurements)
    );
    assert!(trace.rec.calls("core.suggest").count() > 0);
    assert!(trace.rec.calls("benchmarks.evaluate").count() > 0);
}

#[test]
fn decorated_tcp_study_matches_a_bare_run() {
    let seed = tcp::PANEL[0];
    let fleet = Fleet::start(
        1,
        &FleetSpec {
            slots: tcp::SLOTS,
            sleep: tcp::EVAL_SLEEP,
            rec: None,
        },
    )
    .expect("loopback worker");
    let cluster: TcpCluster<ThreadedJob, Eval> = TcpCluster::connect(
        &fleet.addrs,
        json!({"bench": tcp::BENCH, "seed": seed}),
        TcpClusterOptions::default(),
    )
    .expect("loopback connect");
    let bench = registry::make_bench(tcp::BENCH, seed).expect("registered");
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut bare = MethodKind::HyperTune.build(&levels, seed);
    let config = ThreadedRunConfig::new(cluster.n_workers(), tcp::MAX_EVALS, seed);
    let reference = run_distributed(bare.as_mut(), bench.space(), &levels, cluster, &config);
    fleet.join().expect("worker ends with the session");

    let trace = Trace::new();
    let (decorated, unit) = tcp::study(seed, Some(&trace)).expect("traced study");
    assert!(unit.violations.is_empty(), "{:?}", unit.violations);
    assert_eq!(keys(&reference.measurements), keys(&decorated.measurements));
    for layer in ["core.suggest", "cluster.submit", "cluster.next_completion"] {
        assert!(trace.rec.calls(layer).count() > 0, "{layer} was not timed");
    }
    assert_eq!(trace.rec.wire_ms().len(), tcp::MAX_EVALS);
}

fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, k: &str| {
        let v = m.as_object().and_then(|o| o.get(k));
        v.and_then(Value::as_str).unwrap_or("").to_string()
    };
    doc.as_object()
        .and_then(|o| o.get(section))
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn catalog(defs: &[perfbench::MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    assert_eq!(declared("end_to_end"), catalog(END_TO_END));
    assert_eq!(declared("per_layer"), catalog(PER_LAYER));
    let names: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    assert_eq!(names, ours);
}

fn fake_unit(seed: u64) -> Unit {
    Unit {
        setup: 1e-3,
        wall: 0.01 * seed as f64,
        evals: 10,
        regret: 0.5,
        busy_frac: 0.9,
        fingerprint: seed,
        attempted: 10,
        ..Unit::default()
    }
}

#[test]
fn panel_runs_report_every_end_to_end_and_per_layer_metric() {
    let opts = RunOptions {
        seed: 3,
        seconds: 0.0,
        trace: false,
    };
    let report = run_panel(&opts, &[1, 2], |seed, _| Ok(fake_unit(seed)));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    for def in END_TO_END {
        assert!(
            report.metrics.contains_key(def.name),
            "{} missing",
            def.name
        );
    }
    assert_eq!(report.attempted, 40, "two passes over two seeds");

    let traced = run_panel(
        &RunOptions {
            trace: true,
            ..opts
        },
        &[1],
        |seed, _| Ok(fake_unit(seed)),
    );
    for def in PER_LAYER {
        assert!(
            traced.metrics.contains_key(def.name),
            "{} missing",
            def.name
        );
    }
}

#[test]
fn panel_runs_flag_a_stream_that_does_not_repeat() {
    let opts = RunOptions {
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let calls = std::sync::atomic::AtomicU64::new(0);
    let report = run_panel(&opts, &[1], |seed, _| {
        let mut u = fake_unit(seed);
        u.fingerprint = calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(u)
    });
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
}

#[test]
fn service_wave_books_every_trial_once() {
    let dir = perfbench::service::state_root().join(format!("test-{}", std::process::id()));
    let wave = perfbench::service::wave(5, &dir, None).expect("wave runs");
    assert!(wave.violations.is_empty(), "{:?}", wave.violations);
    assert_eq!(
        wave.trials,
        perfbench::service::STUDIES * perfbench::service::MAX_EVALS
    );
    assert_eq!(wave.study_secs.len(), perfbench::service::STUDIES);
    assert!(!dir.exists(), "the wave removes its state directory");
}
