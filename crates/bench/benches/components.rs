//! Criterion micro-benchmarks of the framework's hot components: the
//! per-sample optimization overhead the paper counts inside wall-clock
//! time (surrogate refits, acquisition maximization, θ estimation) and
//! the substrate costs (simulator event processing, space encoding).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hypertune::core::ranking;
use hypertune::core::{History, Measurement, ResourceLevels};
use hypertune::prelude::*;
use hypertune::surrogate::acquisition::{maximize, Acquisition, MaximizeConfig};
use hypertune::surrogate::{GaussianProcess, Predictor, RandomForest, SurrogateModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn training_set(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(0);
    use rand::Rng;
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
    (xs, ys)
}

fn bench_surrogates(c: &mut Criterion) {
    let mut g = c.benchmark_group("surrogates");
    for &n in &[50usize, 200] {
        let (xs, ys) = training_set(n, 9);
        g.bench_function(format!("rf_fit_n{n}_d9"), |b| {
            b.iter_batched(
                || RandomForest::new(0),
                |mut rf| rf.fit(&xs, &ys).unwrap(),
                BatchSize::SmallInput,
            )
        });
        let mut rf = RandomForest::new(0);
        rf.fit(&xs, &ys).unwrap();
        g.bench_function(format!("rf_predict_n{n}_d9"), |b| {
            b.iter(|| rf.predict(&xs[0]).unwrap())
        });
    }
    let (xs, ys) = training_set(80, 6);
    g.bench_function("gp_fit_n80_d6", |b| {
        b.iter_batched(
            GaussianProcess::new,
            |mut gp| gp.fit(&xs, &ys).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_acquisition(c: &mut Criterion) {
    let space = tasks::xgboost_space();
    let (xs, ys) = training_set(120, 9);
    let mut rf = RandomForest::new(0);
    rf.fit(&xs, &ys).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let incumbents: Vec<Config> = (0..5).map(|_| space.sample(&mut rng)).collect();
    let incumbent_refs: Vec<&Config> = incumbents.iter().collect();
    c.bench_function("acquisition_maximize_d9", |b| {
        b.iter(|| {
            maximize(
                &space,
                &rf,
                Acquisition::default(),
                0.0,
                &incumbent_refs,
                &MaximizeConfig::default(),
                &mut rng,
            )
            .unwrap()
        })
    });
}

fn bench_theta(c: &mut Criterion) {
    // θ estimation over a realistic multi-fidelity history.
    let space = tasks::xgboost_space();
    let levels = ResourceLevels::new(27.0, 3);
    let mut h = History::new(levels);
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..240 {
        let cfg = space.sample(&mut rng);
        let x = space.encode(&cfg);
        let level = [0, 0, 0, 1, 1, 2, 3][i % 7];
        h.record(Measurement {
            config: cfg,
            level,
            resource: 3f64.powi(level as i32),
            value: x.iter().sum::<f64>() / 9.0,
            test_value: 0.0,
            cost: 1.0,
            finished_at: i as f64,
        });
    }
    c.bench_function("compute_theta_240meas", |b| {
        b.iter(|| ranking::compute_theta(&h, &space, 0).unwrap())
    });
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("simulator_10k_jobs_64_workers", |b| {
        b.iter(|| {
            let mut cluster: SimCluster<u64> = SimCluster::new(64);
            let mut submitted = 0u64;
            let mut done = 0u64;
            while done < 10_000 {
                while submitted < 10_000
                    && cluster
                        .submit(submitted, 1.0 + (submitted % 7) as f64)
                        .is_ok()
                {
                    submitted += 1;
                }
                if cluster.next_completion().is_ok() {
                    done += 1;
                }
            }
            cluster.now()
        })
    });
}

fn bench_space(c: &mut Criterion) {
    let space = tasks::industrial_space();
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = space.sample(&mut rng);
    c.bench_function("space_encode_d20", |b| b.iter(|| space.encode(&cfg)));
    c.bench_function("space_sample_d20", |b| b.iter(|| space.sample(&mut rng)));
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_surrogates, bench_acquisition, bench_theta, bench_simulator, bench_space
}
criterion_main!(benches);
