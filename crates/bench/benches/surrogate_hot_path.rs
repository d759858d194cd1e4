//! Before/after benchmarks of the surrogate hot path.
//!
//! The `baseline` module is a faithful copy of the seed implementation
//! (per-point `Vec<Vec<f64>>` tree building with a cloned index buffer
//! per tree, per-point prediction, O(n²) ranking loss inside the θ
//! bootstrap) so the comparison is compiled from the same workspace with
//! the same compiler flags. Results are recorded in `BENCH_surrogate.json`
//! at the repo root.
//!
//! Three groups, each at n ∈ {50, 200, 800}:
//! - `rf_fit` — baseline fit vs `RandomForest::fit` (flattened matrix,
//!   16-byte nodes built in place, single-threaded);
//! - `rf_predict` — baseline per-point loop vs `predict_batch` (8 points
//!   per tree in lockstep, from one flat row-major buffer) over an
//!   acquisition-sized candidate batch;
//! - `compute_theta` — seed θ computation vs the current one, cold
//!   (empty model cache) and warm (the `ThetaTracker` steady state:
//!   models cached, only the bootstrap reruns).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hypertune::core::ranking::{self, ThetaModelCache};
use hypertune::core::{History, Measurement, ResourceLevels};
use hypertune::prelude::*;
use hypertune::surrogate::{Predictor, RandomForest, SurrogateModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed's random-forest and θ implementations, verbatim modulo
/// renames, kept as the honest before side of the comparison.
mod baseline {
    use hypertune::core::ranking::{
        ranking_loss_naive, BOOTSTRAP_SAMPLES, MIN_FULL_EVALS, MIN_POINTS_PER_LEVEL,
    };
    use hypertune::core::sampler::bo::MAX_TRAIN_POINTS;
    use hypertune::core::History;
    use hypertune::space::ConfigSpace;
    use hypertune::surrogate::stats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MAX_BOOT_POINTS: usize = 64;

    pub struct BaselineForest {
        n_trees: usize,
        max_depth: usize,
        min_samples_split: usize,
        min_variance: f64,
        seed: u64,
        trees: Vec<Tree>,
    }

    struct Tree {
        nodes: Vec<Node>,
    }

    enum Node {
        Split {
            dim: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
        Leaf {
            mean: f64,
            var: f64,
        },
    }

    impl BaselineForest {
        pub fn new(seed: u64) -> Self {
            Self {
                n_trees: 30,
                max_depth: 18,
                min_samples_split: 3,
                min_variance: 1e-8,
                seed,
                trees: Vec::new(),
            }
        }

        pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let n = x.len();
            self.trees.clear();
            self.trees.reserve(self.n_trees);
            let mut indices: Vec<usize> = Vec::with_capacity(n);
            for _ in 0..self.n_trees {
                indices.clear();
                if n > 1 {
                    indices.extend((0..n).map(|_| rng.gen_range(0..n)));
                } else {
                    indices.extend(0..n);
                }
                let mut tree = Tree { nodes: Vec::new() };
                // The seed's double allocation, preserved on purpose.
                tree.build(x, y, &mut indices.clone(), self, &mut rng);
                self.trees.push(tree);
            }
        }

        pub fn predict(&self, x: &[f64]) -> (f64, f64) {
            let mut sum_m = 0.0;
            let mut sum_sq = 0.0;
            for tree in &self.trees {
                let (m, v) = tree.query(x);
                sum_m += m;
                sum_sq += v + m * m;
            }
            let k = self.trees.len() as f64;
            let mean = sum_m / k;
            let var = (sum_sq / k - mean * mean).max(self.min_variance);
            (mean, var)
        }
    }

    impl Tree {
        fn build(
            &mut self,
            x: &[Vec<f64>],
            y: &[f64],
            indices: &mut [usize],
            config: &BaselineForest,
            rng: &mut StdRng,
        ) {
            self.build_node(x, y, indices, 0, config, rng);
        }

        fn build_node(
            &mut self,
            x: &[Vec<f64>],
            y: &[f64],
            indices: &mut [usize],
            depth: usize,
            config: &BaselineForest,
            rng: &mut StdRng,
        ) -> usize {
            if depth >= config.max_depth || indices.len() < config.min_samples_split {
                return self.push_leaf(y, indices);
            }
            let dim_count = x[0].len();
            let split = (0..dim_count.max(4)).find_map(|_| {
                let d = rng.gen_range(0..dim_count);
                let (lo, hi) = indices
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                        (lo.min(x[i][d]), hi.max(x[i][d]))
                    });
                if hi - lo > 1e-12 {
                    Some((d, lo + rng.gen::<f64>() * (hi - lo)))
                } else {
                    None
                }
            });
            let Some((d, threshold)) = split else {
                return self.push_leaf(y, indices);
            };
            let mut mid = 0;
            for i in 0..indices.len() {
                if x[indices[i]][d] <= threshold {
                    indices.swap(i, mid);
                    mid += 1;
                }
            }
            if mid == 0 || mid == indices.len() {
                return self.push_leaf(y, indices);
            }
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf {
                mean: 0.0,
                var: 0.0,
            });
            let (left_idx, right_idx) = indices.split_at_mut(mid);
            let left = self.build_node(x, y, left_idx, depth + 1, config, rng);
            let right = self.build_node(x, y, right_idx, depth + 1, config, rng);
            self.nodes[id] = Node::Split {
                dim: d,
                threshold,
                left,
                right,
            };
            id
        }

        fn push_leaf(&mut self, y: &[f64], indices: &[usize]) -> usize {
            let ys: Vec<f64> = indices.iter().map(|&i| y[i]).collect();
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf {
                mean: stats::mean(&ys),
                var: stats::variance(&ys),
            });
            id
        }

        fn query(&self, x: &[f64]) -> (f64, f64) {
            let mut id = 0;
            loop {
                match &self.nodes[id] {
                    Node::Leaf { mean, var } => return (*mean, *var),
                    Node::Split {
                        dim,
                        threshold,
                        left,
                        right,
                    } => {
                        id = if x[*dim] <= *threshold { *left } else { *right };
                    }
                }
            }
        }
    }

    /// The seed's `compute_theta`: per-level fits every call, per-point
    /// prediction, O(n²) ranking loss per bootstrap replicate.
    pub fn compute_theta(history: &History, space: &ConfigSpace, seed: u64) -> Option<Vec<f64>> {
        let top = history.levels().max_level();
        let full = history.group(top);
        if full.len() < MIN_FULL_EVALS {
            return None;
        }
        let xs_full: Vec<Vec<f64>> = full.iter().map(|m| space.encode(&m.config)).collect();
        let ys_full: Vec<f64> = full.iter().map(|m| m.value).collect();

        let mut preds: Vec<Option<Vec<f64>>> = Vec::with_capacity(top + 1);
        for level in 0..top {
            if history.len_at(level) < MIN_POINTS_PER_LEVEL {
                preds.push(None);
                continue;
            }
            let (x, y) = history.training_data_capped(level, space, MAX_TRAIN_POINTS);
            let mut rf = BaselineForest::new(seed ^ (level as u64) << 8);
            rf.fit(&x, &y);
            preds.push(Some(xs_full.iter().map(|x| rf.predict(x).0).collect()));
        }
        preds.push(cross_val_predictions(&xs_full, &ys_full, seed));

        let k = preds.len();
        let n = ys_full.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
        let mut wins = vec![0usize; k];
        let boot_n = n.min(MAX_BOOT_POINTS);
        let mut idx = vec![0usize; boot_n];
        for _ in 0..BOOTSTRAP_SAMPLES {
            for slot in idx.iter_mut() {
                *slot = rng.gen_range(0..n);
            }
            let ys: Vec<f64> = idx.iter().map(|&i| ys_full[i]).collect();
            let mut best_loss = usize::MAX;
            let mut best_levels: Vec<usize> = Vec::new();
            for (level, preds) in preds.iter().enumerate() {
                let Some(preds) = preds else { continue };
                let p: Vec<f64> = idx.iter().map(|&i| preds[i]).collect();
                let loss = ranking_loss_naive(&p, &ys);
                match loss.cmp(&best_loss) {
                    std::cmp::Ordering::Less => {
                        best_loss = loss;
                        best_levels.clear();
                        best_levels.push(level);
                    }
                    std::cmp::Ordering::Equal => best_levels.push(level),
                    std::cmp::Ordering::Greater => {}
                }
            }
            if !best_levels.is_empty() {
                wins[best_levels[rng.gen_range(0..best_levels.len())]] += 1;
            }
        }
        let total: usize = wins.iter().sum();
        if total == 0 {
            return None;
        }
        Some(wins.iter().map(|&w| w as f64 / total as f64).collect())
    }

    fn cross_val_predictions(xs: &[Vec<f64>], ys: &[f64], seed: u64) -> Option<Vec<f64>> {
        let n = xs.len();
        if n < MIN_FULL_EVALS {
            return None;
        }
        let folds = 5.min(n);
        let mut out = vec![0.0; n];
        for fold in 0..folds {
            let train_idx: Vec<usize> = (0..n).filter(|i| i % folds != fold).collect();
            let test_idx: Vec<usize> = (0..n).filter(|i| i % folds == fold).collect();
            if train_idx.is_empty() || test_idx.is_empty() {
                continue;
            }
            let tx: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
            let ty: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();
            let mut rf = BaselineForest::new(seed ^ 0xcf ^ (fold as u64) << 16);
            rf.fit(&tx, &ty);
            for &i in &test_idx {
                out[i] = rf.predict(&xs[i]).0;
            }
        }
        Some(out)
    }
}

const SIZES: [usize; 3] = [50, 200, 800];
/// Candidate-batch size matching the acquisition maximizer's random phase.
const QUERY_BATCH: usize = 500;

fn training_set(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(0);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
    (xs, ys)
}

/// Multi-fidelity history with `n` measurements spread over 4 levels in
/// the same proportions as the existing component bench.
fn theta_history(n: usize) -> (History, hypertune::space::ConfigSpace) {
    let space = tasks::xgboost_space();
    let levels = ResourceLevels::new(27.0, 3);
    let mut h = History::new(levels);
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..n {
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
    (h, space)
}

fn bench_rf_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("rf_fit");
    for &n in &SIZES {
        let (xs, ys) = training_set(n, 9);
        g.bench_function(format!("baseline_n{n}"), |b| {
            b.iter_batched(
                || baseline::BaselineForest::new(0),
                |mut rf| rf.fit(&xs, &ys),
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("current_n{n}"), |b| {
            b.iter_batched(
                || RandomForest::new(0),
                |mut rf| rf.fit(&xs, &ys).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_rf_predict(c: &mut Criterion) {
    let mut g = c.benchmark_group("rf_predict");
    let (queries, _) = training_set(QUERY_BATCH, 9);
    for &n in &SIZES {
        let (xs, ys) = training_set(n, 9);
        let mut old = baseline::BaselineForest::new(0);
        old.fit(&xs, &ys);
        let mut new = RandomForest::new(0);
        new.fit(&xs, &ys).unwrap();
        g.bench_function(format!("baseline_per_point_n{n}_q{QUERY_BATCH}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in &queries {
                    acc += old.predict(q).0;
                }
                acc
            })
        });
        let flat = queries.concat();
        let mut out = Vec::with_capacity(QUERY_BATCH);
        g.bench_function(format!("current_batch_n{n}_q{QUERY_BATCH}"), |b| {
            b.iter(|| {
                Predictor::predict_batch(&new, &flat, 9, &mut out).unwrap();
                out.iter().map(|p| p.mean).sum::<f64>()
            })
        });
    }
    g.finish();
}

fn bench_compute_theta(c: &mut Criterion) {
    let mut g = c.benchmark_group("compute_theta");
    for &n in &SIZES {
        let (h, space) = theta_history(n);
        g.bench_function(format!("baseline_n{n}"), |b| {
            b.iter(|| baseline::compute_theta(&h, &space, 0).unwrap())
        });
        g.bench_function(format!("current_cold_n{n}"), |b| {
            b.iter(|| ranking::compute_theta(&h, &space, 0).unwrap())
        });
        // Warm: the ThetaTracker steady state. Models for unchanged
        // levels come out of the cache; only the bootstrap reruns.
        let mut cache = ThetaModelCache::new();
        ranking::compute_theta_cached(&h, &space, 0, &mut cache).unwrap();
        g.bench_function(format!("current_warm_n{n}"), |b| {
            b.iter(|| ranking::compute_theta_cached(&h, &space, 0, &mut cache).unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_rf_fit, bench_rf_predict, bench_compute_theta
}
criterion_main!(benches);
