//! Probabilistic random-forest surrogate (SMAC-style).
//!
//! Each tree is an extremely-randomized regression tree: splits pick a
//! random dimension and a uniform-random threshold between the node's
//! minimum and maximum along it. Leaves store the mean and variance of
//! their targets. The forest's predictive distribution aggregates leaf
//! statistics by the law of total variance, which is the construction
//! SMAC and BOHB-style systems use for mixed discrete/continuous
//! hyper-parameter spaces where Gaussian processes struggle.
//!
//! Fitting and prediction are the tuner's hot path — every suggestion
//! refits the reference-level forest and scores several hundred
//! candidates against the ensemble — so the forest is a compact,
//! single-threaded kernel:
//!
//! - inputs are flattened once into a row-major matrix, so tree
//!   construction touches one contiguous buffer;
//! - every tree's nodes live in one flat array of 16-byte nodes
//!   `{thr, dim, child}`, built in place. A split reserves both child slots before it
//!   recurses, so siblings are adjacent and the depth-first build (and
//!   with it every RNG draw) runs in the order of a plain recursive
//!   build;
//! - a leaf's `child` indexes a side array of `(mean, var + mean²)`, the
//!   two terms prediction sums;
//! - traversal steps to `child + !(x[dim] <= thr)` without a branch on
//!   the direction; a NaN coordinate fails `<=` and goes right;
//! - `predict_batch` walks 8 points through each tree in lockstep, so
//!   their independent node loads overlap, with a per-point tail;
//! - every tree derives its own RNG seed from `(forest seed, tree
//!   index)`.
//!
//! Nothing here spawns threads: a fit is a few hundred microseconds, a
//! scoped spawn plus join costs about 50 µs and a parallelism query about
//! 17 µs (DESIGN.md §10). Per-point accumulation runs tree 0, 1, … on
//! every path, so batch and per-point predictions agree bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{validate_training_set, Prediction, Predictor, SurrogateError, SurrogateModel};

/// Tuning knobs for [`RandomForest`].
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Draw a bootstrap resample per tree when `true`; otherwise each tree
    /// sees the full training set (extra-trees style).
    pub bootstrap: bool,
    /// Variance floor added to every prediction, representing observation
    /// noise; keeps acquisition functions well-defined near duplicates.
    pub min_variance: f64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 30,
            max_depth: 18,
            min_samples_split: 3,
            bootstrap: true,
            min_variance: 1e-8,
        }
    }
}

/// Points that `predict_batch` walks through a tree in lockstep.
const LANES: usize = 8;

/// `Node::dim` of a leaf.
const LEAF: u32 = u32::MAX;

/// One tree node. A split sends `x` to node `child` when
/// `x[dim] <= thr` and to `child + 1` otherwise; a leaf (`dim == LEAF`)
/// keeps the index of its statistics in `RandomForest::leaves` in
/// `child`.
#[derive(Debug, Clone, Copy)]
struct Node {
    thr: f64,
    dim: u32,
    child: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    /// `true` when coordinate `v` takes a split to `child + 1`.
    /// `!(v <= thr)` rather than `v > thr`: a NaN coordinate goes right.
    #[inline(always)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn goes_right(self, v: f64) -> bool {
        !(v <= self.thr)
    }
}

/// A probabilistic random-forest regressor implementing
/// [`SurrogateModel`].
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: RandomForestConfig,
    seed: u64,
    dim: usize,
    /// Root node of each tree, in tree order.
    roots: Vec<u32>,
    /// Every tree's nodes, tree after tree.
    nodes: Vec<Node>,
    /// Leaf statistics `[mean, var + mean²]`, indexed by a leaf's `child`.
    leaves: Vec<[f64; 2]>,
    skipped_nonfinite: usize,
}

impl RandomForest {
    /// Creates an unfitted forest with default hyper-parameters.
    pub fn new(seed: u64) -> Self {
        Self::with_config(RandomForestConfig::default(), seed)
    }

    /// Creates an unfitted forest with explicit hyper-parameters.
    pub fn with_config(config: RandomForestConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            dim: 0,
            roots: Vec::new(),
            nodes: Vec::new(),
            leaves: Vec::new(),
            skipped_nonfinite: 0,
        }
    }

    /// Number of fitted trees (0 before `fit`).
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Number of training rows the last `fit` dropped for containing a
    /// NaN or infinite input coordinate or target. Callers surface this
    /// through the `surrogate.skipped_nonfinite` telemetry counter.
    pub fn skipped_nonfinite(&self) -> usize {
        self.skipped_nonfinite
    }

    /// The real fit, on rows already known to be finite.
    fn fit_finite(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), SurrogateError> {
        self.dim = validate_training_set(x, y)?;
        let n = x.len();
        let matrix = Matrix {
            data: &x.concat(),
            dim: self.dim,
        };
        self.roots.clear();
        self.nodes.clear();
        self.leaves.clear();
        let mut indices = Vec::with_capacity(n);
        for t in 0..self.config.n_trees {
            let mut rng = StdRng::seed_from_u64(derive_tree_seed(self.seed, t));
            indices.clear();
            if self.config.bootstrap && n > 1 {
                indices.extend((0..n).map(|_| rng.gen_range(0..n)));
            } else {
                indices.extend(0..n);
            }
            let root = self.nodes.len();
            self.roots.push(node_index(root));
            self.nodes.push(PLACEHOLDER);
            TreeBuilder {
                matrix: &matrix,
                y,
                config: &self.config,
                rng: &mut rng,
                nodes: &mut self.nodes,
                leaves: &mut self.leaves,
            }
            .build(root, &mut indices, 0);
        }
        Ok(())
    }

    /// Leaf statistics `[mean, var + mean²]` of the tree at `root` for `x`.
    #[inline]
    fn leaf(&self, root: u32, x: &[f64]) -> [f64; 2] {
        let mut at = root as usize;
        loop {
            let node = self.nodes[at];
            if node.dim == LEAF {
                return self.leaves[node.child as usize];
            }
            at = node.child as usize + usize::from(node.goes_right(x[node.dim as usize]));
        }
    }

    /// Law of total variance over the per-tree leaf distributions:
    /// `mean = E[m_t]`, `var = E[v_t + m_t²] - mean²`.
    #[inline]
    fn combine(&self, sum_m: f64, sum_sq: f64) -> Prediction {
        let k = self.roots.len() as f64;
        let mean = sum_m / k;
        let var = (sum_sq / k - mean * mean).max(self.config.min_variance);
        Prediction::new(mean, var)
    }

    fn predict_fitted(&self, x: &[f64]) -> Prediction {
        let (mut sum_m, mut sum_sq) = (0.0, 0.0);
        for &root in &self.roots {
            let [m, sq] = self.leaf(root, x);
            sum_m += m;
            sum_sq += sq;
        }
        self.combine(sum_m, sum_sq)
    }

    /// Predicts `LANES` rows, descending each tree with all lanes in
    /// lockstep: one pass moves every lane one level (lanes at a leaf stay
    /// put), so the lanes' node loads are independent and overlap.
    fn predict_lanes(&self, rows: [&[f64]; LANES]) -> [Prediction; LANES] {
        let mut sum_m = [0.0; LANES];
        let mut sum_sq = [0.0; LANES];
        for &root in &self.roots {
            let mut at = [root as usize; LANES];
            let mut descending = true;
            while descending {
                descending = false;
                for (at, x) in at.iter_mut().zip(rows) {
                    // No branch on the lane's state: a lane at its leaf
                    // compares column 0, discards the result and stays put.
                    let node = self.nodes[*at];
                    let split = node.dim != LEAF;
                    let d = if split { node.dim as usize } else { 0 };
                    let next = node.child as usize + usize::from(node.goes_right(x[d]));
                    *at = if split { next } else { *at };
                    descending |= split;
                }
            }
            for l in 0..LANES {
                let [m, sq] = self.leaves[self.nodes[at[l]].child as usize];
                sum_m[l] += m;
                sum_sq[l] += sq;
            }
        }
        std::array::from_fn(|l| self.combine(sum_m[l], sum_sq[l]))
    }
}

/// Mixes `(forest seed, tree index)` into an independent per-tree seed
/// (SplitMix64 finalizer), so a tree's stream never depends on the trees
/// built before it.
fn derive_tree_seed(seed: u64, tree_index: usize) -> u64 {
    let mut z = seed ^ (tree_index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn node_index(i: usize) -> u32 {
    u32::try_from(i).expect("forest exceeds u32 node indices")
}

impl SurrogateModel for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), SurrogateError> {
        // A crashed or diverged trial can leave NaN/Inf in the training
        // set; one such row would poison every split bound it touches.
        // Drop those rows (recording how many via
        // [`RandomForest::skipped_nonfinite`]) instead of failing the
        // whole fit — unless nothing finite remains.
        if x.len() != y.len() {
            return Err(SurrogateError::LengthMismatch {
                xs: x.len(),
                ys: y.len(),
            });
        }
        let row_ok = |(row, v): (&Vec<f64>, &f64)| -> bool {
            v.is_finite() && row.iter().all(|c| c.is_finite())
        };
        if x.iter().zip(y).all(row_ok) {
            self.skipped_nonfinite = 0;
            return self.fit_finite(x, y);
        }
        let (fx, fy): (Vec<Vec<f64>>, Vec<f64>) = x
            .iter()
            .zip(y)
            .filter(|&(row, v)| row_ok((row, v)))
            .map(|(row, v)| (row.clone(), *v))
            .unzip();
        self.skipped_nonfinite = x.len() - fx.len();
        if fx.is_empty() {
            return Err(SurrogateError::NonFiniteTarget);
        }
        self.fit_finite(&fx, &fy)
    }

    fn is_fitted(&self) -> bool {
        !self.roots.is_empty()
    }
}

impl Predictor for RandomForest {
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError> {
        if self.roots.is_empty() {
            return Err(SurrogateError::NotFitted);
        }
        debug_assert_eq!(x.len(), self.dim);
        Ok(self.predict_fitted(x))
    }

    fn predict_batch(
        &self,
        xs: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        if self.roots.is_empty() {
            return Err(SurrogateError::NotFitted);
        }
        assert_eq!(dim, self.dim, "query rows differ from the training width");
        out.clear();
        out.reserve(xs.len() / dim);
        let mut blocks = xs.chunks_exact(LANES * dim);
        for block in &mut blocks {
            let rows = std::array::from_fn(|l| &block[l * dim..(l + 1) * dim]);
            out.extend(self.predict_lanes(rows));
        }
        out.extend(
            blocks
                .remainder()
                .chunks_exact(dim)
                .map(|x| self.predict_fitted(x)),
        );
        Ok(())
    }
}

/// Row-major view of the flattened training inputs.
#[derive(Clone, Copy)]
struct Matrix<'a> {
    data: &'a [f64],
    dim: usize,
}

impl Matrix<'_> {
    #[inline]
    fn at(&self, row: usize, d: usize) -> f64 {
        self.data[row * self.dim + d]
    }
}

/// Filler for a reserved node slot until its subtree is built.
const PLACEHOLDER: Node = Node {
    thr: 0.0,
    dim: LEAF,
    child: 0,
};

/// Builds one tree into the forest's shared node and leaf arrays.
struct TreeBuilder<'a> {
    matrix: &'a Matrix<'a>,
    y: &'a [f64],
    config: &'a RandomForestConfig,
    rng: &'a mut StdRng,
    nodes: &'a mut Vec<Node>,
    leaves: &'a mut Vec<[f64; 2]>,
}

impl TreeBuilder<'_> {
    /// Recursively builds the subtree over `indices` into the reserved
    /// node `slot`.
    fn build(&mut self, slot: usize, indices: &mut [usize], depth: usize) {
        let config = self.config;
        if depth >= config.max_depth || indices.len() < config.min_samples_split {
            return self.leaf(slot, indices);
        }
        let matrix = self.matrix;
        let dim_count = matrix.dim;
        let rng = &mut *self.rng;
        // Try a few random dimensions looking for one with spread.
        let split = (0..dim_count.max(4)).find_map(|_| {
            let d = rng.gen_range(0..dim_count);
            // Compare-select, not the NaN-aware `f64::min`/`max`: `fit`
            // keeps only finite rows.
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in indices.iter() {
                let v = matrix.at(i, d);
                if v < lo {
                    lo = v;
                }
                if v > hi {
                    hi = v;
                }
            }
            if hi - lo > 1e-12 {
                Some((d, lo + rng.gen::<f64>() * (hi - lo)))
            } else {
                None
            }
        });
        let Some((d, thr)) = split else {
            return self.leaf(slot, indices);
        };
        // In-place partition: indices with x[d] <= thr first.
        let mut mid = 0;
        for i in 0..indices.len() {
            if matrix.at(indices[i], d) <= thr {
                indices.swap(i, mid);
                mid += 1;
            }
        }
        if mid == 0 || mid == indices.len() {
            return self.leaf(slot, indices);
        }
        // Reserve both children before recursing: siblings stay adjacent
        // and the left subtree is built (and draws from the RNG) first.
        let child = self.nodes.len();
        self.nodes.extend([PLACEHOLDER; 2]);
        self.nodes[slot] = Node {
            thr,
            dim: node_index(d),
            child: node_index(child),
        };
        let (left, right) = indices.split_at_mut(mid);
        self.build(child, left, depth + 1);
        self.build(child + 1, right, depth + 1);
    }

    fn leaf(&mut self, slot: usize, indices: &[usize]) {
        // Two-pass mean/variance straight off the index slice — no target
        // buffer. Matches `stats::{mean, variance}` semantics (population
        // variance; zero for fewer than two samples).
        let y = self.y;
        let k = indices.len();
        let (mean, var) = if k == 0 {
            (0.0, 0.0)
        } else {
            let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / k as f64;
            let var = if k < 2 {
                0.0
            } else {
                indices
                    .iter()
                    .map(|&i| {
                        let d = y[i] - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / k as f64
            };
            (mean, var)
        };
        self.nodes[slot] = Node {
            thr: 0.0,
            dim: LEAF,
            child: node_index(self.leaves.len()),
        };
        self.leaves.push([mean, var + mean * mean]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d(n: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                out.push(vec![i as f64 / (n - 1) as f64, j as f64 / (n - 1) as f64]);
            }
        }
        out
    }

    #[test]
    fn fits_smooth_function() {
        let x = grid_2d(12);
        let y: Vec<f64> = x.iter().map(|p| (p[0] - 0.3).powi(2) + p[1]).collect();
        let mut rf = RandomForest::new(0);
        rf.fit(&x, &y).unwrap();
        // In-sample RMSE should be small relative to the target range.
        let mut sse = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            let p = rf.predict(xi).unwrap();
            sse += (p.mean - yi) * (p.mean - yi);
        }
        let rmse = (sse / x.len() as f64).sqrt();
        assert!(rmse < 0.08, "rmse = {rmse}");
    }

    #[test]
    fn predict_before_fit_errors() {
        let rf = RandomForest::new(0);
        assert_eq!(rf.predict(&[0.5]).unwrap_err(), SurrogateError::NotFitted);
        assert_eq!(
            rf.predict_batch(&[0.5], 1, &mut Vec::new()).unwrap_err(),
            SurrogateError::NotFitted
        );
        assert!(!rf.is_fitted());
    }

    #[test]
    fn single_observation_is_handled() {
        let mut rf = RandomForest::new(1);
        rf.fit(&[vec![0.5, 0.5]], &[3.0]).unwrap();
        let p = rf.predict(&[0.1, 0.9]).unwrap();
        assert!((p.mean - 3.0).abs() < 1e-12);
        assert!(p.var >= 0.0);
    }

    #[test]
    fn constant_targets_predict_constant() {
        let x = grid_2d(5);
        let y = vec![2.5; x.len()];
        let mut rf = RandomForest::new(2);
        rf.fit(&x, &y).unwrap();
        let p = rf.predict(&[0.2, 0.8]).unwrap();
        assert!((p.mean - 2.5).abs() < 1e-12);
        assert!(p.var <= 1e-6);
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        // Train on left half only; variance on the right should exceed
        // in-sample variance near training points.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 100.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (8.0 * p[0]).sin()).collect();
        let mut rf = RandomForest::new(3);
        rf.fit(&x, &y).unwrap();
        let near = rf.predict(&[0.2]).unwrap().var;
        let far = rf.predict(&[0.95]).unwrap().var;
        assert!(
            far >= near,
            "extrapolation var {far} should be >= interpolation var {near}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let x = grid_2d(6);
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[1]).collect();
        let mut a = RandomForest::new(42);
        let mut b = RandomForest::new(42);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for q in &x {
            assert_eq!(a.predict(q).unwrap(), b.predict(q).unwrap());
        }
    }

    #[test]
    fn predict_batch_matches_per_point_predict() {
        let x = grid_2d(8);
        let y: Vec<f64> = x.iter().map(|p| p[0].sin() + p[1]).collect();
        let mut rf = RandomForest::new(11);
        rf.fit(&x, &y).unwrap();
        let mut batch = Vec::new();
        rf.predict_batch(&x.concat(), 2, &mut batch).unwrap();
        assert_eq!(batch.len(), x.len());
        for (q, b) in x.iter().zip(&batch) {
            assert_eq!(rf.predict(q).unwrap(), *b);
        }
    }

    #[test]
    fn refit_replaces_trees() {
        let mut rf = RandomForest::new(0);
        rf.fit(&[vec![0.0], vec![1.0]], &[0.0, 1.0]).unwrap();
        let before = rf.n_trees();
        rf.fit(&[vec![0.0], vec![1.0]], &[5.0, 5.0]).unwrap();
        assert_eq!(rf.n_trees(), before);
        assert!((rf.predict(&[0.5]).unwrap().mean - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nonfinite_rows_are_skipped_not_fatal() {
        // A NaN target, an infinite target, and a NaN input coordinate
        // are each dropped; the fit proceeds on the finite remainder and
        // matches a fit on the clean rows alone.
        let clean_x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let clean_y: Vec<f64> = clean_x.iter().map(|p| 2.0 * p[0]).collect();
        let mut dirty_x = clean_x.clone();
        let mut dirty_y = clean_y.clone();
        dirty_x.push(vec![0.5]);
        dirty_y.push(f64::NAN);
        dirty_x.push(vec![0.7]);
        dirty_y.push(f64::INFINITY);
        dirty_x.push(vec![f64::NAN]);
        dirty_y.push(0.3);
        let mut clean_rf = RandomForest::new(4);
        let mut dirty_rf = RandomForest::new(4);
        clean_rf.fit(&clean_x, &clean_y).unwrap();
        dirty_rf.fit(&dirty_x, &dirty_y).unwrap();
        assert_eq!(clean_rf.skipped_nonfinite(), 0);
        assert_eq!(dirty_rf.skipped_nonfinite(), 3);
        for q in &clean_x {
            assert_eq!(clean_rf.predict(q).unwrap(), dirty_rf.predict(q).unwrap());
        }
    }

    #[test]
    fn all_nonfinite_rows_is_an_error() {
        let mut rf = RandomForest::new(4);
        let err = rf.fit(&[vec![0.5], vec![0.6]], &[f64::NAN, f64::INFINITY]);
        assert_eq!(err, Err(SurrogateError::NonFiniteTarget));
        assert_eq!(rf.skipped_nonfinite(), 2);
        assert!(!rf.is_fitted());
    }

    #[test]
    fn ranks_recoverable_on_monotone_function() {
        // The forest should order clearly separated points correctly.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| 3.0 * p[0]).collect();
        let mut rf = RandomForest::new(9);
        rf.fit(&x, &y).unwrap();
        let lo = rf.predict(&[0.05]).unwrap().mean;
        let hi = rf.predict(&[0.95]).unwrap().mean;
        assert!(lo < hi);
    }
}
