//! Ranking-loss estimation of partial-evaluation precision (§4.1).
//!
//! For each resource level `i`, a base surrogate `M_i` is fit on `D_i` and
//! scored by how well it reproduces the *ordering* of the high-fidelity
//! measurements `D_K` (Eq. 1, counted miss-ranked pairs; the top-level
//! surrogate `M_K` is scored by 5-fold cross-validation so it cannot
//! trivially win by memorizing `D_K`). A bootstrap Monte-Carlo procedure
//! (the paper's MCMC step, Eq. 2) converts the losses into
//! `θ_i = P(level i has the least loss)` — the weights that drive both
//! bracket selection and the MFES ensemble.
//!
//! This module sits on the tuner's hot path — θ is re-estimated as the
//! history grows, and each estimate fits `K` forests and counts ordered
//! pairs over `S` bootstrap replicates — so it is built for speed:
//!
//! - the bootstrap runs in rank space: once per estimate, `D_K`'s targets
//!   get dense ranks and each level's points a fixed ordering by
//!   `(prediction, target rank)`; a replicate is then just the
//!   multiplicity of each drawn point, and each level's loss is an integer Fenwick-tree
//!   count over those fixed orderings ([`ranking_loss_weighted`]) — no
//!   replicate is materialized or sorted, and the count equals Eq. 1 on
//!   the materialized replicate exactly;
//! - [`ranking_loss`] is the unit-weight case of the same counter,
//!   `O(n log n)` (the naive `O(n²)` scan survives as
//!   [`ranking_loss_naive`], the reference the property tests check
//!   against);
//! - per-level surrogates are cached in [`ThetaModelCache`] keyed by the
//!   level's measurement count, so append-only history growth at other
//!   levels never triggers a refit — and because each fit's seed depends
//!   only on `(seed, level)`, a cache hit is bit-identical to a refit;
//! - level fits and cross-validation folds run one after another on the
//!   calling thread, and all level predictions go through the forest's
//!   batch path.

use std::collections::HashMap;

use hypertune_space::ConfigSpace;
use hypertune_surrogate::{Predictor, RandomForest, SurrogateModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::history::HistoryRead;

/// Number of bootstrap samples `S` in Eq. 2.
pub const BOOTSTRAP_SAMPLES: usize = 100;

/// Cap on the number of `D_K` points used per bootstrap replicate, to
/// bound the pair count as the history grows.
const MAX_BOOT_POINTS: usize = 64;

/// Minimum measurements a level needs before its surrogate participates.
pub const MIN_POINTS_PER_LEVEL: usize = 3;

/// Minimum complete evaluations before `θ` can be estimated at all.
pub const MIN_FULL_EVALS: usize = 4;

/// Eq. 1: number of pairs `(j, k)` whose predicted order disagrees with
/// the observed order (the exclusive-or in the paper). Ties in either
/// ranking carry no ordering information and never disagree. Points with
/// a NaN or infinite prediction or target carry no *usable* ordering
/// information either — a crashed trial's poisoned value would otherwise
/// decide pair orderings arbitrarily — so every pair touching one is
/// skipped (in both the fast and the naive path, keeping them
/// bit-identical).
///
/// Runs in `O(n log n)`: the unit-weight case of [`ranking_loss_weighted`].
pub fn ranking_loss(preds: &[f64], ys: &[f64]) -> usize {
    ranking_loss_weighted(preds, ys, &vec![1; ys.len()])
}

/// [`ranking_loss`] of the multiset in which point `i` appears
/// `weights[i]` times, without materializing it: copies of one point tie
/// in both rankings, and each disagreeing pair of distinct points counts
/// `weights[j] · weights[k]` times. This is the counter the θ bootstrap
/// runs on every replicate.
pub fn ranking_loss_weighted(preds: &[f64], ys: &[f64], weights: &[u32]) -> usize {
    debug_assert_eq!(preds.len(), ys.len());
    debug_assert_eq!(weights.len(), ys.len());
    let ranks = YRanks::new(ys);
    let mut tree = vec![0; ranks.distinct + 1];
    PredOrder::new(preds, &ranks).discordant_pairs(weights, &mut tree)
}

/// Reference `O(n²)` implementation of [`ranking_loss`], kept for the
/// property tests that pin the fast path to the paper's pair semantics.
pub fn ranking_loss_naive(preds: &[f64], ys: &[f64]) -> usize {
    debug_assert_eq!(preds.len(), ys.len());
    let n = ys.len();
    let mut loss = 0;
    for j in 0..n {
        if !preds[j].is_finite() || !ys[j].is_finite() {
            continue;
        }
        for k in (j + 1)..n {
            if !preds[k].is_finite() || !ys[k].is_finite() {
                continue;
            }
            let pred_less = preds[j] < preds[k];
            let obs_less = ys[j] < ys[k];
            // Skip exact ties, which carry no ordering information.
            if preds[j] == preds[k] || ys[j] == ys[k] {
                continue;
            }
            if pred_less != obs_less {
                loss += 1;
            }
        }
    }
    loss
}

/// Dense 1-based ranks of the observed targets: `==`-equal values (so
/// `0.0` and `-0.0`) share a rank, and non-finite targets get rank 0,
/// which excludes them from every pair.
struct YRanks {
    rank: Vec<u32>,
    /// Number of distinct finite targets (the largest rank).
    distinct: usize,
}

impl YRanks {
    fn new(ys: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..ys.len()).filter(|&i| ys[i].is_finite()).collect();
        order.sort_unstable_by(|&a, &b| ys[a].partial_cmp(&ys[b]).expect("finite"));
        let mut rank = vec![0; ys.len()];
        let mut distinct = 0;
        for (pos, &i) in order.iter().enumerate() {
            if pos == 0 || ys[i] != ys[order[pos - 1]] {
                distinct += 1;
            }
            rank[i] = distinct as u32;
        }
        Self { rank, distinct }
    }
}

/// One predictor's ordering of the points with a finite prediction and
/// target: `(index, target rank)` ascending by prediction and, within a
/// group of `==`-equal predictions, by target rank.
struct PredOrder(Vec<(u32, u32)>);

impl PredOrder {
    fn new(preds: &[f64], ranks: &YRanks) -> Self {
        let mut order: Vec<(u32, u32)> = (0..preds.len())
            .filter(|&i| preds[i].is_finite() && ranks.rank[i] > 0)
            .map(|i| (i as u32, ranks.rank[i]))
            .collect();
        order.sort_unstable_by(|a, b| {
            let (pa, pb) = (preds[a.0 as usize], preds[b.0 as usize]);
            pa.partial_cmp(&pb).expect("finite").then(a.1.cmp(&b.1))
        });
        Self(order)
    }

    /// Σ `weights[j] · weights[k]` over pairs with `pred_j < pred_k` and
    /// `y_j > y_k` — exactly the disagreeing pairs, each counted once.
    /// Walks the points in order with a Fenwick tree of the weight
    /// inserted so far per target rank, counting each point against the
    /// strictly larger targets before it. A point tied in prediction with
    /// an earlier one has a target at least as large, so tied predictions
    /// never pair. `tree` is scratch space, one slot per target rank
    /// plus one.
    fn discordant_pairs(&self, weights: &[u32], tree: &mut [u32]) -> usize {
        tree.fill(0);
        let (mut loss, mut inserted) = (0, 0);
        for &(i, rank) in &self.0 {
            let w = weights[i as usize];
            if w == 0 {
                continue;
            }
            let mut not_above = 0;
            let mut r = rank as usize;
            while r > 0 {
                not_above += tree[r];
                r &= r - 1;
            }
            loss += w as usize * (inserted - not_above) as usize;
            inserted += w;
            let mut r = rank as usize;
            while r < tree.len() {
                tree[r] += w;
                r += r & r.wrapping_neg();
            }
        }
        loss
    }
}

/// Per-level predictions on the `D_K` configurations, the raw material of
/// the θ computation. `None` for levels without enough data.
struct LevelPredictions {
    /// `preds[i]` aligns with `ys`; `None` when level `i` is unfittable.
    preds: Vec<Option<Vec<f64>>>,
    /// Observed complete-evaluation targets.
    ys: Vec<f64>,
}

/// Caches the fitted per-level surrogates (and the top level's
/// cross-validated predictions) between θ computations.
///
/// History is append-only, so a level's measurement count identifies its
/// training set exactly; each entry is keyed by the count it was fitted
/// at and refit only when that count changes. Fit seeds depend only on
/// `(seed, level)` — never on call order — so a cache hit produces the
/// same θ, bit for bit, as a from-scratch recomputation.
#[derive(Debug, Clone, Default)]
pub struct ThetaModelCache {
    /// `level -> (measurement count when fitted, fitted forest)`.
    models: HashMap<usize, (usize, RandomForest)>,
    /// `level -> (fit count, full-level count, predictions on D_K)` —
    /// pure function of the cached model and `D_K`, so valid while both
    /// counts match.
    preds: HashMap<usize, (usize, usize, Vec<f64>)>,
    /// `(full-level count when computed, CV predictions)`.
    cv: Option<(usize, Vec<f64>)>,
}

impl ThetaModelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached level surrogates (test hook).
    pub fn cached_levels(&self) -> usize {
        self.models.len()
    }
}

/// Computes `θ` (Eq. 2): the probability, under bootstrap resampling of
/// `D_K`, that each level's surrogate attains the least ranking loss.
///
/// Returns `None` until at least [`MIN_FULL_EVALS`] complete evaluations
/// exist. Levels whose surrogates cannot be fit get `θ_i = 0`.
pub fn compute_theta(
    history: &dyn HistoryRead,
    space: &ConfigSpace,
    seed: u64,
) -> Option<Vec<f64>> {
    compute_theta_cached(history, space, seed, &mut ThetaModelCache::new())
}

/// [`compute_theta`] reusing fitted level surrogates from `cache`; callers
/// that re-estimate θ as the history grows (the [`ThetaTracker`]) only pay
/// for levels whose data actually changed.
pub fn compute_theta_cached(
    history: &dyn HistoryRead,
    space: &ConfigSpace,
    seed: u64,
    cache: &mut ThetaModelCache,
) -> Option<Vec<f64>> {
    let lp = level_predictions(history, space, seed, cache)?;
    let k = lp.preds.len();
    let n = lp.ys.len();
    // Rank `D_K` once; each replicate is then a vector of multiplicities
    // and its losses are integer counts over these fixed orderings.
    let ranks = YRanks::new(&lp.ys);
    let orders: Vec<Option<PredOrder>> = lp
        .preds
        .iter()
        .map(|p| p.as_deref().map(|p| PredOrder::new(p, &ranks)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
    let mut wins = vec![0usize; k];
    let mut counts = vec![0u32; n];
    let mut tree = vec![0; ranks.distinct + 1];
    let mut best_levels: Vec<usize> = Vec::with_capacity(k);
    for _ in 0..BOOTSTRAP_SAMPLES {
        counts.fill(0);
        for _ in 0..n.min(MAX_BOOT_POINTS) {
            counts[rng.gen_range(0..n)] += 1;
        }
        let mut best_loss = usize::MAX;
        best_levels.clear();
        for (level, order) in orders.iter().enumerate() {
            let Some(order) = order else { continue };
            let loss = order.discordant_pairs(&counts, &mut tree);
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
        if let Some(&w) = pick_random(&best_levels, &mut rng) {
            wins[w] += 1;
        }
    }
    let total: usize = wins.iter().sum();
    if total == 0 {
        return None;
    }
    Some(wins.iter().map(|&w| w as f64 / total as f64).collect())
}

fn pick_random<'a, T>(xs: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

/// Fits the per-level base surrogates (reusing `cache` where the data is
/// unchanged) and evaluates them on the `D_K` configurations; `M_K` itself
/// is evaluated by 5-fold cross-validation.
fn level_predictions(
    history: &dyn HistoryRead,
    space: &ConfigSpace,
    seed: u64,
    cache: &mut ThetaModelCache,
) -> Option<LevelPredictions> {
    let top = history.levels().max_level();
    let full = history.group(top);
    if full.len() < MIN_FULL_EVALS {
        return None;
    }
    let xs_full: Vec<Vec<f64>> = full.iter().map(|m| space.encode(&m.config)).collect();
    let ys: Vec<f64> = full.iter().map(|m| m.value).collect();

    // Refit the lower levels whose data changed since the cache entry was
    // made; seeds depend only on `(seed, level)` so the result never
    // depends on which levels hit.
    for level in 0..top {
        let n_level = history.len_at(level);
        if n_level < MIN_POINTS_PER_LEVEL
            || cache.models.get(&level).map(|(n, _)| *n) == Some(n_level)
        {
            continue;
        }
        let (x, y) =
            history.training_data_capped(level, space, crate::sampler::bo::MAX_TRAIN_POINTS);
        let mut rf = RandomForest::new(seed ^ (level as u64) << 8);
        match rf.fit(&x, &y) {
            Ok(()) => {
                cache.models.insert(level, (n_level, rf));
            }
            Err(_) => {
                cache.models.remove(&level);
            }
        }
    }

    let nk = full.len();
    let mut preds: Vec<Option<Vec<f64>>> = Vec::with_capacity(top + 1);
    for level in 0..top {
        let n_level = history.len_at(level);
        if n_level < MIN_POINTS_PER_LEVEL {
            preds.push(None);
            continue;
        }
        let p = match cache.preds.get(&level) {
            Some((pn, pnk, p)) if *pn == n_level && *pnk == nk => Some(p.clone()),
            _ => {
                let fresh: Option<Vec<f64>> = cache
                    .models
                    .get(&level)
                    .and_then(|(_, rf)| predicted_means(rf, &xs_full.concat(), space.len()));
                match &fresh {
                    Some(v) => {
                        cache.preds.insert(level, (n_level, nk, v.clone()));
                    }
                    None => {
                        cache.preds.remove(&level);
                    }
                }
                fresh
            }
        };
        preds.push(p);
    }

    if cache.cv.as_ref().map(|(n, _)| *n) != Some(nk) {
        cache.cv = cross_val_predictions(&xs_full, &ys, seed).map(|p| (nk, p));
    }
    preds.push(cache.cv.as_ref().map(|(_, p)| p.clone()));
    Some(LevelPredictions { preds, ys })
}

/// Predictive means of `rf` at the rows of the row-major matrix `xs`
/// (`dim` columns).
fn predicted_means(rf: &RandomForest, xs: &[f64], dim: usize) -> Option<Vec<f64>> {
    let mut preds = Vec::with_capacity(xs.len() / dim);
    rf.predict_batch(xs, dim, &mut preds).ok()?;
    Some(preds.into_iter().map(|p| p.mean).collect())
}

/// 5-fold cross-validated predictions of the top-level surrogate on its
/// own training data (the paper's treatment of `M_K` in Eq. 1).
fn cross_val_predictions(xs: &[Vec<f64>], ys: &[f64], seed: u64) -> Option<Vec<f64>> {
    let n = xs.len();
    if n < MIN_FULL_EVALS {
        return None;
    }
    let dim = xs[0].len();
    let folds = 5.min(n);
    let mut out = vec![0.0; n];
    for fold in 0..folds {
        let (test, train): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % folds == fold);
        if train.is_empty() || test.is_empty() {
            continue;
        }
        let tx: Vec<Vec<f64>> = train.iter().map(|&i| xs[i].clone()).collect();
        let ty: Vec<f64> = train.iter().map(|&i| ys[i]).collect();
        let mut rf = RandomForest::new(seed ^ 0xcf ^ (fold as u64) << 16);
        rf.fit(&tx, &ty).ok()?;
        let test_x: Vec<f64> = test.iter().flat_map(|&i| xs[i].iter().copied()).collect();
        for (i, mean) in test.into_iter().zip(predicted_means(&rf, &test_x, dim)?) {
            out[i] = mean;
        }
    }
    Some(out)
}

/// Caches `θ` across calls, recomputing only after enough new complete
/// evaluations have arrived (refitting `K` forests per completion would
/// dominate the optimization overhead otherwise). Holds a
/// [`ThetaModelCache`] so even a due refresh only refits the levels whose
/// data changed.
#[derive(Debug, Clone)]
pub struct ThetaTracker {
    seed: u64,
    last_nk: usize,
    theta: Option<Vec<f64>>,
    /// Recompute after this many new complete evaluations.
    refresh_every: usize,
    cache: ThetaModelCache,
}

impl ThetaTracker {
    /// Creates a tracker that refreshes every 3 complete evaluations.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            last_nk: 0,
            theta: None,
            refresh_every: 3,
            cache: ThetaModelCache::new(),
        }
    }

    /// The latest `θ`, if estimable.
    pub fn theta(&self) -> Option<&[f64]> {
        self.theta.as_deref()
    }

    /// Refreshes `θ` when due; returns the new value only when it changed.
    pub fn maybe_refresh(
        &mut self,
        history: &dyn HistoryRead,
        space: &ConfigSpace,
    ) -> Option<Vec<f64>> {
        let nk = history.len_at(history.levels().max_level());
        if nk < MIN_FULL_EVALS || nk < self.last_nk + self.refresh_every {
            return None;
        }
        self.last_nk = nk;
        let theta = compute_theta_cached(history, space, self.seed, &mut self.cache)?;
        self.theta = Some(theta.clone());
        Some(theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, Measurement};
    use crate::levels::ResourceLevels;
    use hypertune_space::{Config, ParamValue};

    #[test]
    fn loss_zero_for_perfect_order() {
        assert_eq!(ranking_loss(&[1.0, 2.0, 3.0], &[0.1, 0.2, 0.3]), 0);
    }

    #[test]
    fn loss_max_for_reversed_order() {
        // 3 points → 3 pairs, all misordered.
        assert_eq!(ranking_loss(&[3.0, 2.0, 1.0], &[0.1, 0.2, 0.3]), 3);
    }

    #[test]
    fn loss_partial() {
        // Only the (1.0 vs 0.5) pair against (0.2 vs 0.3) disagrees…
        let preds = [1.0, 0.5, 2.0];
        let ys = [0.2, 0.3, 0.4];
        // pairs: (0,1): pred 1.0>0.5 vs obs 0.2<0.3 → disagree;
        //        (0,2): 1.0<2.0 vs 0.2<0.4 → agree;
        //        (1,2): 0.5<2.0 vs 0.3<0.4 → agree.
        assert_eq!(ranking_loss(&preds, &ys), 1);
    }

    #[test]
    fn ties_carry_no_information() {
        assert_eq!(ranking_loss(&[1.0, 1.0], &[0.1, 0.2]), 0);
        assert_eq!(ranking_loss(&[1.0, 2.0], &[0.1, 0.1]), 0);
    }

    #[test]
    fn fast_loss_matches_naive_on_fixed_cases() {
        let cases: &[(&[f64], &[f64])] = &[
            (&[1.0, 2.0, 3.0], &[0.1, 0.2, 0.3]),
            (&[3.0, 2.0, 1.0], &[0.1, 0.2, 0.3]),
            (&[1.0, 0.5, 2.0], &[0.2, 0.3, 0.4]),
            (&[1.0, 1.0, 2.0, 2.0], &[0.4, 0.3, 0.2, 0.1]),
            (&[0.5, 0.5, 0.5], &[1.0, 2.0, 3.0]),
            (&[], &[]),
            (&[1.0], &[1.0]),
        ];
        for (preds, ys) in cases {
            assert_eq!(
                ranking_loss(preds, ys),
                ranking_loss_naive(preds, ys),
                "preds {preds:?} ys {ys:?}"
            );
        }
    }

    #[test]
    fn nonfinite_points_carry_no_information() {
        // The NaN/Inf point would have inverted against every neighbour;
        // skipping it leaves the clean pairs' loss unchanged.
        assert_eq!(ranking_loss(&[1.0, f64::NAN, 3.0], &[0.1, 0.0, 0.3]), 0);
        assert_eq!(
            ranking_loss(&[1.0, 2.0, 3.0], &[0.1, f64::INFINITY, 0.3]),
            0
        );
        assert_eq!(
            ranking_loss(&[3.0, f64::NAN, 1.0], &[0.1, 0.2, 0.3]),
            1,
            "remaining finite pair still counts"
        );
        // Fast and naive paths agree on mixed inputs, long and short.
        let n = 64;
        let preds: Vec<f64> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    ((i * 37) % n) as f64
                }
            })
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    f64::NEG_INFINITY
                } else {
                    ((i * 13) % n) as f64
                }
            })
            .collect();
        assert_eq!(ranking_loss(&preds, &ys), ranking_loss_naive(&preds, &ys));
        assert_eq!(
            ranking_loss(&preds[..20], &ys[..20]),
            ranking_loss_naive(&preds[..20], &ys[..20])
        );
    }

    fn history_with_structure(informative_low: bool) -> (History, ConfigSpace) {
        // 1-D space; true objective y = x at full fidelity. The low
        // fidelity either matches (informative) or is anti-correlated.
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let levels = ResourceLevels::new(27.0, 3);
        let mut h = History::new(levels);
        for i in 0..30 {
            let x = i as f64 / 29.0;
            let config = Config::new(vec![ParamValue::Float(x)]);
            let low_val = if informative_low { x } else { 1.0 - x };
            h.record(Measurement {
                config: config.clone(),
                level: 0,
                resource: 1.0,
                value: low_val,
                test_value: low_val,
                cost: 1.0,
                finished_at: i as f64,
            });
            if i % 2 == 0 {
                h.record(Measurement {
                    config,
                    level: 3,
                    resource: 27.0,
                    value: x,
                    test_value: x,
                    cost: 27.0,
                    finished_at: i as f64 + 0.5,
                });
            }
        }
        (h, space)
    }

    #[test]
    fn informative_low_fidelity_earns_weight() {
        let (h, space) = history_with_structure(true);
        let theta = compute_theta(&h, &space, 1).unwrap();
        assert_eq!(theta.len(), 4);
        // Level 0 perfectly predicts the full-fidelity ordering and has
        // 2x the data; it should earn substantial weight.
        assert!(theta[0] > 0.2, "theta {theta:?}");
        // Levels 1 and 2 have no data at all.
        assert_eq!(theta[1], 0.0);
        assert_eq!(theta[2], 0.0);
        let total: f64 = theta.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn misleading_low_fidelity_loses_weight() {
        let (h, space) = history_with_structure(false);
        let theta = compute_theta(&h, &space, 1).unwrap();
        // The anti-correlated level must lose to the CV'd top level.
        assert!(
            theta[0] < theta[3],
            "misleading level should be downweighted: {theta:?}"
        );
        assert!(theta[3] > 0.8, "theta {theta:?}");
    }

    #[test]
    fn too_few_full_evals_returns_none() {
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let mut h = History::new(ResourceLevels::new(27.0, 3));
        for i in 0..3 {
            h.record(Measurement {
                config: Config::new(vec![ParamValue::Float(i as f64 / 3.0)]),
                level: 3,
                resource: 27.0,
                value: i as f64,
                test_value: i as f64,
                cost: 1.0,
                finished_at: i as f64,
            });
        }
        assert!(compute_theta(&h, &space, 0).is_none());
    }

    #[test]
    fn theta_deterministic_per_seed() {
        let (h, space) = history_with_structure(true);
        assert_eq!(compute_theta(&h, &space, 7), compute_theta(&h, &space, 7));
    }

    #[test]
    fn cached_theta_matches_uncached() {
        let (h, space) = history_with_structure(true);
        let mut cache = ThetaModelCache::new();
        let warm = compute_theta_cached(&h, &space, 7, &mut cache);
        assert!(cache.cached_levels() > 0);
        // Second call hits the cache for every level; θ must be identical.
        let hit = compute_theta_cached(&h, &space, 7, &mut cache);
        let cold = compute_theta(&h, &space, 7);
        assert_eq!(warm, cold);
        assert_eq!(hit, cold);
    }

    #[test]
    fn cache_refits_only_changed_levels() {
        let (mut h, space) = history_with_structure(true);
        let mut cache = ThetaModelCache::new();
        compute_theta_cached(&h, &space, 7, &mut cache).unwrap();
        // Append at level 0 only: its entry must refresh, and the cached
        // result must still match a from-scratch computation.
        h.record(Measurement {
            config: Config::new(vec![ParamValue::Float(0.33)]),
            level: 0,
            resource: 1.0,
            value: 0.33,
            test_value: 0.33,
            cost: 1.0,
            finished_at: 99.0,
        });
        let cached = compute_theta_cached(&h, &space, 7, &mut cache);
        let cold = compute_theta(&h, &space, 7);
        assert_eq!(cached, cold);
    }
}
