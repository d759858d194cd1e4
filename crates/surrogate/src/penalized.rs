//! Constant-liar penalization for batch acquisition (González et al.,
//! *Batch Bayesian Optimization via Local Penalization*).
//!
//! When a sampler draws `k` candidates from one fitted model, the later
//! draws must not pile onto the first optimum. Instead of refitting the
//! surrogate with fantasized outcomes (k extra fits — exactly the cost
//! batch suggestion exists to avoid), [`penalize`] *blends* each
//! already-drawn candidate (a "liar") into a base prediction: near a liar
//! the mean is pulled toward a pessimistic constant (the median observed
//! value, the same imputation constant Algorithm 2 uses for pending
//! configs) and the variance is collapsed, so expected improvement
//! vanishes there and the acquisition maximizer moves on to the next-best
//! region. [`crate::acquisition::BatchMaximizer`] applies it to a cached
//! candidate pool as liars accumulate.

use crate::model::Prediction;

/// Gaussian proximity length-scale in normalized (per-dimension) squared
/// distance. At distance `σ` from a liar, the blend weight has dropped to
/// `exp(-1/2) ≈ 0.61`; at `3σ` it is negligible, so the penalty is local.
pub(crate) const SIGMA: f64 = 0.1;

/// Applies the constant-liar penalty to an already-computed base
/// prediction: the blend weight is 1 on top of a liar and →0 far away.
/// This is the arithmetic-only path batch acquisition uses to re-score a
/// cached candidate pool as liars accumulate, with no model traversal.
pub fn penalize(liars: &[Vec<f64>], liar_value: f64, x: &[f64], p: Prediction) -> Prediction {
    let mut w = 0.0f64;
    for liar in liars {
        let d2: f64 = x
            .iter()
            .zip(liar.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / x.len().max(1) as f64;
        w = w.max((-d2 / (2.0 * SIGMA * SIGMA)).exp());
    }
    Prediction::new(w * liar_value + (1.0 - w) * p.mean, (1.0 - w) * p.var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_collapses_on_liars_and_fades_away() {
        let base = Prediction::new(0.0, 1.0);
        assert_eq!(penalize(&[], 0.5, &[0.3, 0.7], base), base);
        let on_top = penalize(&[vec![0.3, 0.7]], 0.5, &[0.3, 0.7], base);
        assert!((on_top.mean - 0.5).abs() < 1e-12 && on_top.var < 1e-12);
        let far = penalize(&[vec![0.0, 0.0]], 0.5, &[1.0, 1.0], base);
        assert!(far.mean.abs() < 1e-6 && (far.var - 1.0).abs() < 1e-6);
    }
}
