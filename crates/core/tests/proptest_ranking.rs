//! Property-based equivalence tests for the O(n log n) ranking loss.
//!
//! The rank-space Fenwick counter in [`hypertune_core::ranking`] must
//! return exactly the count produced by the quadratic reference
//! implementation on every input — including heavy ties in the
//! predictions, the targets, or both, which is where the rank-space
//! formulation is easiest to get wrong (tied predictions are *skipped*
//! by Eq. 1, not counted half) — and, weighted by bootstrap
//! multiplicities, exactly the count on the materialized replicate.

use hypertune_core::ranking::{ranking_loss, ranking_loss_naive, ranking_loss_weighted};
use proptest::prelude::*;

/// Decodes a small code into a value with heavy ties and every special
/// case the counter must handle: both signed zeros, NaN and both
/// infinities.
fn special(code: u8) -> f64 {
    const VALUES: [f64; 10] = [
        -1.0,
        -0.5,
        0.0,
        -0.0,
        0.5,
        1.0,
        2.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    VALUES[usize::from(code) % VALUES.len()]
}

proptest! {
    /// Continuous values: ties are rare, ordering dominates.
    #[test]
    fn matches_naive_on_continuous_values(
        pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..80),
    ) {
        let preds: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        prop_assert_eq!(ranking_loss(&preds, &ys), ranking_loss_naive(&preds, &ys));
    }

    /// Coarsely quantized values: ties everywhere, in predictions and
    /// targets independently.
    #[test]
    fn matches_naive_under_heavy_ties(
        pairs in proptest::collection::vec((0u8..5, 0u8..5), 0..80),
    ) {
        let preds: Vec<f64> = pairs.iter().map(|p| f64::from(p.0)).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| f64::from(p.1)).collect();
        prop_assert_eq!(ranking_loss(&preds, &ys), ranking_loss_naive(&preds, &ys));
    }

    /// Constant predictions: every pair is pred-tied, so the loss must be
    /// exactly zero no matter what the targets do.
    #[test]
    fn constant_predictions_give_zero_loss(
        ys in proptest::collection::vec(-5.0f64..5.0, 0..60),
        c in -5.0f64..5.0,
    ) {
        let preds = vec![c; ys.len()];
        prop_assert_eq!(ranking_loss(&preds, &ys), 0);
        prop_assert_eq!(ranking_loss_naive(&preds, &ys), 0);
    }

    /// Mixed granularity: quantized predictions against continuous
    /// targets exercises pred-tie blocks with strict target ordering.
    #[test]
    fn matches_naive_with_tied_preds_distinct_ys(
        pairs in proptest::collection::vec((0u8..3, -1.0f64..1.0), 0..60),
    ) {
        let preds: Vec<f64> = pairs.iter().map(|p| f64::from(p.0)).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        prop_assert_eq!(ranking_loss(&preds, &ys), ranking_loss_naive(&preds, &ys));
    }

}

proptest! {
    // Cheap cases over a small value alphabet: run enough of them to hit
    // every combination of tie, signed zero and non-finite value.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Bootstrap replicates: drawing `draws` (with repetition) from the
    /// points and counting the multiplicities must give the same loss as
    /// materializing the replicate and scoring it with the reference.
    #[test]
    fn weighted_count_matches_naive_on_materialized_replicate(
        points in proptest::collection::vec((0u8..10, 0u8..10), 1..40),
        draws in proptest::collection::vec(0usize..1000, 0..70),
    ) {
        let preds: Vec<f64> = points.iter().map(|p| special(p.0)).collect();
        let ys: Vec<f64> = points.iter().map(|p| special(p.1)).collect();
        let n = points.len();
        let mut weights = vec![0u32; n];
        let (mut rep_preds, mut rep_ys) = (Vec::new(), Vec::new());
        for &d in &draws {
            let i = d % n;
            weights[i] += 1;
            rep_preds.push(preds[i]);
            rep_ys.push(ys[i]);
        }
        prop_assert_eq!(
            ranking_loss_weighted(&preds, &ys, &weights),
            ranking_loss_naive(&rep_preds, &rep_ys)
        );
    }
}

#[test]
fn signed_zero_predictions_count_as_tied() {
    // The naive loop compares with `==`, under which -0.0 == 0.0; the
    // rank-space path must agree that such pairs are skipped.
    let preds = [0.0, -0.0, 0.0, -0.0];
    let ys = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(ranking_loss_naive(&preds, &ys), 0);
    assert_eq!(ranking_loss(&preds, &ys), ranking_loss_naive(&preds, &ys));
}

#[test]
fn reversed_ranking_counts_every_pair() {
    let preds = [4.0, 3.0, 2.0, 1.0];
    let ys = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(ranking_loss(&preds, &ys), 6);
    assert_eq!(ranking_loss(&preds, &ys), ranking_loss_naive(&preds, &ys));
}
