//! Bit-identity contract for the forest kernel and the batched hot path.
//!
//! `GOLDEN` holds the `to_bits()` of `(mean, var)` that `predict` returned
//! for a fixed training set, three forest seeds and a fixed query set
//! (two queries carry a NaN coordinate) when these values were first
//! recorded, before the forest moved to its compact node layout. Any
//! change to the tree build's RNG draw order, the split rule, NaN
//! routing, leaf statistics or the per-tree accumulation order moves at
//! least one of them. `predict_batch` must reproduce the same bits at
//! every batch size from 0 to 17, which covers empty batches, the
//! per-point tail and whole 8-point lockstep blocks. These invariants make
//! the samplers' model caches and the batched acquisition maximizer
//! observationally transparent.

use hypertune_surrogate::ensemble::MfEnsemble;
use hypertune_surrogate::{Prediction, Predictor, RandomForest, SurrogateModel};

const SEEDS: [u64; 3] = [0, 7, 0xdead_beef];

/// `(mean.to_bits(), var.to_bits())` per seed, per query.
const GOLDEN: [[(u64, u64); 18]; 3] = [
    [
        (0x3fc661d28ada5075, 0x3fbe5d742e636eae),
        (0xbfc62e36611699fc, 0x3fba3b62fbf2648c),
        (0x3fd100cc8e5e5129, 0x3fabc30e85a11ac4),
        (0x3feebcf7ffe97566, 0x3fb6420915e44908),
        (0x3fe618eaaafba83e, 0x3fbbd32d2c082b44),
        (0xbfd5f2ef02a4e305, 0x3fbd354b6b45e6c3),
        (0x3ffa33038ab4a9ce, 0x3fbdb7f9a33cfe40),
        (0x3fca1614927787d0, 0x3fc5f015b22e97a5),
        (0x3fe6375846d54c90, 0x3fb390ec50d0b478),
        (0x3fed36b98e5bb8a9, 0x3fc8b593981fd5fc),
        (0x3fd830559ce2fee3, 0x3fc6aba65b23d014),
        (0x3fe3adfae9ac0dab, 0x3fc0e16dc7c26a96),
        (0x3ffba117c89f07ab, 0x3fb447b8664f9480),
        (0xbfdb8e8181f3bfa3, 0x3fbb073a324858e6),
        (0xbfc7468d372ab5fe, 0x3fc25e4ae0323d9c),
        (0xbfcf06c69b08571c, 0x3fce981147458b17),
        (0xbfdcea2fbe1b5e4a, 0x3fd16682bea2425b),
        (0x3fe0c8305b4dbbe6, 0x3fc75a03f494f39c),
    ],
    [
        (0x3fb3ad80adec53de, 0x3fb545390823f25c),
        (0xbfa27915fd9d3a9e, 0x3fb820bb7dbc6261),
        (0x3fd996886fc5fee4, 0x3fb9915c261d880e),
        (0x3fef616dbf1040ef, 0x3fb10292e2fd61b0),
        (0x3fe6e46466cdfe16, 0x3fb4d808c55d6a10),
        (0xbfdb3aa1ca786c81, 0x3fc5be5763ad21de),
        (0x3ffb672bc24d0e4e, 0x3fab4997393f1300),
        (0x3fd287ce9ef0ec80, 0x3fc2636fc78e3628),
        (0x3fe3946b3280adb3, 0x3fc3f83cabe37eea),
        (0x3fecc671c9030ff6, 0x3fc1e126a61c8354),
        (0x3fd7babba8e7c88c, 0x3fc0bb4be80734b1),
        (0x3fe87a323386535d, 0x3fbc807dea0eb2a8),
        (0x3ffbab0ae7d3b20c, 0x3face4a0e8708d80),
        (0xbfd7594bc1beae33, 0x3fc0eb28660b4593),
        (0xbfced88db7eba1d5, 0x3fc67581ee031358),
        (0xbfc7fb790466c47d, 0x3fce63eb5fdef60a),
        (0xbfe0e99b05ca5b43, 0x3fc504b7c176b158),
        (0x3fdf4c875cde7535, 0x3fc562ffd323d544),
    ],
    [
        (0x3fbe8e3d949f8a84, 0x3faa3cc4e897a090),
        (0x3fb8310ba06e994c, 0x3fc05b74db5b6f9e),
        (0x3fd33c3faa3d28ab, 0x3fba9fdf7cb80678),
        (0x3fede0034f5be31f, 0x3fb655d0005eb520),
        (0x3fe2cc286d0c3a66, 0x3fbb2c62373d5f54),
        (0xbfd779d8f049f692, 0x3fc253037d5eca21),
        (0x3ffb349ddcaff4a7, 0x3fb215aae6167d20),
        (0x3fc6cb34a212d88b, 0x3fce0daa9f249dbd),
        (0x3fe1ade3801fd3eb, 0x3fcd1c51ab93ffba),
        (0x3febae11b1afe060, 0x3fc5ae776a3a1618),
        (0x3fcc9aa3da304075, 0x3fcedefee656eec3),
        (0x3fe465482b524de3, 0x3fc7674949436372),
        (0x3ffbd6b50d1e4213, 0x3fafa849e43af3c0),
        (0xbfd41d28d2af411b, 0x3fc492c452eef003),
        (0xbfc9419bc6c3fb51, 0x3fcb750f387b62fa),
        (0xbfd239b4094d4719, 0x3fc22835fdb6842a),
        (0xbfd97d10baaa30c6, 0x3fd4bddcb971f334),
        (0x3fdf6a0459c51f95, 0x3fcb7a6ffdf1d4a7),
    ],
];

fn training_set() -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..100)
        .map(|i| {
            let i = i as f64;
            vec![
                (i * 0.7319) % 1.0,
                (i * 0.3181) % 1.0,
                ((i * 7.0) % 3.0) / 2.0,
            ]
        })
        .collect();
    let ys = xs
        .iter()
        .map(|x| (4.0 * x[0]).sin() + x[1] * x[1] - 0.5 * x[2])
        .collect();
    (xs, ys)
}

fn queries() -> Vec<Vec<f64>> {
    (0..18)
        .map(|i| {
            let f = i as f64;
            match i {
                5 => vec![f64::NAN, 0.3, 0.5],
                12 => vec![0.4, f64::NAN, 0.0],
                _ => vec![
                    (f * 0.0613) % 1.0,
                    (f * 0.1543) % 1.0,
                    ((f * 5.0) % 3.0) / 2.0,
                ],
            }
        })
        .collect()
}

fn fitted(seed: u64) -> RandomForest {
    let (xs, ys) = training_set();
    let mut rf = RandomForest::new(seed);
    rf.fit(&xs, &ys).unwrap();
    rf
}

fn bits(p: &Prediction) -> (u64, u64) {
    (p.mean.to_bits(), p.var.to_bits())
}

#[test]
fn forest_predict_matches_golden_bits() {
    let qs = queries();
    for (seed, golden) in SEEDS.into_iter().zip(&GOLDEN) {
        let rf = fitted(seed);
        for (i, (q, want)) in qs.iter().zip(golden).enumerate() {
            let got = bits(&Predictor::predict(&rf, q).unwrap());
            assert_eq!(got, *want, "seed {seed:#x}, query {i}");
        }
    }
}

#[test]
fn forest_batch_sizes_0_to_17_match_golden_bits() {
    let qs = queries();
    let dim = qs[0].len();
    let mut out = Vec::new();
    for (seed, golden) in SEEDS.into_iter().zip(&GOLDEN) {
        let rf = fitted(seed);
        for b in 0..qs.len() {
            Predictor::predict_batch(&rf, &qs[..b].concat(), dim, &mut out).unwrap();
            let got: Vec<(u64, u64)> = out.iter().map(bits).collect();
            assert_eq!(got, golden[..b], "seed {seed:#x}, batch size {b}");
        }
    }
}

#[test]
fn ensemble_batch_matches_per_point_through_predictor_trait() {
    let (xs, ys) = training_set();
    let mut low = RandomForest::new(11);
    low.fit(&xs, &ys).unwrap();
    let mut high = RandomForest::new(13);
    high.fit(&xs[..30], &ys[..30]).unwrap();
    let ens = MfEnsemble::new(vec![
        (&low as &dyn Predictor, 0.7),
        (&high as &dyn Predictor, 0.3),
    ])
    .unwrap();

    let queries: Vec<Vec<f64>> = (0..25)
        .map(|i| {
            let f = i as f64;
            vec![(f * 0.2861) % 1.0, (f * 0.4447) % 1.0, (f % 3.0) / 2.0]
        })
        .collect();
    let per_point: Vec<_> = queries.iter().map(|q| ens.predict(q).unwrap()).collect();
    let mut batch = Vec::new();
    ens.predict_batch(&queries.concat(), 3, &mut batch).unwrap();
    assert_eq!(per_point, batch);
}

#[test]
fn refit_with_same_seed_is_reproducible() {
    // Fitting twice with the same seed — into a fresh forest or over an
    // already-fitted one — must give the same model; this is what lets a
    // cache hit stand in for a refit.
    let (xs, ys) = training_set();
    let qs = queries().concat();
    let mut a = RandomForest::new(42);
    a.fit(&xs, &ys).unwrap();
    let mut b = RandomForest::new(42);
    b.fit(&xs[..40], &ys[..40]).unwrap();
    b.fit(&xs, &ys).unwrap();
    let (mut pa, mut pb) = (Vec::new(), Vec::new());
    Predictor::predict_batch(&a, &qs, 3, &mut pa).unwrap();
    Predictor::predict_batch(&b, &qs, 3, &mut pb).unwrap();
    let pa: Vec<_> = pa.iter().map(bits).collect();
    let pb: Vec<_> = pb.iter().map(bits).collect();
    assert_eq!(pa, pb);
}
