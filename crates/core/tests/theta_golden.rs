//! Golden pin for the θ estimate (Eq. 2): the exact bits of
//! `compute_theta` on fixed multi-fidelity histories.
//!
//! θ is a ratio of bootstrap win counts, so any change to the ranking-loss
//! count, the bootstrap draws, the tie handling between equally good
//! levels or the per-level surrogates shows up here as a changed bit
//! pattern. The histories cover fewer than 33, between 33 and 64, and more
//! than 64 complete evaluations (the bootstrap caps replicates at 64
//! points), with tied targets, tied predictions (repeated configurations),
//! a level too small to fit, and — in the largest history — non-finite
//! targets.

use hypertune_core::ranking::compute_theta;
use hypertune_core::{History, Measurement, ResourceLevels};
use hypertune_space::{Config, ConfigSpace, ParamValue};

/// Deterministic xorshift stream, independent of any RNG crate.
struct Stream(u64);

impl Stream {
    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn record(h: &mut History, x: [f64; 2], level: usize, value: f64) {
    h.record(Measurement {
        config: Config::new(vec![ParamValue::Float(x[0]), ParamValue::Float(x[1])]),
        level,
        resource: 3f64.powi(level as i32),
        value,
        test_value: value,
        cost: 1.0,
        finished_at: h.len() as f64,
    });
}

/// A history with `n_full` complete evaluations. Targets are quantized to
/// steps of 1/20 so many tie exactly; every seventh complete evaluation
/// repeats an earlier configuration, so level surrogates predict ties.
/// Levels 0 and 1 are noisy views of the objective (level 1 less noisy,
/// on half the configurations); level 2 has too few points to fit.
fn history(n_full: usize, stream_seed: u64, non_finite: bool) -> (History, ConfigSpace) {
    let space = ConfigSpace::builder()
        .float("a", 0.0, 1.0)
        .float("b", 0.0, 1.0)
        .build();
    let mut h = History::new(ResourceLevels::new(27.0, 3));
    let mut s = Stream(stream_seed);
    let objective = |x: [f64; 2]| (((x[0] - 0.3).powi(2) + 0.5 * x[1]) * 20.0).round() / 20.0;
    let mut full: Vec<[f64; 2]> = Vec::new();
    for i in 0..n_full {
        let x = if i % 7 == 6 {
            full[i / 2]
        } else {
            [s.next_unit(), s.next_unit()]
        };
        full.push(x);
        record(&mut h, x, 0, objective(x) + 0.4 * s.next_unit());
        if i % 2 == 0 {
            record(&mut h, x, 1, objective(x) + 0.2 * s.next_unit());
        }
        if i < 2 {
            record(&mut h, x, 2, objective(x));
        }
        let y = match i {
            5 if non_finite => f64::NAN,
            11 if non_finite => f64::INFINITY,
            _ => objective(x),
        };
        record(&mut h, x, 3, y);
    }
    (h, space)
}

fn theta_bits(n_full: usize, seed: u64, non_finite: bool) -> Vec<u64> {
    let (h, space) = history(n_full, 0x9e37_79b9_7f4a_7c15 ^ n_full as u64, non_finite);
    compute_theta(&h, &space, seed)
        .expect("enough complete evaluations for θ")
        .iter()
        .map(|t| t.to_bits())
        .collect()
}

fn check(n_full: usize, non_finite: bool, golden: &[[u64; 4]; 3]) {
    let got: Vec<Vec<u64>> = [1u64, 7, 42]
        .into_iter()
        .map(|seed| theta_bits(n_full, seed, non_finite))
        .collect();
    assert_eq!(
        got,
        golden.map(|g| g.to_vec()),
        "θ bits changed for n_full={n_full} (seeds 1, 7, 42): got {got:#x?}"
    );
}

#[test]
fn theta_matches_golden_bits_below_33_full_evals() {
    check(
        20,
        false,
        &[
            [
                0x3fd28f5c28f5c28f,
                0x3fd6666666666666,
                0,
                0x3fd70a3d70a3d70a,
            ],
            [
                0x3fe75c28f5c28f5c,
                0x3fc1eb851eb851ec,
                0,
                0x3fc0a3d70a3d70a4,
            ],
            [
                0x3fd51eb851eb851f,
                0x3fb70a3d70a3d70a,
                0,
                0x3fe28f5c28f5c28f,
            ],
        ],
    );
}

#[test]
fn theta_matches_golden_bits_between_33_and_64_full_evals() {
    check(
        48,
        false,
        &[
            [0, 0x3fedc28f5c28f5c3, 0, 0x3fb1eb851eb851ec],
            [0, 0x3fdae147ae147ae1, 0, 0x3fe28f5c28f5c28f],
            [
                0x3f847ae147ae147b,
                0x3fee147ae147ae14,
                0,
                0x3fa999999999999a,
            ],
        ],
    );
}

#[test]
fn theta_matches_golden_bits_above_64_full_evals() {
    check(
        90,
        true,
        &[
            [0, 0x3f9eb851eb851eb8, 0, 0x3fef0a3d70a3d70a],
            [0, 0x3f9eb851eb851eb8, 0, 0x3fef0a3d70a3d70a],
            [0, 0x3fa47ae147ae147b, 0, 0x3feeb851eb851eb8],
        ],
    );
}
