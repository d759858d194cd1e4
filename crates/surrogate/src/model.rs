use std::fmt;

/// A Gaussian predictive distribution at one query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predictive mean.
    pub mean: f64,
    /// Predictive variance (always `>= 0`).
    pub var: f64,
}

impl Prediction {
    /// Creates a prediction, clamping negative variance from numerical
    /// noise to zero.
    pub fn new(mean: f64, var: f64) -> Self {
        Self {
            mean,
            var: var.max(0.0),
        }
    }

    /// Predictive standard deviation.
    pub fn std(&self) -> f64 {
        self.var.sqrt()
    }
}

/// Errors raised by surrogate fitting or prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum SurrogateError {
    /// `fit` was called with zero observations.
    EmptyTrainingSet,
    /// `fit` was called with `x.len() != y.len()`.
    LengthMismatch {
        /// Number of input rows.
        xs: usize,
        /// Number of targets.
        ys: usize,
    },
    /// Rows of `x` have inconsistent dimensionality.
    RaggedInput,
    /// A target value is NaN or infinite.
    NonFiniteTarget,
    /// `predict` was called before a successful `fit`.
    NotFitted,
    /// The kernel matrix was not positive definite even after jitter.
    NumericalFailure(String),
}

impl fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurrogateError::EmptyTrainingSet => write!(f, "empty training set"),
            SurrogateError::LengthMismatch { xs, ys } => {
                write!(f, "length mismatch: {xs} inputs vs {ys} targets")
            }
            SurrogateError::RaggedInput => write!(f, "input rows have inconsistent dimensions"),
            SurrogateError::NonFiniteTarget => write!(f, "target values must be finite"),
            SurrogateError::NotFitted => write!(f, "predict called before fit"),
            SurrogateError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SurrogateError {}

/// The generic surrogate abstraction of §4.3: a [`Predictor`] that can be
/// fit on `(x, y)` measurements.
///
/// Implementations must be `Send` so the framework can refit surrogates
/// while worker threads stream in new measurements.
pub trait SurrogateModel: Predictor + Send {
    /// Fits the model to unit-cube inputs `x` and targets `y`
    /// (objective values to *minimize*).
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), SurrogateError>;

    /// `true` once `fit` has succeeded at least once.
    fn is_fitted(&self) -> bool;
}

/// Anything that yields Gaussian predictions at query points.
///
/// Every [`SurrogateModel`] is a `Predictor`; the multi-fidelity ensemble
/// ([`crate::MfEnsemble`]) is a `Predictor` that is *not* a
/// `SurrogateModel`, because it combines already-fitted base surrogates
/// instead of being fit on raw data. Acquisition functions are generic
/// over `Predictor` so they work with both.
pub trait Predictor {
    /// Predicts at one query point.
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError>;

    /// Predicts at the rows of `xs`, a flat row-major matrix with `dim`
    /// columns (`dim >= 1`), into `out` (cleared first). Hot loops —
    /// acquisition sweeps, pool building — encode candidates into one
    /// reused buffer and predict into one reused `out`, so a batch costs
    /// no per-row allocation.
    ///
    /// The default loops over [`Predictor::predict`]; implementations with
    /// a cheaper batch path (interleaved forest traversal, member-wise
    /// ensemble batching) override it. Must return exactly the same
    /// predictions as the per-point path.
    fn predict_batch(
        &self,
        xs: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        out.clear();
        for x in xs.chunks_exact(dim) {
            out.push(self.predict(x)?);
        }
        Ok(())
    }
}

/// Validates the common preconditions shared by every `fit` impl.
pub(crate) fn validate_training_set(x: &[Vec<f64>], y: &[f64]) -> Result<usize, SurrogateError> {
    if x.is_empty() {
        return Err(SurrogateError::EmptyTrainingSet);
    }
    if x.len() != y.len() {
        return Err(SurrogateError::LengthMismatch {
            xs: x.len(),
            ys: y.len(),
        });
    }
    let dim = x[0].len();
    if x.iter().any(|row| row.len() != dim) {
        return Err(SurrogateError::RaggedInput);
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(SurrogateError::NonFiniteTarget);
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_clamps_negative_variance() {
        let p = Prediction::new(1.0, -1e-12);
        assert_eq!(p.var, 0.0);
        assert_eq!(p.std(), 0.0);
    }

    #[test]
    fn validation_catches_bad_inputs() {
        assert_eq!(
            validate_training_set(&[], &[]),
            Err(SurrogateError::EmptyTrainingSet)
        );
        assert_eq!(
            validate_training_set(&[vec![0.0]], &[1.0, 2.0]),
            Err(SurrogateError::LengthMismatch { xs: 1, ys: 2 })
        );
        assert_eq!(
            validate_training_set(&[vec![0.0], vec![0.0, 1.0]], &[1.0, 2.0]),
            Err(SurrogateError::RaggedInput)
        );
        assert_eq!(
            validate_training_set(&[vec![0.0]], &[f64::NAN]),
            Err(SurrogateError::NonFiniteTarget)
        );
        assert_eq!(validate_training_set(&[vec![0.0, 1.0]], &[1.0]), Ok(2));
    }

    #[test]
    fn errors_display() {
        let e = SurrogateError::NumericalFailure("cholesky".into());
        assert!(e.to_string().contains("cholesky"));
    }
}
