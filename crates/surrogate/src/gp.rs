//! Gaussian-process surrogate with a Matérn-5/2 kernel.
//!
//! Targets are standardized before fitting; the lengthscale is selected by
//! maximizing the log marginal likelihood over a logarithmic grid — a
//! cheap, derivative-free alternative to gradient-based hyper-parameter
//! optimization that is robust for the data sizes hyper-parameter tuning
//! produces (tens to a few hundred observations).

use std::sync::Arc;

use crate::kernel::{Kernel, Matern52};
use crate::linalg::{Cholesky, SquareMat};
use crate::model::{validate_training_set, Prediction, Predictor, SurrogateError, SurrogateModel};
use crate::stats::Standardizer;

/// Tuning knobs for [`GaussianProcess`].
#[derive(Clone)]
pub struct GpConfig {
    /// Covariance function (default Matérn-5/2).
    pub kernel: Arc<dyn Kernel>,
    /// Candidate lengthscales tried during fitting (unit-cube distance).
    pub lengthscale_grid: Vec<f64>,
    /// Observation-noise variance added to the kernel diagonal.
    pub noise: f64,
    /// Extra jitter added when the Cholesky fails, doubling until success.
    pub base_jitter: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self {
            kernel: Arc::new(Matern52),
            lengthscale_grid: vec![0.05, 0.1, 0.2, 0.4, 0.8, 1.6],
            noise: 1e-4,
            base_jitter: 1e-10,
        }
    }
}

/// A Gaussian-process regressor implementing [`SurrogateModel`].
#[derive(Clone)]
pub struct GaussianProcess {
    config: GpConfig,
    state: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: Cholesky,
    lengthscale: f64,
    standardizer: Standardizer,
}

impl GaussianProcess {
    /// Creates an unfitted GP with default hyper-parameters.
    pub fn new() -> Self {
        Self::with_config(GpConfig::default())
    }

    /// Creates an unfitted GP with explicit hyper-parameters.
    pub fn with_config(config: GpConfig) -> Self {
        Self {
            config,
            state: None,
        }
    }

    /// Creates an unfitted GP with a specific covariance kernel.
    pub fn with_kernel(kernel: Arc<dyn Kernel>) -> Self {
        Self::with_config(GpConfig {
            kernel,
            ..GpConfig::default()
        })
    }

    /// The lengthscale selected by the last fit, if any.
    pub fn lengthscale(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.lengthscale)
    }

    /// Covariance of two unit-cube points at lengthscale `ell`.
    fn kernel_eval(&self, a: &[f64], b: &[f64], ell: f64) -> f64 {
        self.config.kernel.eval(a, b, ell)
    }

    /// Builds and factorizes the kernel matrix, retrying with growing
    /// jitter if it is numerically singular.
    fn factorize(&self, x: &[Vec<f64>], ell: f64) -> Result<Cholesky, SurrogateError> {
        let n = x.len();
        let base = SquareMat::from_fn(n, |i, j| {
            let k = self.kernel_eval(&x[i], &x[j], ell);
            if i == j {
                k + self.config.noise
            } else {
                k
            }
        });
        let mut jitter = 0.0;
        for _ in 0..12 {
            let mut k = base.clone();
            if jitter > 0.0 {
                k.add_diagonal(jitter);
            }
            match k.cholesky() {
                Ok(ch) => return Ok(ch),
                Err(_) => {
                    jitter = if jitter == 0.0 {
                        self.config.base_jitter
                    } else {
                        jitter * 10.0
                    };
                }
            }
        }
        Err(SurrogateError::NumericalFailure(
            "kernel matrix not positive definite even with jitter".into(),
        ))
    }

    /// Log marginal likelihood of standardized targets `z` under the
    /// factorized kernel.
    fn log_marginal(chol: &Cholesky, z: &[f64]) -> f64 {
        let alpha = chol.solve(z);
        let data_fit: f64 = z.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let n = z.len() as f64;
        -0.5 * data_fit - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }
}

impl Default for GaussianProcess {
    fn default() -> Self {
        Self::new()
    }
}

impl SurrogateModel for GaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), SurrogateError> {
        validate_training_set(x, y)?;
        let standardizer = Standardizer::fit(y);
        let z: Vec<f64> = y.iter().map(|&v| standardizer.transform(v)).collect();

        let mut best: Option<(f64, Cholesky, f64)> = None; // (lml, chol, ell)
        for &ell in &self.config.lengthscale_grid {
            let chol = match self.factorize(x, ell) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let lml = Self::log_marginal(&chol, &z);
            if best.as_ref().is_none_or(|(b, _, _)| lml > *b) {
                best = Some((lml, chol, ell));
            }
        }
        let (_, chol, lengthscale) = best.ok_or_else(|| {
            SurrogateError::NumericalFailure("no lengthscale produced a valid factorization".into())
        })?;
        let alpha = chol.solve(&z);
        self.state = Some(Fitted {
            x: x.to_vec(),
            alpha,
            chol,
            lengthscale,
            standardizer,
        });
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.state.is_some()
    }
}

impl Predictor for GaussianProcess {
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError> {
        let s = self.state.as_ref().ok_or(SurrogateError::NotFitted)?;
        let k_star: Vec<f64> =
            s.x.iter()
                .map(|xi| self.kernel_eval(xi, x, s.lengthscale))
                .collect();
        // mean = k*ᵀ α ;  var = k(x,x) - k*ᵀ K⁻¹ k* = k(x,x) - ‖L⁻¹k*‖².
        let mean_z: f64 = k_star.iter().zip(&s.alpha).map(|(a, b)| a * b).sum();
        let v = s.chol.solve_lower(&k_star);
        let k_xx = self.kernel_eval(x, x, s.lengthscale) + self.config.noise;
        let var_z = (k_xx - v.iter().map(|t| t * t).sum::<f64>()).max(0.0);
        Ok(Prediction::new(
            s.standardizer.inverse_mean(mean_z),
            s.standardizer.inverse_var(var_z),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_1d(f: impl Fn(f64) -> f64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|p| f(p[0])).collect();
        (x, y)
    }

    #[test]
    fn interpolates_training_points() {
        let (x, y) = train_1d(|t| (6.0 * t).sin(), 15);
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let p = gp.predict(xi).unwrap();
            assert!((p.mean - yi).abs() < 0.05, "at {xi:?}: {} vs {yi}", p.mean);
        }
    }

    #[test]
    fn uncertainty_larger_between_points() {
        let (x, y) = train_1d(|t| t, 5);
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        let at_data = gp.predict(&[0.25]).unwrap().var;
        let between = gp.predict(&[0.375]).unwrap().var;
        assert!(between >= at_data);
    }

    #[test]
    fn predict_before_fit_errors() {
        let gp = GaussianProcess::new();
        assert_eq!(gp.predict(&[0.0]).unwrap_err(), SurrogateError::NotFitted);
    }

    #[test]
    fn duplicate_inputs_survive_via_noise() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.9]];
        let y = vec![1.0, 1.1, 0.9, 2.0];
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 1.0).abs() < 0.2);
    }

    #[test]
    fn constant_targets_ok() {
        let (x, _) = train_1d(|_| 0.0, 6);
        let y = vec![7.0; 6];
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        assert!((gp.predict(&[0.33]).unwrap().mean - 7.0).abs() < 1e-6);
    }

    #[test]
    fn lengthscale_adapts_to_wiggliness() {
        // A rapidly varying function should select a shorter lengthscale
        // than a nearly flat one.
        let (x1, y1) = train_1d(|t| (40.0 * t).sin(), 40);
        let (x2, y2) = train_1d(|t| 0.1 * t, 40);
        let mut wiggly = GaussianProcess::new();
        let mut flat = GaussianProcess::new();
        wiggly.fit(&x1, &y1).unwrap();
        flat.fit(&x2, &y2).unwrap();
        assert!(wiggly.lengthscale().unwrap() <= flat.lengthscale().unwrap());
    }

    #[test]
    fn kernel_properties() {
        // k(x,x) = 1, symmetric, decreasing with distance.
        let gp = GaussianProcess::new();
        let a = [0.1, 0.2];
        let b = [0.4, 0.9];
        let c = [0.9, 0.9];
        assert!((gp.kernel_eval(&a, &a, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(gp.kernel_eval(&a, &b, 0.5), gp.kernel_eval(&b, &a, 0.5));
        assert!(gp.kernel_eval(&a, &b, 0.5) > gp.kernel_eval(&a, &c, 0.5));
    }

    #[test]
    fn alternative_kernels_fit_too() {
        use crate::kernel::{Matern32, Rbf};
        let (x, y) = train_1d(|t| (4.0 * t).cos(), 12);
        for kernel in [Arc::new(Rbf) as Arc<dyn Kernel>, Arc::new(Matern32)] {
            let mut gp = GaussianProcess::with_kernel(kernel);
            gp.fit(&x, &y).unwrap();
            let p = gp.predict(&[0.5]).unwrap();
            assert!(p.mean.is_finite());
        }
    }

    #[test]
    fn multi_dim_regression() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                let p = vec![i as f64 / 6.0, j as f64 / 6.0];
                y.push(p[0] * p[0] + 0.5 * p[1]);
                x.push(p);
            }
        }
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.5, 0.5]).unwrap();
        assert!((p.mean - 0.5).abs() < 0.05, "mean {}", p.mean);
    }
}
