//! Parametric distributions for latency and duration cost models.
//!
//! Calibration tables in `hetflow-core` describe every stochastic cost as a
//! [`Dist`] value, so experiments can swap a constant for a long-tailed
//! model with a one-line change, and property tests can reason about
//! support bounds.

use crate::rng::SimRng;
use std::time::Duration;

/// A one-dimensional distribution over non-negative reals.
///
/// All variants clamp samples at zero: cost models never produce negative
/// latencies, even for `Normal` tails.
#[derive(Clone, Debug, PartialEq)]
pub enum Dist {
    /// Always `value`.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean (1/λ).
        mean: f64,
    },
    /// Normal truncated at zero.
    Normal {
        /// Mean of the untruncated normal.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
    /// Log-normal parameterized by its *median* and the σ of the
    /// underlying normal — the natural way to express "typically 500 ms,
    /// occasionally seconds" service latencies.
    LogNormal {
        /// Median of the distribution (= e^μ).
        median: f64,
        /// σ of the underlying normal.
        sigma: f64,
    },
    /// Pareto (Lomax-style heavy tail) with minimum `scale` and shape
    /// `alpha`; models rare multi-second stragglers.
    Pareto {
        /// Minimum value (the distribution's support starts here).
        scale: f64,
        /// Tail index; smaller means heavier tail.
        alpha: f64,
    },
    /// `base + inner`: a deterministic floor plus stochastic excess.
    Shifted {
        /// Deterministic floor added to every sample.
        base: f64,
        /// The stochastic excess above the floor.
        inner: Box<Dist>,
    },
}

impl Dist {
    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let x = match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.uniform(*lo, *hi),
            Dist::Exponential { mean } => {
                // Inverse CDF on u in (0,1].
                let u = 1.0 - rng.unit();
                -mean * u.ln()
            }
            Dist::Normal { mean, sd } => mean + sd * rng.standard_normal(),
            Dist::LogNormal { median, sigma } => {
                (median.ln() + sigma * rng.standard_normal()).exp()
            }
            Dist::Pareto { scale, alpha } => {
                let u = 1.0 - rng.unit();
                scale / u.powf(1.0 / alpha)
            }
            Dist::Shifted { base, inner } => base + inner.sample(rng),
        };
        x.max(0.0)
    }

    /// Draws a sample interpreted as seconds and converts it to a
    /// [`Duration`].
    pub fn sample_secs(&self, rng: &mut SimRng) -> Duration {
        crate::time::secs(self.sample(rng))
    }

    /// The mean of the distribution *as sampled* — i.e. of the
    /// zero-clamped variable [`sample`](Dist::sample) actually draws,
    /// not of the untruncated parametric form. Pareto with `alpha <= 1`
    /// returns infinity. `Shifted` with a negative `base` returns a
    /// lower bound (the value is exact whenever `base >= 0`, the only
    /// configuration cost models use).
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant(v) => v.max(0.0),
            Dist::Uniform { lo, hi } => {
                if *hi <= 0.0 {
                    0.0
                } else if *lo >= 0.0 {
                    0.5 * (lo + hi)
                } else {
                    // Mass below zero collapses onto zero:
                    // E[max(U,0)] = ∫₀ʰⁱ x/(hi-lo) dx.
                    0.5 * hi * hi / (hi - lo)
                }
            }
            Dist::Exponential { mean } => mean.max(0.0),
            Dist::Normal { mean, sd } => {
                if *sd <= 0.0 {
                    mean.max(0.0)
                } else {
                    // E[max(X,0)] = μΦ(μ/σ) + σφ(μ/σ) for X ~ N(μ,σ²).
                    let z = mean / sd;
                    mean * normal_cdf(z) + sd * normal_pdf(z)
                }
            }
            Dist::LogNormal { median, sigma } => median * (sigma * sigma / 2.0).exp(),
            Dist::Pareto { scale, alpha } => {
                if *scale <= 0.0 {
                    0.0
                } else if *alpha <= 1.0 {
                    f64::INFINITY
                } else {
                    scale * alpha / (alpha - 1.0)
                }
            }
            Dist::Shifted { base, inner } => (base + inner.mean()).max(0.0),
        }
    }

    /// A lower bound on the support of the sampled (zero-clamped)
    /// variable — never negative, matching what `sample` can return.
    pub fn min_support(&self) -> f64 {
        match self {
            Dist::Constant(v) => v.max(0.0),
            Dist::Uniform { lo, .. } => lo.max(0.0),
            Dist::Exponential { .. } | Dist::Normal { .. } | Dist::LogNormal { .. } => 0.0,
            Dist::Pareto { scale, .. } => scale.max(0.0),
            Dist::Shifted { base, inner } => (base + inner.min_support()).max(0.0),
        }
    }

    /// Convenience constructor: a constant number of seconds.
    pub fn const_secs(v: f64) -> Dist {
        Dist::Constant(v)
    }

    /// Convenience constructor: a constant number of milliseconds.
    pub fn const_millis(v: f64) -> Dist {
        Dist::Constant(v / 1e3)
    }

    /// Log-normal from a median given in milliseconds.
    pub fn lognormal_millis(median_ms: f64, sigma: f64) -> Dist {
        Dist::LogNormal { median: median_ms / 1e3, sigma }
    }
}

/// Standard normal CDF Φ via the Abramowitz–Stegun 7.1.26 erf
/// approximation (max abs error ≈ 1.5e-7 — far below sampling noise).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal density φ.
fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(2.5);
        let mut rng = SimRng::from_seed(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 2.5);
        }
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::Uniform { lo: 1.0, hi: 3.0 };
        let mut rng = SimRng::from_seed(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1.0..3.0).contains(&x));
        }
        assert!((mean_of(&d, 20_000, 3) - 2.0).abs() < 0.02);
    }

    #[test]
    fn exponential_mean() {
        let d = Dist::Exponential { mean: 0.5 };
        assert!((mean_of(&d, 50_000, 4) - 0.5).abs() < 0.01);
    }

    #[test]
    fn normal_clamped_nonnegative() {
        let d = Dist::Normal { mean: 0.1, sd: 1.0 };
        let mut rng = SimRng::from_seed(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn lognormal_median() {
        let d = Dist::LogNormal { median: 0.5, sigma: 0.4 };
        let mut rng = SimRng::from_seed(6);
        let mut v: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[5000];
        assert!((median - 0.5).abs() < 0.02, "median {median}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = Dist::LogNormal { median: 1.0, sigma: 0.5 };
        let sampled = mean_of(&d, 100_000, 7);
        assert!((sampled - d.mean()).abs() / d.mean() < 0.02);
    }

    #[test]
    fn pareto_min_and_mean() {
        let d = Dist::Pareto { scale: 1.0, alpha: 3.0 };
        let mut rng = SimRng::from_seed(8);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        assert!((mean_of(&d, 200_000, 9) - 1.5).abs() < 0.02);
        assert_eq!(Dist::Pareto { scale: 1.0, alpha: 0.9 }.mean(), f64::INFINITY);
    }

    #[test]
    fn shifted_adds_base() {
        let d = Dist::Shifted { base: 2.0, inner: Box::new(Dist::Constant(0.5)) };
        let mut rng = SimRng::from_seed(10);
        assert_eq!(d.sample(&mut rng), 2.5);
        assert_eq!(d.mean(), 2.5);
        assert_eq!(d.min_support(), 2.5);
    }

    #[test]
    fn sample_secs_converts() {
        let d = Dist::const_millis(250.0);
        let mut rng = SimRng::from_seed(11);
        assert_eq!(d.sample_secs(&mut rng), Duration::from_millis(250));
    }

    #[test]
    fn min_support_values() {
        assert_eq!(Dist::Uniform { lo: 0.2, hi: 0.4 }.min_support(), 0.2);
        assert_eq!(Dist::Exponential { mean: 1.0 }.min_support(), 0.0);
        assert_eq!(Dist::Constant(-1.0).min_support(), 0.0);
        // The clamp applies after the shift, so a negative base cannot
        // drag the support below zero.
        let d = Dist::Shifted { base: -2.0, inner: Box::new(Dist::Constant(0.5)) };
        assert_eq!(d.min_support(), 0.0);
        assert_eq!(d.mean(), 0.0);
    }

    #[test]
    fn mean_matches_sampled_mean_for_every_variant() {
        // Regression: mean() must describe the clamped variable that
        // sample() draws, for every variant — including configurations
        // where the clamp actually bites (negative constants, uniforms
        // straddling zero, normals with heavy left tails).
        let cases = [
            Dist::Constant(2.5),
            Dist::Constant(-1.0),
            Dist::Uniform { lo: 1.0, hi: 3.0 },
            Dist::Uniform { lo: -1.0, hi: 1.0 },
            Dist::Uniform { lo: -3.0, hi: -1.0 },
            Dist::Exponential { mean: 0.5 },
            Dist::Normal { mean: 1.0, sd: 0.1 },
            Dist::Normal { mean: 0.1, sd: 1.0 },
            Dist::Normal { mean: -0.5, sd: 1.0 },
            Dist::LogNormal { median: 0.5, sigma: 0.4 },
            Dist::Pareto { scale: 1.0, alpha: 3.0 },
            Dist::Shifted { base: 2.0, inner: Box::new(Dist::Normal { mean: 0.0, sd: 0.5 }) },
        ];
        for (i, d) in cases.iter().enumerate() {
            let sampled = mean_of(d, 400_000, 100 + i as u64);
            let analytic = d.mean();
            let tol = 0.02 * analytic.abs().max(0.05);
            assert!(
                (sampled - analytic).abs() < tol,
                "{d:?}: sampled {sampled} vs mean() {analytic}"
            );
        }
    }
}
