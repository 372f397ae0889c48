//! Random Fourier features — the kernel trick for linear solvers.
//!
//! `z(x) = sqrt(2/D) cos(W x + b)` with `W ~ N(0, 1/ℓ²)`, `b ~ U[0, 2π)`
//! approximates an RBF kernel with lengthscale `ℓ`. Combined with ridge
//! regression this gives a closed-form-trainable nonlinear surrogate —
//! our stand-in for the paper's MPNN/SchNet models, chosen because it
//! learns the synthetic targets well and trains deterministically.

use crate::linalg::Matrix;
use hetflow_sim::SimRng;

/// A fixed random feature map.
#[derive(Clone, Debug)]
pub struct RandomFourierFeatures {
    /// `D x d_in` projection.
    w: Matrix,
    /// Phase offsets, length `D`.
    b: Vec<f64>,
    scale: f64,
}

impl RandomFourierFeatures {
    /// Samples a feature map: `d_in` inputs → `d_out` features, RBF
    /// lengthscale `lengthscale`.
    pub fn sample(d_in: usize, d_out: usize, lengthscale: f64, rng: &mut SimRng) -> Self {
        assert!(d_in > 0 && d_out > 0 && lengthscale > 0.0);
        let mut w = Matrix::zeros(d_out, d_in);
        for i in 0..d_out {
            for j in 0..d_in {
                w[(i, j)] = rng.standard_normal() / lengthscale;
            }
        }
        let b: Vec<f64> = (0..d_out).map(|_| rng.uniform(0.0, std::f64::consts::TAU)).collect();
        let scale = (2.0 / d_out as f64).sqrt();
        RandomFourierFeatures { w, b, scale }
    }

    /// Input dimension.
    pub fn d_in(&self) -> usize {
        self.w.cols()
    }

    /// Output (feature) dimension.
    pub fn d_out(&self) -> usize {
        self.w.rows()
    }

    /// Maps one input vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.d_in(), "feature dim mismatch");
        let proj = self.w.matvec(x);
        proj.iter()
            .zip(&self.b)
            .map(|(p, b)| self.scale * (p + b).cos())
            .collect()
    }

    /// Maps a batch into a design matrix (`n × D`).
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Matrix {
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| self.transform(x)).collect();
        Matrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut r1 = SimRng::from_seed(1);
        let mut r2 = SimRng::from_seed(1);
        let f1 = RandomFourierFeatures::sample(3, 16, 1.0, &mut r1);
        let f2 = RandomFourierFeatures::sample(3, 16, 1.0, &mut r2);
        let x = vec![0.5, -1.0, 2.0];
        assert_eq!(f1.transform(&x), f2.transform(&x));
    }

    #[test]
    fn output_bounded() {
        let mut rng = SimRng::from_seed(2);
        let f = RandomFourierFeatures::sample(4, 64, 1.0, &mut rng);
        let z = f.transform(&[1.0, -2.0, 0.5, 3.0]);
        let bound = (2.0f64 / 64.0).sqrt();
        assert!(z.iter().all(|v| v.abs() <= bound + 1e-12));
        assert_eq!(z.len(), 64);
    }

    #[test]
    fn kernel_approximation_quality() {
        // z(x)·z(y) ≈ exp(-|x-y|²/(2ℓ²)) for large D.
        let mut rng = SimRng::from_seed(3);
        let f = RandomFourierFeatures::sample(3, 4096, 1.5, &mut rng);
        let x = vec![0.2, -0.3, 0.8];
        let y = vec![0.5, 0.1, 0.4];
        let zx = f.transform(&x);
        let zy = f.transform(&y);
        let dot: f64 = zx.iter().zip(&zy).map(|(a, b)| a * b).sum();
        let d2: f64 = x.iter().zip(&y).map(|(a, b)| (a - b).powi(2)).sum();
        let expect = (-d2 / (2.0 * 1.5 * 1.5)).exp();
        assert!((dot - expect).abs() < 0.05, "dot {dot}, kernel {expect}");
    }

    #[test]
    fn batch_matches_single() {
        let mut rng = SimRng::from_seed(4);
        let f = RandomFourierFeatures::sample(2, 8, 1.0, &mut rng);
        let xs = vec![vec![1.0, 2.0], vec![-0.5, 0.5]];
        let batch = f.transform_batch(&xs);
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.row(0), f.transform(&xs[0]).as_slice());
        assert_eq!(batch.row(1), f.transform(&xs[1]).as_slice());
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn wrong_input_dim_panics() {
        let mut rng = SimRng::from_seed(5);
        let f = RandomFourierFeatures::sample(3, 8, 1.0, &mut rng);
        let _ = f.transform(&[1.0, 2.0]);
    }
}
