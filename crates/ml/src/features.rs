//! Random Fourier features — the kernel trick for linear solvers.
//!
//! `z(x) = sqrt(2/D) cos(W x + b)` with `W ~ N(0, 1/ℓ²)`, `b ~ U[0, 2π)`
//! approximates an RBF kernel with lengthscale `ℓ`. Combined with ridge
//! regression this gives a closed-form-trainable nonlinear surrogate —
//! our stand-in for the paper's MPNN/SchNet models, chosen because it
//! learns the synthetic targets well and trains deterministically.

use crate::linalg::Matrix;
use hetflow_sim::SimRng;

/// Independent sums the blocked kernels keep in flight: a batch kernel
/// ([`RandomFourierFeatures::transform_batch`],
/// [`crate::RffRidge::predict_many`]) scores this many rows per feature,
/// and a single row ([`crate::RffRidge::predict`]) this many features per
/// pass. Enough to fill the vector lanes and hide the add latency, small
/// enough that a block and its partial sums stay in L1.
pub const RFF_BLOCK: usize = 64;

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

    /// `(W, b, scale)`, for the scalar reference kernels in the tests.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&Matrix, &[f64], f64) {
        (&self.w, &self.b, self.scale)
    }

    /// Maps one input vector: the blocked kernel on a block of one row,
    /// [`RFF_BLOCK`] features per pass.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.d_in(), "feature dim mismatch");
        let (xt, _) = x.as_chunks::<1>();
        let mut z = [[0.0; 1]; RFF_BLOCK];
        let mut out = Vec::with_capacity(self.d_out());
        for i0 in (0..self.d_out()).step_by(RFF_BLOCK) {
            out.extend(self.features_of_block(i0, xt, &mut z).iter().map(|z_i| z_i[0]));
        }
        out
    }

    /// Maps a batch into a design matrix (`n × D`), [`RFF_BLOCK`] rows at
    /// a time; row `r` equals `transform(&xs[r])` bit for bit.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Matrix {
        assert!(!xs.is_empty());
        let mut out = Matrix::zeros(xs.len(), self.d_out());
        let mut xt = vec![[0.0; RFF_BLOCK]; self.d_in()];
        let mut z = [[0.0; RFF_BLOCK]; 1];
        for (block, rows) in xs.chunks(RFF_BLOCK).enumerate() {
            for (k, x) in rows.iter().enumerate() {
                assert_eq!(x.len(), self.d_in(), "feature dim mismatch");
                for (x_j, &v) in xt.iter_mut().zip(x) {
                    x_j[k] = v;
                }
            }
            for i in 0..self.d_out() {
                let z = &self.features_of_block(i, &xt, &mut z)[0];
                for (k, &zk) in z[..rows.len()].iter().enumerate() {
                    out[(block * RFF_BLOCK + k, i)] = zk;
                }
            }
        }
        out
    }

    /// Features `i0..i0 + NF` (fewer at the end of the map) of the `NB`
    /// rows of a feature-major block, written to the front of `z` and
    /// returned as that prefix. `xt[j][k]` is input `j` of row `k`.
    ///
    /// Feature `i` of row `k` is `scale · cos(p + b_i)` where
    /// `p = Σ_j w_ij · x_kj` is summed in `j` order from `-0.0`, exactly as
    /// `f64: Sum` sums a dot product (the scalar form this replaced). The
    /// `NF × NB` sums are independent, so they advance side by side
    /// instead of as one latency chain each: a batch passes `NB` rows and
    /// one feature, a single row `NF` features. Lanes past the rows a
    /// caller filled hold stale inputs, and their results are not read.
    pub(crate) fn features_of_block<'z, const NB: usize, const NF: usize>(
        &self,
        i0: usize,
        xt: &[[f64; NB]],
        z: &'z mut [[f64; NB]; NF],
    ) -> &'z [[f64; NB]] {
        let chunk = NF.min(self.d_out() - i0);
        let z = &mut z[..chunk];
        for (t, z_i) in z.iter_mut().enumerate() {
            let mut p = [-0.0; NB];
            for (&w_ij, x_j) in self.w.row(i0 + t).iter().zip(xt) {
                for (pk, &x) in p.iter_mut().zip(x_j) {
                    *pk += w_ij * x;
                }
            }
            *z_i = p;
        }
        for (p, &b) in z.iter_mut().zip(&self.b[i0..]) {
            for pk in p.iter_mut() {
                *pk = self.scale * (*pk + b).cos();
            }
        }
        z
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
