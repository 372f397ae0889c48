//! The scalar property surrogate: random Fourier features + ridge.
//!
//! Stand-in for the paper's message-passing neural networks that map a
//! molecule's connectivity to its ionization potential (§III-A). One
//! model trains in closed form in milliseconds of wall time, so a full
//! active-learning campaign with repeated retraining is cheap to
//! simulate while the *learning dynamics* stay real.

use crate::features::{RandomFourierFeatures, RFF_BLOCK};
use crate::linalg::LinalgError;
use crate::ridge::Ridge;
use hetflow_sim::SimRng;

/// Hyperparameters of the RFF-ridge surrogate.
#[derive(Clone, Copy, Debug)]
pub struct SurrogateParams {
    /// Random feature dimension.
    pub n_features: usize,
    /// RBF lengthscale.
    pub lengthscale: f64,
    /// Ridge penalty.
    pub lambda: f64,
}

impl Default for SurrogateParams {
    fn default() -> Self {
        SurrogateParams { n_features: 384, lengthscale: 4.5, lambda: 1e-2 }
    }
}

/// A fitted scalar surrogate.
#[derive(Clone, Debug)]
pub struct RffRidge {
    rff: RandomFourierFeatures,
    model: Ridge,
}

impl RffRidge {
    /// Fits on `(inputs, targets)`; the feature map is drawn from `rng`
    /// (so ensemble members differ in both data subset and features).
    pub fn fit(
        inputs: &[Vec<f64>],
        targets: &[f64],
        params: SurrogateParams,
        rng: &mut SimRng,
    ) -> Result<RffRidge, LinalgError> {
        assert_eq!(inputs.len(), targets.len());
        assert!(!inputs.is_empty(), "cannot fit on empty data");
        let d_in = inputs[0].len();
        let rff = RandomFourierFeatures::sample(d_in, params.n_features, params.lengthscale, rng);
        let x = rff.transform_batch(inputs);
        let model = Ridge::fit(&x, targets, params.lambda)?;
        Ok(RffRidge { rff, model })
    }

    /// Predicts the property of one input: the blocked kernel on a block
    /// of one row, [`RFF_BLOCK`] features per pass.
    pub fn predict(&self, input: &[f64]) -> f64 {
        assert_eq!(input.len(), self.rff.d_in(), "feature dim mismatch");
        let (xt, _) = input.as_chunks::<1>();
        self.score_block::<1, RFF_BLOCK>(xt)[0]
    }

    /// Predicts every row of `xs` (`n × d_in`, row-major) and appends the
    /// `n` predictions to `out`. Bit-identical to calling
    /// [`RffRidge::predict`] row by row; rows are scored [`RFF_BLOCK`] at a
    /// time through one scratch block, so the cost per row drops without
    /// a copy of `xs`. A short last block is scored at full width and its
    /// unused lanes are dropped.
    pub fn predict_many(&self, xs: &[f64], out: &mut Vec<f64>) {
        let d_in = self.rff.d_in();
        assert_eq!(xs.len() % d_in, 0, "feature dim mismatch");
        out.reserve(xs.len() / d_in);
        let mut xt = vec![[0.0; RFF_BLOCK]; d_in];
        for rows in xs.chunks(d_in * RFF_BLOCK) {
            for (k, x) in rows.chunks_exact(d_in).enumerate() {
                for (x_j, &v) in xt.iter_mut().zip(x) {
                    x_j[k] = v;
                }
            }
            out.extend_from_slice(&self.score_block::<RFF_BLOCK, 1>(&xt)[..rows.len() / d_in]);
        }
    }

    /// Scores the `NB` rows of a feature-major block `xt`, `NF` features
    /// per pass (see `RandomFourierFeatures::features_of_block`). Each
    /// prediction is `intercept + Σ_i z_i · β_i`, summed in feature order
    /// from `-0.0` as [`Ridge::predict`] does.
    fn score_block<const NB: usize, const NF: usize>(&self, xt: &[[f64; NB]]) -> [f64; NB] {
        let mut acc = [-0.0; NB];
        let mut z = [[0.0; NB]; NF];
        let beta = self.model.weights().as_slice();
        for (c, beta_c) in beta.chunks(NF).enumerate() {
            let z = self.rff.features_of_block(c * NF, xt, &mut z);
            for (z_i, &beta_i) in z.iter().zip(beta_c) {
                for (a, &zk) in acc.iter_mut().zip(z_i) {
                    *a += zk * beta_i;
                }
            }
        }
        let intercept = self.model.intercept(0);
        acc.map(|a| intercept + a)
    }

    /// The feature map and the ridge model, for the scalar reference
    /// kernels in the tests.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&RandomFourierFeatures, &Ridge) {
        (&self.rff, &self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_chem::MoleculeLibrary;

    #[test]
    fn learns_the_synthetic_ip_function() {
        // The whole premise of the molecular-design reproduction: the
        // surrogate must learn chem's hidden IP function from samples.
        let lib = MoleculeLibrary::generate(4000, 11);
        let mut rng = SimRng::from_seed(1);
        let train_ids: Vec<usize> = (0..800).collect();
        let inputs: Vec<Vec<f64>> =
            train_ids.iter().map(|&i| lib.features(i).to_vec()).collect();
        let targets: Vec<f64> = train_ids.iter().map(|&i| lib.true_ip(i)).collect();
        let model = RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng)
            .unwrap();
        // Held-out RMSE must beat the trivial (predict-the-mean) model
        // by a wide margin.
        let test_ids: Vec<usize> = (800..1600).collect();
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut se_model = 0.0;
        let mut se_mean = 0.0;
        for &i in &test_ids {
            let truth = lib.true_ip(i);
            se_model += (model.predict(&lib.features(i)) - truth).powi(2);
            se_mean += (mean - truth).powi(2);
        }
        let rmse_model = (se_model / test_ids.len() as f64).sqrt();
        let rmse_mean = (se_mean / test_ids.len() as f64).sqrt();
        assert!(
            rmse_model < 0.5 * rmse_mean,
            "surrogate must learn: rmse {rmse_model:.3} vs baseline {rmse_mean:.3}"
        );
    }

    #[test]
    fn more_data_helps() {
        let lib = MoleculeLibrary::generate(4000, 13);
        let rmse_with = |n: usize, seed: u64| {
            let mut rng = SimRng::from_seed(seed);
            let inputs: Vec<Vec<f64>> = (0..n).map(|i| lib.features(i).to_vec()).collect();
            let targets: Vec<f64> = (0..n).map(|i| lib.true_ip(i)).collect();
            let m = RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng)
                .unwrap();
            let se: f64 = (2000..2500)
                .map(|i| (m.predict(&lib.features(i)) - lib.true_ip(i)).powi(2))
                .sum();
            (se / 500.0).sqrt()
        };
        let small = rmse_with(50, 2);
        let large = rmse_with(1000, 2);
        assert!(large < small, "small-data rmse {small}, large-data rmse {large}");
    }

    #[test]
    fn deterministic_given_rng() {
        let lib = MoleculeLibrary::generate(100, 5);
        let fit = || {
            let mut rng = SimRng::from_seed(3);
            let inputs: Vec<Vec<f64>> = (0..50).map(|i| lib.features(i).to_vec()).collect();
            let targets: Vec<f64> = (0..50).map(|i| lib.true_ip(i)).collect();
            RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng)
                .unwrap()
                .predict(&lib.features(99))
        };
        assert_eq!(fit(), fit());
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_fit_panics() {
        let mut rng = SimRng::from_seed(1);
        let _ = RffRidge::fit(&[], &[], SurrogateParams::default(), &mut rng);
    }
}
