//! Model selection: standardization, k-fold cross-validation, and grid
//! search over surrogate hyperparameters.
//!
//! The campaigns use fixed [`SurrogateParams`];
//! this module is how those defaults were chosen, and it lets
//! downstream users re-tune when they swap in their own property
//! functions.

use crate::linalg::LinalgError;
use crate::surrogate::{RffRidge, SurrogateParams};
use hetflow_sim::SimRng;

/// Per-feature standardization fitted on training data.
#[derive(Clone, Debug)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits means and standard deviations per feature column.
    pub fn fit(inputs: &[Vec<f64>]) -> StandardScaler {
        assert!(!inputs.is_empty(), "cannot fit a scaler on empty data");
        let d = inputs[0].len();
        let n = inputs.len() as f64;
        let mut means = vec![0.0; d];
        for x in inputs {
            for (m, v) in means.iter_mut().zip(x) {
                *m += v / n;
            }
        }
        let mut stds = vec![0.0; d];
        for x in inputs {
            for ((s, v), m) in stds.iter_mut().zip(x).zip(&means) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt().max(1e-12); // constant features become zeros
        }
        StandardScaler { means, stds }
    }

    /// Transforms one row.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.means.len());
        x.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Transforms a batch.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

/// Deterministic k-fold index split.
pub fn kfold_indices(n: usize, k: usize, rng: &mut SimRng) -> Vec<Vec<usize>> {
    assert!(k >= 2 && k <= n, "need 2 <= k <= n");
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, id) in idx.into_iter().enumerate() {
        folds[i % k].push(id);
    }
    folds
}

/// Mean k-fold validation RMSE of an [`RffRidge`] with the given
/// hyperparameters.
///
/// Returns the fold-fit error (e.g. a non-positive-definite Gram
/// matrix for a degenerate lambda) instead of panicking, so a grid
/// search can surface which hyperparameter combination failed.
pub fn cv_rmse(
    inputs: &[Vec<f64>],
    targets: &[f64],
    params: SurrogateParams,
    k: usize,
    rng: &mut SimRng,
) -> Result<f64, LinalgError> {
    let folds = kfold_indices(inputs.len(), k, rng);
    let mut total_se = 0.0;
    let mut total_n = 0usize;
    for held_out in &folds {
        let held: std::collections::HashSet<usize> = held_out.iter().copied().collect();
        let train_x: Vec<Vec<f64>> = (0..inputs.len())
            .filter(|i| !held.contains(i))
            .map(|i| inputs[i].clone())
            .collect();
        let train_y: Vec<f64> = (0..inputs.len())
            .filter(|i| !held.contains(i))
            .map(|i| targets[i])
            .collect();
        let model = RffRidge::fit(&train_x, &train_y, params, rng)?;
        for &i in held_out {
            let err = model.predict(&inputs[i]) - targets[i];
            total_se += err * err;
            total_n += 1;
        }
    }
    Ok((total_se / total_n as f64).sqrt())
}

/// Result of a grid search.
#[derive(Clone, Debug)]
pub struct GridSearchResult {
    /// Best hyperparameters found.
    pub best: SurrogateParams,
    /// Its cross-validated RMSE.
    pub best_rmse: f64,
    /// Every `(params, rmse)` pair evaluated.
    pub evaluated: Vec<(SurrogateParams, f64)>,
}

/// Exhaustive grid search over lengthscale × lambda (feature count
/// fixed), using k-fold CV.
///
/// Fails with the first fold-fit error rather than panicking, so a
/// degenerate grid point (e.g. a lambda that makes the Gram matrix
/// singular) is reported, not fatal.
pub fn grid_search(
    inputs: &[Vec<f64>],
    targets: &[f64],
    n_features: usize,
    lengthscales: &[f64],
    lambdas: &[f64],
    k: usize,
    rng: &mut SimRng,
) -> Result<GridSearchResult, LinalgError> {
    assert!(!lengthscales.is_empty() && !lambdas.is_empty());
    let mut evaluated = Vec::new();
    let mut best: Option<(SurrogateParams, f64)> = None;
    for &ls in lengthscales {
        for &lam in lambdas {
            let params = SurrogateParams { n_features, lengthscale: ls, lambda: lam };
            let rmse = cv_rmse(inputs, targets, params, k, rng)?;
            // Strict `<` keeps the first of tied minima, matching the
            // evaluation order above.
            if best.is_none_or(|(_, r)| rmse < r) {
                best = Some((params, rmse));
            }
            evaluated.push((params, rmse));
        }
    }
    // The emptiness assert above guarantees at least one iteration.
    match best {
        Some((best, best_rmse)) => Ok(GridSearchResult { best, best_rmse, evaluated }),
        None => Err(LinalgError::ShapeMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_chem::MoleculeLibrary;

    #[test]
    fn scaler_standardizes() {
        let data = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform_batch(&data);
        for col in 0..2 {
            let mean: f64 = t.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = t.iter().map(|r| r[col] * r[col]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scaler_constant_feature_is_safe() {
        let data = vec![vec![7.0], vec![7.0]];
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform(&[7.0]);
        assert!(t[0].abs() < 1e-6);
    }

    #[test]
    fn kfold_partitions_everything() {
        let mut rng = SimRng::from_seed(1);
        let folds = kfold_indices(103, 5, &mut rng);
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.concat();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        // Balanced within one element.
        let sizes: Vec<usize> = folds.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn grid_search_finds_reasonable_lengthscale() {
        let lib = MoleculeLibrary::generate(600, 3);
        let inputs: Vec<Vec<f64>> = (0..300).map(|i| lib.features(i).to_vec()).collect();
        let targets: Vec<f64> = (0..300).map(|i| lib.true_ip(i)).collect();
        let mut rng = SimRng::from_seed(2);
        let result = grid_search(
            &inputs,
            &targets,
            128,
            &[0.5, 4.5, 50.0],
            &[1e-2],
            3,
            &mut rng,
        )
        .expect("grid search fits");
        assert_eq!(result.evaluated.len(), 3);
        // The calibrated default (4.5) must beat the extremes on this
        // target family.
        assert!((result.best.lengthscale - 4.5).abs() < 1e-9, "{:?}", result.best);
        assert!(result.best_rmse < 2.0);
    }

    #[test]
    fn cv_rmse_is_deterministic() {
        let lib = MoleculeLibrary::generate(200, 4);
        let inputs: Vec<Vec<f64>> = (0..100).map(|i| lib.features(i).to_vec()).collect();
        let targets: Vec<f64> = (0..100).map(|i| lib.true_ip(i)).collect();
        let run = || {
            let mut rng = SimRng::from_seed(9);
            cv_rmse(
                &inputs,
                &targets,
                SurrogateParams { n_features: 64, lengthscale: 4.5, lambda: 1e-2 },
                4,
                &mut rng,
            )
            .expect("cv fits")
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }
}
