//! Test oracles for the bit-identical science kernels.
//!
//! The blocked RFF scoring ([`RffRidge::predict_many`]), the left-looking
//! Cholesky ([`Matrix::into_cholesky`]) and the one-`exp` pair potential
//! promise output that is bit-for-bit that of the scalar kernels they
//! replaced. Those scalar kernels are kept here, written out in full so
//! that they share no code with the fast ones (only `Matrix` storage and
//! `add_diag`), and the properties below compare the two on
//! `f64::to_bits`. A reassociated sum, a fused multiply-add or a
//! different `exp`/`cos` argument shows up as a bit difference.

use crate::linalg::{LinalgError, Matrix};
use crate::pairpot::{LabelledStructure, PairPotParams, PairPotential};
use crate::surrogate::{RffRidge, SurrogateParams};
use hetflow_chem::{EnergyModel, Structure, Vec3};

/// `xᵀ x`, element by element (the row-indexed Gram loop).
fn gram_ref(x: &Matrix) -> Matrix {
    let d = x.cols();
    let mut g = Matrix::zeros(d, d);
    for r in 0..x.rows() {
        let row = x.row(r);
        for i in 0..d {
            let a = row[i];
            if a == 0.0 {
                continue;
            }
            for j in i..d {
                g[(i, j)] += a * row[j];
            }
        }
    }
    for i in 0..d {
        for j in 0..i {
            g[(i, j)] = g[(j, i)];
        }
    }
    g
}

/// Row-by-row (Cholesky–Banachiewicz) factorization; returns `L`.
fn cholesky_ref(a: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::ShapeMismatch);
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves `L Lᵀ x = b` by row-oriented forward and back substitution.
fn solve_ref(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Single-output ridge through the reference Gram, factorization and
/// solve: `(weights, intercept)`.
fn ridge_ref(
    x: &Matrix,
    y: &[f64],
    lambda: f64,
    center: bool,
) -> Result<(Vec<f64>, f64), LinalgError> {
    let (n, d) = (x.rows(), x.cols());
    let (x_means, y_mean) = if center {
        let xm: Vec<f64> =
            (0..d).map(|c| (0..n).map(|r| x[(r, c)]).sum::<f64>() / n as f64).collect();
        (xm, y.iter().sum::<f64>() / n as f64)
    } else {
        (vec![0.0; d], 0.0)
    };
    let mut xc = x.clone();
    for r in 0..n {
        for c in 0..d {
            xc[(r, c)] -= x_means[c];
        }
    }
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
    let mut gram = gram_ref(&xc);
    gram.add_diag(lambda.max(1e-10));
    let mut xty = vec![0.0; d];
    for r in 0..n {
        for i in 0..d {
            let a = xc[(r, i)];
            if a == 0.0 {
                continue;
            }
            xty[i] += a * yc[r];
        }
    }
    let w = solve_ref(&cholesky_ref(&gram)?, &xty);
    let intercept = y_mean - (0..d).map(|dd| w[dd] * x_means[dd]).sum::<f64>();
    Ok((w, intercept))
}

/// The feature map one input at a time: a dot product per feature, then
/// `scale · cos(p + b)`.
fn transform_ref(model: &RffRidge, x: &[f64]) -> Vec<f64> {
    let (w, b, scale) = model.parts().0.parts();
    (0..w.rows())
        .map(|i| {
            let p: f64 = w.row(i).iter().zip(x).map(|(a, b)| a * b).sum();
            scale * (p + b[i]).cos()
        })
        .collect()
}

/// One prediction: features, then intercept plus the weighted sum.
fn predict_ref(model: &RffRidge, x: &[f64]) -> f64 {
    let z = transform_ref(model, x);
    let ridge = model.parts().1;
    let w = ridge.weights();
    ridge.intercept(0) + (0..z.len()).map(|d| z[d] * w[(d, 0)]).sum::<f64>()
}

/// The Gaussian radial basis, built from the same parameters as
/// [`crate::pairpot::RadialBasis::new`] with the same expressions.
#[derive(Clone, Debug)]
struct RefBasis {
    centers: Vec<f64>,
    inv_two_w2: f64,
    width: f64,
}

impl RefBasis {
    fn new(k: usize, r_min: f64, r_max: f64, width: f64) -> Self {
        let centers = (0..k)
            .map(|i| r_min + (r_max - r_min) * i as f64 / (k - 1) as f64)
            .collect();
        RefBasis { centers, inv_two_w2: 1.0 / (2.0 * width * width), width }
    }

    fn dim(&self) -> usize {
        self.centers.len()
    }
}

/// `φ_k(r)`, one `exp` per centre.
fn values_ref(basis: &RefBasis, r: f64, out: &mut [f64]) {
    for (o, &c) in out.iter_mut().zip(&basis.centers) {
        let d = r - c;
        *o = (-d * d * basis.inv_two_w2).exp();
    }
}

/// `dφ_k/dr`, a second `exp` per centre.
fn derivs_ref(basis: &RefBasis, r: f64, out: &mut [f64]) {
    for (o, &c) in out.iter_mut().zip(&basis.centers) {
        let d = r - c;
        *o = -(d / (basis.width * basis.width)) * (-d * d * basis.inv_two_w2).exp();
    }
}

/// Pair-potential energy and forces with separate value and derivative
/// passes.
fn energy_forces_ref(basis: &RefBasis, w: &[f64], s: &Structure) -> (f64, Vec<Vec3>) {
    let mut phi = vec![0.0; basis.dim()];
    let mut energy = 0.0;
    let mut forces = vec![[0.0; 3]; s.n_atoms()];
    for (i, j, dvec, r) in s.pairs() {
        values_ref(basis, r, &mut phi);
        let mut de = 0.0;
        for (p, wk) in phi.iter().zip(w) {
            energy += p * wk;
        }
        derivs_ref(basis, r, &mut phi);
        for (dp, wk) in phi.iter().zip(w) {
            de += dp * wk;
        }
        let scale = -de / r;
        for alpha in 0..3 {
            forces[i][alpha] += scale * dvec[alpha];
            forces[j][alpha] -= scale * dvec[alpha];
        }
    }
    (energy, forces)
}

/// Pair-potential weights from nested design rows and the reference ridge.
fn pairpot_fit_ref(
    data: &[LabelledStructure],
    basis: &RefBasis,
    params: PairPotParams,
) -> Result<Vec<f64>, LinalgError> {
    let k = basis.dim();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut targets: Vec<f64> = Vec::new();
    let mut phi = vec![0.0; k];
    let ew = params.energy_weight.sqrt();
    let fw = params.force_weight.sqrt();
    for ls in data {
        let mut erow = vec![0.0; k];
        for (_, _, _, r) in ls.structure.pairs() {
            values_ref(basis, r, &mut phi);
            for (e, p) in erow.iter_mut().zip(&phi) {
                *e += p;
            }
        }
        rows.push(erow.iter().map(|v| v * ew).collect());
        targets.push(ls.energy * ew);
        if let Some(forces) = &ls.forces {
            let n = ls.structure.n_atoms();
            let mut frows = vec![vec![0.0; k]; n * 3];
            for (i, j, dvec, r) in ls.structure.pairs() {
                derivs_ref(basis, r, &mut phi);
                for alpha in 0..3 {
                    let u = dvec[alpha] / r;
                    for (kk, dp) in phi.iter().enumerate() {
                        let contrib = -dp * u;
                        frows[i * 3 + alpha][kk] += contrib;
                        frows[j * 3 + alpha][kk] -= contrib;
                    }
                }
            }
            for (i, f) in forces.iter().enumerate() {
                for alpha in 0..3 {
                    rows.push(frows[i * 3 + alpha].iter().map(|v| v * fw).collect());
                    targets.push(f[alpha] * fw);
                }
            }
        }
    }
    Ok(ridge_ref(&Matrix::from_rows(&rows), &targets, params.lambda, false)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairpot::RadialBasis;
    use hetflow_chem::{pretraining_set, MorsePes};
    use hetflow_sim::SimRng;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn force_bits(f: &[Vec3]) -> Vec<u64> {
        f.iter().flat_map(|a| a.iter().map(|x| x.to_bits())).collect()
    }

    /// A standard normal, or now and then an exact `±0.0` so the Gram's
    /// zero skip and signed-zero sums are exercised.
    fn entry(rng: &mut SimRng) -> f64 {
        match rng.below(16) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.standard_normal(),
        }
    }

    fn random_rows(rng: &mut SimRng, n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| (0..d).map(|_| entry(rng)).collect()).collect()
    }

    /// An RFF-ridge model of random shape on random data.
    fn random_model(rng: &mut SimRng) -> RffRidge {
        let d_in = 1 + rng.below(12);
        let n_train = 2 + rng.below(60);
        let params = SurrogateParams {
            n_features: 1 + rng.below(96),
            lengthscale: rng.uniform(0.5, 5.0),
            lambda: rng.uniform(1e-4, 1.0),
        };
        let inputs = random_rows(rng, n_train, d_in);
        let targets: Vec<f64> = (0..n_train).map(|_| rng.standard_normal()).collect();
        match RffRidge::fit(&inputs, &targets, params, rng) {
            Ok(model) => model,
            Err(e) => panic!("ridge fit failed: {e}"),
        }
    }

    /// `MᵀM + δI`, symmetric positive definite for `δ > 0`.
    fn random_spd(rng: &mut SimRng, n: usize) -> Matrix {
        let n_rows = n + 1 + rng.below(4);
        let m = Matrix::from_rows(&random_rows(rng, n_rows, n));
        let mut a = m.gram();
        a.add_diag(rng.uniform(1e-3, 2.0));
        a
    }

    fn assert_factor_matches(a: &Matrix) {
        let fast = a.cholesky();
        let reference = cholesky_ref(a);
        match (&fast, &reference) {
            (Ok(ch), Ok(l)) => {
                assert_eq!(bits(ch.lower().as_slice()), bits(l.as_slice()));
                let mut rng = SimRng::from_seed(a.rows() as u64);
                let b: Vec<f64> = (0..a.rows()).map(|_| entry(&mut rng)).collect();
                assert_eq!(bits(&ch.solve(&b)), bits(&solve_ref(l, &b)));
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("factorizations disagree: {:?} vs {:?}", fast.err(), reference.err()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn predict_many_matches_scalar_reference(seed in 0u64..1_000_000) {
            let mut rng = SimRng::from_seed(seed);
            let model = random_model(&mut rng);
            let d_in = model.parts().0.d_in();
            for n in [1usize, 63, 64, 65, 1000] {
                let rows = random_rows(&mut rng, n, d_in);
                let flat: Vec<f64> = rows.concat();
                // predict_many appends after what `out` already holds.
                let mut out = vec![7.5];
                model.predict_many(&flat, &mut out);
                prop_assert_eq!(out.len(), n + 1);
                prop_assert_eq!(out[0].to_bits(), 7.5f64.to_bits());
                let reference: Vec<f64> = rows.iter().map(|x| predict_ref(&model, x)).collect();
                prop_assert_eq!(bits(&out[1..]), bits(&reference));
                let one_by_one: Vec<f64> = rows.iter().map(|x| model.predict(x)).collect();
                prop_assert_eq!(bits(&one_by_one), bits(&reference));
            }
        }

        #[test]
        fn rff_fit_matches_reference_ridge(seed in 0u64..1_000_000) {
            let mut rng = SimRng::from_seed(seed);
            let d_in = 1 + rng.below(12);
            let n = 2 + rng.below(150);
            let params = SurrogateParams {
                n_features: 1 + rng.below(130),
                lengthscale: rng.uniform(0.5, 5.0),
                lambda: rng.uniform(1e-4, 1.0),
            };
            let inputs = random_rows(&mut rng, n, d_in);
            let targets: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
            let model = match RffRidge::fit(&inputs, &targets, params, &mut rng) {
                Ok(m) => m,
                Err(e) => panic!("fit failed: {e}"),
            };
            let rff = model.parts().0;
            let design = rff.transform_batch(&inputs);
            for (r, x) in inputs.iter().enumerate() {
                let reference = transform_ref(&model, x);
                prop_assert_eq!(bits(design.row(r)), bits(&reference));
                prop_assert_eq!(bits(&rff.transform(x)), bits(&reference));
            }
            let rows: Vec<Vec<f64>> = inputs.iter().map(|x| transform_ref(&model, x)).collect();
            let design_ref = Matrix::from_rows(&rows);
            let (w, intercept) = match ridge_ref(&design_ref, &targets, params.lambda, true) {
                Ok(fit) => fit,
                Err(e) => panic!("reference fit failed: {e}"),
            };
            let ridge = model.parts().1;
            prop_assert_eq!(bits(ridge.weights().as_slice()), bits(&w));
            prop_assert_eq!(ridge.intercept(0).to_bits(), intercept.to_bits());
        }

        #[test]
        fn gram_matches_reference(seed in 0u64..1_000_000) {
            let mut rng = SimRng::from_seed(seed);
            let (n, d) = (1 + rng.below(40), 1 + rng.below(40));
            let x = Matrix::from_rows(&random_rows(&mut rng, n, d));
            prop_assert_eq!(bits(x.gram().as_slice()), bits(gram_ref(&x).as_slice()));
        }

        #[test]
        fn cholesky_matches_row_reference(seed in 0u64..1_000_000) {
            let mut rng = SimRng::from_seed(seed);
            let n = 1 + rng.below(48);
            let a = random_spd(&mut rng, n);
            assert_factor_matches(&a);
            // The same input shifted indefinite: both must reject it (at
            // whatever pivot fails first), or both accept it bit-equal.
            let mut shifted = a.clone();
            shifted.add_diag(-rng.uniform(0.0, 2.0) * a[(n / 2, n / 2)]);
            assert_factor_matches(&shifted);
            // A negative pivot late in the matrix.
            let mut late = a.clone();
            late[(n - 1, n - 1)] = -1.0;
            assert_factor_matches(&late);
            prop_assert_eq!(late.cholesky().err(), Some(LinalgError::NotPositiveDefinite));
            // Non-square input is a shape error for both.
            let wide = Matrix::zeros(n, n + 1 + rng.below(3));
            prop_assert_eq!(wide.cholesky().err(), Some(LinalgError::ShapeMismatch));
            prop_assert_eq!(cholesky_ref(&wide).err(), Some(LinalgError::ShapeMismatch));
        }

        #[test]
        fn pair_potential_matches_two_exp_reference(seed in 0u64..1_000_000) {
            let mut rng = SimRng::from_seed(seed);
            let (k, r_min, r_max, width) = (
                2 + rng.below(30),
                rng.uniform(0.3, 0.9),
                rng.uniform(2.0, 4.0),
                rng.uniform(0.05, 0.4),
            );
            let basis = RadialBasis::new(k, r_min, r_max, width);
            let reference_basis = RefBasis::new(k, r_min, r_max, width);
            let params = PairPotParams {
                lambda: rng.uniform(1e-8, 1e-2),
                energy_weight: rng.uniform(0.1, 2.0),
                force_weight: rng.uniform(0.5, 10.0),
            };
            let approx = MorsePes::approx();
            let data: Vec<LabelledStructure> = pretraining_set(4 + rng.below(20), seed)
                .iter()
                .map(|s| {
                    let with_forces = rng.below(3) == 0;
                    LabelledStructure::from_model(s, &approx, with_forces)
                })
                .collect();
            let fitted = match PairPotential::fit(&data, basis.clone(), params) {
                Ok(p) => p,
                Err(e) => panic!("fit failed: {e}"),
            };
            let w = fitted.weights();
            let reference_w = match pairpot_fit_ref(&data, &reference_basis, params) {
                Ok(w) => w,
                Err(e) => panic!("reference fit failed: {e}"),
            };
            prop_assert_eq!(bits(&w), bits(&reference_w));
            // Borrowed structures fit to the same weights.
            let borrowed: Vec<&LabelledStructure> = data.iter().rev().collect();
            let owned: Vec<LabelledStructure> = data.iter().rev().cloned().collect();
            match (
                PairPotential::fit(&borrowed, basis.clone(), params),
                PairPotential::fit(&owned, basis.clone(), params),
            ) {
                (Ok(a), Ok(b)) => prop_assert_eq!(bits(&a.weights()), bits(&b.weights())),
                _ => panic!("fit on reversed data failed"),
            }
            for s in pretraining_set(3, seed ^ 0x5EED) {
                let (e, f) = fitted.energy_forces(&s);
                let (e_ref, f_ref) = energy_forces_ref(&reference_basis, &w, &s);
                prop_assert_eq!(e.to_bits(), e_ref.to_bits());
                prop_assert_eq!(force_bits(&f), force_bits(&f_ref));
                prop_assert_eq!(fitted.energy(&s).to_bits(), e_ref.to_bits());
            }
        }
    }
}
