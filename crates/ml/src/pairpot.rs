//! Learnable pair potential — the cluster energy/force surrogate.
//!
//! Stand-in for the paper's SchNet models (§III-B): energies and forces
//! of atomic clusters, trainable on a mix of cheap (approximate-level)
//! and expensive (reference-level) labels, differentiable so MD sampling
//! can run on the *learned* surface.
//!
//! The model is linear in its parameters: `E = Σ_{i<j} Σ_k w_k
//! φ_k(r_ij)` with Gaussian radial basis functions `φ_k`, and forces are
//! the exact analytic gradient `F = -∇E` — so a single ridge solve fits
//! energies and forces *jointly* and the fitted surface is physically
//! consistent (forces integrate to the energy).

use crate::linalg::{LinalgError, Matrix};
use crate::ridge::Ridge;
use hetflow_chem::{EnergyModel, Structure, Vec3};
use std::borrow::Borrow;

/// Gaussian radial basis on pair distances.
#[derive(Clone, Debug)]
pub struct RadialBasis {
    centers: Vec<f64>,
    inv_two_w2: f64,
    width: f64,
}

impl RadialBasis {
    /// `k` centers uniformly on `[r_min, r_max]`, width `width`.
    pub fn new(k: usize, r_min: f64, r_max: f64, width: f64) -> Self {
        assert!(k >= 2 && r_max > r_min && width > 0.0);
        let centers = (0..k)
            .map(|i| r_min + (r_max - r_min) * i as f64 / (k - 1) as f64)
            .collect();
        RadialBasis { centers, inv_two_w2: 1.0 / (2.0 * width * width), width }
    }

    /// Default basis covering the cluster interaction range.
    pub fn default_for_clusters() -> Self {
        RadialBasis::new(24, 0.6, 3.2, 0.18)
    }

    /// Basis size.
    pub fn dim(&self) -> usize {
        self.centers.len()
    }

    /// `φ_k(r)` and `dφ_k/dr` for the centre `c` at `r`, from one `exp`:
    /// the derivative's `exp` had the identical argument, so sharing it
    /// keeps both values' bits.
    fn phi(&self, r: f64, c: f64) -> (f64, f64) {
        let d = r - c;
        let e = (-d * d * self.inv_two_w2).exp();
        (e, -(d / (self.width * self.width)) * e)
    }
}

/// One labelled training structure.
#[derive(Clone, Debug)]
pub struct LabelledStructure {
    /// The geometry.
    pub structure: Structure,
    /// Total energy label.
    pub energy: f64,
    /// Per-atom force labels; `None` for energy-only data (the cheap
    /// pre-training set provides only energies, §III-B).
    pub forces: Option<Vec<Vec3>>,
}

impl LabelledStructure {
    /// Labels a structure with a physical model's energy (and forces).
    pub fn from_model<M: EnergyModel>(s: &Structure, model: &M, with_forces: bool) -> Self {
        let (e, f) = model.energy_forces(s);
        LabelledStructure {
            structure: s.clone(),
            energy: e,
            forces: with_forces.then_some(f),
        }
    }
}

/// Fit weights for the joint energy+force objective.
#[derive(Clone, Copy, Debug)]
pub struct PairPotParams {
    /// Ridge penalty.
    pub lambda: f64,
    /// Weight of energy residuals.
    pub energy_weight: f64,
    /// Weight of force residuals.
    pub force_weight: f64,
}

impl Default for PairPotParams {
    fn default() -> Self {
        PairPotParams { lambda: 1e-6, energy_weight: 1.0, force_weight: 1.0 }
    }
}

/// A fitted pair-potential surrogate.
#[derive(Clone, Debug)]
pub struct PairPotential {
    basis: RadialBasis,
    model: Ridge,
}

impl PairPotential {
    /// Fits on labelled structures (energies always; forces where
    /// present) with the given weights. `data` may hold the structures or
    /// references to them, so a bagged subset need not be cloned.
    pub fn fit<L: Borrow<LabelledStructure>>(
        data: &[L],
        basis: RadialBasis,
        params: PairPotParams,
    ) -> Result<PairPotential, LinalgError> {
        assert!(!data.is_empty(), "cannot fit on empty data");
        let k = basis.dim();
        // Design matrix, row-major: one energy row per structure, then
        // three force rows per atom where forces are labelled.
        let mut rows: Vec<f64> = Vec::new();
        let mut targets: Vec<f64> = Vec::new();
        let mut dphi = vec![0.0; k];
        let mut erow = vec![0.0; k];
        let mut frows: Vec<f64> = Vec::new();
        let ew = params.energy_weight.sqrt();
        let fw = params.force_weight.sqrt();
        for ls in data {
            let ls = ls.borrow();
            let forces = ls.forces.as_deref();
            erow.fill(0.0);
            frows.clear();
            if forces.is_some() {
                frows.resize(ls.structure.n_atoms() * 3 * k, 0.0);
            }
            for (i, j, dvec, r) in ls.structure.pairs() {
                // Energy row: Σ_pairs φ_k(r); φ'_k only where forces are
                // labelled.
                if forces.is_none() {
                    for (e, &c) in erow.iter_mut().zip(&basis.centers) {
                        *e += basis.phi(r, c).0;
                    }
                    continue;
                }
                for ((e, dp), &c) in erow.iter_mut().zip(&mut dphi).zip(&basis.centers) {
                    let (p, p_prime) = basis.phi(r, c);
                    *e += p;
                    *dp = p_prime;
                }
                // Force rows: F_{iα} = -Σ_j φ'_k(r_ij) (x_iα - x_jα)/r_ij.
                for alpha in 0..3 {
                    let u = dvec[alpha] / r;
                    for (kk, dp) in dphi.iter().enumerate() {
                        let contrib = -dp * u;
                        frows[(i * 3 + alpha) * k + kk] += contrib;
                        frows[(j * 3 + alpha) * k + kk] -= contrib;
                    }
                }
            }
            rows.extend(erow.iter().map(|v| v * ew));
            targets.push(ls.energy * ew);
            if let Some(forces) = forces {
                rows.extend(frows[..forces.len() * 3 * k].iter().map(|v| v * fw));
                targets.extend(forces.iter().flat_map(|f| f.iter().map(|fa| fa * fw)));
            }
        }
        let x = Matrix::from_vec(targets.len(), k, rows);
        // No intercept: forces fix the gauge; an energy offset would be
        // unidentifiable from forces alone.
        let y = Matrix::from_vec(targets.len(), 1, targets);
        let model = Ridge::fit_multi(&x, &y, params.lambda, false)?;
        Ok(PairPotential { basis, model })
    }

    /// Weight vector (basis coefficients).
    pub fn weights(&self) -> Vec<f64> {
        self.coefficients().to_vec()
    }

    /// The basis coefficients, borrowed (the `k × 1` ridge weights).
    fn coefficients(&self) -> &[f64] {
        self.model.weights().as_slice()
    }
}

impl EnergyModel for PairPotential {
    fn energy_forces(&self, s: &Structure) -> (f64, Vec<Vec3>) {
        let w = self.coefficients();
        let mut energy = 0.0;
        let mut forces = vec![[0.0; 3]; s.n_atoms()];
        for (i, j, dvec, r) in s.pairs() {
            // Energy and dE/dr each keep their own k-order sum.
            let mut de = 0.0;
            for (&c, wk) in self.basis.centers.iter().zip(w) {
                let (p, dp) = self.basis.phi(r, c);
                energy += p * wk;
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

    /// Energy alone: the energy sum of [`PairPotential::energy_forces`]
    /// in the same order, without the derivative basis or a force `Vec`.
    fn energy(&self, s: &Structure) -> f64 {
        let w = self.coefficients();
        let mut energy = 0.0;
        for (_, _, _, r) in s.pairs() {
            for (&c, wk) in self.basis.centers.iter().zip(w) {
                energy += self.basis.phi(r, c).0 * wk;
            }
        }
        energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_chem::{force_rmsd, numerical_forces, pretraining_set, MorsePes};

    fn labelled(n: usize, seed: u64, model: &MorsePes, with_forces: bool) -> Vec<LabelledStructure> {
        pretraining_set(n, seed)
            .iter()
            .map(|s| LabelledStructure::from_model(s, model, with_forces))
            .collect()
    }

    #[test]
    fn learns_the_approximate_surface() {
        let pes = MorsePes::approx();
        let data = labelled(60, 1, &pes, true);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        // Held-out structures: forces must be close to the truth.
        let test = pretraining_set(10, 99);
        let mut rmsds = Vec::new();
        for s in &test {
            let (_, truth) = pes.energy_forces(s);
            let (_, pred) = fitted.energy_forces(s);
            rmsds.push(force_rmsd(&truth, &pred));
        }
        let mean: f64 = rmsds.iter().sum::<f64>() / rmsds.len() as f64;
        // Typical force magnitudes are O(1); demand an order better.
        assert!(mean < 0.15, "force rmsd {mean}");
    }

    #[test]
    fn surrogate_forces_are_consistent_gradient() {
        let pes = MorsePes::approx();
        let data = labelled(30, 2, &pes, true);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        let s = &pretraining_set(1, 55)[0];
        let (_, analytic) = fitted.energy_forces(s);
        let numeric = numerical_forces(&fitted, s, 1e-6);
        assert!(force_rmsd(&analytic, &numeric) < 1e-6);
    }

    #[test]
    fn fine_tuning_reduces_reference_error() {
        // The §III-B premise end-to-end: pre-train on cheap labels,
        // fine-tune with a few reference-level calculations, and the
        // force error against the reference surface drops.
        let approx = MorsePes::approx();
        let reference = MorsePes::reference();
        let basis = RadialBasis::default_for_clusters();

        let pretrain = labelled(80, 3, &approx, false); // energies only
        let mut seed_forces = labelled(6, 4, &approx, true);
        let mut pre_data = pretrain.clone();
        pre_data.append(&mut seed_forces);
        let pre =
            PairPotential::fit(&pre_data, basis.clone(), PairPotParams::default()).unwrap();

        // Fine-tune set: 30 reference-level calculations.
        let mut ft_data = pretrain;
        ft_data.extend(labelled(30, 5, &reference, true));
        let tuned = PairPotential::fit(
            &ft_data,
            basis,
            PairPotParams { force_weight: 5.0, ..Default::default() },
        )
        .unwrap();

        let test = pretraining_set(12, 77);
        let err = |m: &PairPotential| {
            let mut acc = 0.0;
            for s in &test {
                let (_, truth) = reference.energy_forces(s);
                let (_, pred) = m.energy_forces(s);
                acc += force_rmsd(&truth, &pred);
            }
            acc / test.len() as f64
        };
        let before = err(&pre);
        let after = err(&tuned);
        assert!(
            after < 0.6 * before,
            "fine-tuning must cut reference force error: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn md_runs_stably_on_fitted_surface() {
        // Sampling tasks run MD on the surrogate (§III-B): the fitted
        // surface must support dynamics without exploding.
        let pes = MorsePes::approx();
        let data = labelled(60, 6, &pes, true);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        let start = hetflow_chem::solvated_methane(8);
        let mut rng = hetflow_sim::SimRng::from_seed(7);
        let traj = hetflow_chem::run_md(
            &fitted,
            &start,
            hetflow_chem::MdParams { dt: 0.005, steps: 200, init_temp: 0.1, sample_every: 50 },
            &mut rng,
        );
        let moved = start.rmsd_to(traj.last());
        assert!(moved > 1e-3 && moved < 3.0, "rmsd {moved}");
    }

    #[test]
    fn energy_only_data_still_fits_energies() {
        let pes = MorsePes::approx();
        let data = labelled(80, 8, &pes, false);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        let test = pretraining_set(10, 88);
        let mut se = 0.0;
        let mut var = 0.0;
        let mean_e: f64 =
            test.iter().map(|s| pes.energy(s)).sum::<f64>() / test.len() as f64;
        for s in &test {
            let truth = pes.energy(s);
            se += (fitted.energy(s) - truth).powi(2);
            var += (truth - mean_e).powi(2);
        }
        assert!(se < 0.3 * var, "energy fit must beat the mean baseline: {se} vs {var}");
    }

    #[test]
    fn three_body_reference_leaves_error_floor() {
        // Ablation: against a pair-only reference the pair basis fits
        // almost exactly; against the pair+three-body "harder" reference
        // (hetflow-chem's Axilrod–Teller extension) an irreducible
        // residual remains — the realistic surrogate regime.
        use hetflow_chem::harder_reference;
        let pair_ref = MorsePes::reference();
        let hard_ref = harder_reference();
        let train = pretraining_set(60, 31);
        let test = pretraining_set(10, 131);
        let err_against = |model: &dyn hetflow_chem::EnergyModel| {
            let data: Vec<LabelledStructure> = train
                .iter()
                .map(|s| {
                    let (e, f) = model.energy_forces(s);
                    LabelledStructure { structure: s.clone(), energy: e, forces: Some(f) }
                })
                .collect();
            let fitted = PairPotential::fit(
                &data,
                RadialBasis::default_for_clusters(),
                PairPotParams::default(),
            )
            .unwrap();
            let mut acc = 0.0;
            for s in &test {
                let (_, truth) = model.energy_forces(s);
                let (_, pred) = fitted.energy_forces(s);
                acc += force_rmsd(&truth, &pred);
            }
            acc / test.len() as f64
        };
        let easy = err_against(&pair_ref);
        let hard = err_against(&hard_ref);
        assert!(
            hard > 1.5 * easy,
            "three-body reference must leave a model-form floor: {easy:.4} vs {hard:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_fit_panics() {
        let _ = PairPotential::fit::<LabelledStructure>(
            &[],
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        );
    }
}
