//! Three-body interactions: an Axilrod–Teller-style triple-dipole term
//! and a composite surface combining pair and three-body parts.
//!
//! The basic reproduction uses pair-only surfaces at both fidelity
//! levels, which a pair-basis surrogate can represent *exactly* —
//! convenient, but it makes fine-tuning look easier than it is. Adding
//! a three-body term to the reference level creates an irreducible
//! model-form error for the pair surrogate, which is the realistic
//! regime for the paper's SchNet-vs-DFT setup; the `harder_reference`
//! ablation measures that error floor.

use crate::clusters::{Structure, Vec3};
use crate::pes::EnergyModel;

/// Axilrod–Teller triple-dipole term with an exponential range cutoff:
/// `E = ν Σ_{i<j<k} (1 + 3 cos θ_i cos θ_j cos θ_k) / (r_ij r_jk r_ik)³`
/// multiplied by `exp(-(r_ij + r_jk + r_ik)/ρ)` for locality.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AxilrodTeller {
    /// Strength ν.
    pub nu: f64,
    /// Range ρ of the exponential damping.
    pub rho: f64,
}

impl AxilrodTeller {
    /// A mild, short-ranged default: a few percent of the pair energy
    /// for compact clusters.
    pub fn mild() -> Self {
        AxilrodTeller { nu: 0.15, rho: 2.2 }
    }

    fn triple_energy(&self, rij: f64, rjk: f64, rik: f64, cos_prod: f64) -> f64 {
        let damp = (-(rij + rjk + rik) / self.rho).exp();
        self.nu * (1.0 + 3.0 * cos_prod) / (rij * rjk * rik).powi(3) * damp
    }
}

impl EnergyModel for AxilrodTeller {
    fn energy_forces(&self, s: &Structure) -> (f64, Vec<Vec3>) {
        // Forces via central differences on the (cheap) energy — the
        // term is a correction, not the hot path.
        let energy = at_energy(self, s);
        let forces = crate::pes::numerical_forces(self, s, 1e-6);
        (energy, forces)
    }

    fn energy(&self, s: &Structure) -> f64 {
        at_energy(self, s)
    }
}

fn at_energy(at: &AxilrodTeller, s: &Structure) -> f64 {
    let n = s.n_atoms();
    let p = &s.positions;
    let mut e = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            for k in j + 1..n {
                let rij = dist(p[i], p[j]);
                let rjk = dist(p[j], p[k]);
                let rik = dist(p[i], p[k]);
                // cos θ_i at vertex i between j and k, etc.
                let ci = cos_at(p[i], p[j], p[k]);
                let cj = cos_at(p[j], p[i], p[k]);
                let ck = cos_at(p[k], p[i], p[j]);
                e += at.triple_energy(rij, rjk, rik, ci * cj * ck);
            }
        }
    }
    e
}

fn dist(a: Vec3, b: Vec3) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

fn cos_at(v: Vec3, a: Vec3, b: Vec3) -> f64 {
    let u = [a[0] - v[0], a[1] - v[1], a[2] - v[2]];
    let w = [b[0] - v[0], b[1] - v[1], b[2] - v[2]];
    let dot = u[0] * w[0] + u[1] * w[1] + u[2] * w[2];
    let nu = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
    let nw = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt();
    dot / (nu * nw).max(1e-12)
}

/// A surface that is the sum of two models (e.g. pair + three-body).
#[derive(Clone, Debug)]
pub struct CompositePes<A, B> {
    /// First component.
    pub a: A,
    /// Second component.
    pub b: B,
}

impl<A: EnergyModel, B: EnergyModel> EnergyModel for CompositePes<A, B> {
    fn energy_forces(&self, s: &Structure) -> (f64, Vec<Vec3>) {
        let (ea, mut fa) = self.a.energy_forces(s);
        let (eb, fb) = self.b.energy_forces(s);
        for (x, y) in fa.iter_mut().zip(&fb) {
            for k in 0..3 {
                x[k] += y[k];
            }
        }
        (ea + eb, fa)
    }
}

/// The "harder" reference level: the standard reference pair surface
/// plus a mild three-body term. A pair-basis surrogate cannot represent
/// this exactly, giving fine-tuning a realistic error floor.
pub fn harder_reference() -> CompositePes<crate::pes::MorsePes, AxilrodTeller> {
    CompositePes { a: crate::pes::MorsePes::reference(), b: AxilrodTeller::mild() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::{solvated_methane, Structure};
    use crate::pes::{force_rmsd, MorsePes};

    #[test]
    fn triangle_energy_sign_and_symmetry() {
        let at = AxilrodTeller::mild();
        // Equilateral triangle: cos 60° each => 1 + 3/8 > 0.
        let s = Structure::new(vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 3f64.sqrt() / 2.0, 0.0],
        ]);
        let e = at.energy(&s);
        assert!(e > 0.0, "equilateral AT term is repulsive: {e}");
        // Permutation invariance.
        let mut permuted = s.positions.clone();
        permuted.swap(0, 2);
        let e2 = at.energy(&Structure::new(permuted));
        assert!((e - e2).abs() < 1e-12);
    }

    #[test]
    fn collinear_triple_is_attractive() {
        // Near-collinear: cosθ at the middle atom ≈ −1, ends ≈ +1 →
        // (1 + 3·cᵢcⱼcₖ) < 0.
        let at = AxilrodTeller::mild();
        let s = Structure::new(vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [2.0, 0.01, 0.0],
        ]);
        assert!(at.energy(&s) < 0.0);
    }

    #[test]
    fn three_body_is_a_small_correction() {
        let s = solvated_methane(1);
        let pair = MorsePes::reference().energy(&s).abs();
        let three = AxilrodTeller::mild().energy(&s).abs();
        assert!(three > 1e-4, "term must be nonzero: {three}");
        assert!(three < 0.25 * pair, "but still a correction: {three} vs {pair}");
    }

    #[test]
    fn composite_adds_components() {
        let s = solvated_methane(2);
        let pair = MorsePes::reference();
        let at = AxilrodTeller::mild();
        let composite = harder_reference();
        let e = composite.energy(&s);
        assert!((e - (pair.energy(&s) + at.energy(&s))).abs() < 1e-12);
        let (_, f) = composite.energy_forces(&s);
        assert_eq!(f.len(), s.n_atoms());
    }

    #[test]
    fn pair_surrogate_hits_error_floor_on_harder_reference() {
        // Fit a pair basis against (a) the pair-only reference and
        // (b) the pair+three-body reference: the latter must leave a
        // clearly larger residual force error — the irreducible
        // model-form gap.
        use crate::clusters::pretraining_set;
        use crate::pes::EnergyModel as _;
        let train = pretraining_set(40, 7);
        let test = pretraining_set(8, 77);

        // Minimal inline pair-fit: reuse the ml crate is impossible here
        // (dependency direction), so check the premise directly: the
        // three-body forces are not expressible as central pair forces,
        // i.e. projecting them onto pair directions leaves a residual.
        let at = AxilrodTeller::mild();
        let mut max_residual: f64 = 0.0;
        for s in &test {
            let (_, f3) = at.energy_forces(s);
            // Net torque-free and translation-free is guaranteed; the
            // residual we check: three-body force on atom i is not a sum
            // of contributions along pair directions with *pair-distance
            // dependent* magnitudes. Cheap proxy: compare f3 against the
            // best single scalar multiple of the pair-surface forces.
            let (_, fp) = MorsePes::reference().energy_forces(s);
            let dot: f64 = f3
                .iter()
                .zip(&fp)
                .map(|(a, b)| a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
                .sum();
            let norm: f64 = fp
                .iter()
                .map(|b| b[0] * b[0] + b[1] * b[1] + b[2] * b[2])
                .sum();
            let alpha = if norm > 0.0 { dot / norm } else { 0.0 };
            let proj: Vec<[f64; 3]> = fp
                .iter()
                .map(|b| [alpha * b[0], alpha * b[1], alpha * b[2]])
                .collect();
            max_residual = max_residual.max(force_rmsd(&f3, &proj));
        }
        let _ = train;
        assert!(
            max_residual > 1e-4,
            "three-body forces must not be parallel to pair forces: {max_residual}"
        );
    }
}
