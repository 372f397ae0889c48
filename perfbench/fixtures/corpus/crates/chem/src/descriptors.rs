//! Permutation-invariant structure descriptors.
//!
//! A smooth radial fingerprint: Gaussian-binned histogram of pairwise
//! distances. Used by the fine-tuning application's uncertainty pool to
//! compare structures and by energy surrogates that want a global
//! feature vector.

use crate::clusters::Structure;

/// Radial-basis descriptor parameters.
#[derive(Clone, Debug)]
pub struct RadialDescriptor {
    centers: Vec<f64>,
    width: f64,
}

impl RadialDescriptor {
    /// `k` Gaussian centers uniformly spanning `[r_min, r_max]` with
    /// width `width`.
    pub fn new(k: usize, r_min: f64, r_max: f64, width: f64) -> Self {
        assert!(k >= 2 && r_max > r_min && width > 0.0);
        let centers = (0..k)
            .map(|i| r_min + (r_max - r_min) * i as f64 / (k - 1) as f64)
            .collect();
        RadialDescriptor { centers, width }
    }

    /// A default suitable for the solvated-methane clusters.
    pub fn default_for_clusters() -> Self {
        RadialDescriptor::new(16, 0.6, 3.0, 0.25)
    }

    /// Descriptor dimension.
    pub fn dim(&self) -> usize {
        self.centers.len()
    }

    /// Computes the descriptor of `s`, normalized by the number of
    /// pairs so clusters of different sizes are comparable.
    pub fn compute(&self, s: &Structure) -> Vec<f64> {
        let mut d = vec![0.0; self.centers.len()];
        let mut pairs = 0.0;
        for (_, _, _, r) in s.pairs() {
            pairs += 1.0;
            for (k, &c) in self.centers.iter().enumerate() {
                let z = (r - c) / self.width;
                d[k] += (-0.5 * z * z).exp();
            }
        }
        for v in &mut d {
            *v /= pairs;
        }
        d
    }

    /// Euclidean distance between the descriptors of two structures.
    pub fn distance(&self, a: &Structure, b: &Structure) -> f64 {
        let da = self.compute(a);
        let db = self.compute(b);
        da.iter().zip(&db).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::{solvated_methane, Structure};

    #[test]
    fn permutation_invariant() {
        let s = solvated_methane(1);
        let mut permuted = s.positions.clone();
        permuted.reverse();
        let p = Structure::new(permuted);
        let d = RadialDescriptor::default_for_clusters();
        let a = d.compute(&s);
        let b = d.compute(&p);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn translation_invariant() {
        let s = solvated_methane(2);
        let mut moved = s.clone();
        for p in &mut moved.positions {
            p[0] += 3.0;
            p[1] -= 1.0;
        }
        let d = RadialDescriptor::default_for_clusters();
        assert!(d.distance(&s, &moved) < 1e-12);
    }

    #[test]
    fn distinguishes_different_structures() {
        let d = RadialDescriptor::default_for_clusters();
        let a = solvated_methane(1);
        let b = solvated_methane(2);
        assert!(d.distance(&a, &b) > 1e-4);
    }

    #[test]
    fn smooth_under_small_perturbation() {
        let d = RadialDescriptor::default_for_clusters();
        let a = solvated_methane(3);
        let mut nudged = a.clone();
        nudged.positions[0][0] += 1e-4;
        assert!(d.distance(&a, &nudged) < 1e-3);
    }

    #[test]
    fn dimension_matches() {
        let d = RadialDescriptor::new(8, 0.5, 2.5, 0.2);
        assert_eq!(d.dim(), 8);
        assert_eq!(d.compute(&solvated_methane(1)).len(), 8);
    }
}
