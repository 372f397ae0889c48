//! Structural analysis utilities: dimer curves and pair-correlation
//! functions.
//!
//! Used to sanity-check fitted surrogates against the reference surface
//! (a learned potential whose dimer curve has the wrong well is useless
//! regardless of force RMSD) and to compare sampled structure ensembles
//! with reference dynamics.

use crate::clusters::Structure;
use crate::pes::EnergyModel;

/// Energy of an isolated pair as a function of separation — the
/// classic diagnostic plot for any pair-dominated surface.
pub fn dimer_curve<M: EnergyModel>(model: &M, r_min: f64, r_max: f64, n: usize) -> Vec<(f64, f64)> {
    assert!(n >= 2 && r_max > r_min && r_min > 0.0);
    (0..n)
        .map(|i| {
            let r = r_min + (r_max - r_min) * i as f64 / (n - 1) as f64;
            let s = Structure::new(vec![[0.0, 0.0, 0.0], [r, 0.0, 0.0]]);
            (r, model.energy(&s))
        })
        .collect()
}

/// The separation of the dimer-curve minimum (equilibrium bond length).
pub fn dimer_minimum<M: EnergyModel>(model: &M, r_min: f64, r_max: f64, n: usize) -> (f64, f64) {
    dimer_curve(model, r_min, r_max, n)
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("n >= 2")
}

/// Histogram of pairwise distances over a structure ensemble — an
/// (unnormalized) pair-correlation fingerprint g(r)·shell.
pub fn pair_histogram(structures: &[Structure], r_max: f64, bins: usize) -> Vec<f64> {
    assert!(bins >= 1 && r_max > 0.0);
    let mut hist = vec![0.0; bins];
    let mut pairs = 0.0;
    for s in structures {
        for (_, _, _, r) in s.pairs() {
            pairs += 1.0;
            if r < r_max {
                let bin = ((r / r_max) * bins as f64) as usize;
                hist[bin.min(bins - 1)] += 1.0;
            }
        }
    }
    if pairs > 0.0 {
        for h in &mut hist {
            *h /= pairs;
        }
    }
    hist
}

/// L1 distance between the pair histograms of two ensembles — a cheap
/// measure of how structurally similar two sets of samples are.
pub fn ensemble_distance(a: &[Structure], b: &[Structure], r_max: f64, bins: usize) -> f64 {
    let ha = pair_histogram(a, r_max, bins);
    let hb = pair_histogram(b, r_max, bins);
    ha.iter().zip(&hb).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::pretraining_set;
    use crate::md::{run_md, MdParams};
    use crate::pes::MorsePes;
    use hetflow_sim::SimRng;

    #[test]
    fn dimer_minimum_near_r0() {
        let pes = MorsePes::approx(); // r0 = 1.12
        let (r, e) = dimer_minimum(&pes, 0.7, 2.5, 400);
        assert!((r - 1.12).abs() < 0.02, "minimum at {r}");
        assert!(e < 0.0, "bound state");
    }

    #[test]
    fn reference_minimum_shifted_from_approx() {
        // The correction term shifts the equilibrium — the very thing
        // fine-tuning must learn.
        let (ra, _) = dimer_minimum(&MorsePes::approx(), 0.7, 2.5, 800);
        let (rr, _) = dimer_minimum(&MorsePes::reference(), 0.7, 2.5, 800);
        assert!((rr - ra).abs() > 0.005, "reference should differ: {ra} vs {rr}");
    }

    #[test]
    fn dimer_curve_repulsive_at_short_range() {
        let curve = dimer_curve(&MorsePes::approx(), 0.5, 2.5, 100);
        assert!(curve[0].1 > curve.last().unwrap().1, "short range must be repulsive");
    }

    #[test]
    fn pair_histogram_normalized() {
        let set = pretraining_set(10, 1);
        let hist = pair_histogram(&set, 5.0, 20);
        let sum: f64 = hist.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
        assert!(sum > 0.8, "most pairs within 5.0: {sum}");
    }

    #[test]
    fn ensemble_distance_discriminates() {
        // MD at high temperature produces measurably different structure
        // statistics than the near-lattice starting set.
        let base = pretraining_set(8, 2);
        let pes = MorsePes::approx();
        let mut rng = SimRng::from_seed(3);
        let hot: Vec<_> = base
            .iter()
            .map(|s| {
                run_md(
                    &pes,
                    s,
                    MdParams { dt: 0.005, steps: 400, init_temp: 0.6, sample_every: 400 },
                    &mut rng,
                )
                .last()
                .clone()
            })
            .collect();
        let self_dist = ensemble_distance(&base, &base, 4.0, 24);
        let cross_dist = ensemble_distance(&base, &hot, 4.0, 24);
        assert!(self_dist < 1e-12);
        assert!(cross_dist > 0.02, "hot ensemble must differ: {cross_dist}");
    }
}
