//! Bagged ensembles with parallel training.
//!
//! Both paper applications train "an ensemble of 8 models where each is
//! trained on a different, randomly-selected subset of the training
//! data" (§III-A, §III-B) and use the spread of predictions as the
//! uncertainty signal for active learning. Members are independent, so
//! training fans out across scoped OS threads — the one place in the
//! codebase where real parallelism (not virtual time) buys wall clock,
//! and the one sanctioned escape from `hetlint` rule R4: every thread
//! receives a member-derived seeded stream, so the result is
//! bit-identical to the sequential path.

use hetflow_sim::SimRng;

/// Fraction of the training set each member sees.
pub const DEFAULT_BAG_FRACTION: f64 = 0.8;

/// An ensemble of independently trained models.
#[derive(Clone, Debug)]
pub struct Ensemble<M> {
    members: Vec<M>,
}

/// Mean and standard deviation of member predictions for one input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanStd {
    /// Ensemble mean.
    pub mean: f64,
    /// Ensemble standard deviation (population).
    pub std: f64,
}

impl<M> Ensemble<M> {
    /// Wraps pre-trained members.
    pub fn from_members(members: Vec<M>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Ensemble { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members.
    pub fn members(&self) -> &[M] {
        &self.members
    }

    /// Trains `n_members` members sequentially. `train` receives the
    /// member index and a member-specific RNG; it must be deterministic
    /// given those.
    pub fn fit(n_members: usize, rng: &SimRng, mut train: impl FnMut(usize, SimRng) -> M) -> Self {
        assert!(n_members > 0);
        let members = (0..n_members)
            .map(|i| train(i, rng.substream(i as u64)))
            .collect();
        Ensemble { members }
    }

    /// Trains members in parallel across OS threads. `train` must be
    /// `Sync` (it is called concurrently) and deterministic given the
    /// member index + RNG — results are bit-identical to [`Ensemble::fit`].
    pub fn fit_parallel(
        n_members: usize,
        rng: &SimRng,
        train: impl Fn(usize, SimRng) -> M + Sync,
    ) -> Self
    where
        M: Send,
    {
        assert!(n_members > 0);
        let mut slots: Vec<Option<M>> = (0..n_members).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let member_rng = rng.substream(i as u64);
                let train = &train;
                scope.spawn(move || {
                    *slot = Some(train(i, member_rng));
                });
            }
        });
        // `thread::scope` re-raises any child panic, so reaching this
        // line means every spawned closure ran its `*slot = Some(..)`;
        // the length check turns a (impossible) hole into a loud error
        // instead of a silent truncation.
        let members: Vec<M> = slots.into_iter().flatten().collect();
        assert_eq!(members.len(), n_members, "a training thread left its slot empty");
        Ensemble { members }
    }

    /// Applies a scalar prediction function across members and returns
    /// mean and std for one input.
    pub fn predict_with(&self, predict: impl Fn(&M) -> f64) -> MeanStd {
        let preds: Vec<f64> = self.members.iter().map(predict).collect();
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
        MeanStd { mean, std: var.sqrt() }
    }
}

/// Draws a bagging subset: `ceil(fraction * n)` distinct indices.
pub fn bag_indices(n: usize, fraction: f64, rng: &mut SimRng) -> Vec<usize> {
    assert!(n > 0 && fraction > 0.0 && fraction <= 1.0);
    let k = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
    rng.sample_indices(n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::{RffRidge, SurrogateParams};
    use hetflow_chem::MoleculeLibrary;

    fn train_member(
        lib: &MoleculeLibrary,
        n_train: usize,
        _i: usize,
        mut rng: SimRng,
    ) -> RffRidge {
        let idx = bag_indices(n_train, DEFAULT_BAG_FRACTION, &mut rng);
        let inputs: Vec<Vec<f64>> = idx.iter().map(|&i| lib.features(i).to_vec()).collect();
        let targets: Vec<f64> = idx.iter().map(|&i| lib.true_ip(i)).collect();
        RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng).unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        let lib = MoleculeLibrary::generate(1000, 21);
        let rng = SimRng::from_seed(9);
        let seq = Ensemble::fit(4, &rng, |i, r| train_member(&lib, 400, i, r));
        let par = Ensemble::fit_parallel(4, &rng, |i, r| train_member(&lib, 400, i, r));
        let x = lib.features(999).to_vec();
        let a = seq.predict_with(|m| m.predict(&x));
        let b = par.predict_with(|m| m.predict(&x));
        assert_eq!(a, b, "parallel training must be bit-deterministic");
    }

    #[test]
    fn members_differ() {
        let lib = MoleculeLibrary::generate(1000, 22);
        let rng = SimRng::from_seed(10);
        let ens = Ensemble::fit_parallel(8, &rng, |i, r| train_member(&lib, 300, i, r));
        let x = lib.features(900).to_vec();
        let preds: Vec<f64> = ens.members().iter().map(|m| m.predict(&x)).collect();
        let distinct = preds
            .iter()
            .filter(|&&p| (p - preds[0]).abs() > 1e-9)
            .count();
        assert!(distinct >= 1, "bagged members must not be identical");
    }

    #[test]
    fn uncertainty_shrinks_near_training_data() {
        // Ensemble std should be larger far from the training set — the
        // property active learning exploits.
        let lib = MoleculeLibrary::generate(4000, 23);
        let rng = SimRng::from_seed(11);
        let n_train = 400;
        let ens = Ensemble::fit_parallel(8, &rng, |i, r| train_member(&lib, n_train, i, r));
        // Mean std on trained molecules vs on unseen ones.
        let avg_std = |ids: std::ops::Range<usize>| {
            let n = ids.len() as f64;
            ids.map(|i| {
                let x = lib.features(i).to_vec();
                ens.predict_with(|m| m.predict(&x)).std
            })
            .sum::<f64>()
                / n
        };
        let seen = avg_std(0..200);
        let unseen = avg_std(3000..3200);
        assert!(
            unseen > seen,
            "uncertainty must be higher off-distribution: seen {seen:.4}, unseen {unseen:.4}"
        );
    }

    #[test]
    fn mean_std_math() {
        let ens = Ensemble::from_members(vec![1.0f64, 2.0, 3.0]);
        let ms = ens.predict_with(|&m| m);
        assert!((ms.mean - 2.0).abs() < 1e-12);
        assert!((ms.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn bag_indices_distinct_and_sized() {
        let mut rng = SimRng::from_seed(12);
        let idx = bag_indices(100, 0.8, &mut rng);
        assert_eq!(idx.len(), 80);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 80);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_rejected() {
        let _: Ensemble<f64> = Ensemble::from_members(vec![]);
    }
}
