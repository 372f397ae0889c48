//! A small multilayer perceptron trained by minibatch SGD.
//!
//! An alternative surrogate to [`crate::surrogate::RffRidge`] with
//! iterative training — used by the ablation benches to show the
//! campaign results are not an artifact of the closed-form learner, and
//! as a stand-in where the paper's models are trained by gradient
//! descent over epochs.

use hetflow_sim::SimRng;

/// One hidden layer, tanh activation, linear output, MSE loss.
#[derive(Clone, Debug)]
pub struct Mlp {
    d_in: usize,
    d_hidden: usize,
    w1: Vec<f64>, // d_hidden × d_in
    b1: Vec<f64>,
    w2: Vec<f64>, // d_hidden
    b2: f64,
}

/// Training hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct MlpParams {
    /// Hidden width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f64,
    /// Epochs over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams { hidden: 48, lr: 0.02, epochs: 150, batch: 32 }
    }
}

impl Mlp {
    /// Initializes with Xavier-style random weights.
    pub fn init(d_in: usize, hidden: usize, rng: &mut SimRng) -> Self {
        assert!(d_in > 0 && hidden > 0);
        let s1 = (2.0 / (d_in + hidden) as f64).sqrt();
        let s2 = (2.0 / (hidden + 1) as f64).sqrt();
        Mlp {
            d_in,
            d_hidden: hidden,
            w1: (0..hidden * d_in).map(|_| s1 * rng.standard_normal()).collect(),
            b1: vec![0.0; hidden],
            w2: (0..hidden).map(|_| s2 * rng.standard_normal()).collect(),
            b2: 0.0,
        }
    }

    /// Forward pass; returns (hidden activations, output).
    fn forward(&self, x: &[f64]) -> (Vec<f64>, f64) {
        debug_assert_eq!(x.len(), self.d_in);
        let mut h = vec![0.0; self.d_hidden];
        for (j, hj) in h.iter_mut().enumerate() {
            let mut a = self.b1[j];
            let row = &self.w1[j * self.d_in..(j + 1) * self.d_in];
            for (w, xi) in row.iter().zip(x) {
                a += w * xi;
            }
            *hj = a.tanh();
        }
        let out = self.b2 + h.iter().zip(&self.w2).map(|(a, w)| a * w).sum::<f64>();
        (h, out)
    }

    /// Predicts one input.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.forward(x).1
    }

    /// Trains with minibatch SGD; deterministic given `rng`.
    pub fn fit(
        inputs: &[Vec<f64>],
        targets: &[f64],
        params: MlpParams,
        rng: &mut SimRng,
    ) -> Mlp {
        assert_eq!(inputs.len(), targets.len());
        assert!(!inputs.is_empty(), "cannot fit on empty data");
        let d_in = inputs[0].len();
        let mut net = Mlp::init(d_in, params.hidden, rng);
        let n = inputs.len();
        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..params.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(params.batch.max(1)) {
                let scale = params.lr / chunk.len() as f64;
                // Accumulate gradients over the minibatch.
                let mut gw1 = vec![0.0; net.w1.len()];
                let mut gb1 = vec![0.0; net.b1.len()];
                let mut gw2 = vec![0.0; net.w2.len()];
                let mut gb2 = 0.0;
                for &i in chunk {
                    let x = &inputs[i];
                    let (h, out) = net.forward(x);
                    let err = out - targets[i]; // dL/dout for 0.5*MSE
                    gb2 += err;
                    for j in 0..net.d_hidden {
                        gw2[j] += err * h[j];
                        let dh = err * net.w2[j] * (1.0 - h[j] * h[j]);
                        gb1[j] += dh;
                        let row = &mut gw1[j * d_in..(j + 1) * d_in];
                        for (g, xi) in row.iter_mut().zip(x) {
                            *g += dh * xi;
                        }
                    }
                }
                for (w, g) in net.w1.iter_mut().zip(&gw1) {
                    *w -= scale * g;
                }
                for (b, g) in net.b1.iter_mut().zip(&gb1) {
                    *b -= scale * g;
                }
                for (w, g) in net.w2.iter_mut().zip(&gw2) {
                    *w -= scale * g;
                }
                net.b2 -= scale * gb2;
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    #[test]
    fn learns_a_nonlinear_function() {
        let mut rng = SimRng::from_seed(1);
        let inputs: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)])
            .collect();
        let targets: Vec<f64> =
            inputs.iter().map(|x| (x[0]).sin() + 0.5 * x[1] * x[1]).collect();
        let net = Mlp::fit(&inputs, &targets, MlpParams::default(), &mut rng);
        let test: Vec<Vec<f64>> = (0..100)
            .map(|_| vec![rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)])
            .collect();
        let truth: Vec<f64> = test.iter().map(|x| (x[0]).sin() + 0.5 * x[1] * x[1]).collect();
        let pred: Vec<f64> = test.iter().map(|x| net.predict(x)).collect();
        let err = rmse(&pred, &truth);
        let spread = {
            let m = truth.iter().sum::<f64>() / truth.len() as f64;
            (truth.iter().map(|t| (t - m).powi(2)).sum::<f64>() / truth.len() as f64).sqrt()
        };
        assert!(err < 0.5 * spread, "rmse {err} vs spread {spread}");
    }

    #[test]
    fn deterministic_given_seed() {
        let train = |seed: u64| {
            let mut rng = SimRng::from_seed(seed);
            let inputs: Vec<Vec<f64>> =
                (0..50).map(|i| vec![(i as f64) / 25.0 - 1.0]).collect();
            let targets: Vec<f64> = inputs.iter().map(|x| x[0] * 2.0).collect();
            let net = Mlp::fit(
                &inputs,
                &targets,
                MlpParams { epochs: 20, ..Default::default() },
                &mut rng,
            );
            net.predict(&[0.5])
        };
        assert_eq!(train(7), train(7));
        assert_ne!(train(7), train(8));
    }

    #[test]
    fn training_reduces_error() {
        let mut rng = SimRng::from_seed(2);
        let inputs: Vec<Vec<f64>> = (0..100).map(|i| vec![(i as f64) / 50.0 - 1.0]).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| 3.0 * x[0]).collect();
        let untrained = Mlp::init(1, 16, &mut rng.clone());
        let trained = Mlp::fit(
            &inputs,
            &targets,
            MlpParams { hidden: 16, epochs: 100, lr: 0.05, batch: 16 },
            &mut rng,
        );
        let p_un: Vec<f64> = inputs.iter().map(|x| untrained.predict(x)).collect();
        let p_tr: Vec<f64> = inputs.iter().map(|x| trained.predict(x)).collect();
        assert!(rmse(&p_tr, &targets) < 0.3 * rmse(&p_un, &targets));
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_fit_panics() {
        let mut rng = SimRng::from_seed(1);
        let _ = Mlp::fit(&[], &[], MlpParams::default(), &mut rng);
    }
}
