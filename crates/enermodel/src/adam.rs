//! Adam stochastic optimiser (Kingma & Ba, 2014).
//!
//! The paper trains its network "using the stochastic optimization method
//! ADAM … with the default parameters and a learning rate of 1e-3"
//! (Section V-B). This is a faithful implementation with bias-corrected
//! first and second moment estimates; a step is one allocation-free loop
//! over the flat parameter, gradient and moment buffers.
//!
//! The loop compiles to packed divisions and square roots and is bound by
//! the divider. A bias correction that has rounded to exactly 1.0 is not
//! divided by: that division is exact, so skipping it leaves every bit of
//! the update as it was. On the paper's protocol (126,000 steps per
//! network) about 70 % of the steps divide once per parameter instead of
//! three times.

use serde::{Deserialize, Serialize};

use crate::nn::{EnergyNet, Gradients};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Step size (the paper uses 1e-3).
    pub learning_rate: f64,
    /// Exponential decay for the first moment (default 0.9).
    pub beta1: f64,
    /// Exponential decay for the second moment (default 0.999).
    pub beta2: f64,
    /// Numerical fuzz (default 1e-8).
    pub epsilon: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }
}

/// Adam optimiser state for an [`EnergyNet`]: the first and second
/// moment estimates, flat and laid out like the network's parameters.
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    /// First-moment estimates.
    m: Vec<f64>,
    /// Second-moment estimates.
    v: Vec<f64>,
    /// Time step (number of `step` calls performed).
    t: u64,
}

impl Adam {
    /// Create optimiser state shaped like `net`.
    pub fn new(net: &EnergyNet, cfg: AdamConfig) -> Self {
        Self {
            cfg,
            m: vec![0.0; net.param_count()],
            v: vec![0.0; net.param_count()],
            t: 0,
        }
    }

    /// Hyper-parameters in use.
    pub fn config(&self) -> &AdamConfig {
        &self.cfg
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one Adam update to `net` given gradients `g`: one pass over
    /// the flat parameter, gradient and moment buffers.
    ///
    /// The bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ` round to exactly 1.0
    /// once `βᵗ` falls below half an ulp of 1.0 (from t ≈ 356 for
    /// β₁ = 0.9 and t ≈ 37,400 for β₂ = 0.999). Dividing by 1.0 is exact,
    /// so from then on the pass skips that division: the step decides once
    /// which corrections still apply and runs the loop compiled for that
    /// case. Every case produces the same bits as the textbook update.
    pub fn step(&mut self, net: &mut EnergyNet, g: &Gradients) {
        let grads = g.as_slice();
        assert_eq!(grads.len(), self.m.len(), "gradient shape mismatch");
        assert_eq!(net.param_count(), self.m.len(), "network shape mismatch");
        self.t += 1;
        let t = self.t as f64;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        match (bc1 == 1.0, bc2 == 1.0) {
            (false, false) => self.update::<true, true>(net, grads, bc1, bc2),
            (true, false) => self.update::<false, true>(net, grads, bc1, bc2),
            (false, true) => self.update::<true, false>(net, grads, bc1, bc2),
            (true, true) => self.update::<false, false>(net, grads, bc1, bc2),
        }
    }

    /// The element-wise update of [`Adam::step`]. `CORRECT1`/`CORRECT2`
    /// say whether the first/second moment is still divided by its bias
    /// correction `bc1`/`bc2`.
    fn update<const CORRECT1: bool, const CORRECT2: bool>(
        &mut self,
        net: &mut EnergyNet,
        grads: &[f64],
        bc1: f64,
        bc2: f64,
    ) {
        let AdamConfig {
            learning_rate,
            beta1,
            beta2,
            epsilon,
        } = self.cfg;
        let params = net.params_mut().iter_mut().zip(grads);
        for ((p, &grad), (m, v)) in params.zip(self.m.iter_mut().zip(&mut self.v)) {
            *m = beta1 * *m + (1.0 - beta1) * grad;
            *v = beta2 * *v + (1.0 - beta2) * grad * grad;
            let m_hat = if CORRECT1 { *m / bc1 } else { *m };
            let v_hat = if CORRECT2 { *v / bc2 } else { *v };
            *p -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Activation, EnergyNet, Layer, NetConfig};

    /// A 1-parameter "network" minimising (w - 3)^2 via backprop on y = w*x
    /// with x = 1, target 3 — Adam should converge to w ≈ 3.
    #[test]
    fn converges_on_scalar_quadratic() {
        let layer = Layer {
            weights: vec![vec![0.0]],
            biases: vec![0.0],
            activation: Activation::Linear,
        };
        let mut net = EnergyNet::from_layers(vec![layer]);
        let mut adam = Adam::new(
            &net,
            AdamConfig {
                learning_rate: 0.05,
                ..Default::default()
            },
        );
        for _ in 0..2000 {
            let (_, g) = net.backprop(&[1.0], &[3.0]);
            adam.step(&mut net, &g);
        }
        let w = net.params()[0] + net.params()[1];
        assert!((w - 3.0).abs() < 1e-3, "w+b = {w}");
    }

    #[test]
    fn default_parameters_match_paper() {
        let cfg = AdamConfig::default();
        assert_eq!(cfg.learning_rate, 1e-3);
        assert_eq!(cfg.beta1, 0.9);
        assert_eq!(cfg.beta2, 0.999);
        assert_eq!(cfg.epsilon, 1e-8);
    }

    #[test]
    fn first_step_size_is_bounded_by_lr() {
        // Adam's bias correction makes the very first step ≈ lr * sign(g).
        let mut net = EnergyNet::new(&NetConfig {
            layer_sizes: vec![1, 1],
            hidden_activation: Activation::ReLU,
            seed: 2,
        });
        let before = net.params()[0];
        let mut adam = Adam::new(&net, AdamConfig::default());
        let (_, g) = net.backprop(&[1.0], &[100.0]);
        adam.step(&mut net, &g);
        let after = net.params()[0];
        let delta = (after - before).abs();
        assert!(delta <= 1.1e-3, "first step too large: {delta}");
        assert!(delta > 0.9e-3, "first step too small: {delta}");
    }

    #[test]
    fn step_counter_increments() {
        let mut net = EnergyNet::new(&NetConfig::paper(1));
        let mut adam = Adam::new(&net, AdamConfig::default());
        assert_eq!(adam.steps(), 0);
        let (_, g) = net.backprop(&[0.0; 9], &[0.5]);
        adam.step(&mut net, &g);
        adam.step(&mut net, &g);
        assert_eq!(adam.steps(), 2);
    }

    #[test]
    fn zero_gradient_is_a_noop() {
        let mut net = EnergyNet::new(&NetConfig::paper(4));
        let snapshot = net.clone();
        let mut adam = Adam::new(&net, AdamConfig::default());
        let g = crate::nn::Gradients::zeros_like(&net);
        adam.step(&mut net, &g);
        let x = [0.5; 9];
        assert_eq!(net.forward(&x), snapshot.forward(&x));
    }

    /// Kingma & Ba's Algorithm 1 as written: both moments always divided
    /// by their bias corrections.
    fn textbook_step(
        cfg: &AdamConfig,
        t: u64,
        m: &mut [f64],
        v: &mut [f64],
        p: &mut [f64],
        g: &[f64],
    ) {
        let bc1 = 1.0 - cfg.beta1.powf(t as f64);
        let bc2 = 1.0 - cfg.beta2.powf(t as f64);
        for i in 0..p.len() {
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g[i];
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g[i] * g[i];
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            p[i] -= cfg.learning_rate * m_hat / (v_hat.sqrt() + cfg.epsilon);
        }
    }

    /// First step at which `1 − βᵗ` rounds to exactly 1.0.
    fn saturation_step(beta: f64) -> u64 {
        (1..).find(|&t| 1.0 - beta.powf(t as f64) == 1.0).unwrap()
    }

    /// Steps both `Adam` and the textbook update side by side past both
    /// saturation points and compares parameters and moments bit for bit
    /// after every step.
    fn assert_matches_textbook(cfg: AdamConfig) {
        const STEPS: u64 = 40_500;
        let mut net = EnergyNet::new(&NetConfig::paper(11));
        let mut adam = Adam::new(&net, cfg);
        let mut p = net.params().to_vec();
        let mut m = vec![0.0; p.len()];
        let mut v = vec![0.0; p.len()];
        let mut ws = crate::nn::Workspace::default();
        let mut g = Gradients::zeros_like(&net);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for t in 1..=STEPS {
            // A target that depends on the inputs keeps most units alive,
            // so most gradients stay non-zero late in the run.
            let f = t as f64;
            let x: [f64; 9] = std::array::from_fn(|j| (f * 0.37 + 1.3 * j as f64).sin());
            let y = 0.8 + 0.3 * x[0] - 0.2 * x[1] + 0.25 * x[2].max(0.0) + 0.1 * x[3] * x[4];
            net.backprop_into(&x, &[y], &mut ws, &mut g);
            adam.step(&mut net, &g);
            textbook_step(&cfg, t, &mut m, &mut v, &mut p, g.as_slice());
            assert_eq!(bits(net.params()), bits(&p), "parameters differ at t = {t}");
            assert_eq!(bits(&adam.m), bits(&m), "first moments differ at t = {t}");
            assert_eq!(bits(&adam.v), bits(&v), "second moments differ at t = {t}");
        }
    }

    /// With the default betas `1 − β₁ᵗ` saturates first, so the run goes
    /// through the both-corrected, second-only and uncorrected loops.
    #[test]
    fn matches_textbook_update_bit_for_bit_past_saturation() {
        let cfg = AdamConfig::default();
        let (sat1, sat2) = (saturation_step(cfg.beta1), saturation_step(cfg.beta2));
        assert!(1 < sat1 && sat1 < sat2 && sat2 < 40_000, "{sat1} {sat2}");
        assert_matches_textbook(cfg);
    }

    /// With the betas swapped `1 − β₂ᵗ` saturates first, so the run also
    /// goes through the first-only loop.
    #[test]
    fn matches_textbook_update_when_second_correction_saturates_first() {
        let cfg = AdamConfig {
            beta1: 0.999,
            beta2: 0.9,
            ..AdamConfig::default()
        };
        let (sat1, sat2) = (saturation_step(cfg.beta1), saturation_step(cfg.beta2));
        assert!(1 < sat2 && sat2 < sat1 && sat1 < 40_000, "{sat1} {sat2}");
        assert_matches_textbook(cfg);
    }

    #[test]
    fn reduces_loss_on_paper_network() {
        let mut net = EnergyNet::new(&NetConfig::paper(77));
        let mut adam = Adam::new(&net, AdamConfig::default());
        let x = [0.1, 0.2, -0.3, 0.4, 0.0, 1.0, -1.0, 0.5, 0.9];
        let t = [0.8];
        let (l0, _) = net.backprop(&x, &t);
        for _ in 0..500 {
            let (_, g) = net.backprop(&x, &t);
            adam.step(&mut net, &g);
        }
        let (l1, _) = net.backprop(&x, &t);
        assert!(l1 < l0 * 0.01, "loss did not drop: {l0} -> {l1}");
    }
}
