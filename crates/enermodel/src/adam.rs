//! Adam stochastic optimiser (Kingma & Ba, 2014).
//!
//! The paper trains its network "using the stochastic optimization method
//! ADAM … with the default parameters and a learning rate of 1e-3"
//! (Section V-B). This is a faithful implementation with bias-corrected
//! first and second moment estimates; a step is one allocation-free loop
//! over the flat parameter, gradient and moment buffers.

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

    /// Continue with a new learning rate, keeping moment estimates and the
    /// step counter (used for per-epoch learning-rate schedules).
    pub fn with_learning_rate(mut self, learning_rate: f64) -> Self {
        self.cfg.learning_rate = learning_rate;
        self
    }

    /// Apply one Adam update to `net` given gradients `g`: one pass over
    /// the flat parameter, gradient and moment buffers.
    pub fn step(&mut self, net: &mut EnergyNet, g: &Gradients) {
        let grads = g.as_slice();
        assert_eq!(grads.len(), self.m.len(), "gradient shape mismatch");
        assert_eq!(net.param_count(), self.m.len(), "network shape mismatch");
        self.t += 1;
        let t = self.t as f64;
        let AdamConfig {
            learning_rate,
            beta1,
            beta2,
            epsilon,
        } = self.cfg;
        let bc1 = 1.0 - beta1.powf(t);
        let bc2 = 1.0 - beta2.powf(t);

        let params = net.params_mut().iter_mut().zip(grads);
        for ((p, &grad), (m, v)) in params.zip(self.m.iter_mut().zip(&mut self.v)) {
            *m = beta1 * *m + (1.0 - beta1) * grad;
            *v = beta2 * *v + (1.0 - beta2) * grad * grad;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
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
