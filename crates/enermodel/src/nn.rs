//! Feed-forward neural network.
//!
//! The paper's energy model (Section IV-C, Fig. 4) is a 2-hidden-layer
//! fully-connected network: nine inputs (seven selected PAPI counter rates,
//! core frequency, uncore frequency), two hidden layers of five neurons,
//! one output neuron predicting normalised node energy `E_norm`. ReLU
//! activations sit between the linear layers; the output is linear. Weights
//! are He-initialised (zero-mean unit-variance Gaussian scaled by
//! `sqrt(2/n)`), biases start at zero, and the training objective is mean
//! squared error.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::linalg::Matrix;

/// Activation functions supported by the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified Linear Unit — the paper's choice (fast convergence, no
    /// vanishing gradients).
    ReLU,
    /// Hyperbolic tangent (kept for ablation benches).
    Tanh,
    /// Identity (used for the output layer).
    Linear,
}

impl Activation {
    /// Apply the activation.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative with respect to the pre-activation, evaluated at
    /// pre-activation value `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Linear => 1.0,
        }
    }
}

/// One fully-connected layer, `y = act(W x + b)`, in its wire form.
///
/// [`EnergyNet`] keeps its parameters in one flat buffer; a `Layer` is
/// how a network is built from explicit weights and how it is written to
/// JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Layer {
    /// Weight matrix, `fan_out × fan_in` (row `o` holds the weights feeding
    /// output neuron `o`). Serialised as nested rows.
    pub weights: Vec<Vec<f64>>,
    /// Bias per output neuron.
    pub biases: Vec<f64>,
    /// Activation applied after the affine transform.
    pub activation: Activation,
}

impl Layer {
    /// He-initialise a layer: `w ~ N(0, 1) * sqrt(2 / fan_in)`, biases 0.
    pub fn he_init(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        let normal = Normal::new(0.0, 1.0).expect("valid normal");
        let scale = (2.0 / fan_in as f64).sqrt();
        let weights = (0..fan_out)
            .map(|_| (0..fan_in).map(|_| normal.sample(rng) * scale).collect())
            .collect();
        Self {
            weights,
            biases: vec![0.0; fan_out],
            activation,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weights.len()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.fan_out() * self.fan_in() + self.biases.len()
    }
}

/// Where one layer lives in an [`EnergyNet`]'s flat buffers.
///
/// The parameter buffer is `[W_1 row-major, b_1, W_2, b_2, …]`; gradients
/// ([`Gradients`]) and Adam's moments share that layout. A
/// [`Workspace`] holds `[x, a_1, …, a_L]` — the input, then every layer's
/// output — with each layer's pre-activations at the same offsets as its
/// outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerShape {
    /// Input width.
    fan_in: usize,
    /// Output width.
    fan_out: usize,
    /// Activation applied after the affine transform.
    activation: Activation,
    /// Offset of `W` in the parameter buffer; `b` follows it.
    offset: usize,
    /// Offset of the layer's input in the workspace; its output follows.
    input: usize,
}

impl LayerShape {
    /// Index of bias `b[o]` in the parameter buffer.
    fn bias(&self, o: usize) -> usize {
        self.offset + self.fan_out * self.fan_in + o
    }

    /// The layer's weights (row-major) and biases within `params`.
    fn split<'p>(&self, params: &'p [f64]) -> (&'p [f64], &'p [f64]) {
        params[self.offset..self.bias(self.fan_out)].split_at(self.fan_out * self.fan_in)
    }

    /// Offset of the layer's output (and pre-activations) in a workspace.
    fn output(&self) -> usize {
        self.input + self.fan_in
    }
}

/// Network architecture description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Layer widths, input first: the paper's network is `[9, 5, 5, 1]`.
    pub layer_sizes: Vec<usize>,
    /// Hidden activation (output is always linear).
    pub hidden_activation: Activation,
    /// RNG seed for He initialisation.
    pub seed: u64,
}

impl NetConfig {
    /// The exact architecture from Fig. 4 of the paper: 9-5-5-1 with ReLU.
    pub fn paper(seed: u64) -> Self {
        Self {
            layer_sizes: vec![9, 5, 5, 1],
            hidden_activation: Activation::ReLU,
            seed,
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::paper(0xDEC0DE)
    }
}

/// The energy model network: every weight and bias in one flat buffer,
/// `[W_1 row-major, b_1, W_2, b_2, …]`.
///
/// Every prediction and every training step runs the same forward kernel
/// over that buffer; training adds one backward kernel. Neither allocates
/// given a [`Workspace`]. The JSON form is the layer list
/// (`{"layers":[{"weights":…,"biases":…,"activation":…}]}`).
#[derive(Debug, Clone)]
pub struct EnergyNet {
    shapes: Vec<LayerShape>,
    params: Vec<f64>,
}

/// Gradients laid out like an [`EnergyNet`]'s parameter buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    flat: Vec<f64>,
}

impl Gradients {
    /// Zeroed gradients matching `net`'s shape.
    pub fn zeros_like(net: &EnergyNet) -> Self {
        Self {
            flat: vec![0.0; net.param_count()],
        }
    }

    /// The gradient entries, indexed like [`EnergyNet::params`].
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.flat
    }
}

/// Forward/backward scratch buffers. A workspace starts empty, grows once
/// to fit the largest network it is used with, and from then on every
/// [`EnergyNet::predict_with`] or [`EnergyNet::backprop_into`] call
/// through it allocates nothing — so a training loop or a committee
/// sweep holds one.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// `[x, a_1, …, a_L]`: the input, then every layer's output.
    act: Vec<f64>,
    /// Pre-activations, at the same offsets as the outputs in `act`.
    pre: Vec<f64>,
    /// The delta of the layer being back-propagated.
    delta: Vec<f64>,
    /// The delta being formed for the layer below it.
    next_delta: Vec<f64>,
}

impl Workspace {
    /// Grow every buffer to fit `net` (a no-op once they do). Each buffer
    /// gets the full activation width, which bounds every layer's width.
    fn fit(&mut self, net: &EnergyNet) {
        let width = net.last().output() + net.output_size();
        if self.act.len() < width {
            for buf in [
                &mut self.act,
                &mut self.pre,
                &mut self.delta,
                &mut self.next_delta,
            ] {
                buf.resize(width, 0.0);
            }
        }
    }
}

impl EnergyNet {
    /// Build a freshly He-initialised network from `cfg`.
    pub fn new(cfg: &NetConfig) -> Self {
        assert!(
            cfg.layer_sizes.len() >= 2,
            "need at least input and output sizes"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.layer_sizes.len() - 1;
        let layers = (0..n)
            .map(|i| {
                let act = if i + 1 == n {
                    Activation::Linear
                } else {
                    cfg.hidden_activation
                };
                Layer::he_init(cfg.layer_sizes[i], cfg.layer_sizes[i + 1], act, &mut rng)
            })
            .collect();
        Self::from_layers(layers)
    }

    /// Build directly from layers (e.g. explicit weights).
    ///
    /// # Panics
    /// Panics if there are no layers, a layer is empty or ragged, or
    /// adjacent widths disagree.
    pub fn from_layers(layers: Vec<Layer>) -> Self {
        Self::try_from_layers(&layers).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_from_layers(layers: &[Layer]) -> Result<Self, String> {
        if layers.is_empty() {
            return Err("network needs at least one layer".into());
        }
        for w in layers.windows(2) {
            if w[0].fan_out() != w[1].fan_in() {
                return Err("layer width mismatch".into());
            }
        }
        let mut shapes = Vec::with_capacity(layers.len());
        let mut params = Vec::with_capacity(layers.iter().map(Layer::param_count).sum());
        let mut input = 0;
        for layer in layers {
            let (fan_in, fan_out) = (layer.fan_in(), layer.fan_out());
            let rectangular = layer.weights.iter().all(|row| row.len() == fan_in);
            if fan_in == 0 || !rectangular || layer.biases.len() != fan_out {
                return Err("malformed layer: empty, ragged or bias count mismatch".into());
            }
            shapes.push(LayerShape {
                fan_in,
                fan_out,
                activation: layer.activation,
                offset: params.len(),
                input,
            });
            params.extend(layer.weights.iter().flatten());
            params.extend(&layer.biases);
            input += fan_in;
        }
        Ok(Self { shapes, params })
    }

    /// The layers in their wire form.
    pub(crate) fn to_layers(&self) -> Vec<Layer> {
        self.shapes
            .iter()
            .map(|s| {
                let (w, b) = s.split(&self.params);
                Layer {
                    weights: w.chunks_exact(s.fan_in).map(<[f64]>::to_vec).collect(),
                    biases: b.to_vec(),
                    activation: s.activation,
                }
            })
            .collect()
    }

    /// Every weight and bias, `[W_1 row-major, b_1, W_2, b_2, …]`.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Mutable access for the optimiser.
    pub(crate) fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Input width expected by the network.
    pub fn input_size(&self) -> usize {
        self.shapes[0].fan_in
    }

    /// Output width produced by the network.
    pub fn output_size(&self) -> usize {
        self.last().fan_out
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    fn last(&self) -> &LayerShape {
        self.shapes.last().expect("nonempty")
    }

    /// The forward kernel: copy `input` into the workspace and run it
    /// through every layer, leaving each layer's pre-activations and
    /// outputs in `ws`. Returns the output's offset in `ws.act`.
    fn run_forward(&self, input: &[f64], ws: &mut Workspace) -> usize {
        assert_eq!(input.len(), self.input_size(), "input width mismatch");
        ws.fit(self);
        ws.act[..input.len()].copy_from_slice(input);
        for s in &self.shapes {
            let (w, b) = s.split(&self.params);
            let (below, above) = ws.act.split_at_mut(s.output());
            let x = &below[s.input..];
            let pre = &mut ws.pre[s.output()..];
            for (o, (row, bias)) in w.chunks_exact(s.fan_in).zip(b).enumerate() {
                let z: f64 = row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + bias;
                pre[o] = z;
                above[o] = s.activation.apply(z);
            }
        }
        self.last().output()
    }

    /// Forward pass; returns the output vector.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut ws = Workspace::default();
        let out = self.run_forward(input, &mut ws);
        ws.act[out..out + self.output_size()].to_vec()
    }

    /// Convenience for single-output networks: predict a scalar.
    pub fn predict_scalar(&self, input: &[f64]) -> f64 {
        self.predict_with(input, &mut Workspace::default())
    }

    /// [`EnergyNet::predict_scalar`] in a caller-held workspace: no
    /// allocation once the workspace fits the network.
    pub fn predict_with(&self, input: &[f64], ws: &mut Workspace) -> f64 {
        debug_assert_eq!(self.output_size(), 1, "predict_scalar on multi-output net");
        let out = self.run_forward(input, ws);
        ws.act[out]
    }

    /// Predict scalars for every row of `x`.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        let mut ws = Workspace::default();
        (0..x.rows())
            .map(|r| self.predict_with(x.row(r), &mut ws))
            .collect()
    }

    /// Forward + backward pass for one sample under squared-error loss
    /// `L = Σ (ŷ - y)²`, so the output delta is `2 (ŷ - y)`.
    ///
    /// Returns `(loss, gradients)`; the gradients are exactly `∂L/∂θ` for
    /// the returned loss (verified against finite differences in the tests).
    pub fn backprop(&self, input: &[f64], target: &[f64]) -> (f64, Gradients) {
        let mut grads = Gradients::zeros_like(self);
        let loss = self.backprop_into(input, target, &mut Workspace::default(), &mut grads);
        (loss, grads)
    }

    /// The backward kernel behind [`EnergyNet::backprop`]: overwrite
    /// `grads` with `∂L/∂θ` for one sample and return `L`, allocating
    /// nothing once the workspace fits the network.
    pub fn backprop_into(
        &self,
        input: &[f64],
        target: &[f64],
        ws: &mut Workspace,
        grads: &mut Gradients,
    ) -> f64 {
        assert_eq!(target.len(), self.output_size(), "target width mismatch");
        assert_eq!(
            grads.flat.len(),
            self.params.len(),
            "gradient shape mismatch"
        );
        let out = self.run_forward(input, ws);
        let output = &ws.act[out..out + self.output_size()];
        let loss: f64 = output
            .iter()
            .zip(target)
            .map(|(o, t)| (o - t) * (o - t))
            .sum();

        // delta for the output layer: dL/dz = (ŷ - y) * act'(z); output act
        // is linear so act' = 1, but keep it general.
        let last_act = self.last().activation;
        for ((d, (o, t)), &z) in ws
            .delta
            .iter_mut()
            .zip(output.iter().zip(target))
            .zip(&ws.pre[out..])
        {
            *d = 2.0 * (o - t) * last_act.derivative(z);
        }

        for (li, s) in self.shapes.iter().enumerate().rev() {
            let (w, _) = s.split(&self.params);
            let delta = &ws.delta[..s.fan_out];
            let a_prev = &ws.act[s.input..s.output()];
            // Parameter gradients.
            let (gw, gb) = grads.flat[s.offset..s.bias(s.fan_out)].split_at_mut(w.len());
            for ((g_row, g_b), &d) in gw.chunks_exact_mut(s.fan_in).zip(gb).zip(delta) {
                *g_b = d;
                for (g, &a) in g_row.iter_mut().zip(a_prev) {
                    *g = d * a;
                }
            }
            // Propagate to the previous layer.
            if li > 0 {
                let prev_act_fn = self.shapes[li - 1].activation;
                let new_delta = &mut ws.next_delta[..s.fan_in];
                new_delta.fill(0.0);
                for (row, &d) in w.chunks_exact(s.fan_in).zip(delta) {
                    for (nd, &w) in new_delta.iter_mut().zip(row) {
                        *nd += w * d;
                    }
                }
                for (nd, &z) in new_delta.iter_mut().zip(&ws.pre[s.input..]) {
                    *nd *= prev_act_fn.derivative(z);
                }
                std::mem::swap(&mut ws.delta, &mut ws.next_delta);
            }
        }
        loss
    }
}

/// The JSON form of [`EnergyNet`]: its layer list.
#[derive(Serialize, Deserialize)]
struct NetWire {
    layers: Vec<Layer>,
}

impl Serialize for EnergyNet {
    fn to_value(&self) -> serde::json::Value {
        NetWire {
            layers: self.to_layers(),
        }
        .to_value()
    }
}

impl Deserialize for EnergyNet {
    fn from_value(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let wire = NetWire::from_value(v)?;
        Self::try_from_layers(&wire.layers).map_err(serde::json::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index of weight `W[o][i]` in the parameter buffer.
    fn weight(s: &LayerShape, o: usize, i: usize) -> usize {
        s.offset + o * s.fan_in + i
    }

    #[test]
    fn paper_architecture_shape() {
        let net = EnergyNet::new(&NetConfig::paper(1));
        assert_eq!(net.input_size(), 9);
        assert_eq!(net.output_size(), 1);
        let shapes = &net.shapes;
        assert_eq!(shapes.len(), 3);
        assert_eq!(shapes[0].fan_out, 5);
        assert_eq!(shapes[1].fan_out, 5);
        // 9*5+5 + 5*5+5 + 5*1+1 = 50 + 30 + 6 = 86
        assert_eq!(net.param_count(), 86);
        assert_eq!(shapes[2].activation, Activation::Linear);
        // The flat layout: [W_1 row-major, b_1, W_2, b_2, W_3, b_3].
        assert_eq!(weight(&shapes[1], 0, 0), 50);
        assert_eq!(shapes[1].bias(4), 79);
        assert_eq!(shapes[2].bias(0), 85);
    }

    #[test]
    fn he_init_statistics() {
        // With fan_in = 100 the weight std should be ~ sqrt(2/100) ≈ 0.141.
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Layer::he_init(100, 200, Activation::ReLU, &mut rng);
        let all: Vec<f64> = layer.weights.iter().flatten().copied().collect();
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        let var = all.iter().map(|w| (w - mean) * (w - mean)).sum::<f64>() / all.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() - (2.0f64 / 100.0).sqrt()).abs() < 0.01,
            "std {}",
            var.sqrt()
        );
        assert!(layer.biases.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = EnergyNet::new(&NetConfig::paper(99));
        let b = EnergyNet::new(&NetConfig::paper(99));
        let x = [0.1; 9];
        assert_eq!(a.forward(&x), b.forward(&x));
        let c = EnergyNet::new(&NetConfig::paper(100));
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn relu_behaviour() {
        assert_eq!(Activation::ReLU.apply(-1.0), 0.0);
        assert_eq!(Activation::ReLU.apply(2.5), 2.5);
        assert_eq!(Activation::ReLU.derivative(-0.1), 0.0);
        assert_eq!(Activation::ReLU.derivative(0.1), 1.0);
    }

    #[test]
    fn forward_known_tiny_network() {
        // 2 -> 1 linear layer, weights [1, -2], bias 0.5: y = x0 - 2 x1 + 0.5
        let layer = Layer {
            weights: vec![vec![1.0, -2.0]],
            biases: vec![0.5],
            activation: Activation::Linear,
        };
        let net = EnergyNet::from_layers(vec![layer]);
        assert!((net.predict_scalar(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn backprop_matches_finite_differences() {
        let net = EnergyNet::new(&NetConfig {
            layer_sizes: vec![3, 4, 1],
            hidden_activation: Activation::Tanh, // smooth, so FD is accurate
            seed: 5,
        });
        let x = [0.3, -0.7, 1.2];
        let t = [0.25];
        let (_, grads) = net.backprop(&x, &t);

        let eps = 1e-6;
        for (li, s) in net.shapes.iter().enumerate() {
            for o in 0..s.fan_out {
                for i in 0..s.fan_in {
                    let mut plus = net.clone();
                    plus.params_mut()[weight(s, o, i)] += eps;
                    let mut minus = net.clone();
                    minus.params_mut()[weight(s, o, i)] -= eps;
                    let lp = {
                        let y = plus.predict_scalar(&x);
                        (y - t[0]) * (y - t[0])
                    };
                    let lm = {
                        let y = minus.predict_scalar(&x);
                        (y - t[0]) * (y - t[0])
                    };
                    let fd = (lp - lm) / (2.0 * eps);
                    let an = grads.as_slice()[weight(s, o, i)];
                    assert!(
                        (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                        "layer {li} w[{o}][{i}]: fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn backprop_bias_gradients_match_fd() {
        let net = EnergyNet::new(&NetConfig {
            layer_sizes: vec![2, 3, 1],
            hidden_activation: Activation::Tanh,
            seed: 11,
        });
        let x = [0.9, -0.4];
        let t = [1.0];
        let (_, grads) = net.backprop(&x, &t);
        let eps = 1e-6;
        for (li, s) in net.shapes.iter().enumerate() {
            for o in 0..s.fan_out {
                let mut plus = net.clone();
                plus.params_mut()[s.bias(o)] += eps;
                let mut minus = net.clone();
                minus.params_mut()[s.bias(o)] -= eps;
                let yp = plus.predict_scalar(&x);
                let ym = minus.predict_scalar(&x);
                let fd = ((yp - t[0]).powi(2) - (ym - t[0]).powi(2)) / (2.0 * eps);
                let an = grads.as_slice()[s.bias(o)];
                assert!((fd - an).abs() < 1e-5, "layer {li} b[{o}]: fd {fd} vs {an}");
            }
        }
    }

    #[test]
    fn gradients_start_at_zero() {
        let net = EnergyNet::new(&NetConfig::paper(3));
        let grads = Gradients::zeros_like(&net);
        assert_eq!(grads.as_slice().len(), net.param_count());
        assert!(grads.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let net = EnergyNet::new(&NetConfig::paper(21));
        let json = serde_json::to_string(&net).unwrap();
        let back: EnergyNet = serde_json::from_str(&json).unwrap();
        let x = [0.2, -0.1, 0.4, 1.0, -2.0, 0.0, 0.7, 2.0, 1.5];
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn json_keeps_the_layer_list_shape() {
        let layer = Layer {
            weights: vec![vec![1.0, -2.0], vec![0.5, 0.25]],
            biases: vec![0.5, -1.0],
            activation: Activation::ReLU,
        };
        let net = EnergyNet::from_layers(vec![layer]);
        assert_eq!(
            serde_json::to_string(&net).unwrap(),
            "{\"layers\":[{\"activation\":\"ReLU\",\"biases\":[0.5,-1.0],\
             \"weights\":[[1.0,-2.0],[0.5,0.25]]}]}"
        );
        let back = net.to_layers();
        assert_eq!(back[0].weights, vec![vec![1.0, -2.0], vec![0.5, 0.25]]);
        assert_eq!(net.params(), &[1.0, -2.0, 0.5, 0.25, 0.5, -1.0]);
    }

    #[test]
    fn malformed_json_layers_are_errors_not_panics() {
        let ragged = r#"{"layers":[{"weights":[[1.0,2.0],[3.0]],"biases":[0.0,0.0],"activation":"Linear"}]}"#;
        assert!(serde_json::from_str::<EnergyNet>(ragged).is_err());
        let chain = r#"{"layers":[{"weights":[[1.0]],"biases":[0.0],"activation":"ReLU"},
                                  {"weights":[[1.0,2.0]],"biases":[0.0],"activation":"Linear"}]}"#;
        assert!(serde_json::from_str::<EnergyNet>(chain).is_err());
        assert!(serde_json::from_str::<EnergyNet>(r#"{"layers":[]}"#).is_err());
    }

    #[test]
    fn workspace_paths_match_the_allocating_ones() {
        // One workspace shared by a small and a large network, in turns:
        // it grows to the large one and still serves the small one.
        let small = EnergyNet::new(&NetConfig {
            layer_sizes: vec![9, 3, 1],
            hidden_activation: Activation::Tanh,
            seed: 4,
        });
        let large = EnergyNet::new(&NetConfig::paper(8));
        let mut ws = Workspace::default();
        for k in 0..6 {
            let net = if k % 2 == 0 { &small } else { &large };
            let mut grads = Gradients::zeros_like(net);
            let x: Vec<f64> = (0..9).map(|i| ((i * 7 + k) as f64 * 0.31).sin()).collect();
            let t = [0.5 + k as f64];
            assert_eq!(net.predict_with(&x, &mut ws), net.predict_scalar(&x));
            let loss = net.backprop_into(&x, &t, &mut ws, &mut grads);
            let (fresh_loss, fresh) = net.backprop(&x, &t);
            assert_eq!(loss, fresh_loss);
            assert_eq!(grads, fresh);
        }
    }

    #[test]
    #[should_panic(expected = "layer width mismatch")]
    fn from_layers_checks_widths() {
        let mut rng = StdRng::seed_from_u64(0);
        let l1 = Layer::he_init(2, 3, Activation::ReLU, &mut rng);
        let l2 = Layer::he_init(4, 1, Activation::Linear, &mut rng);
        let _ = EnergyNet::from_layers(vec![l1, l2]);
    }
}
