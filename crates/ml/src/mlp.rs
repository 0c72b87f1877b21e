//! Multi-layer perceptron (paper §II-B3): the paper's configuration is
//! three hidden layers of 96, 48, and 16 ReLU units trained with mini-batch
//! size 16. We train with Adam and (for classification) a softmax
//! cross-entropy head, or (for regression) a linear head under MSE.
//!
//! ## One batched kernel
//!
//! Every pass runs a batch through one dense kernel: a training
//! mini-batch, a whole matrix of predictions, and a single row (a batch of
//! one). Activations are stored `n × B`, sample innermost, in lane blocks
//! of two samples (`LANES`), so each output neuron keeps one accumulator per
//! sample and the fixed-width lane arrays compile to SSE2 vector
//! instructions without `unsafe`.
//!
//! The kernel gives the bits of the per-sample code it replaced:
//!
//! - each forward accumulator starts at `-0.0` and adds its `w·x` terms in
//!   input order, exactly as `Iterator::sum` does for one sample;
//! - each gradient element sums its per-sample terms in batch order from
//!   `+0.0`, then is scaled, as the per-sample loop accumulated it;
//! - Rust never contracts `a * b + c` into a fused multiply-add, so a
//!   vector lane rounds every product and sum like the scalar code.
//!
//! A `#[cfg(test)]` oracle keeps the per-sample forward, backward and Adam
//! code, and a proptest compares predictions, weights and Adam moments
//! with the kernel bit for bit.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::data::FeatureMatrix;
use crate::model::{Classifier, Regressor};

#[cfg(test)]
mod oracle;

/// MLP hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpParams {
    /// Hidden-layer widths (paper: `[96, 48, 16]`).
    pub hidden: Vec<usize>,
    /// Mini-batch size (paper: 16).
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Initialization / shuffling seed.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        Self {
            hidden: vec![96, 48, 16],
            batch_size: 16,
            epochs: 60,
            learning_rate: 1e-3,
            weight_decay: 1e-5,
            seed: 0,
        }
    }
}

/// Samples one step of the kernel advances together. Activations are
/// stored in blocks of `LANES` samples (`acts[jb * n + i][l]` is unit `i`
/// of sample `jb * LANES + l`), so every step works on fixed-width arrays
/// that the compiler turns into vector instructions.
const LANES: usize = 2;

/// One value per sample of a lane block.
type Lanes = [f64; LANES];

/// One value twice: the weight-gradient kernel multiplies it into a pair
/// of adjacent inputs, and a stored pair spares it an SSE2 shuffle per
/// use.
type Pair = [f64; 2];

/// Rows per forward batch when predicting over a whole matrix.
const PREDICT_CHUNK: usize = 64;

/// One dense layer with Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    w: Vec<f64>, // out x in, row-major
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, rng: &mut ChaCha8Rng) -> Dense {
        // He initialization for ReLU nets.
        let scale = (2.0 / n_in.max(1) as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    /// `out = W·x + b` for every sample of `nb` lane blocks, through a
    /// ReLU when `relu`. Each output keeps one accumulator per sample that
    /// starts at `-0.0` and adds its `w·x` terms in input order, which is
    /// exactly what `Iterator::sum` computes for one sample.
    fn forward(&self, x: &[Lanes], out: &mut [Lanes], nb: usize, relu: bool) {
        let mut jb = 0;
        while jb < nb {
            jb += match nb - jb {
                1 => self.forward_blocks::<1, 8>(jb, x, out, relu),
                2 => self.forward_blocks::<2, 4>(jb, x, out, relu),
                3 => self.forward_blocks::<3, 2>(jb, x, out, relu),
                _ => self.forward_blocks::<4, 2>(jb, x, out, relu),
            };
        }
    }

    /// Lane blocks `jb..jb + B`, `R` outputs at a time: `R · B` lane
    /// arrays of accumulators, and each weight is read once per `B`
    /// blocks. Returns `B`.
    fn forward_blocks<const B: usize, const R: usize>(
        &self,
        jb: usize,
        x: &[Lanes],
        out: &mut [Lanes],
        relu: bool,
    ) -> usize {
        let xs: [&[Lanes]; B] = std::array::from_fn(|b| &x[(jb + b) * self.n_in..][..self.n_in]);
        let mut o = 0;
        while o + R <= self.n_out {
            self.forward_rows::<B, R>(o, xs, jb, out, relu);
            o += R;
        }
        for o in o..self.n_out {
            self.forward_rows::<B, 1>(o, xs, jb, out, relu);
        }
        B
    }

    /// Outputs `o..o + R` of lane blocks `jb..jb + B`.
    fn forward_rows<const B: usize, const R: usize>(
        &self,
        o: usize,
        xs: [&[Lanes]; B],
        jb: usize,
        out: &mut [Lanes],
        relu: bool,
    ) {
        let n_in = self.n_in;
        let w: [&[f64]; R] = std::array::from_fn(|r| &self.w[(o + r) * n_in..][..n_in]);
        let mut acc = [[[-0.0; LANES]; B]; R];
        for i in 0..n_in {
            let x: [Lanes; B] = std::array::from_fn(|b| xs[b][i]);
            for r in 0..R {
                let wi = w[r][i];
                for b in 0..B {
                    for l in 0..LANES {
                        acc[r][b][l] += wi * x[b][l];
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let bias = self.b[o + r];
            for (b, acc) in acc.iter().enumerate() {
                let unit = &mut out[(jb + b) * self.n_out + o + r];
                for l in 0..LANES {
                    let v = acc[l] + bias;
                    unit[l] = if relu { v.max(0.0) } else { v };
                }
            }
        }
    }

    /// Weight and bias gradients of a mini-batch of `n` samples, divided
    /// by the batch size (`scale`). `rows` is the layer input sample-major
    /// (`rows[j * n_in + i]`), `dt` the output gradient output-major
    /// (`dt[o * n + j]`). Every element sums its per-sample terms in batch
    /// order from `+0.0`, as the per-sample loop accumulated them.
    fn grads(
        &self,
        rows: &[f64],
        dt: &[Pair],
        n: usize,
        scale: f64,
        gw: &mut [f64],
        gb: &mut [f64],
    ) {
        for (o, g) in gb.iter_mut().enumerate() {
            *g = dt[o * n..][..n].iter().fold(0.0, |a, d| a + d[0]) * scale;
        }
        let mut o = 0;
        while o + 2 <= self.n_out {
            self.grad_rows::<2>(o, rows, dt, n, scale, gw);
            o += 2;
        }
        for o in o..self.n_out {
            self.grad_rows::<1>(o, rows, dt, n, scale, gw);
        }
    }

    /// Weight-gradient rows `o..o + R`, eight inputs at a time.
    fn grad_rows<const R: usize>(
        &self,
        o: usize,
        rows: &[f64],
        dt: &[Pair],
        n: usize,
        scale: f64,
        gw: &mut [f64],
    ) {
        let mut i = 0;
        while i + 8 <= self.n_in {
            self.grad_block::<R, 8>(o, i, rows, dt, n, scale, gw);
            i += 8;
        }
        for i in i..self.n_in {
            self.grad_block::<R, 1>(o, i, rows, dt, n, scale, gw);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn grad_block<const R: usize, const C: usize>(
        &self,
        o: usize,
        i: usize,
        rows: &[f64],
        dt: &[Pair],
        n: usize,
        scale: f64,
        gw: &mut [f64],
    ) {
        let d: [&[Pair]; R] = std::array::from_fn(|r| &dt[(o + r) * n..][..n]);
        let mut acc = [[0.0; C]; R];
        for j in 0..n {
            let x = &rows[j * self.n_in + i..][..C];
            for r in 0..R {
                let dj = d[r][j];
                for c in 0..C {
                    acc[r][c] += dj[c % 2] * x[c];
                }
            }
        }
        for r in 0..R {
            let row = &mut gw[(o + r) * self.n_in + i..][..C];
            for c in 0..C {
                row[c] = acc[r][c] * scale;
            }
        }
    }

    /// `dx = Wᵀ·d` for every sample of `nb` lane blocks, lane-blocked
    /// like [`Dense::forward`]; each element sums over the outputs in
    /// order from `+0.0`.
    fn input_grads(&self, d: &[Lanes], dx: &mut [Lanes], nb: usize) {
        for jb in 0..nb {
            let db = &d[jb * self.n_out..][..self.n_out];
            let xb = &mut dx[jb * self.n_in..][..self.n_in];
            let mut i = 0;
            while i + 8 <= self.n_in {
                self.input_grad_cols::<8>(i, db, xb);
                i += 8;
            }
            for i in i..self.n_in {
                self.input_grad_cols::<1>(i, db, xb);
            }
        }
    }

    /// Inputs `i..i + C` of one lane block.
    fn input_grad_cols<const C: usize>(&self, i: usize, db: &[Lanes], xb: &mut [Lanes]) {
        let mut acc = [[0.0; C]; LANES];
        for (o, d) in db.iter().enumerate() {
            let w = &self.w[o * self.n_in + i..][..C];
            for l in 0..LANES {
                for c in 0..C {
                    acc[l][c] += d[l] * w[c];
                }
            }
        }
        for (c, x) in xb[i..i + C].iter_mut().enumerate() {
            *x = std::array::from_fn(|l| acc[l][c]);
        }
    }

    fn adam_step(&mut self, gw: &[f64], gb: &[f64], step: &AdamStep) {
        step.apply(&mut self.w, gw, &mut self.mw, &mut self.vw, true);
        step.apply(&mut self.b, gb, &mut self.mb, &mut self.vb, false);
    }
}

/// One Adam update's constants, bias corrections included.
struct AdamStep {
    lr: f64,
    wd: f64,
    beta1: f64,
    beta2: f64,
    bc1: f64,
    bc2: f64,
}

impl AdamStep {
    fn new(lr: f64, wd: f64, t: usize) -> AdamStep {
        let (beta1, beta2) = (0.9, 0.999);
        AdamStep {
            lr,
            wd,
            beta1,
            beta2,
            bc1: 1.0 - f64::powi(beta1, t as i32),
            bc2: 1.0 - f64::powi(beta2, t as i32),
        }
    }

    /// Update parameters `p` from gradients `g` and moments `m`, `v`,
    /// element by element; weights (`decay`) also take the L2 term.
    fn apply(&self, p: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64], decay: bool) {
        let (lr, wd, beta1, beta2) = (self.lr, self.wd, self.beta1, self.beta2);
        // After a few hundred steps `beta1^t` vanishes next to 1 and
        // `bc1` is exactly 1.0, so dividing by it is the identity: skip
        // that division (Adam is bound by the divider).
        let unit_bc1 = self.bc1 == 1.0;
        for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
            let g = if decay { g + wd * *p } else { g };
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = if unit_bc1 { *m } else { *m / self.bc1 };
            *p -= lr * m_hat / ((*v / self.bc2).sqrt() + 1e-8);
        }
    }
}

/// Reusable buffers for batched passes through nets of one shape.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Lane-blocked activations at each layer boundary; `acts[0]` is the
    /// input, the last the (linear) output.
    acts: Vec<Vec<Lanes>>,
    /// Gradient at the current layer's outputs, lane-blocked.
    delta: Vec<Lanes>,
    /// Gradient at its inputs, lane-blocked.
    dx: Vec<Lanes>,
    /// The current layer's input, sample-major.
    rows: Vec<f64>,
    /// `delta`, output-major, each value twice (see [`Pair`]).
    dt: Vec<Pair>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    /// One sample's output vector and its loss gradient.
    out: Vec<f64>,
    grad: Vec<f64>,
}

/// The shared network core.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Net {
    layers: Vec<Dense>,
    step: usize,
}

impl Net {
    fn new(n_in: usize, hidden: &[usize], n_out: usize, seed: u64) -> Net {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut dims = vec![n_in];
        dims.extend_from_slice(hidden);
        dims.push(n_out);
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Net { layers, step: 0 }
    }

    fn n_in(&self) -> usize {
        self.layers[0].n_in
    }

    fn n_out(&self) -> usize {
        self.layers[self.layers.len() - 1].n_out
    }

    /// Load `rows` as one batch into the scratch input plane and run the
    /// forward pass; returns the number of lane blocks. Lanes past the
    /// last row keep whatever they held: lanes never mix, and nothing
    /// reads them back.
    fn forward<'a>(
        &self,
        rows: impl ExactSizeIterator<Item = &'a [f64]>,
        s: &mut Scratch,
    ) -> usize {
        let nb = rows.len().div_ceil(LANES);
        let widths = std::iter::once(self.n_in()).chain(self.layers.iter().map(|l| l.n_out));
        s.acts.resize_with(self.layers.len() + 1, Vec::new);
        for (acts, width) in s.acts.iter_mut().zip(widths) {
            acts.resize(nb * width, [0.0; LANES]);
        }
        let n_in = self.n_in();
        for (j, row) in rows.enumerate() {
            assert_eq!(row.len(), n_in, "dimension mismatch");
            let block = &mut s.acts[0][j / LANES * n_in..][..n_in];
            for (unit, &v) in block.iter_mut().zip(row) {
                unit[j % LANES] = v;
            }
        }
        let last = self.layers.len() - 1;
        for (k, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = s.acts.split_at_mut(k + 1);
            layer.forward(&inputs[k], &mut outputs[0], nb, k < last);
        }
        nb
    }

    /// Copy sample `j`'s output vector from the last [`Net::forward`]
    /// into `s.out`.
    fn gather_output(&self, s: &mut Scratch, j: usize) {
        let n = self.n_out();
        let block = &s.acts[self.layers.len()][j / LANES * n..][..n];
        s.out.clear();
        s.out.extend(block.iter().map(|unit| unit[j % LANES]));
    }

    /// Every row of `x` through the net, [`PREDICT_CHUNK`] rows per batch;
    /// `emit` receives each row's output vector in row order.
    fn predict(&self, x: &FeatureMatrix, s: &mut Scratch, mut emit: impl FnMut(&[f64])) {
        let mut start = 0;
        while start < x.n_rows() {
            let end = (start + PREDICT_CHUNK).min(x.n_rows());
            self.forward((start..end).map(|i| x.row(i)), s);
            for j in 0..end - start {
                self.gather_output(s, j);
                emit(&s.out);
            }
            start = end;
        }
    }

    /// The output vector of one row: a batch of one.
    fn output(&self, row: &[f64]) -> Vec<f64> {
        let mut s = Scratch::default();
        self.forward(std::iter::once(row), &mut s);
        self.gather_output(&mut s, 0);
        s.out
    }

    /// One Adam update from a mini-batch, given a per-sample output-gradient
    /// callback `dloss(sample_idx, output, dL/doutput)`.
    #[allow(clippy::too_many_arguments)]
    fn train_batch<F>(
        &mut self,
        x: &FeatureMatrix,
        batch: &[usize],
        lr: f64,
        wd: f64,
        s: &mut Scratch,
        dloss: F,
    ) where
        F: Fn(usize, &[f64], &mut [f64]),
    {
        let nb = self.forward(batch.iter().map(|&i| x.row(i)), s);
        let n = batch.len();
        let n_out = self.n_out();
        s.delta.clear();
        s.delta.resize(nb * n_out, [0.0; LANES]);
        for (j, &i) in batch.iter().enumerate() {
            self.gather_output(s, j);
            s.grad.clear();
            s.grad.resize(n_out, 0.0);
            dloss(i, &s.out, &mut s.grad);
            let block = &mut s.delta[j / LANES * n_out..][..n_out];
            for (unit, &g) in block.iter_mut().zip(&s.grad) {
                unit[j % LANES] = g;
            }
        }
        let scale = 1.0 / n.max(1) as f64;
        self.step += 1;
        let adam = AdamStep::new(lr, wd, self.step);
        let last = self.layers.len() - 1;
        for li in (0..=last).rev() {
            // ReLU derivative for hidden layers (output layer linear).
            if li < last {
                for (d, a) in s.delta.iter_mut().zip(&s.acts[li + 1]) {
                    for l in 0..LANES {
                        if a[l] <= 0.0 {
                            d[l] = 0.0;
                        }
                    }
                }
            }
            let layer = &mut self.layers[li];
            let (n_in, n_out) = (layer.n_in, layer.n_out);
            s.rows.clear();
            for j in 0..n {
                let block = &s.acts[li][j / LANES * n_in..][..n_in];
                s.rows.extend(block.iter().map(|unit| unit[j % LANES]));
            }
            s.dt.clear();
            for o in 0..n_out {
                s.dt.extend((0..n).map(|j| [s.delta[j / LANES * n_out + o][j % LANES]; 2]));
            }
            s.gw.resize(layer.w.len(), 0.0);
            s.gb.resize(layer.b.len(), 0.0);
            layer.grads(&s.rows, &s.dt, n, scale, &mut s.gw, &mut s.gb);
            // The input layer's dL/dx has no consumer.
            if li > 0 {
                s.dx.resize(nb * n_in, [0.0; LANES]);
                layer.input_grads(&s.delta, &mut s.dx, nb);
                std::mem::swap(&mut s.delta, &mut s.dx);
            }
            layer.adam_step(&s.gw, &s.gb, &adam);
        }
    }
}

fn softmax_inplace(v: &mut [f64]) {
    let m = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut z = 0.0;
    for x in v.iter_mut() {
        *x = (*x - m).exp();
        z += *x;
    }
    for x in v.iter_mut() {
        *x /= z;
    }
}

/// MLP classifier (softmax cross-entropy head).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpClassifier {
    /// Hyper-parameters.
    pub params: MlpParams,
    net: Option<Net>,
    n_classes: usize,
}

impl MlpClassifier {
    /// New classifier with the given parameters.
    pub fn new(params: MlpParams) -> Self {
        Self {
            params,
            net: None,
            n_classes: 0,
        }
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.n_rows(), y.len());
        self.n_classes = n_classes;
        let mut net = Net::new(x.n_cols(), &self.params.hidden, n_classes, self.params.seed);
        let n = x.n_rows();
        if n > 0 {
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xabcd);
            let mut scratch = Scratch::default();
            for _ in 0..self.params.epochs {
                order.shuffle(&mut rng);
                for batch in order.chunks(self.params.batch_size.max(1)) {
                    net.train_batch(
                        x,
                        batch,
                        self.params.learning_rate,
                        self.params.weight_decay,
                        &mut scratch,
                        |i, out, p| {
                            // dCE/dlogits = softmax(out) - onehot(y).
                            p.copy_from_slice(out);
                            softmax_inplace(p);
                            p[y[i]] -= 1.0;
                        },
                    );
                }
            }
        }
        self.net = Some(net);
    }

    fn predict_one(&self, row: &[f64]) -> usize {
        let out = self.net.as_ref().expect("fit before predict").output(row);
        out.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn predict_proba_one(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut out = self.net.as_ref().expect("fit before predict").output(row);
        softmax_inplace(&mut out);
        out.resize(n_classes, 0.0);
        out
    }
}

/// MLP regressor (linear head, MSE loss).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpRegressor {
    /// Hyper-parameters.
    pub params: MlpParams,
    net: Option<Net>,
    /// Target standardization (fit on train targets for stable optimization).
    y_mean: f64,
    y_std: f64,
}

impl MlpRegressor {
    /// New regressor with the given parameters.
    pub fn new(params: MlpParams) -> Self {
        Self {
            params,
            net: None,
            y_mean: 0.0,
            y_std: 1.0,
        }
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &FeatureMatrix, y: &[f64]) {
        assert_eq!(x.n_rows(), y.len());
        let n = x.n_rows();
        self.y_mean = if n == 0 {
            0.0
        } else {
            y.iter().sum::<f64>() / n as f64
        };
        let var = if n == 0 {
            1.0
        } else {
            y.iter().map(|v| (v - self.y_mean).powi(2)).sum::<f64>() / n as f64
        };
        self.y_std = var.sqrt().max(1e-9);
        let yy: Vec<f64> = y.iter().map(|v| (v - self.y_mean) / self.y_std).collect();

        let mut net = Net::new(x.n_cols(), &self.params.hidden, 1, self.params.seed);
        if n > 0 {
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xbeef);
            let mut scratch = Scratch::default();
            for _ in 0..self.params.epochs {
                order.shuffle(&mut rng);
                for batch in order.chunks(self.params.batch_size.max(1)) {
                    net.train_batch(
                        x,
                        batch,
                        self.params.learning_rate,
                        self.params.weight_decay,
                        &mut scratch,
                        |i, out, g| g[0] = 2.0 * (out[0] - yy[i]),
                    );
                }
            }
        }
        self.net = Some(net);
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        let out = self.net.as_ref().expect("fit before predict").output(row);
        out[0] * self.y_std + self.y_mean
    }

    fn predict(&self, x: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.n_rows());
        self.predict_with(x, &mut Scratch::default(), |y| out.push(y));
        out
    }
}

impl MlpRegressor {
    /// [`Regressor::predict`] through caller-owned scratch, so an
    /// ensemble runs all its members on one set of buffers; `emit` gets
    /// each row's prediction in row order.
    pub(crate) fn predict_with(
        &self,
        x: &FeatureMatrix,
        s: &mut Scratch,
        mut emit: impl FnMut(f64),
    ) {
        let net = self.net.as_ref().expect("fit before predict");
        net.predict(x, s, |out| emit(out[0] * self.y_std + self.y_mean));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use proptest::prelude::*;

    fn small_params() -> MlpParams {
        MlpParams {
            hidden: vec![16, 8],
            epochs: 120,
            learning_rate: 5e-3,
            ..MlpParams::default()
        }
    }

    fn blobs() -> (FeatureMatrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for c in 0..3usize {
            let (cx, cy) = [(0.0, 0.0), (3.0, 3.0), (0.0, 3.0)][c];
            for i in 0..25 {
                let dx = ((i * 29 + c * 13) % 20) as f64 / 20.0 - 0.5;
                let dy = ((i * 43 + c * 17) % 20) as f64 / 20.0 - 0.5;
                rows.push(vec![cx + dx, cy + dy]);
                y.push(c);
            }
        }
        (FeatureMatrix::from_rows(&rows), y)
    }

    #[test]
    fn classifier_separates_blobs() {
        let (x, y) = blobs();
        let mut m = MlpClassifier::new(small_params());
        m.fit(&x, &y, 3);
        assert!(accuracy(&m.predict(&x), &y) > 0.95);
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let (x, y) = blobs();
        let mut m = MlpClassifier::new(small_params());
        m.fit(&x, &y, 3);
        let p = m.predict_proba_one(x.row(0), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (x, y) = blobs();
        let mut a = MlpClassifier::new(small_params());
        a.fit(&x, &y, 3);
        let mut b = MlpClassifier::new(small_params());
        b.fit(&x, &y, 3);
        assert_eq!(a.predict(&x), b.predict(&x));
        let mut c = MlpClassifier::new(MlpParams {
            seed: 99,
            ..small_params()
        });
        c.fit(&x, &y, 3);
        // Different seed may or may not change predictions, but must run.
        let _ = c.predict(&x);
    }

    #[test]
    fn regressor_fits_linear_function() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let mut m = MlpRegressor::new(small_params());
        m.fit(&x, &y);
        let pred = m.predict(&x);
        let rme: f64 = pred
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs() / t.abs().max(0.5))
            .sum::<f64>()
            / y.len() as f64;
        assert!(rme < 0.15, "rme = {rme}");
    }

    #[test]
    fn regressor_standardizes_targets() {
        // Huge-scale targets should not break optimization.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| 1e6 + 1e4 * i as f64).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let mut m = MlpRegressor::new(small_params());
        m.fit(&x, &y);
        let p = m.predict_one(&[20.0]);
        assert!((p - 1.2e6).abs() < 1e5, "p = {p}");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every learned and optimizer value of two nets, compared by bits.
    fn same_state(a: &Net, b: &Net) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.step, b.step);
        for (k, (la, lb)) in a.layers.iter().zip(&b.layers).enumerate() {
            for (name, va, vb) in [
                ("w", &la.w, &lb.w),
                ("b", &la.b, &lb.b),
                ("mw", &la.mw, &lb.mw),
                ("vw", &la.vw, &lb.vw),
                ("mb", &la.mb, &lb.mb),
                ("vb", &la.vb, &lb.vb),
            ] {
                prop_assert_eq!(bits(va), bits(vb), "layer {} {} differs", k, name);
            }
        }
        Ok(())
    }

    /// A seeded net of the given shape. With `dead`, every third hidden
    /// unit gets all-zero weights (its sums are signed zeros, so the
    /// `-0.0` start and `max(0.0)` decide its bits) and every fifth a bias
    /// far below zero (a dead unit whose gradient is masked).
    fn edge_net(n_in: usize, hidden: &[usize], n_out: usize, seed: u64, dead: bool) -> Net {
        let mut net = Net::new(n_in, hidden, n_out, seed);
        let last = net.layers.len() - 1;
        if dead {
            for layer in &mut net.layers[..last] {
                for o in 0..layer.n_out {
                    if o % 3 == 0 {
                        layer.w[o * layer.n_in..(o + 1) * layer.n_in].fill(0.0);
                    } else if o % 5 == 1 {
                        layer.b[o] = -1e3;
                    }
                }
            }
        }
        net
    }

    /// Rows with exact (signed) zeros among the values.
    fn edge_rows(n: usize, d: usize, seed: u64) -> FeatureMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..n * d)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen::<f64>() * 6.0 - 3.0,
            })
            .collect();
        FeatureMatrix::from_flat(data, n, d)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The batched kernel reproduces the per-sample oracle to the bit:
        /// predictions (batched and single-row), and weights, biases and
        /// Adam moments after several epochs of mini-batches, for the
        /// regression and the softmax head, including a last partial
        /// batch, partial lane blocks, and late steps where Adam's first
        /// bias correction is exactly 1.
        #[test]
        fn kernel_matches_the_per_sample_oracle_bit_for_bit(
            (shape, h1, h2) in (0usize..5, 1usize..24, 0usize..12),
            (n_in, n_classes, n_rows) in (1usize..16, 2usize..7, 1usize..40),
            batch in 1usize..=17,
            (epochs, seed, dead, classify, late) in
                (1usize..3, 0u64..1_000, 0u32..2, 0u32..2, 0u32..2),
        ) {
            let (n_in, hidden) = match shape {
                0 => (13, vec![96, 48, 16]),
                1 => (13, vec![12, 6]),
                2 => (13, vec![16, 8]),
                3 => (n_in, vec![h1]),
                _ => (n_in, if h2 == 0 { vec![h1] } else { vec![h1, h2] }),
            };
            let classify = classify == 1;
            let n_out = if classify { n_classes } else { 1 };
            let x = edge_rows(n_rows, n_in, seed);
            let y: Vec<usize> = (0..n_rows).map(|i| (i * 7 + seed as usize) % n_out).collect();
            let t: Vec<f64> = (0..n_rows).map(|i| (i as f64 * 0.37).sin()).collect();

            let mut oracle = edge_net(n_in, &hidden, n_out, seed, dead == 1);
            if late == 1 {
                oracle.step = 400;
            }
            let mut kernel = oracle.clone();
            let mut scratch = Scratch::default();
            let mut order: Vec<usize> = (0..n_rows).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
            for _ in 0..epochs {
                order.shuffle(&mut rng);
                for chunk in order.chunks(batch) {
                    if classify {
                        oracle.oracle_train_batch(&x, chunk, 5e-3, 1e-5, |i, out| {
                            let mut p = out.to_vec();
                            softmax_inplace(&mut p);
                            p[y[i]] -= 1.0;
                            p
                        });
                        kernel.train_batch(&x, chunk, 5e-3, 1e-5, &mut scratch, |i, out, p| {
                            p.copy_from_slice(out);
                            softmax_inplace(p);
                            p[y[i]] -= 1.0;
                        });
                    } else {
                        oracle.oracle_train_batch(&x, chunk, 5e-3, 1e-5, |i, out| {
                            vec![2.0 * (out[0] - t[i])]
                        });
                        kernel.train_batch(&x, chunk, 5e-3, 1e-5, &mut scratch, |i, out, g| {
                            g[0] = 2.0 * (out[0] - t[i]);
                        });
                    }
                    same_state(&oracle, &kernel)?;
                }
            }

            let mut batched = Vec::new();
            kernel.predict(&x, &mut scratch, |out| batched.push(bits(out)));
            prop_assert_eq!(batched.len(), n_rows);
            for (i, got) in batched.iter().enumerate() {
                let want = bits(&oracle.oracle_output(x.row(i)));
                prop_assert_eq!(got, &want, "batched prediction of row {}", i);
                prop_assert_eq!(bits(&kernel.output(x.row(i))), want, "single-row prediction {}", i);
            }
        }
    }

    #[test]
    fn an_all_negative_zero_sum_keeps_its_sign() {
        // Every product is -0.0 and so is the bias: the per-sample sum
        // starts at -0.0 and returns -0.0, which a +0.0 start would turn
        // into +0.0.
        let mut net = Net::new(3, &[], 1, 7);
        net.layers[0].w.fill(0.0);
        net.layers[0].b[0] = -0.0;
        let row = [-1.0, -2.0, -0.5];
        let want = net.oracle_output(&row);
        assert_eq!(bits(&want), bits(&[-0.0]));
        assert_eq!(bits(&net.output(&row)), bits(&want));
    }

    #[test]
    fn paper_architecture_is_default() {
        assert_eq!(MlpParams::default().hidden, vec![96, 48, 16]);
        assert_eq!(MlpParams::default().batch_size, 16);
    }
}
