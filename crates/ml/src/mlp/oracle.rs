//! The per-sample forward, backward and Adam code the batched kernel
//! replaced, kept verbatim as the oracle its tests compare against bit
//! for bit.

use super::{Dense, Net};
use crate::data::FeatureMatrix;

impl Dense {
    pub(super) fn oracle_forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.n_out);
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let s: f64 = row.iter().zip(x).map(|(w, v)| w * v).sum();
            out.push(s + self.b[o]);
        }
    }

    /// Accumulate gradients for one sample; returns dL/dx.
    fn oracle_backward(&self, x: &[f64], dout: &[f64], gw: &mut [f64], gb: &mut [f64]) -> Vec<f64> {
        let mut dx = vec![0.0; self.n_in];
        for o in 0..self.n_out {
            let d = dout[o];
            gb[o] += d;
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let grow = &mut gw[o * self.n_in..(o + 1) * self.n_in];
            for i in 0..self.n_in {
                grow[i] += d * x[i];
                dx[i] += d * row[i];
            }
        }
        dx
    }

    #[allow(clippy::too_many_arguments)]
    fn oracle_adam_step(
        &mut self,
        gw: &[f64],
        gb: &[f64],
        lr: f64,
        wd: f64,
        t: usize,
        beta1: f64,
        beta2: f64,
    ) {
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        for (i, w) in self.w.iter_mut().enumerate() {
            let g = gw[i] + wd * *w;
            self.mw[i] = beta1 * self.mw[i] + (1.0 - beta1) * g;
            self.vw[i] = beta2 * self.vw[i] + (1.0 - beta2) * g * g;
            *w -= lr * (self.mw[i] / bc1) / ((self.vw[i] / bc2).sqrt() + 1e-8);
        }
        for (o, b) in self.b.iter_mut().enumerate() {
            let g = gb[o];
            self.mb[o] = beta1 * self.mb[o] + (1.0 - beta1) * g;
            self.vb[o] = beta2 * self.vb[o] + (1.0 - beta2) * g * g;
            *b -= lr * (self.mb[o] / bc1) / ((self.vb[o] / bc2).sqrt() + 1e-8);
        }
    }
}

impl Net {
    /// Forward pass keeping post-activation values per layer (activations[0]
    /// is the input; the final layer output is linear).
    fn oracle_forward_all(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        let mut buf = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.oracle_forward(acts.last().expect("non-empty"), &mut buf);
            if li + 1 < self.layers.len() {
                for v in buf.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(buf.clone());
        }
        acts
    }

    pub(super) fn oracle_output(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut buf = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.oracle_forward(&cur, &mut buf);
            if li + 1 < self.layers.len() {
                for v in buf.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut buf);
        }
        cur
    }

    /// One Adam update from a mini-batch, given a per-sample output-gradient
    /// callback `dloss(sample_idx, output) -> dL/doutput`.
    pub(super) fn oracle_train_batch<F>(
        &mut self,
        x: &FeatureMatrix,
        batch: &[usize],
        lr: f64,
        wd: f64,
        dloss: F,
    ) where
        F: Fn(usize, &[f64]) -> Vec<f64>,
    {
        let mut gws: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gbs: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        for &i in batch {
            let acts = self.oracle_forward_all(x.row(i));
            let out = acts.last().expect("non-empty");
            let mut delta = dloss(i, out);
            for li in (0..self.layers.len()).rev() {
                // ReLU derivative for hidden layers (output layer linear).
                if li + 1 < self.layers.len() {
                    for (d, a) in delta.iter_mut().zip(&acts[li + 1]) {
                        if *a <= 0.0 {
                            *d = 0.0;
                        }
                    }
                }
                delta =
                    self.layers[li].oracle_backward(&acts[li], &delta, &mut gws[li], &mut gbs[li]);
            }
        }
        let scale = 1.0 / batch.len().max(1) as f64;
        for g in gws.iter_mut().flat_map(|v| v.iter_mut()) {
            *g *= scale;
        }
        for g in gbs.iter_mut().flat_map(|v| v.iter_mut()) {
            *g *= scale;
        }
        self.step += 1;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            layer.oracle_adam_step(&gws[li], &gbs[li], lr, wd, self.step, 0.9, 0.999);
        }
    }
}
