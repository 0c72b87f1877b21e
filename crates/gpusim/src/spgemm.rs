//! SpGEMM dataflow cost models: a new profile shape, not a
//! [`KernelProfile`] transform.
//!
//! SpMV's operation variants (SpMM, solver) rescale the counts of one
//! sparse-times-dense product, so they share `KernelProfile`. SpGEMM does
//! not: its cost is governed by the *output* structure — how many partial
//! products each row accumulates and how far they compress — which only
//! the symbolic pass ([`SpgemmSymbolic`]) can see. [`SpgemmProfile`]
//! therefore distills that pass once per matrix, and each [`Dataflow`]'s
//! `predict` composes its own roofline from those estimates: hash-probe
//! and accumulator-spill terms for row-wise Gustavson with a hash
//! accumulator, dense-accumulator reset/thrash terms for the dense
//! variant, expand/sort/compress traffic for ESC, and the
//! output-space-scaled pair enumeration of inner-product.
//!
//! The composition deliberately echoes [`crate::timing::predict`]:
//! `total = launch + (peak + 0.3·rest)·imbalance + atomic`, the same
//! occupancy clamp, fp64 penalty, and overlap leak — so dataflow times
//! and format times are comparable artifacts of one timing discipline.
//!
//! [`KernelProfile`]: crate::profile::KernelProfile

use spmv_matrix::{Precision, SpgemmSymbolic};

use crate::arch::GpuArch;

/// Number of modeled dataflows (the class-label universe of the dataflow
/// advisor; occupies slots `0..N_DATAFLOWS` of a label record's cells).
pub const N_DATAFLOWS: usize = 4;

/// Dataflow-feature block width (see
/// [`SpgemmProfile::dataflow_features`]); the features crate names each
/// slot for `--model-info` and importance tables.
pub const N_DATAFLOW_FEATURES: usize = 8;

/// Per-dataflow cost coefficients, in the same "lane-slot" units as
/// [`crate::profile::cost`].
pub mod dataflow_cost {
    /// Slots per partial product for the multiply-accumulate itself.
    pub const MAC: f64 = 1.0;
    /// Base slots per partial product for a shared-memory hash probe
    /// (hash, bank-conflicted lookup, CAS insert).
    pub const HASH_PROBE: f64 = 1.5;
    /// Extra probe slots per unit hash-table load factor (clustered
    /// probes lengthen as the table fills).
    pub const HASH_LOAD: f64 = 0.8;
    /// Shared-memory hash-table capacity in entries (per-row table; rows
    /// whose output exceeds it spill to a global fallback).
    pub const HASH_SMEM_ENTRIES: f64 = 2048.0;
    /// Global-memory round trips charged per spilled output entry.
    pub const HASH_SPILL_TRIPS: f64 = 2.0;
    /// Slots per partial product for a dense-accumulator update (direct
    /// index, no probe).
    pub const DENSE_ACC: f64 = 0.4;
    /// Bytes per output-row *column* charged for resetting the dense
    /// accumulator between rows (bitmask clear, amortized).
    pub const DENSE_RESET_BYTES: f64 = 0.125;
    /// Slots per partial product per sort round in ESC's key sort.
    pub const SORT_SLOT: f64 = 0.6;
    /// Slots per candidate output pair enumerated by inner-product.
    pub const INNER_PAIR: f64 = 0.5;
    /// Per-row launch/bookkeeping slots for the row-wise dataflows.
    pub const ROW_OVERHEAD: f64 = 24.0;
}

/// The four SpGEMM dataflows the advisor selects between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Dataflow {
    /// Row-wise Gustavson with a per-row shared-memory hash accumulator.
    GustavsonHash,
    /// Row-wise Gustavson with a dense (one-slot-per-column) accumulator.
    GustavsonDense,
    /// Expand–sort–compress: materialize every partial product, sort by
    /// (row, col) key, segmented-reduce duplicates.
    Esc,
    /// Inner-product: one dot product per candidate output entry.
    InnerProduct,
}

impl Dataflow {
    /// All dataflows in class-id order.
    pub const ALL: [Dataflow; N_DATAFLOWS] = [
        Dataflow::GustavsonHash,
        Dataflow::GustavsonDense,
        Dataflow::Esc,
        Dataflow::InnerProduct,
    ];

    /// Stable class index (`0..N_DATAFLOWS`), the advisor's label space.
    pub fn class_id(self) -> usize {
        match self {
            Dataflow::GustavsonHash => 0,
            Dataflow::GustavsonDense => 1,
            Dataflow::Esc => 2,
            Dataflow::InnerProduct => 3,
        }
    }

    /// Short stable label, used in fault keys and report tables.
    pub fn label(self) -> &'static str {
        match self {
            Dataflow::GustavsonHash => "gust-hash",
            Dataflow::GustavsonDense => "gust-dense",
            Dataflow::Esc => "esc",
            Dataflow::InnerProduct => "inner",
        }
    }

    /// Inverse of [`Dataflow::label`].
    pub fn parse(s: &str) -> Option<Dataflow> {
        Dataflow::ALL.into_iter().find(|d| d.label() == s)
    }
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Architecture-independent profile of one SpGEMM, distilled from the
/// symbolic pass. Timing for any `(dataflow, arch, precision)` triple is
/// then O(1), exactly like [`crate::profile::KernelProfile`]'s contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpgemmProfile {
    /// Output rows.
    pub n_rows: usize,
    /// Output columns.
    pub n_cols_out: usize,
    /// Stored non-zeros of `A`.
    pub a_nnz: usize,
    /// Exact total multiply-add pairs.
    pub flops_total: f64,
    /// Mean multiply-add pairs per output row.
    pub flops_mean: f64,
    /// Population sigma of the per-row flop counts.
    pub flops_sigma: f64,
    /// Heaviest output row's flop count.
    pub flops_max: f64,
    /// Exact upper bound on `nnz(C)`.
    pub ub_total: f64,
    /// Sampled compression estimate (`flops / nnz(C)`, >= 1).
    pub compression: f64,
    /// Sampled upper-bound tightness (`nnz / ub` on the sample, in [0,1]).
    pub tightness: f64,
    /// Ratio-estimated `nnz(C)`, clamped by the exact upper bound.
    pub est_nnz: f64,
}

/// Bytes of one stored value at `prec`.
fn value_bytes(prec: Precision) -> f64 {
    match prec {
        Precision::Single => 4.0,
        Precision::Double => 8.0,
    }
}

impl SpgemmProfile {
    /// Distill a symbolic summary (plus `nnz(A)`) into the profile.
    pub fn of_symbolic(sym: &SpgemmSymbolic, a_nnz: usize) -> SpgemmProfile {
        SpgemmProfile {
            n_rows: sym.n_rows,
            n_cols_out: sym.n_cols_out,
            a_nnz,
            flops_total: sym.flops_total,
            flops_mean: sym.flops_mean,
            flops_sigma: sym.flops_sigma,
            flops_max: sym.flops_max,
            ub_total: sym.ub_total,
            compression: sym.compression(),
            tightness: sym.tightness(),
            est_nnz: sym.est_nnz(),
        }
    }

    /// Useful floating-point work (`2 * flops_total`: multiply + add).
    pub fn flops(&self) -> f64 {
        2.0 * self.flops_total
    }

    /// Mean stored entries per output row (>= 0).
    fn mean_out(&self) -> f64 {
        self.est_nnz / self.n_rows.max(1) as f64
    }

    /// Row-skew imbalance derate for the row-wise dataflows, same clamp
    /// as warp-per-row CSR's block-straggler model.
    fn row_imbalance(&self) -> f64 {
        if self.flops_mean > 0.0 {
            (self.flops_max / self.flops_mean).sqrt().clamp(1.0, 16.0)
        } else {
            1.0
        }
    }

    /// The dataflow-feature block the ML advisor consumes: the row-flop
    /// distribution (log-compressed totals, skew ratios), the sampled
    /// compression and upper-bound tightness, and the estimated output
    /// size and density. Order matches the names in the features crate.
    pub fn dataflow_features(&self) -> [f64; N_DATAFLOW_FEATURES] {
        let mean1 = self.flops_mean + 1.0;
        let out_space = (self.n_rows as f64 * self.n_cols_out as f64).max(1.0);
        [
            (1.0 + self.flops_total).log2(),
            (1.0 + self.flops_mean).log2(),
            self.flops_sigma / mean1,
            self.flops_max / mean1,
            self.compression,
            self.tightness,
            (1.0 + self.est_nnz).log2(),
            (self.ub_total / out_space).clamp(0.0, 1.0),
        ]
    }

    /// Predicted time of this SpGEMM under `dataflow` on `arch` at `prec`.
    pub fn predict_seconds(&self, dataflow: Dataflow, arch: &GpuArch, prec: Precision) -> f64 {
        use dataflow_cost as c;
        let double = prec == Precision::Double;
        let vb = value_bytes(prec);
        let rows = self.n_rows as f64;
        let cols_out = self.n_cols_out as f64;

        // Traffic every dataflow pays: A streamed once, B's rows streamed
        // per partial product (the gather), C written once.
        let a_bytes = (rows + 1.0) * 4.0 + self.a_nnz as f64 * (4.0 + vb);
        let b_bytes = self.flops_total * (4.0 + vb);
        let c_bytes = self.est_nnz * (4.0 + vb);

        let (lane_work, dram_bytes, l2_bytes, parallel, critical, imbalance, launches, atomics) =
            match dataflow {
                Dataflow::GustavsonHash => {
                    // Probe cost grows with the table's load factor; rows
                    // whose output exceeds the shared-memory table spill
                    // to a global fallback (extra round trips per entry).
                    let load = (self.mean_out() / c::HASH_SMEM_ENTRIES).min(4.0);
                    let probe = c::HASH_PROBE + c::HASH_LOAD * load;
                    let spill_rows = (self.mean_out() / c::HASH_SMEM_ENTRIES - 1.0).max(0.0);
                    let spill_bytes = spill_rows * c::HASH_SPILL_TRIPS * c_bytes;
                    (
                        self.flops_total * (c::MAC + probe) + rows * c::ROW_OVERHEAD,
                        a_bytes + b_bytes + c_bytes + spill_bytes,
                        a_bytes + b_bytes + c_bytes + spill_bytes,
                        rows * arch.warp_size as f64,
                        (self.flops_max / arch.warp_size as f64).ceil() * 2.0,
                        self.row_imbalance(),
                        2.0, // symbolic upper-bound pass + numeric pass
                        0.0,
                    )
                }
                Dataflow::GustavsonDense => {
                    // Direct-index accumulate, but each active row owns a
                    // dense accumulator: resets cost bytes proportional to
                    // the output width, and the resident accumulators
                    // thrash the L2 when they outgrow the per-SM share.
                    let reset_bytes = rows * cols_out * c::DENSE_RESET_BYTES;
                    let acc_resident = arch.sms as f64 * cols_out * vb;
                    let thrash = (acc_resident / arch.l2_bytes as f64).clamp(1.0, 8.0);
                    (
                        self.flops_total * (c::MAC + c::DENSE_ACC) + rows * c::ROW_OVERHEAD,
                        a_bytes + b_bytes + c_bytes + reset_bytes,
                        (a_bytes + b_bytes + c_bytes + reset_bytes) * thrash,
                        rows * arch.warp_size as f64,
                        (self.flops_max / arch.warp_size as f64).ceil() * 2.0,
                        self.row_imbalance(),
                        1.2,
                        0.0,
                    )
                }
                Dataflow::Esc => {
                    // Every partial product is materialized (key + value),
                    // written and re-read through the sort; the sort itself
                    // is log-rounds over the expanded stream. Perfectly
                    // balanced — the sort redistributes all skew.
                    let expand_bytes = self.flops_total * (8.0 + vb) * 2.0;
                    let sort_rounds = self.flops_total.max(2.0).log2();
                    (
                        self.flops_total * (c::MAC + c::SORT_SLOT * sort_rounds),
                        a_bytes + b_bytes + c_bytes + expand_bytes,
                        a_bytes + b_bytes + c_bytes + expand_bytes,
                        self.flops_total.max(32.0),
                        0.0,
                        1.0,
                        3.0, // expand, sort, compress
                        0.0,
                    )
                }
                Dataflow::InnerProduct => {
                    // One candidate dot product per output cell: the pair
                    // enumeration scales with the whole output space, so
                    // this only wins when the output is nearly dense (then
                    // every probe is useful work and there is no
                    // accumulator machinery at all). A re-streams once per
                    // column tile; charge one extra full A pass.
                    let pairs = rows * cols_out;
                    (
                        pairs * c::INNER_PAIR + self.flops_total * c::MAC,
                        2.0 * a_bytes + b_bytes + c_bytes,
                        2.0 * a_bytes + b_bytes + c_bytes,
                        pairs.max(32.0),
                        0.0,
                        1.0,
                        1.0,
                        0.0,
                    )
                }
            };

        // The shared roofline composition (same shape as timing::predict).
        let saturation = 0.25 * arch.max_resident_threads();
        let util = (parallel / saturation).clamp(0.02, 1.0);
        let fp_penalty = if double {
            0.65 + 0.35 / arch.fp64_derate
        } else {
            1.0
        };
        let compute_s = lane_work * fp_penalty / (arch.lane_rate() * util);
        let dram_s = dram_bytes / (arch.dram_bw_gbs * 1e9);
        let tex = if arch.texture_gather { 1.0 } else { 1.4 };
        let l2_s = l2_bytes * tex / (arch.l2_bw_gbs * 1e9);
        let critical_s = critical * arch.clock_period_s() / arch.ipc_efficiency
            * if double { fp_penalty } else { 1.0 };
        let atomic_s = atomics / (arch.atomics_per_clock * arch.clock_mhz * 1e6);
        let launch_s = launches * arch.launch_us * 1e-6;
        const OVERLAP_LEAK: f64 = 0.3;
        let terms = [compute_s, dram_s, l2_s, critical_s];
        let peak = terms.iter().copied().fold(0.0f64, f64::max);
        let rest: f64 = terms.iter().sum::<f64>() - peak;
        launch_s + (peak + OVERLAP_LEAK * rest) * imbalance + atomic_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{CsrStructure, SpgemmOperand, StructureScratch, TripletBuilder};

    fn profile_of(n: usize, m: usize, per_row: usize, heavy: usize) -> SpgemmProfile {
        let mut b = TripletBuilder::new(n, m);
        let mut state = 0x1234_5678_9abc_def0u64;
        for c in 0..heavy.min(m) {
            b.push_unchecked(0, c as u32, 1.0);
        }
        for r in 1..n {
            for _ in 0..per_row {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b.push(r, (state >> 33) as usize % m, 1.0).ok();
            }
        }
        let csr = b.build().to_csr();
        let view = CsrStructure::from(&csr);
        let sym =
            SpgemmSymbolic::analyze(view, SpgemmOperand::AA, 11, &mut StructureScratch::new());
        SpgemmProfile::of_symbolic(&sym, csr.nnz())
    }

    fn machines() -> [GpuArch; 4] {
        [
            GpuArch::K80C,
            GpuArch::P100,
            GpuArch::MANYCORE_WIDE,
            GpuArch::MANYCORE_FLAT,
        ]
    }

    #[test]
    fn every_dataflow_time_is_positive_finite_and_precision_ordered() {
        for p in [
            profile_of(400, 400, 5, 40),
            profile_of(50, 50, 3, 10),
            profile_of(1000, 200, 8, 0),
        ] {
            for df in Dataflow::ALL {
                for arch in &machines() {
                    let s = p.predict_seconds(df, arch, Precision::Single);
                    let d = p.predict_seconds(df, arch, Precision::Double);
                    assert!(s.is_finite() && s > 0.0, "{df}/{}", arch.name);
                    assert!(d > s, "{df}/{}: double {d} <= single {s}", arch.name);
                }
            }
        }
    }

    #[test]
    fn class_ids_and_labels_are_a_stable_bijection() {
        for (i, df) in Dataflow::ALL.into_iter().enumerate() {
            assert_eq!(df.class_id(), i);
            assert_eq!(Dataflow::parse(df.label()), Some(df));
        }
        assert_eq!(Dataflow::parse("nope"), None);
    }

    #[test]
    fn dense_accumulator_pays_for_wide_sparse_outputs() {
        // A wide output with tiny per-row fill: the dense accumulator's
        // reset traffic dominates and the hash dataflow must win.
        let wide = profile_of(2000, 30_000, 2, 0);
        let t_hash =
            wide.predict_seconds(Dataflow::GustavsonHash, &GpuArch::P100, Precision::Double);
        let t_dense =
            wide.predict_seconds(Dataflow::GustavsonDense, &GpuArch::P100, Precision::Double);
        assert!(t_hash < t_dense, "hash {t_hash} vs dense {t_dense}");
        // A narrow output flips the ordering: resets are cheap and the
        // probe surcharge is pure overhead.
        let narrow = profile_of(3000, 64, 8, 0);
        let t_hash =
            narrow.predict_seconds(Dataflow::GustavsonHash, &GpuArch::P100, Precision::Double);
        let t_dense =
            narrow.predict_seconds(Dataflow::GustavsonDense, &GpuArch::P100, Precision::Double);
        assert!(t_dense < t_hash, "dense {t_dense} vs hash {t_hash}");
    }

    #[test]
    fn esc_tolerates_skew_better_than_row_wise() {
        // One catastrophically heavy row: the row-wise dataflows pay the
        // imbalance derate, ESC does not. Compare the *relative* penalty.
        let skew = profile_of(600, 600, 3, 500);
        let flat = profile_of(600, 600, 3, 0);
        let ratio = |p: &SpgemmProfile, df: Dataflow| {
            p.predict_seconds(df, &GpuArch::P100, Precision::Double)
        };
        let hash_penalty =
            ratio(&skew, Dataflow::GustavsonHash) / ratio(&flat, Dataflow::GustavsonHash);
        let esc_penalty = ratio(&skew, Dataflow::Esc) / ratio(&flat, Dataflow::Esc);
        assert!(
            hash_penalty > esc_penalty,
            "row-wise skew penalty {hash_penalty} must exceed ESC's {esc_penalty}"
        );
    }

    #[test]
    fn inner_product_scales_with_the_output_space() {
        let small_out = profile_of(5000, 40, 4, 0);
        let large_out = profile_of(5000, 100_000, 4, 0);
        let t_small =
            small_out.predict_seconds(Dataflow::InnerProduct, &GpuArch::P100, Precision::Single);
        let t_large =
            large_out.predict_seconds(Dataflow::InnerProduct, &GpuArch::P100, Precision::Single);
        assert!(
            t_large > 5.0 * t_small,
            "pair enumeration must scale with n_rows * n_cols_out: {t_small} vs {t_large}"
        );
    }

    #[test]
    fn feature_block_has_the_documented_width_and_is_finite() {
        let p = profile_of(300, 300, 5, 25);
        let f = p.dataflow_features();
        assert_eq!(f.len(), N_DATAFLOW_FEATURES);
        for (i, v) in f.iter().enumerate() {
            assert!(v.is_finite(), "feature {i} not finite: {v}");
        }
        assert!(f[4] >= 1.0, "compression floored at 1");
        assert!((0.0..=1.0).contains(&f[5]), "tightness in [0,1]");
        assert!((0.0..=1.0).contains(&f[7]), "ub density in [0,1]");
    }
}
