//! Deterministic fault-injection harness for the deployment path.
//!
//! The paper's own corpus drops matrices that "failed to execute for one or
//! more storage formats" — failure is a first-class outcome of SpMV format
//! selection, so every failure path in this pipeline must be exercisable on
//! demand. A [`FaultPlan`] is a seed-derived schedule of injected failures
//! at named [`FaultSite`]s; whether a given (site, key) pair fails is a pure
//! function of `(seed, site, key)`, so an injected-fault run is exactly
//! reproducible and a `FaultPlan::none()` run is byte-identical to a run
//! with no harness at all.
//!
//! Injection points (the "fault matrix" the CI job sweeps):
//!
//! | site | injected where | degraded behaviour |
//! |---|---|---|
//! | `MmParse` | [`read_matrix_market_file_with`] | typed [`MatrixError::Parse`] |
//! | `Conversion` | label collection, per (matrix, format) | failure cell recorded, corpus stays usable |
//! | `Measurement` | label collection, per (matrix, format, env) | failure cell recorded |
//! | `FeatureExtraction` | label collection + advisor | zeroed features + failure cell / heuristic fallback |
//! | `WorkerPanic` | label-collection worker body | panic contained, failed record, no poisoned lock |
//! | `ModelLoad` | [`crate::FormatAdvisor::load_with`] | typed [`crate::advisor::ArtifactError`] |

use std::path::Path;

use spmv_matrix::{mm, CooMatrix, MatrixError, Scalar};

/// A named place in the pipeline where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// MatrixMarket parsing of an input file.
    MmParse,
    /// Format conversion during label collection (the `PaddingOverflow`
    /// class of failures).
    Conversion,
    /// A simulated-measurement error for one (matrix, format, env) cell.
    Measurement,
    /// Feature extraction on a (simulated) degenerate matrix.
    FeatureExtraction,
    /// A panic inside a parallel label-collection worker.
    WorkerPanic,
    /// Deserialization of a saved model artifact.
    ModelLoad,
}

impl FaultSite {
    /// Every site, in pipeline order — the rows of the fault matrix.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::MmParse,
        FaultSite::Conversion,
        FaultSite::Measurement,
        FaultSite::FeatureExtraction,
        FaultSite::WorkerPanic,
        FaultSite::ModelLoad,
    ];

    /// Stable label (also the hash-domain separator).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::MmParse => "mm-parse",
            FaultSite::Conversion => "conversion",
            FaultSite::Measurement => "measurement",
            FaultSite::FeatureExtraction => "feature-extraction",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::ModelLoad => "model-load",
        }
    }

    /// Static observability counter bumped each time this site injects a
    /// fault. Static (a `match`, not a `format!`) so the fault decision
    /// path never allocates while tracing is disabled.
    pub fn counter_name(self) -> &'static str {
        match self {
            FaultSite::MmParse => "faults.injected.mm-parse",
            FaultSite::Conversion => "faults.injected.conversion",
            FaultSite::Measurement => "faults.injected.measurement",
            FaultSite::FeatureExtraction => "faults.injected.feature-extraction",
            FaultSite::WorkerPanic => "faults.injected.worker-panic",
            FaultSite::ModelLoad => "faults.injected.model-load",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// FNV-1a over byte chunks with a separator between chunks, so
/// `("ab", "c")` and `("a", "bc")` hash differently.
pub(crate) fn fnv1a_64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in *p {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One injection rule: fail a deterministic `rate` fraction of keys at
/// `site`.
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    site: FaultSite,
    rate: f64,
}

/// A deterministic schedule of injected failures.
///
/// Whether `(site, key)` fails is decided by hashing `(seed, site, key)`
/// to a point in `[0, 1)` and comparing against the site's rate, so the
/// same plan always injects the same faults, independent of thread count,
/// iteration order, or wall clock.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, everywhere. Running any pipeline
    /// entry point with this plan is byte-identical to the plain entry
    /// point.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rules: Vec::new(),
        }
    }

    /// An empty plan carrying `seed`; add rules with [`FaultPlan::inject`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a rule failing a deterministic `rate` fraction (clamped to
    /// `[0, 1]`) of keys at `site`.
    pub fn inject(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rules.push(FaultRule {
            site,
            rate: rate.clamp(0.0, 1.0),
        });
        self
    }

    /// Convenience: a plan that fails *every* key at `site`.
    pub fn always(site: FaultSite) -> FaultPlan {
        FaultPlan::new(0).inject(site, 1.0)
    }

    /// Whether the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Deterministically decide whether `(site, key)` fails under this
    /// plan.
    pub fn should_fail(&self, site: FaultSite, key: &str) -> bool {
        let rate: f64 = self
            .rules
            .iter()
            .filter(|r| r.site == site)
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            spmv_observe::counter(site.counter_name(), 1);
            return true;
        }
        let h = fnv1a_64(&[
            &self.seed.to_le_bytes(),
            site.label().as_bytes(),
            key.as_bytes(),
        ]);
        // FNV-1a's high bits avalanche poorly on short inputs (nearby
        // seeds can produce identical schedules), so finalize with the
        // murmur3 mixer before drawing the uniform from the top 53 bits.
        let mut x = h;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let fail = u < rate;
        if fail {
            spmv_observe::counter(site.counter_name(), 1);
        }
        fail
    }

    /// The reason an injected fault at `site` records for the key `key`
    /// builds, if this plan fails that key. A plan without rules builds
    /// no key, so a fault-free run formats nothing.
    pub(crate) fn injected(&self, site: FaultSite, key: impl FnOnce() -> String) -> Option<String> {
        if self.is_empty() {
            return None;
        }
        let key = key();
        self.should_fail(site, &key)
            .then(|| FaultPlan::reason(site, &key))
    }

    /// The canonical reason string recorded for an injected fault, so
    /// injected-failure artifacts are deterministic and greppable.
    pub fn reason(site: FaultSite, key: &str) -> String {
        format!("injected fault at {site}: {key}")
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// [`mm::read_matrix_market_file`] behind the [`FaultSite::MmParse`]
/// injection point (keyed by the file name).
pub fn read_matrix_market_file_with<T: Scalar>(
    path: &Path,
    plan: &FaultPlan,
) -> spmv_matrix::Result<CooMatrix<T>> {
    let key = path.display().to_string();
    if plan.should_fail(FaultSite::MmParse, &key) {
        return Err(MatrixError::Parse {
            line: 0,
            msg: FaultPlan::reason(FaultSite::MmParse, &key),
        });
    }
    mm::read_matrix_market_file(path)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let plan = FaultPlan::none();
        for site in FaultSite::ALL {
            for key in ["a", "b", "matrix-17"] {
                assert!(!plan.should_fail(site, key));
            }
        }
        assert!(plan.is_empty());
    }

    #[test]
    fn full_rate_always_fails_and_only_at_its_site() {
        let plan = FaultPlan::always(FaultSite::Conversion);
        assert!(plan.should_fail(FaultSite::Conversion, "anything"));
        assert!(!plan.should_fail(FaultSite::Measurement, "anything"));
        assert!(!plan.is_empty());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(7).inject(FaultSite::WorkerPanic, 0.5);
        let b = FaultPlan::new(7).inject(FaultSite::WorkerPanic, 0.5);
        let c = FaultPlan::new(8).inject(FaultSite::WorkerPanic, 0.5);
        let keys: Vec<String> = (0..64).map(|i| format!("m{i}")).collect();
        let fa: Vec<bool> = keys
            .iter()
            .map(|k| a.should_fail(FaultSite::WorkerPanic, k))
            .collect();
        let fb: Vec<bool> = keys
            .iter()
            .map(|k| b.should_fail(FaultSite::WorkerPanic, k))
            .collect();
        let fc: Vec<bool> = keys
            .iter()
            .map(|k| c.should_fail(FaultSite::WorkerPanic, k))
            .collect();
        assert_eq!(fa, fb, "same seed, same decisions");
        assert_ne!(fa, fc, "different seed, different schedule");
        let hits = fa.iter().filter(|&&x| x).count();
        assert!(hits > 8 && hits < 56, "rate 0.5 lands near half: {hits}");
    }

    #[test]
    fn rate_is_monotone_in_keys_hit() {
        let lo = FaultPlan::new(3).inject(FaultSite::Measurement, 0.1);
        let hi = FaultPlan::new(3).inject(FaultSite::Measurement, 0.9);
        let keys: Vec<String> = (0..128).map(|i| format!("k{i}")).collect();
        let n_lo = keys
            .iter()
            .filter(|k| lo.should_fail(FaultSite::Measurement, k))
            .count();
        let n_hi = keys
            .iter()
            .filter(|k| hi.should_fail(FaultSite::Measurement, k))
            .count();
        assert!(n_lo < n_hi, "{n_lo} vs {n_hi}");
        // Same key set, higher rate ⇒ superset of failures.
        for k in &keys {
            if lo.should_fail(FaultSite::Measurement, k) {
                assert!(hi.should_fail(FaultSite::Measurement, k));
            }
        }
    }

    #[test]
    fn injected_mm_parse_fault_is_a_typed_error() {
        let plan = FaultPlan::always(FaultSite::MmParse);
        let err = read_matrix_market_file_with::<f64>(Path::new("/no/such.mtx"), &plan)
            .expect_err("injected");
        match err {
            MatrixError::Parse { msg, .. } => assert!(msg.contains("injected fault")),
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn site_labels_are_stable() {
        let labels: Vec<&str> = FaultSite::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "mm-parse",
                "conversion",
                "measurement",
                "feature-extraction",
                "worker-panic",
                "model-load"
            ]
        );
    }
}
