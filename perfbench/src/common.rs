//! Shared set-up: the checkout, the temporary directory, the advisor
//! artifact, resource readings and trace-manifest parsing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;
use spmv_core::{Env, FormatAdvisor, LabeledCorpus, SearchBudget};
use spmv_matrix::Precision;

/// The checkout the benchmark runs in, plus a private scratch directory
/// (removed on drop).
pub struct Ctx {
    pub root: PathBuf,
    pub tmp: PathBuf,
}

impl Ctx {
    /// Check that the working directory is a repository checkout and
    /// create the scratch directory.
    pub fn open() -> Result<Ctx, String> {
        let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        for needed in ["Cargo.toml", "crates/serve", "results/labels_tiny.json"] {
            if !root.join(needed).exists() {
                return Err(format!(
                    "{needed} not found: run from the root of a repository checkout"
                ));
            }
        }
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let tmp = root
            .join(".bench_tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
        Ok(Ctx { root, tmp })
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still owns a sibling directory.
        let _ = std::fs::remove_dir(self.root.join(".bench_tmp"));
    }
}

/// The machine's parallelism: the most threads a workload may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-independent fingerprint of every file under `dir`: path, length
/// and an FNV-1a hash of the contents.
pub fn fingerprint_dir(dir: &Path) -> BTreeMap<PathBuf, (u64, u64)> {
    fn walk(dir: &Path, out: &mut BTreeMap<PathBuf, (u64, u64)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if let Ok(bytes) = std::fs::read(&path) {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in &bytes {
                    h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
                }
                out.insert(path, (bytes.len() as u64, h));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, &mut out);
    out
}

/// Seeded splitmix64 stream for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_0dd5_1ce5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The environment the CLI-default advisor targets: P100, double.
pub const ADVISOR_ENV: Env = Env {
    arch_idx: 1,
    precision: Precision::Double,
};

/// Train the advisor on the committed Tiny labels and save the artifact
/// to `path`. Returns the training time in seconds.
pub fn train_artifact(ctx: &Ctx, path: &Path) -> Result<f64, String> {
    let labels = ctx.root.join("results/labels_tiny.json");
    let corpus = LabeledCorpus::load(&labels).map_err(|e| format!("{}: {e}", labels.display()))?;
    let start = Instant::now();
    let advisor = FormatAdvisor::train(&corpus, ADVISOR_ENV, SearchBudget::Quick);
    let train_s = start.elapsed().as_secs_f64();
    advisor
        .save(path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    Ok(train_s)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Counters and span totals read back from an `spmv-observe` manifest.
pub struct Manifest {
    pub counters: BTreeMap<String, u64>,
    /// Span path → (count, total_ns).
    pub spans: BTreeMap<String, (u64, u64)>,
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let v = serde_json::parse_value(text).map_err(|e| format!("manifest: {e}"))?;
        let section = |path: [&str; 2]| {
            field(&v, path[0])
                .and_then(|s| field(s, path[1]))
                .and_then(Value::as_map)
                .ok_or_else(|| format!("manifest without {}.{}", path[0], path[1]))
        };
        let as_u64 = |v: Option<&Value>| v.and_then(number).unwrap_or(0.0) as u64;
        let counters = section(["deterministic", "counters"])?
            .iter()
            .map(|(k, c)| (k.clone(), as_u64(Some(c))))
            .collect();
        let spans = section(["timing", "spans"])?
            .iter()
            .map(|(k, s)| {
                let get = |f: &str| as_u64(field(s, f));
                (k.clone(), (get("count"), get("total_ns")))
            })
            .collect();
        Ok(Manifest { counters, spans })
    }

    /// Write the in-process tracer's manifest to `path` and read it back.
    pub fn write_and_read(path: &Path) -> Result<Manifest, String> {
        spmv_observe::write_manifest(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::parse(&text)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn span_total_ns(&self, path: &str) -> f64 {
        self.spans.get(path).map_or(0.0, |s| s.1 as f64)
    }

    pub fn span_count(&self, path: &str) -> u64 {
        self.spans.get(path).map_or(0, |s| s.0)
    }

    /// Mean duration of one `path` span, in microseconds.
    pub fn span_mean_us(&self, path: &str) -> f64 {
        self.span_total_ns(path) / self.span_count(path).max(1) as f64 / 1e3
    }

    /// Self time of `path`: its total minus the totals of its direct
    /// children (`path/<name>` with no further `/`), in nanoseconds.
    pub fn self_ns(&self, path: &str) -> f64 {
        let prefix = format!("{path}/");
        let children: f64 = self
            .spans
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, s)| s.1 as f64)
            .sum();
        self.span_total_ns(path) - children
    }
}

/// Run `setup` `reps` times and return the last result with the median
/// wall time of one set-up.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Release the previous set-up first, so repeating it does not
        // raise the peak memory the run reports.
        drop(last.take());
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, crate::report::median(&times), times.len()))
}
