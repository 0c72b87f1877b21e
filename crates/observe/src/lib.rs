//! # spmv-observe
//!
//! Zero-dependency, thread-safe instrumentation for the SpMV pipeline:
//! spans, counters, and run manifests (DESIGN.md §4g).
//!
//! The layer is built around one hard requirement inherited from the rest
//! of the workspace: **everything the pipeline computes is bit-identical
//! at any thread count**, and the observability data must not be the first
//! thing to break that. The design splits every observation into two
//! buckets:
//!
//! * the **deterministic section** — counter values, the span tree shape
//!   (which spans ran, how many times), and provenance strings (seed,
//!   model version, scale). These are pure functions of the work done, so
//!   they serialize byte-identically at 1 thread and at 40.
//! * the **timing section** — wall-clock durations and quantiles, thread
//!   count, host info. Real time is never deterministic; it is quarantined
//!   here so tools (and CI) can diff the deterministic section alone.
//!
//! Three rules make the deterministic section actually deterministic:
//!
//! 1. Counters are commutative `u64` sums keyed by `&'static str` names.
//!    Worker threads bump the same process-wide cells; addition order
//!    cannot change a sum.
//! 2. A span's identity is its *static path* (`"labeling/collect"`),
//!    given in full at the call site. Hierarchy is a naming convention,
//!    not a runtime parent lookup — so the tree shape cannot depend on
//!    which thread (or inline-serial fallback) a stage happened to run on.
//! 3. Serialization iterates `BTreeMap`s, so key order is sorted, always.
//!
//! When tracing is disabled (the default) every entry point is a single
//! relaxed atomic load and an early return: no allocation, no lock, no
//! formatting. The labeling hot path stays allocation-free and committed
//! artifacts stay byte-identical.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema version of the run manifest (bump on breaking layout changes).
pub const MANIFEST_VERSION: u32 = 1;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State::new());

/// Number of log2 duration buckets (covers 1 ns .. ~584 years).
const N_BUCKETS: usize = 64;

#[derive(Clone)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// `buckets[i]` counts durations with `floor(log2(ns)) == i`.
    buckets: [u64; N_BUCKETS],
}

impl SpanStat {
    const fn new() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; N_BUCKETS],
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let b = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[b] += 1;
    }

    /// Lower bound of the bucket holding the q-quantile observation.
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max_ns
    }
}

struct State {
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanStat>,
    provenance: BTreeMap<String, String>,
    timing_info: BTreeMap<String, String>,
}

impl State {
    const fn new() -> Self {
        Self {
            counters: BTreeMap::new(),
            spans: BTreeMap::new(),
            provenance: BTreeMap::new(),
            timing_info: BTreeMap::new(),
        }
    }
}

fn state() -> std::sync::MutexGuard<'static, State> {
    // A panic while holding this lock poisons it; observability must never
    // take the pipeline down, so we shrug the poison off and keep going.
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turn the tracer on. Until this is called every instrumentation point
/// is a single atomic load.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the tracer off (already-recorded data is kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Is the tracer currently recording?
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded counters, spans, and provenance. Does not change
/// the enabled flag.
pub fn reset() {
    let mut s = state();
    s.counters.clear();
    s.spans.clear();
    s.provenance.clear();
    s.timing_info.clear();
}

/// Add `delta` to the process-wide counter `name`.
///
/// Names are `&'static str` by design: the disabled path must not format
/// or allocate, and the deterministic section sorts by name, so dynamic
/// names would make the manifest shape data-dependent.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    *state().counters.entry(name).or_insert(0) += delta;
}

/// Read one counter (0 if never bumped). Mostly for tests.
pub fn counter_value(name: &str) -> u64 {
    state().counters.get(name).copied().unwrap_or(0)
}

/// Record a key in the **deterministic** provenance map (seed, scale,
/// model version — values that are a function of the run configuration,
/// never of scheduling).
pub fn set_provenance(key: &str, value: &str) {
    if !is_enabled() {
        return;
    }
    let mut s = state();
    s.provenance.insert(key.to_string(), value.to_string());
}

/// Record a key in the **timing** (non-deterministic) info map: thread
/// count, wall-clock, host facts. Never diffed by CI.
pub fn set_timing_info(key: &str, value: &str) {
    if !is_enabled() {
        return;
    }
    let mut s = state();
    s.timing_info.insert(key.to_string(), value.to_string());
}

/// RAII span guard: created by [`span`], records its wall time on drop.
/// When the tracer is disabled this is a no-op carrying no data.
pub struct Span(Option<SpanStart>);

struct SpanStart {
    path: &'static str,
    start: Instant,
}

impl Span {
    /// A span that records nothing (what [`span`] returns when disabled).
    pub const fn disabled() -> Self {
        Span(None)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let ns = s.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if is_enabled() {
                state()
                    .spans
                    .entry(s.path)
                    .or_insert_with(SpanStat::new)
                    .record(ns);
            }
        }
    }
}

/// Open a span at the static path `path`. Wall time is recorded into the
/// timing section when the guard drops; the path and its hit count land
/// in the deterministic section.
#[inline]
pub fn span(path: &'static str) -> Span {
    if !is_enabled() {
        return Span(None);
    }
    Span(Some(SpanStart {
        path,
        start: Instant::now(),
    }))
}

/// Open a span, optionally attaching deterministic payload counters:
/// `span!("labeling/matrix", nnz = csr.nnz())` bumps the counter
/// `labeling/matrix.nnz` by `nnz` and returns the span guard. Field
/// names become part of the counter name at compile time (`concat!`),
/// so the disabled path still never formats.
#[macro_export]
macro_rules! span {
    ($path:literal) => {
        $crate::span($path)
    };
    ($path:literal $(, $key:ident = $val:expr)+ $(,)?) => {{
        $( $crate::counter(concat!($path, ".", stringify!($key)), ($val) as u64); )+
        $crate::span($path)
    }};
}

/// Bump a counter: `counter!("labeling.matrices")` adds 1,
/// `counter!("labeling.nnz", n)` adds `n`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter($name, 1)
    };
    ($name:literal, $delta:expr) => {
        $crate::counter($name, ($delta) as u64)
    };
}

// ---------------------------------------------------------------------------
// Manifest rendering (hand-rolled JSON: sorted keys, no dependencies).
// ---------------------------------------------------------------------------

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_string_map(out: &mut String, map: &BTreeMap<String, String>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        out.push(':');
        push_json_string(out, v);
    }
    out.push('}');
}

/// The deterministic section as a single compact JSON line: provenance,
/// counters, and span shape (path → hit count), all sorted. Byte-identical
/// for identical work regardless of thread count — this is the string CI
/// and the property tests diff.
pub fn deterministic_section() -> String {
    let s = state();
    let mut out = String::new();
    out.push_str("{\"manifest_version\":");
    out.push_str(&MANIFEST_VERSION.to_string());
    out.push_str(",\"provenance\":");
    push_string_map(&mut out, &s.provenance);
    out.push_str(",\"counters\":{");
    for (i, (k, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("},\"spans\":{");
    for (i, (k, stat)) in s.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        out.push(':');
        out.push_str(&stat.count.to_string());
    }
    out.push_str("}}");
    out
}

/// Just the counters, as one compact sorted JSON object:
/// `{"a.first":1,"b.second":5}`. This is what a long-lived server exposes
/// on its `/statz` endpoint — a live snapshot of the same commutative
/// sums that land in the manifest's deterministic section, without the
/// provenance/span framing.
pub fn counters_section() -> String {
    let s = state();
    let mut out = String::new();
    out.push('{');
    for (i, (k, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push('}');
    out
}

/// The timing section (pretty-ish, one span per line): wall-time totals,
/// extremes, and log2-bucket quantiles per span, plus free-form timing
/// info (thread count, wall clock). Never expected to be reproducible.
pub fn timing_section() -> String {
    let s = state();
    let mut out = String::new();
    out.push_str("{\"info\":");
    push_string_map(&mut out, &s.timing_info);
    out.push_str(",\"spans\":{");
    for (i, (k, stat)) in s.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        push_json_string(&mut out, k);
        let mean = stat.total_ns.checked_div(stat.count).unwrap_or(0);
        out.push_str(&format!(
            ":{{\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{}}}",
            stat.count,
            stat.total_ns,
            mean,
            if stat.min_ns == u64::MAX { 0 } else { stat.min_ns },
            stat.max_ns,
            stat.quantile_ns(0.50),
            stat.quantile_ns(0.90),
        ));
    }
    if !s.spans.is_empty() {
        out.push('\n');
    }
    out.push_str("}}");
    out
}

/// The full run manifest. Layout is fixed so line-oriented tools can pull
/// the deterministic section out without a JSON parser:
///
/// ```text
/// {
/// "deterministic": {…one line…},
/// "timing": {…}
/// }
/// ```
pub fn manifest() -> String {
    format!(
        "{{\n\"deterministic\": {},\n\"timing\": {}\n}}\n",
        deterministic_section(),
        timing_section()
    )
}

/// Write the manifest to `path` (creating parent directories).
pub fn write_manifest<P: AsRef<Path>>(path: P) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, manifest())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; tests that enable it must not overlap.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        disable();
        reset();
        g
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = locked();
        counter("x.disabled", 5);
        {
            let _s = span("stage/disabled");
        }
        set_provenance("seed", "1");
        assert_eq!(counter_value("x.disabled"), 0);
        assert_eq!(
            deterministic_section(),
            format!(
                "{{\"manifest_version\":{MANIFEST_VERSION},\"provenance\":{{}},\"counters\":{{}},\"spans\":{{}}}}"
            )
        );
    }

    #[test]
    fn counters_sum_and_sort() {
        let _g = locked();
        enable();
        counter("b.second", 2);
        counter("a.first", 1);
        counter("b.second", 3);
        assert_eq!(counter_value("b.second"), 5);
        let det = deterministic_section();
        let a = det.find("a.first").unwrap();
        let b = det.find("b.second").unwrap();
        assert!(a < b, "keys must serialize sorted: {det}");
        disable();
    }

    #[test]
    fn spans_count_in_deterministic_and_time_in_timing() {
        let _g = locked();
        enable();
        for _ in 0..3 {
            let _s = span!("stage/work", items = 2u64);
        }
        let det = deterministic_section();
        assert!(det.contains("\"stage/work\":3"), "{det}");
        assert!(det.contains("\"stage/work.items\":6"), "{det}");
        assert!(!det.contains("_ns"), "no wall time may leak: {det}");
        let timing = timing_section();
        assert!(timing.contains("\"count\":3"), "{timing}");
        assert!(timing.contains("total_ns"), "{timing}");
        disable();
    }

    #[test]
    fn counters_section_is_sorted_counters_only() {
        let _g = locked();
        enable();
        counter("z.last", 7);
        counter("a.first", 1);
        set_provenance("seed", "9");
        assert_eq!(counters_section(), "{\"a.first\":1,\"z.last\":7}");
        disable();
    }

    #[test]
    fn concurrent_counter_bumps_are_exact() {
        let _g = locked();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter("t.bump", 1);
                    }
                });
            }
        });
        assert_eq!(counter_value("t.bump"), 4000);
        disable();
    }

    #[test]
    fn manifest_layout_is_three_lines_plus_timing() {
        let _g = locked();
        enable();
        counter("m.one", 1);
        set_provenance("seed", "42");
        set_timing_info("threads", "4");
        let m = manifest();
        let mut lines = m.lines();
        assert_eq!(lines.next(), Some("{"));
        let det_line = lines.next().unwrap();
        assert!(det_line.starts_with("\"deterministic\": {"), "{det_line}");
        assert!(det_line.contains("\"seed\":\"42\""));
        assert!(det_line.contains("\"m.one\":1"));
        assert!(!det_line.contains("threads"), "thread count is timing-only");
        assert!(m.contains("\"timing\": {"));
        assert!(m.contains("\"threads\":\"4\""));
        disable();
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn quantiles_come_from_buckets() {
        let mut st = SpanStat::new();
        for ns in [1u64, 2, 4, 8, 1024] {
            st.record(ns);
        }
        assert_eq!(st.count, 5);
        assert_eq!(st.min_ns, 1);
        assert_eq!(st.max_ns, 1024);
        // rank ceil(0.5*5)=3 → third observation (4 ns) → bucket 2 → 4.
        assert_eq!(st.quantile_ns(0.50), 4);
        // rank 5 → 1024 → bucket 10.
        assert_eq!(st.quantile_ns(0.90), 1024);
    }
}
