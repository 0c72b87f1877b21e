//! Property tests for the observability layer's two load-bearing claims:
//!
//! 1. The manifest's *deterministic* section is byte-identical regardless
//!    of thread count — including under an injected [`FaultPlan`] — so CI
//!    can diff it across schedules.
//! 2. With tracing disabled (the default), instrumentation is inert: a
//!    fresh tiny collection still reproduces the committed
//!    `results/labels_tiny.json` byte for byte.
//!
//! The tracer is process-global, so every test here takes `TRACER_LOCK`
//! and resets on entry; tests that must observe the *disabled* state run
//! in this same binary to stay serialized with the enabling ones.

use std::path::Path;
use std::sync::Mutex;

use spmv_core::{observe, FaultPlan, FaultSite, LabelEnvironment, LabeledCorpus};
use spmv_corpus::{CorpusScale, SyntheticSuite};
use spmv_gpusim::Simulator;

static TRACER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_suite() -> SyntheticSuite {
    SyntheticSuite::sample(CorpusScale::Tiny, 20180801)
}

/// Run one traced collection and return (corpus json, deterministic line).
fn traced_collect(threads: usize, plan: &FaultPlan) -> (String, String) {
    observe::reset();
    observe::enable();
    let corpus = LabeledCorpus::collect_with(&tiny_suite(), &Simulator::default(), threads, plan);
    let json = serde_json::to_string(&corpus).expect("corpus json");
    let det = observe::deterministic_section();
    observe::disable();
    (json, det)
}

#[test]
fn deterministic_section_is_byte_identical_across_thread_counts() {
    let _g = lock();
    let plan = FaultPlan::none();
    let (corpus_1, det_1) = traced_collect(1, &plan);
    let (corpus_4, det_4) = traced_collect(4, &plan);
    assert_eq!(
        det_1, det_4,
        "deterministic section must not see the schedule"
    );
    assert_eq!(
        corpus_1, corpus_4,
        "corpus itself must stay schedule-invariant"
    );

    // The section is meaningful, not vacuously equal: labeling counters
    // and spans from the run are present.
    assert!(
        det_1.contains("\"labeling.cells_measured\""),
        "got: {det_1}"
    );
    assert!(det_1.contains("\"labeling/collect\""), "got: {det_1}");
    assert!(det_1.contains("\"labeling/matrix\""), "got: {det_1}");
}

#[test]
fn deterministic_section_is_schedule_invariant_under_injected_faults() {
    let _g = lock();
    // A mixed plan: some measurement cells fail, some conversions fail.
    // Fault decisions hash (site, key), never the thread, so both the
    // corpus and the fault tallies must match across thread counts.
    let plan = FaultPlan::new(77)
        .inject(FaultSite::Measurement, 0.2)
        .inject(FaultSite::Conversion, 0.1);
    let (corpus_1, det_1) = traced_collect(1, &plan);
    let (corpus_4, det_4) = traced_collect(4, &plan);
    assert_eq!(det_1, det_4, "fault tallies must not see the schedule");
    assert_eq!(corpus_1, corpus_4);

    // The plan actually fired: at least one injected-fault counter shows.
    assert!(det_1.contains("\"faults.injected."), "got: {det_1}");
    assert!(det_1.contains("\"labeling.failures\""), "got: {det_1}");
}

#[test]
fn manifest_is_valid_json_with_both_sections() {
    let _g = lock();
    observe::reset();
    observe::enable();
    observe::set_provenance("tool", "observability-test");
    {
        let _s = observe::span("test/unit");
        observe::counter("test.events", 3);
    }
    let manifest = observe::manifest();
    observe::disable();

    fn field<'v>(v: &'v serde_json::Value, key: &str) -> &'v serde_json::Value {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {key:?}"))
    }
    let v = serde_json::parse_value(&manifest).expect("manifest parses");
    let det = field(&v, "deterministic");
    assert_eq!(
        field(field(det, "provenance"), "tool").as_str(),
        Some("observability-test")
    );
    assert!(matches!(
        field(field(det, "counters"), "test.events"),
        serde_json::Value::U64(3) | serde_json::Value::I64(3)
    ));
    assert!(matches!(
        field(field(det, "spans"), "test/unit"),
        serde_json::Value::U64(1) | serde_json::Value::I64(1)
    ));
    let timing_span = field(field(field(&v, "timing"), "spans"), "test/unit");
    assert!(matches!(
        field(timing_span, "count"),
        serde_json::Value::U64(_) | serde_json::Value::I64(_)
    ));

    // Line layout is part of the contract: the deterministic section is
    // exactly line 2 (CI extracts it with `sed -n 2p`); timing follows
    // and may span several lines.
    let lines: Vec<&str> = manifest.lines().collect();
    assert_eq!(lines[0], "{");
    assert!(lines[1].starts_with("\"deterministic\": {"));
    assert!(lines[1].ends_with("},"));
    assert!(lines[2].starts_with("\"timing\": "));
    assert_eq!(*lines.last().expect("non-empty"), "}");
}

#[test]
fn disabled_tracer_reproduces_the_committed_label_cache() {
    let _g = lock();
    observe::reset();
    assert!(!observe::is_enabled(), "tracing must default to off");

    let cache = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/labels_tiny.json");
    let committed =
        std::fs::read_to_string(&cache).unwrap_or_else(|e| panic!("read {}: {e}", cache.display()));
    let fresh = serde_json::to_string(&LabeledCorpus::collect(
        &tiny_suite(),
        &Simulator::default(),
        2,
    ))
    .expect("json");
    assert_eq!(
        fresh,
        committed.trim_end(),
        "disabled tracing must be inert"
    );

    // And being disabled means nothing was recorded either.
    assert_eq!(observe::counter_value("labeling.cells_measured"), 0);
    assert_eq!(observe::counter_value("gpusim.measurements"), 0);
}

#[test]
fn enabled_tracer_does_not_change_artifact_bytes() {
    let _g = lock();
    // Stronger than the disabled case: even with tracing ON, the corpus
    // bytes match the committed cache — observation never perturbs results.
    let cache = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/labels_tiny.json");
    let committed =
        std::fs::read_to_string(&cache).unwrap_or_else(|e| panic!("read {}: {e}", cache.display()));
    let (fresh, _det) = traced_collect(2, &FaultPlan::none());
    assert_eq!(fresh, committed.trim_end());
}

/// FNV-1a (64-bit) over a string's bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn deterministic_sections_of_every_collector_are_pinned() {
    let _g = lock();
    // One environment per collector: the simulator, the native collector
    // on its deterministic stream, an op-aware format scenario and an
    // SpGEMM dataflow scenario. Each section (span names and hit counts,
    // every counter) is hashed at 1 and 4 threads, with no faults and
    // under a mixed conversion+measurement plan. The hashes were recorded
    // before the four collectors shared one worker loop.
    let plans = [
        FaultPlan::none(),
        FaultPlan::new(77)
            .inject(FaultSite::Measurement, 0.2)
            .inject(FaultSite::Conversion, 0.1),
    ];
    let pins: [(&str, [u64; 2]); 4] = [
        ("sim", [0xca9e_cae3_f002_4d44, 0x1c69_432f_d6e5_df00]),
        (
            "cpu-synthetic",
            [0x58ec_9dd5_f7de_61a4, 0x9a4b_c00e_fdc4_1910],
        ),
        ("mc-spmm4", [0xa735_e0ac_58f9_36fa, 0x9262_01c5_2116_0822]),
        (
            "gpu-spgemm-aa",
            [0x7dd6_59e9_6ee8_f32e, 0xcc75_e2fe_60bc_e819],
        ),
    ];
    let suite = tiny_suite();
    for (tag, hashes) in pins {
        let env = match LabelEnvironment::parse(tag).expect("known tag") {
            LabelEnvironment::CpuSynthetic { .. } => {
                LabelEnvironment::CpuSynthetic { seed: 20180801 }
            }
            env => env,
        };
        for (plan, want) in plans.iter().zip(hashes) {
            for threads in [1, 4] {
                observe::reset();
                observe::enable();
                LabeledCorpus::collect_env(&suite, env, threads, plan);
                let det = observe::deterministic_section();
                observe::disable();
                assert_eq!(
                    fnv1a(&det),
                    want,
                    "{tag} at {threads} threads: deterministic section moved: {det}"
                );
            }
        }
    }
}
