//! Online-learning lifecycle over the wire: feedback ingestion, the
//! deterministic retrain, the shadow canary, atomic hot-swap, watchdog
//! rollback, and the corruption gate — all driven through real HTTP
//! against in-process servers.
//!
//! Counter notes: `spmv_observe` counters are process-global, so every
//! test here takes the `SERIAL` lock and asserts counter *deltas* via
//! `/statz` (never absolute values); state assertions (generation,
//! checksum, canary phase) come from `/healthz`, which is per-server.
//! The exact-count assertions on a fresh process live in the CI
//! `canary-smoke` job and the `spmv-core` unit tests.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::{Arc, Mutex, OnceLock};

use common::{spawn, tiny_handle};
use spmv_core::OnlineConfig;
use spmv_serve::lifecycle::{self, lifecycle_script, LifecycleKind, LifecycleOp};
use spmv_serve::loadgen::{feature_body, feedback_body, http_roundtrip};
use spmv_serve::ServerConfig;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
    SERIAL
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The lifecycle parameters the scripted scenarios are written against.
fn lifecycle_online_config() -> OnlineConfig {
    OnlineConfig {
        retrain_after: lifecycle::RETRAIN_AFTER,
        canary_window: lifecycle::CANARY_WINDOW,
        canary_agree_pct: lifecycle::CANARY_AGREE_PCT,
        watchdog_window: lifecycle::WATCHDOG_WINDOW,
        watchdog_errors: lifecycle::WATCHDOG_ERRORS,
        seed: 0x5eed,
        ..OnlineConfig::default()
    }
}

/// A server wired for lifecycle runs: model-backed, cache off (so every
/// recommend is shadow-scored), admin surface on (for canary/sync).
fn lifecycle_server_config(online: OnlineConfig) -> ServerConfig {
    ServerConfig {
        workers: 2,
        cache_capacity: 0,
        enable_admin_shutdown: true,
        online,
        ..ServerConfig::default()
    }
}

/// The canned scripts assert absolute counter values via `Statz` ops,
/// which only hold in a fresh process; in-process tests share counters,
/// so strip them and assert state via the remaining `Healthz` ops.
fn without_statz(script: Vec<LifecycleOp>) -> Vec<LifecycleOp> {
    script
        .into_iter()
        .filter(|op| !matches!(op, LifecycleOp::Statz { .. }))
        .collect()
}

fn statz_counter(addr: &str, name: &str) -> u64 {
    let (status, body) = http_roundtrip(addr, "GET", "/statz", b"").unwrap();
    assert_eq!(status, 200);
    let body = String::from_utf8_lossy(&body).to_string();
    body.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0)
}

fn healthz_json(addr: &str) -> String {
    let (status, body) = http_roundtrip(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    String::from_utf8_lossy(&body).to_string()
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let rest = body.split(&format!("\"{key}\":\"")).nth(1)?;
    Some(rest.chars().take_while(|c| *c != '"').collect())
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = body.split(&format!("\"{key}\":")).nth(1)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[test]
fn promote_lifecycle_swaps_in_generation_one() {
    let _serial = serial();
    spmv_observe::enable();
    let server = spawn(
        lifecycle_server_config(lifecycle_online_config()),
        tiny_handle(),
    );
    let addr = server.addr().to_string();
    let boot_checksum = json_str(&healthz_json(&addr), "checksum").unwrap();

    let promotions_before = statz_counter(&addr, "online.swap.promotions");
    let script = without_statz(lifecycle_script(LifecycleKind::Promote, 21));
    let report = lifecycle::run_lifecycle(&addr, &script);
    assert_eq!(report.violations, Vec::<String>::new());

    // The new generation is a different artifact with its own checksum,
    // still model-mode, under watchdog observation.
    let health = healthz_json(&addr);
    assert_eq!(json_u64(&health, "generation"), Some(1));
    assert_eq!(json_str(&health, "mode").as_deref(), Some("model"));
    assert_eq!(json_str(&health, "canary").as_deref(), Some("watch"));
    let new_checksum = json_str(&health, "checksum").unwrap();
    assert_ne!(new_checksum, boot_checksum, "promotion must swap artifacts");
    assert_eq!(
        statz_counter(&addr, "online.swap.promotions") - promotions_before,
        1
    );
    server.shutdown();
}

#[test]
fn rollback_lifecycle_reverts_to_generation_zero() {
    let _serial = serial();
    spmv_observe::enable();
    let server = spawn(
        lifecycle_server_config(lifecycle_online_config()),
        tiny_handle(),
    );
    let addr = server.addr().to_string();
    let boot_checksum = json_str(&healthz_json(&addr), "checksum").unwrap();

    let rollbacks_before = statz_counter(&addr, "online.swap.rollbacks");
    let script = without_statz(lifecycle_script(LifecycleKind::Rollback, 33));
    let report = lifecycle::run_lifecycle(&addr, &script);
    assert_eq!(report.violations, Vec::<String>::new());

    // The watchdog put the boot generation (same artifact!) back.
    let health = healthz_json(&addr);
    assert_eq!(json_u64(&health, "generation"), Some(0));
    assert_eq!(json_str(&health, "canary").as_deref(), Some("idle"));
    assert_eq!(json_str(&health, "checksum").unwrap(), boot_checksum);
    assert_eq!(
        statz_counter(&addr, "online.swap.rollbacks") - rollbacks_before,
        1
    );
    server.shutdown();
}

#[test]
fn corrupt_candidate_is_rejected_before_promotion() {
    let _serial = serial();
    spmv_observe::enable();
    let online = OnlineConfig {
        corrupt_candidate: true,
        ..lifecycle_online_config()
    };
    let server = spawn(lifecycle_server_config(online), tiny_handle());
    let addr = server.addr().to_string();

    let rejected_before = statz_counter(&addr, "online.artifact.rejected");
    let script = without_statz(lifecycle_script(LifecycleKind::Corrupt, 47));
    let report = lifecycle::run_lifecycle(&addr, &script);
    assert_eq!(report.violations, Vec::<String>::new());

    // Envelope validation caught the corruption: still generation 0,
    // idle, and the rejection was counted.
    let health = healthz_json(&addr);
    assert_eq!(json_u64(&health, "generation"), Some(0));
    assert_eq!(json_str(&health, "canary").as_deref(), Some("idle"));
    assert_eq!(
        statz_counter(&addr, "online.artifact.rejected") - rejected_before,
        1
    );
    server.shutdown();
}

/// A hot-swap must change every cache key: a response cached under
/// generation 0 is never served for generation 1, and the same body
/// re-caches under the new generation.
#[test]
fn generation_swap_rescopes_the_cache() {
    let _serial = serial();
    spmv_observe::enable();
    // agree_pct 0 decouples promotion from model agreement, so the
    // canary can score *fresh* seeds (cache misses) while the probe
    // bodies stay warm in the cache from the feeding phase.
    let online = OnlineConfig {
        retrain_after: 4,
        canary_window: 2,
        canary_agree_pct: 0,
        seed: 0x5eed,
        ..OnlineConfig::default()
    };
    let config = ServerConfig {
        workers: 2,
        cache_capacity: 64,
        enable_admin_shutdown: true,
        online,
        ..ServerConfig::default()
    };
    let server = spawn(config, tiny_handle());
    let addr = server.addr().to_string();

    let probe = feature_body(900);
    // Feed: 4 probes (distinct bodies, all cache misses), echoing the
    // recommendation back as measured feedback; the 4th schedules the
    // retrain.
    for i in 0..4u64 {
        let body = feature_body(900 + i);
        let (status, resp) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
        assert_eq!(status, 200);
        let resp = String::from_utf8_lossy(&resp).to_string();
        let format = json_str(&resp, "format").unwrap();
        let echo = feedback_body(900 + i, &format, 0, 1e-5 * (i + 1) as f64);
        let (status, _b) = http_roundtrip(&addr, "POST", "/v1/feedback", &echo).unwrap();
        assert_eq!(status, 200, "echo feedback must be accepted");
    }
    let (status, _b) = http_roundtrip(&addr, "POST", "/admin/canary/sync", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        json_str(&healthz_json(&addr), "canary").as_deref(),
        Some("shadow")
    );

    // Warm-cache check while still on generation 0: the probe body is a
    // hit (cached during feeding) and hits never shadow-score.
    let hits_before = statz_counter(&addr, "serve.cache.hits");
    let (status, _b) = http_roundtrip(&addr, "POST", "/v1/recommend", &probe).unwrap();
    assert_eq!(status, 200);
    assert_eq!(statz_counter(&addr, "serve.cache.hits") - hits_before, 1);

    // Close the canary window on fresh seeds (misses, so they score).
    for i in 0..2u64 {
        let (status, _b) =
            http_roundtrip(&addr, "POST", "/v1/recommend", &feature_body(990 + i)).unwrap();
        assert_eq!(status, 200);
    }
    assert_eq!(json_u64(&healthz_json(&addr), "generation"), Some(1));

    // Same probe body, new generation: the old cache line must NOT be
    // served (generation-scoped key → miss), then the second send hits
    // the line cached under the new generation.
    let hits_before = statz_counter(&addr, "serve.cache.hits");
    let misses_before = statz_counter(&addr, "serve.cache.misses");
    let (status, _b) = http_roundtrip(&addr, "POST", "/v1/recommend", &probe).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        statz_counter(&addr, "serve.cache.hits") - hits_before,
        0,
        "a generation-0 cache line leaked into generation 1"
    );
    assert_eq!(
        statz_counter(&addr, "serve.cache.misses") - misses_before,
        1
    );
    let (status, _b) = http_roundtrip(&addr, "POST", "/v1/recommend", &probe).unwrap();
    assert_eq!(status, 200);
    assert_eq!(statz_counter(&addr, "serve.cache.hits") - hits_before, 1);
    server.shutdown();
}

/// Concurrent readers across a live swap: every request is answered, and
/// every `/healthz` reads a coherent (generation, checksum) pair — the
/// boot pair or the promoted pair, never a mixture.
#[test]
fn concurrent_requests_see_coherent_generations_across_swap() {
    let _serial = serial();
    spmv_observe::enable();
    let online = OnlineConfig {
        retrain_after: 4,
        canary_window: 2,
        canary_agree_pct: 0,
        seed: 0x5eed,
        ..OnlineConfig::default()
    };
    let server = spawn(lifecycle_server_config(online), tiny_handle());
    let addr = Arc::new(server.addr().to_string());
    let boot_checksum = json_str(&healthz_json(&addr), "checksum").unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Set by the first reader whose `/healthz` shows the promoted generation.
    let swap_seen = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let addr = Arc::clone(&addr);
            let stop = Arc::clone(&stop);
            let swap_seen = Arc::clone(&swap_seen);
            let boot_checksum = boot_checksum.clone();
            std::thread::spawn(move || {
                let mut seen_gen1 = false;
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Live recommend traffic (distinct bodies per thread)
                    // plus a health read, both of which must be coherent.
                    let body = feature_body(5_000 + t * 10_000 + i);
                    let (status, _b) =
                        http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
                    assert_eq!(status, 200, "no request may drop across a swap");
                    let health = healthz_json(&addr);
                    let generation = json_u64(&health, "generation").unwrap();
                    let checksum = json_str(&health, "checksum").unwrap();
                    match generation {
                        0 => assert_eq!(checksum, boot_checksum, "torn healthz read"),
                        1 => {
                            assert_ne!(checksum, boot_checksum, "torn healthz read");
                            seen_gen1 = true;
                            swap_seen.store(true, std::sync::atomic::Ordering::SeqCst);
                        }
                        other => panic!("impossible generation {other}"),
                    }
                    i += 1;
                }
                seen_gen1
            })
        })
        .collect();

    // Drive the swap while the readers hammer the server.
    for i in 0..4u64 {
        let body = feature_body(700 + i);
        let (status, resp) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
        assert_eq!(status, 200);
        let format = json_str(&String::from_utf8_lossy(&resp), "format").unwrap();
        let echo = feedback_body(700 + i, &format, 0, 2e-5 * (i + 1) as f64);
        let (status, _b) = http_roundtrip(&addr, "POST", "/v1/feedback", &echo).unwrap();
        assert_eq!(status, 200);
    }
    let (status, _b) = http_roundtrip(&addr, "POST", "/admin/canary/sync", b"").unwrap();
    assert_eq!(status, 200);
    // Reader traffic closes the 2-wide canary window on its own; wait
    // until a reader has observed the promotion.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !swap_seen.load(std::sync::atomic::Ordering::SeqCst) {
        assert!(
            std::time::Instant::now() < deadline,
            "no reader observed the promotion: generation {:?}",
            json_u64(&healthz_json(&addr), "generation")
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    // Join every reader first (a panicked reader must fail the test),
    // then check at least one saw the new generation.
    let observed: Vec<bool> = readers.into_iter().map(|r| r.join().unwrap()).collect();
    assert!(
        observed.iter().any(|&saw| saw),
        "at least one reader must observe the swap"
    );
    server.shutdown();
}

/// End-to-end determinism: two fresh servers fed the identical scripted
/// lifecycle produce byte-identical candidate artifacts.
#[test]
fn replayed_lifecycle_reproduces_the_candidate_artifact_bytes() {
    let _serial = serial();
    spmv_observe::enable();
    let mut artifacts = Vec::new();
    for replica in 0..2 {
        let dir = std::env::temp_dir().join(format!(
            "spmv_serve_online_replay_{}_{replica}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let online = OnlineConfig {
            artifact_dir: Some(dir.clone()),
            ..lifecycle_online_config()
        };
        // Different worker counts on purpose: scheduling must not move
        // a byte of the candidate.
        let config = ServerConfig {
            workers: 1 + replica * 3,
            ..lifecycle_server_config(online)
        };
        let server = spawn(config, tiny_handle());
        let addr = server.addr().to_string();
        let script = without_statz(lifecycle_script(LifecycleKind::Promote, 21));
        let report = lifecycle::run_lifecycle(&addr, &script);
        assert_eq!(report.violations, Vec::<String>::new());
        server.shutdown();
        let artifact = std::fs::read(dir.join("candidate-gen1.json")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        artifacts.push(artifact);
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "replayed candidate artifacts must be byte-identical"
    );
}
