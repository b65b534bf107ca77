//! Admission-service perf: a 10⁶-session population replaying a
//! 10⁵-decision admit/depart stream against the [`AdmissionEngine`],
//! cold (certificate cache disabled, `cap = 0`) vs warm (cache
//! pre-populated by one prior replay).
//!
//! The effective-bandwidth backend keys `g*` and its certificate by the
//! class fingerprint alone — mix-independent — so a warm replay answers
//! every decision from `O(classes)` cache lookups while a cold one
//! redoes the bisection and θ optimization per decision. The suite
//! self-gates on the headline ratio: the warm per-decision median must
//! be at least 10× faster than cold, and cold vs cached decision
//! streams must agree exactly (the engine's bit-identity contract).

use gps_analysis::{AdmissionEngine, CertBackend, ClassSpec, QosTarget, Request, RequestKind};
use gps_bench::harness::{black_box, BenchHarness};
use gps_ebb::{EbbProcess, TimeModel};
use gps_obs::exporter::{HttpClient, MAX_REQUESTS_PER_CONN};
use gps_obs::metrics::Registry;
use gps_obs::{Exporter, HttpRequest, RequestHandler, RouteResponse, TelemetryConfig};
use gps_stats::{RngCore, Xoshiro256pp};
use std::sync::{Arc, Mutex};

/// Mix size for the replayed decision stream.
const DECISIONS: usize = 100_000;
/// Decisions per cold iteration (a full cold replay would take minutes;
/// the per-decision median is what the gate compares).
const COLD_CHUNK: usize = 64;
/// Decisions per HTTP-path iteration (each is a full request/response
/// round trip through the telemetry middleware on loopback).
const HTTP_DECISIONS: usize = 1_000;
/// Per-class population: 8 classes × 125 000 = 10⁶ standing sessions.
const SESSIONS_PER_CLASS: u64 = 125_000;

/// Eight heterogeneous E.B.B. classes with spread QoS targets.
fn service_classes() -> Vec<ClassSpec> {
    (0..8)
        .map(|i| {
            let f = i as f64;
            ClassSpec::new(
                format!("class{i}"),
                EbbProcess::new(0.02 + 0.01 * f, 1.0 + 0.5 * f, 2.0 + 0.5 * f),
                QosTarget::new(5.0 + 10.0 * f, 10f64.powi(-6 + i / 2)),
            )
        })
        .collect()
}

fn engine(cap: usize) -> AdmissionEngine {
    let mut e = AdmissionEngine::with_cache_cap(
        service_classes(),
        100_000.0,
        TimeModel::Discrete,
        CertBackend::EffectiveBandwidth,
        cap,
    )
    .expect("valid engine");
    e.set_counts(&[SESSIONS_PER_CLASS; 8]);
    e
}

/// The deterministic admit/depart stream (70 % admits).
fn replay(n: usize, classes: usize) -> Vec<Request> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x9e37_79b9);
    (0..n)
        .map(|_| {
            let class = (rng.next_u64() % classes as u64) as usize;
            let kind = if rng.next_u64() % 10 < 7 {
                RequestKind::Admit
            } else {
                RequestKind::Depart
            };
            Request { class, kind }
        })
        .collect()
}

fn main() {
    let mut h = BenchHarness::new("admission");
    let stream = replay(DECISIONS, 8);

    // Bit-identity spot check before timing anything: cache-off and
    // cache-on engines must produce the same decision stream.
    let mut cold_check = engine(0);
    let mut cached_check = engine(gps_analysis::engine::DEFAULT_CACHE_CAP);
    for req in &stream[..COLD_CHUNK] {
        let a = cold_check.decide(*req);
        let b = cached_check.decide(*req);
        assert_eq!(a, b, "cold vs cached decision diverged at seq {}", a.seq);
    }

    // Cold: cache disabled, pristine engine per iteration, a COLD_CHUNK
    // prefix of the replay.
    let cold_template = engine(0);
    let cold = h
        .bench_elems("replay/cold", COLD_CHUNK as u64, || {
            let mut e = cold_template.clone();
            for req in &stream[..COLD_CHUNK] {
                black_box(e.decide(*req));
            }
            e.stats().decisions
        })
        .clone();

    // Warm: one full replay populates the cache, then each iteration
    // replays all 10⁵ decisions from the warmed clone.
    let mut warm_template = engine(gps_analysis::engine::DEFAULT_CACHE_CAP);
    for req in &stream {
        warm_template.decide(*req);
    }
    let warmed_misses = warm_template.cache_stats().misses;
    let warm = h
        .bench_elems("replay/warm", DECISIONS as u64, || {
            let mut e = warm_template.clone();
            for req in &stream {
                black_box(e.decide(*req));
            }
            e.stats().decisions
        })
        .clone();
    // A warm replay must be pure cache hits: no new misses.
    let mut probe = warm_template.clone();
    for req in &stream {
        probe.decide(*req);
    }
    assert_eq!(
        probe.cache_stats().misses,
        warmed_misses,
        "warm replay took cache misses"
    );

    // HTTP path: the same warm engine behind the exporter front end with
    // request telemetry armed — the full admitd stack (parse, dispatch,
    // engine, counters + HDR latency) per decision, on keep-alive
    // loopback connections.
    let registry = Registry::new();
    let http_engine = Arc::new(Mutex::new(warm_template.clone()));
    let handler: RequestHandler = {
        let engine = Arc::clone(&http_engine);
        Arc::new(move |req: &HttpRequest| {
            let (route, query) = match req.path.split_once('?') {
                Some((r, q)) => (r, Some(q)),
                None => (req.path, None),
            };
            let class: usize = query
                .and_then(|q| q.strip_prefix("class="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let mut engine = engine.lock().expect("engine poisoned");
            let d = match route {
                "/admit" => engine.admit(class),
                "/depart" => engine.depart(class),
                _ => return None,
            };
            Some(RouteResponse::json(
                200,
                format!("{{\"accepted\": {}}}", d.accepted),
            ))
        })
    };
    let exporter = Exporter::serve(
        "127.0.0.1:0",
        registry,
        Some(handler),
        Some(TelemetryConfig::new("bench-admitd")),
    )
    .expect("bind exporter");
    let addr = exporter.local_addr();
    let paths: Vec<String> = stream[..HTTP_DECISIONS]
        .iter()
        .map(|r| {
            let verb = match r.kind {
                RequestKind::Admit => "admit",
                RequestKind::Depart => "depart",
            };
            format!("/{verb}?class={}", r.class)
        })
        .collect();
    let http = h
        .bench_elems("replay/http", HTTP_DECISIONS as u64, || {
            *http_engine.lock().expect("engine poisoned") = warm_template.clone();
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut on_conn = 0usize;
            let mut accepted = 0usize;
            for path in &paths {
                if on_conn + 1 >= MAX_REQUESTS_PER_CONN {
                    client = HttpClient::connect(addr).expect("reconnect");
                    on_conn = 0;
                }
                let (status, body) = client.get(path).expect("request");
                on_conn += 1;
                assert_eq!(status, 200);
                if body.contains("true") {
                    accepted += 1;
                }
            }
            black_box(accepted)
        })
        .clone();
    exporter.shutdown();

    // Headline gate: >= 10x warm-over-cold per-decision median.
    let cold_per = cold.median_ns / COLD_CHUNK as f64;
    let warm_per = warm.median_ns / DECISIONS as f64;
    let ratio = cold_per / warm_per;
    println!(
        "admission: cold {cold_per:.0} ns/decision, warm {warm_per:.0} ns/decision \
         ({ratio:.0}x speedup)"
    );
    assert!(
        ratio >= 10.0,
        "warm cache speedup {ratio:.1}x below the 10x contract"
    );

    // HTTP-path gate: deliberately lenient (loopback scheduling is
    // noisy) — a warm decision through the full service stack must stay
    // under a millisecond.
    let http_per = http.median_ns / HTTP_DECISIONS as f64;
    println!(
        "admission: http {http_per:.0} ns/decision = {:.0} decisions/s over HTTP",
        1e9 / http_per
    );
    assert!(
        http_per <= 1_000_000.0,
        "HTTP decision path {http_per:.0} ns/decision exceeds the 1 ms budget"
    );

    h.finish().expect("write bench report");
}
