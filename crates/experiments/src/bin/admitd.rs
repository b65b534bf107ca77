//! `admitd` — the high-throughput admission-control daemon: an
//! [`AdmissionEngine`] behind the in-tree exporter, serving `/admit`,
//! `/depart`, and `/region` JSON endpoints next to the built-in
//! `/metrics` exposition (live `admission_*` counters and region
//! occupancy gauges).
//!
//! ```text
//! admitd [--serve ADDR] [--backend rpps|eb] [--rate R] [--cap N] [--slo]
//!        [--replay N [--seed S] [--out-region PATH] [--out-service PATH]]
//! ```
//!
//! Without `--replay` it serves until killed. With `--replay N` it
//! drives N scripted admit/depart requests through its *own* HTTP front
//! end on persistent connections, prints a throughput/cache summary plus
//! an FNV-1a digest of every response body, and exits — `scripts/verify.sh`
//! runs this twice across `GPS_PAR_THREADS` settings and compares the
//! digests.
//!
//! The exporter runs with request telemetry: per-route counters, HDR
//! latency histograms, and — with `--slo` — burn-rate-tracked SLOs served
//! at `/slo`. `GPS_OBS_ACCESS_LOG=PATH` additionally writes an NDJSON
//! access log; replay then prints an order-insensitive digest of its
//! decision-relevant fields (`admitd access digest`), another surface
//! `verify.sh` compares across the scheduling matrix.

use gps_analysis::{AdmissionEngine, CertBackend};
use gps_ebb::TimeModel;
use gps_experiments::admitd::{collect, default_classes, routes};
use gps_experiments::service::service_json;
use gps_obs::exporter::{HttpClient, MAX_REQUESTS_PER_CONN};
use gps_obs::json::Json;
use gps_obs::metrics::Registry;
use gps_obs::{fnv1a, Exporter, SloSpec, TelemetryConfig, FNV_OFFSET};
use gps_stats::{RngCore, Xoshiro256pp};
use std::sync::{Arc, Mutex};

/// The service's default SLOs (`--slo`): overall availability plus an
/// `/admit` latency objective generous enough that only a genuinely
/// stalled service burns budget.
fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::availability("availability", 0.999),
        SloSpec::latency("admit-latency", 0.99, 5_000_000).for_route("/admit"),
    ]
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Order-insensitive FNV-1a digest of the access log's *decision* lines
/// (`/admit` and `/depart` requests: `request_id method route status
/// bytes`). Timing fields are excluded and lines are sorted before
/// hashing, so the digest is a pure function of the decision stream —
/// invariant across scheduling. Introspection routes (`/metrics`,
/// `/slo`, …) are skipped: their body sizes fold in wall-clock-shaped
/// state such as HDR bucket occupancy.
fn access_digest(text: &str) -> Result<u64, String> {
    let events = gps_obs::journal::parse_ndjson(text)?;
    let mut lines: Vec<String> = Vec::new();
    for e in &events {
        if e.component != "obs.access" || e.event != "request" {
            continue;
        }
        let route = e.fields.iter().find(|(n, _)| n == "route");
        match route {
            Some((_, Json::Str(r))) if r == "/admit" || r == "/depart" => {}
            _ => continue,
        }
        let field = |k: &str| -> String {
            e.fields
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| match v {
                    Json::Str(s) => s.clone(),
                    Json::U64(u) => u.to_string(),
                    other => format!("{other:?}"),
                })
                .unwrap_or_default()
        };
        lines.push(format!(
            "{} {} {} {} {}",
            field("request_id"),
            field("method"),
            field("route"),
            field("status"),
            field("bytes")
        ));
    }
    lines.sort();
    Ok(lines
        .iter()
        .fold(FNV_OFFSET, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = arg_value(&args, "--serve").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let rate: f64 = arg_value(&args, "--rate")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let backend = match arg_value(&args, "--backend").as_deref() {
        Some("rpps") => CertBackend::Rpps,
        Some("eb") | None => CertBackend::EffectiveBandwidth,
        Some(other) => {
            eprintln!("admitd: unknown backend {other:?} (use rpps|eb)");
            std::process::exit(2);
        }
    };
    let replay: Option<usize> = arg_value(&args, "--replay").and_then(|v| v.parse().ok());
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20260807);

    let engine = match arg_value(&args, "--cap").and_then(|v| v.parse().ok()) {
        Some(cap) => AdmissionEngine::with_cache_cap(
            default_classes(),
            rate,
            TimeModel::Discrete,
            backend,
            cap,
        ),
        None => AdmissionEngine::new(default_classes(), rate, TimeModel::Discrete, backend),
    };
    let engine = engine.unwrap_or_else(|e| {
        eprintln!("admitd: {e}");
        std::process::exit(2);
    });
    let n_classes = engine.classes().len();
    let engine = Arc::new(Mutex::new(engine));
    // Requests only decide; the admission metrics are mirrored when the
    // registry is read.
    let registry = Registry::new();
    collect(&registry, Arc::clone(&engine));

    let slo_enabled = args.iter().any(|a| a == "--slo");
    let mut telemetry = TelemetryConfig::from_env("admitd");
    if slo_enabled {
        telemetry = telemetry.with_slos(default_slos());
    }
    let exporter = Exporter::serve(
        &addr,
        registry.clone(),
        Some(routes(Arc::clone(&engine))),
        Some(telemetry),
    )
    .unwrap_or_else(|e| {
        eprintln!("admitd: bind {addr}: {e}");
        std::process::exit(2);
    });
    let local = exporter.local_addr();
    println!("admitd listening on {local} (backend {backend:?}, rate {rate})");

    let Some(n) = replay else {
        // Serve until killed.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    };

    // Scripted replay through our own HTTP front end: deterministic
    // request stream, persistent connections (reconnect at the server's
    // per-connection budget), response-body digest for verify.sh.
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut digest = FNV_OFFSET;
    let mut accepted = 0usize;
    let started = std::time::Instant::now();
    let mut client = HttpClient::connect(local).expect("connect to own exporter");
    let mut on_conn = 0usize;
    for _ in 0..n {
        let class = (rng.next_u64() % n_classes as u64) as usize;
        let admit = rng.next_u64() % 10 < 7; // 70 % admits, 30 % departs
        let path = format!("/{}?class={class}", if admit { "admit" } else { "depart" });
        if on_conn + 1 >= MAX_REQUESTS_PER_CONN {
            client = HttpClient::connect(local).expect("reconnect");
            on_conn = 0;
        }
        let (status, body) = client.get(&path).expect("replay request");
        on_conn += 1;
        assert_eq!(status, 200, "replay got {status} for {path}");
        if body.contains("\"accepted\": true") {
            accepted += 1;
        }
        digest = fnv1a(fnv1a(digest, body.as_bytes()), b"\n");
    }
    let elapsed = started.elapsed();
    // The decision stream alone is invariant under cache capacity and
    // warm-start settings; the full digest additionally folds in /region,
    // whose cache counters legitimately differ between cold and warm runs.
    let decisions_digest = digest;
    let (status, region) = client.get("/region").expect("region request");
    assert_eq!(status, 200);
    digest = fnv1a(digest, region.as_bytes());
    // Reads leave the engine as they found it: a second /region is the
    // same document, cache counters included.
    let (_, again) = client.get("/region").expect("region request");
    assert_eq!(again, region, "a second /region read differs");
    // `--out-region PATH` persists the final /region body (deterministic
    // for a fixed command line) so the dashboard can render the admission
    // panel from committed results.
    if let Some(path) = arg_value(&args, "--out-region") {
        let mut body = region.clone();
        body.push('\n');
        std::fs::write(&path, body).unwrap_or_else(|e| {
            eprintln!("admitd: write {path}: {e}");
            std::process::exit(2);
        });
        println!("admitd region snapshot -> {path}");
    }
    let (status, metrics) = client.get("/metrics").expect("metrics request");
    assert_eq!(status, 200);
    let cache_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("admission_cache_"))
            .map(str::to_string)
            .collect()
    };
    let (_, rescrape) = client.get("/metrics").expect("metrics request");
    assert_eq!(
        cache_lines(&rescrape),
        cache_lines(&metrics),
        "a second /metrics scrape moved the admission_cache_* values"
    );
    assert!(
        metrics.contains("admission_cache_hits_total"),
        "metrics exposition missing admission cache counters"
    );
    assert!(
        metrics.contains("admission_region_occupancy"),
        "metrics exposition missing region occupancy gauges"
    );
    assert!(
        metrics.contains("obs_http_requests_total{route="),
        "metrics exposition missing per-route request counters"
    );
    assert!(
        metrics.contains("obs_http_request_duration_ns_bucket{route="),
        "metrics exposition missing HDR latency buckets"
    );
    let (status, health) = client.get("/health").expect("health request");
    assert_eq!(status, 200);
    assert!(
        health.contains("\"service\":\"admitd\""),
        "health body missing service name: {health}"
    );
    let slo_body = if slo_enabled {
        let (status, slo) = client.get("/slo").expect("slo request");
        assert_eq!(status, 200);
        assert!(
            slo.contains("budget_remaining") && slo.contains("burn_rate"),
            "slo body missing budget/burn-rate fields: {slo}"
        );
        Some(slo)
    } else {
        None
    };
    // `--out-service PATH` persists the service-health snapshot (SLO
    // statuses + per-route counters + HDR latency) for the dashboard.
    if let Some(path) = arg_value(&args, "--out-service") {
        let body = service_json("admitd", &registry, slo_body.as_deref());
        std::fs::write(&path, body).unwrap_or_else(|e| {
            eprintln!("admitd: write {path}: {e}");
            std::process::exit(2);
        });
        println!("admitd service snapshot -> {path}");
    }

    let stats = engine.lock().expect("engine poisoned").cache_stats();
    let rate_per_sec = n as f64 / elapsed.as_secs_f64();
    println!(
        "admitd replay: {n} decisions ({accepted} accepted) in {:.3}s = {:.0} decisions/s over HTTP",
        elapsed.as_secs_f64(),
        rate_per_sec
    );
    println!(
        "admitd cache: {} hits, {} misses, {} evictions",
        stats.hits, stats.misses, stats.evictions
    );
    println!("admitd decisions digest: {decisions_digest:016x}");
    println!("admitd digest: {digest:016x}");
    // With an access log configured, digest its decision-relevant fields.
    // finish_request writes the line before the response bytes, so every
    // request we got an answer for is already flushed.
    if let Ok(raw) = std::env::var("GPS_OBS_ACCESS_LOG") {
        if let gps_obs::SinkKind::File(path) = gps_obs::SinkKind::parse(&raw) {
            drop(client); // close the connection before reading the log
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("admitd: read access log {}: {e}", path.display());
                std::process::exit(2);
            });
            match access_digest(&text) {
                Ok(h) => println!("admitd access digest: {h:016x}"),
                Err(e) => {
                    eprintln!("admitd: access log parse: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    exporter.shutdown();
}
