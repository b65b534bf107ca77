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

use gps_analysis::{AdmissionEngine, CertBackend, ClassSpec, Decision, QosTarget, RequestKind};
use gps_ebb::{EbbProcess, TimeModel};
use gps_experiments::service::service_json;
use gps_obs::exporter::{HttpClient, MAX_REQUESTS_PER_CONN};
use gps_obs::json::{fmt_f64, Json};
use gps_obs::metrics::Registry;
use gps_obs::{Exporter, HttpRequest, RequestHandler, RouteResponse, SloSpec, TelemetryConfig};
use gps_stats::{RngCore, Xoshiro256pp};
use std::sync::{Arc, Mutex};

/// The service's default traffic classes: voice/video/data-like mixes
/// scaled so one unit-rate server carries a few dozen sessions.
fn default_classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec::new(
            "voice",
            EbbProcess::new(0.02, 1.0, 17.4),
            QosTarget::new(5.0, 1e-6),
        ),
        ClassSpec::new(
            "video",
            EbbProcess::new(0.08, 2.0, 6.0),
            QosTarget::new(10.0, 1e-4),
        ),
        ClassSpec::new(
            "data",
            EbbProcess::new(0.05, 4.0, 3.0),
            QosTarget::new(40.0, 1e-3),
        ),
        ClassSpec::new(
            "bulk",
            EbbProcess::new(0.1, 6.0, 2.0),
            QosTarget::new(120.0, 1e-2),
        ),
    ]
}

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

fn decision_json(d: &Decision) -> String {
    let kind = match d.kind {
        RequestKind::Admit => "admit",
        RequestKind::Depart => "depart",
    };
    let cert = match &d.certificate {
        Some(c) => format!(
            "{{\"prefactor\": {}, \"decay\": {}}}",
            fmt_f64(c.prefactor),
            fmt_f64(c.decay)
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"seq\": {}, \"class\": {}, \"kind\": \"{kind}\", \"accepted\": {}, \
         \"sessions\": {}, \"load\": {}, \"load_bits\": \"{:016x}\", \"certificate\": {cert}}}",
        d.seq,
        d.class,
        d.accepted,
        d.sessions,
        fmt_f64(d.load),
        d.load.to_bits()
    )
}

fn region_json(engine: &mut AdmissionEngine) -> String {
    let capacity = engine.rate();
    let load = engine.load();
    let sessions = engine.sessions();
    let stats = engine.stats();
    let cache = engine.cache_stats();
    let rows: Vec<String> = engine
        .region()
        .iter()
        .map(|r| {
            format!(
                "{{\"class\": {}, \"name\": \"{}\", \"sessions\": {}, \
                 \"headroom\": {}, \"occupancy\": {}}}",
                r.class,
                r.name,
                r.sessions,
                r.headroom,
                fmt_f64(r.occupancy)
            )
        })
        .collect();
    format!(
        "{{\"capacity\": {}, \"load\": {}, \"sessions\": {sessions}, \
         \"decisions\": {}, \"admitted\": {}, \"rejected\": {}, \"departed\": {}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}, \
         \"classes\": [{}]}}",
        fmt_f64(capacity),
        fmt_f64(load),
        stats.decisions,
        stats.admitted,
        stats.rejected,
        stats.departed,
        cache.hits,
        cache.misses,
        cache.evictions,
        rows.join(", ")
    )
}

/// Parses `class=K` from an `/admit?class=K`-style query string.
fn class_param(query: Option<&str>, n_classes: usize) -> Result<usize, String> {
    let q = query.ok_or("missing query: expected ?class=K")?;
    let raw = q
        .split('&')
        .find_map(|kv| kv.strip_prefix("class="))
        .ok_or("missing class parameter")?;
    let k: usize = raw.parse().map_err(|_| format!("bad class {raw:?}"))?;
    if k >= n_classes {
        return Err(format!("class {k} out of range (have {n_classes})"));
    }
    Ok(k)
}

fn routes(engine: Arc<Mutex<AdmissionEngine>>, registry: Registry) -> RequestHandler {
    Arc::new(move |req: &HttpRequest| {
        // Every endpoint here is a GET: a POST is refused before it can
        // reach the engine.
        if req.method != "GET" {
            return Some(RouteResponse::text(405, "GET only\n"));
        }
        let (route, query) = match req.path.split_once('?') {
            Some((r, q)) => (r, Some(q)),
            None => (req.path, None),
        };
        let op = match route {
            "/admit" => Some(RequestKind::Admit),
            "/depart" => Some(RequestKind::Depart),
            "/region" => None,
            _ => return None,
        };
        let mut engine = engine.lock().expect("engine poisoned");
        let body = match op {
            Some(kind) => {
                let class = match class_param(query, engine.classes().len()) {
                    Ok(c) => c,
                    Err(e) => {
                        return Some(RouteResponse::json(400, format!("{{\"error\": \"{e}\"}}")))
                    }
                };
                let d = match kind {
                    RequestKind::Admit => engine.admit(class),
                    RequestKind::Depart => engine.depart(class),
                };
                engine.publish(&registry);
                decision_json(&d)
            }
            None => {
                engine.publish(&registry);
                region_json(&mut engine)
            }
        };
        Some(RouteResponse::json(200, body))
    })
}

/// FNV-1a over response bodies — the determinism surface `verify.sh`
/// compares across thread matrices.
fn fnv1a_update(h: &mut u64, text: &str) {
    for b in text.as_bytes() {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
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
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in &lines {
        fnv1a_update(&mut h, l);
        fnv1a_update(&mut h, "\n");
    }
    Ok(h)
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
    let mut engine = engine.unwrap_or_else(|e| {
        eprintln!("admitd: {e}");
        std::process::exit(2);
    });
    let n_classes = engine.classes().len();
    let registry = Registry::new();
    engine.publish(&registry); // expose gauges before the first request
    let engine = Arc::new(Mutex::new(engine));

    let slo_enabled = args.iter().any(|a| a == "--slo");
    let mut telemetry = TelemetryConfig::from_env("admitd");
    if slo_enabled {
        telemetry = telemetry.with_slos(default_slos());
    }
    let exporter = Exporter::serve(
        &addr,
        registry.clone(),
        Some(routes(Arc::clone(&engine), registry.clone())),
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
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
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
        fnv1a_update(&mut digest, &body);
        fnv1a_update(&mut digest, "\n");
    }
    let elapsed = started.elapsed();
    // The decision stream alone is invariant under cache capacity and
    // warm-start settings; the full digest additionally folds in /region,
    // whose cache counters legitimately differ between cold and warm runs.
    let decisions_digest = digest;
    let (status, region) = client.get("/region").expect("region request");
    assert_eq!(status, 200);
    fnv1a_update(&mut digest, &region);
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
