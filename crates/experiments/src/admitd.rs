//! `admitd`'s HTTP surface, shared by the binary, `obs_check` and the
//! tests: the default traffic classes, the `/admit`, `/depart` and
//! `/region` routes over a locked [`AdmissionEngine`], and the read-time
//! collector that mirrors the engine onto the registry.
//!
//! A request only decides. The `admission_*` counters and gauges are
//! written when the registry is read (`/metrics`, `/metrics.json`,
//! [`crate::service::service_json`]), and the region search runs there
//! and on `/region`, never per decision. Neither read touches the
//! certificate cache, so its counters count decision lookups only.

use gps_analysis::{AdmissionEngine, ClassSpec, Decision, QosTarget, RequestKind};
use gps_ebb::EbbProcess;
use gps_obs::json::fmt_f64;
use gps_obs::metrics::Registry;
use gps_obs::{HttpRequest, RequestHandler, RouteResponse};
use std::sync::{Arc, Mutex};

/// The service's default traffic classes: voice/video/data-like mixes
/// scaled so one unit-rate server carries a few dozen sessions.
pub fn default_classes() -> Vec<ClassSpec> {
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

/// Makes every snapshot of `registry` first mirror `engine` onto it: the
/// counters and cheap gauges ([`AdmissionEngine::publish`]) and the
/// region gauges ([`AdmissionEngine::publish_region`]).
pub fn collect(registry: &Registry, engine: Arc<Mutex<AdmissionEngine>>) {
    registry.set_collector(move |registry| {
        let mut engine = engine.lock().expect("engine poisoned");
        engine.publish(registry);
        engine.publish_region(registry);
    });
}

/// The `/admit?class=K`, `/depart?class=K` and `/region` routes. Every
/// endpoint is a GET: any other method is refused before it can reach
/// the engine.
pub fn routes(engine: Arc<Mutex<AdmissionEngine>>) -> RequestHandler {
    Arc::new(move |req: &HttpRequest| {
        if req.method != "GET" {
            return Some(RouteResponse::text(405, "GET only\n"));
        }
        let (route, query) = match req.path.split_once('?') {
            Some((r, q)) => (r, Some(q)),
            None => (req.path, None),
        };
        let kind = match route {
            "/admit" => RequestKind::Admit,
            "/depart" => RequestKind::Depart,
            "/region" => {
                let engine = engine.lock().expect("engine poisoned");
                return Some(RouteResponse::json(200, region_json(&engine)));
            }
            _ => return None,
        };
        let mut engine = engine.lock().expect("engine poisoned");
        let class = match class_param(query, engine.classes().len()) {
            Ok(c) => c,
            Err(e) => return Some(RouteResponse::json(400, format!("{{\"error\": \"{e}\"}}"))),
        };
        let d = match kind {
            RequestKind::Admit => engine.admit(class),
            RequestKind::Depart => engine.depart(class),
        };
        Some(RouteResponse::json(200, decision_json(&d)))
    })
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

/// The `/region` document: one region pass plus the engine's counters.
fn region_json(engine: &AdmissionEngine) -> String {
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
        "{{\"capacity\": {}, \"load\": {}, \"sessions\": {}, \
         \"decisions\": {}, \"admitted\": {}, \"rejected\": {}, \"departed\": {}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}, \
         \"classes\": [{}]}}",
        fmt_f64(engine.rate()),
        fmt_f64(engine.load()),
        engine.sessions(),
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
