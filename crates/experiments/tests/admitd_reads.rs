//! Reads of `admitd`'s state do not change it: a run that interleaves
//! `GET /region` and `GET /metrics` with its decisions answers every
//! decision with the same bytes, and ends with the same
//! `admission_cache_*` counters, as the same run with no reads. Served
//! through `Exporter::serve` with admitd's own routes and collector.

use gps_analysis::{AdmissionEngine, CertBackend, RequestKind};
use gps_ebb::TimeModel;
use gps_experiments::admitd::{collect, default_classes, routes};
use gps_obs::exporter::{HttpClient, MAX_REQUESTS_PER_CONN};
use gps_obs::metrics::Registry;
use gps_obs::Exporter;
use gps_stats::{RngCore, Xoshiro256pp};
use std::sync::{Arc, Mutex};

/// What a run leaves behind: every decision body, the final `/region`
/// body, and the final scrape's `admission_cache_*` lines.
#[derive(Debug, PartialEq)]
struct Run {
    decisions: Vec<String>,
    region: String,
    cache: Vec<String>,
}

fn serve_and_replay(backend: CertBackend, cap: usize, read_every: Option<usize>) -> Run {
    let engine =
        AdmissionEngine::with_cache_cap(default_classes(), 1.0, TimeModel::Discrete, backend, cap)
            .expect("default classes are valid");
    let engine = Arc::new(Mutex::new(engine));
    let registry = Registry::new();
    collect(&registry, Arc::clone(&engine));
    let exporter = Exporter::serve(
        "127.0.0.1:0",
        registry,
        Some(routes(Arc::clone(&engine))),
        None,
    )
    .expect("bind");
    let addr = exporter.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    let mut on_conn = 0;
    let mut get = |path: &str| {
        if on_conn + 1 >= MAX_REQUESTS_PER_CONN {
            client = HttpClient::connect(addr).expect("reconnect");
            on_conn = 0;
        }
        on_conn += 1;
        let (status, body) = client.get(path).expect("request");
        assert_eq!(status, 200, "{path}");
        body
    };
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let mut decisions = Vec::new();
    for i in 0..240 {
        if read_every.is_some_and(|k| i % k == 0) {
            get("/region");
            get("/metrics");
        }
        let class = rng.next_u64() % 4;
        let kind = if rng.next_u64() % 10 < 7 {
            RequestKind::Admit
        } else {
            RequestKind::Depart
        };
        let route = match kind {
            RequestKind::Admit => "admit",
            RequestKind::Depart => "depart",
        };
        decisions.push(get(&format!("/{route}?class={class}")));
    }
    let region = get("/region");
    let cache = get("/metrics")
        .lines()
        .filter(|l| l.starts_with("admission_cache_"))
        .map(str::to_string)
        .collect();
    exporter.shutdown();
    Run {
        decisions,
        region,
        cache,
    }
}

#[test]
fn region_and_metrics_reads_leave_decisions_and_cache_counters_unchanged() {
    // A large cache, and one small enough that decisions evict.
    for (backend, cap) in [
        (CertBackend::Rpps, 1 << 16),
        (CertBackend::Rpps, 8),
        (CertBackend::EffectiveBandwidth, 1 << 16),
    ] {
        let plain = serve_and_replay(backend, cap, None);
        let read = serve_and_replay(backend, cap, Some(5));
        assert_eq!(plain.cache.len(), 4, "{:?}", plain.cache);
        if cap == 8 {
            assert!(
                plain.cache.iter().any(
                    |l| l.starts_with("admission_cache_evictions_total ") && !l.ends_with(" 0")
                ),
                "the small cache never evicted: {:?}",
                plain.cache
            );
        }
        assert_eq!(read, plain, "{backend:?} cap {cap}");
    }
}
