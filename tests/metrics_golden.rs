//! Exact-bytes golden for the metrics snapshot JSON
//! (`Snapshot::to_json_without_spans`), the format every committed
//! `results/*_metrics.json` is written in. The `"histograms"` and
//! `"summaries"` keys are part of that format and render as empty
//! objects; the `"hdr_histograms"` section appears only when an HDR
//! histogram was registered.

use gps_obs::metrics::{labeled, Registry};

#[test]
fn empty_registry_snapshot_bytes() {
    let json = Registry::new().snapshot().to_json_without_spans();
    assert_eq!(
        json,
        "{\n  \"counters\": {\n  },\n  \"gauges\": {\n  },\n  \"histograms\": {\n  },\n  \
         \"summaries\": {\n  }\n}\n"
    );
}

#[test]
fn populated_registry_snapshot_bytes() {
    let r = Registry::new();
    r.counter("sim.slots").add(42);
    r.counter(&labeled("faults.drops", &[("session", "2")]))
        .add(3);
    r.gauge("load").set(0.625);
    let h = r.hdr("rpc.latency_ns");
    for v in [7, 460, 460, 40_000_000] {
        h.observe(v);
    }
    r.record_span("timed", 123); // wall clock: excluded from this render
    let json = r.snapshot().to_json_without_spans();
    assert_eq!(
        json,
        "{\n  \"counters\": {\n    \"faults.drops{session=2}\": 3,\n    \"sim.slots\": 42\n  },\n  \
         \"gauges\": {\n    \"load\": 0.625\n  },\n  \"histograms\": {\n  },\n  \
         \"hdr_histograms\": {\n    \"rpc.latency_ns\": {\"sub_bits\": 5, \
         \"max_trackable\": 60000000000, \"count\": 4, \"sum\": 40000927, \"min\": 7, \
         \"max\": 40000000, \"saturated\": 0, \"buckets\": [[7,1],[463,2],[41943039,1]], \
         \"p50\": 463, \"p90\": 41943039, \"p99\": 41943039, \"p999\": 41943039}\n  },\n  \
         \"summaries\": {\n  }\n}\n"
    );
}
