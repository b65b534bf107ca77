//! Integration tests for the observability determinism contract:
//! journal NDJSON round-trips, metrics snapshots are byte-identical for
//! identical seeded workloads, and the Noop sink writes nothing.

use gps_obs::journal::{self, Sink};
use gps_obs::metrics::Registry;
use gps_obs::{FieldValue, Journal, Level};
use gps_stats::rng::{RngExt, Xoshiro256pp};

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gps_obs_it_{tag}_{}", std::process::id()))
}

#[test]
fn ndjson_round_trip_through_file_sink() {
    let dir = tmp_path("roundtrip");
    let path = dir.join("events.ndjson");
    let j = Journal::file(&path, Level::Debug).expect("open journal");
    j.info(
        "sim.runner",
        "single_node_start",
        &[
            ("seed", FieldValue::U64(20260704)),
            ("capacity", FieldValue::F64(1.0)),
            ("set", FieldValue::Str("Set1")),
        ],
    );
    j.debug(
        "sim.faults",
        "fault_config",
        &[("drop", FieldValue::F64(0.1))],
    );
    j.error("campaign", "boom", &[("fatal", FieldValue::Bool(false))]);
    drop(j);

    let text = std::fs::read_to_string(&path).expect("read journal");
    let events = journal::parse_ndjson(&text).expect("parse journal");
    assert_eq!(events.len(), 3);
    assert_eq!(events[0].level, Level::Info);
    assert_eq!(events[0].component, "sim.runner");
    assert_eq!(events[0].event, "single_node_start");
    let field = |e: &journal::ParsedEvent, key: &str| {
        e.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(field(&events[0], "seed").as_u64(), Some(20260704));
    assert_eq!(field(&events[0], "set").as_str(), Some("Set1"));
    assert_eq!(events[1].level, Level::Debug);
    assert_eq!(events[2].level, Level::Error);
    // Sequence numbers are consecutive from zero.
    for (k, e) in events.iter().enumerate() {
        assert_eq!(e.seq, k as u64);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn canonical_lines_identical_across_runs() {
    // Two separate journals emitting the same events differ only in the
    // t_us timing field: stripping it must make them byte-identical.
    let write_once = |tag: &str| {
        let dir = tmp_path(tag);
        let path = dir.join("j.ndjson");
        let j = Journal::file(&path, Level::Info).expect("open");
        for k in 0..10u64 {
            j.info("c", "tick", &[("k", FieldValue::U64(k))]);
        }
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).ok();
        text
    };
    let a = write_once("runa");
    let b = write_once("runb");
    let strip = |t: &str| -> Vec<String> {
        t.lines()
            .map(|line| {
                let (head, rest) = line.split_once(",\"t_us\":").expect("t_us field");
                format!(
                    "{head}{}",
                    rest.trim_start_matches(|c: char| c.is_ascii_digit())
                )
            })
            .collect()
    };
    assert_eq!(strip(&a), strip(&b));
}

#[test]
fn metrics_snapshot_deterministic_under_fixed_seed() {
    let run = |seed: u64| -> String {
        let r = Registry::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let hits = r.counter("workload.hits");
        let level = r.gauge("workload.level");
        for _ in 0..5_000 {
            let x = rng.next_f64();
            if x > 0.25 {
                hits.inc();
            }
            level.set(x);
        }
        r.snapshot().to_json_without_spans()
    };
    assert_eq!(run(0xDE7E), run(0xDE7E));
    assert_ne!(run(0xDE7E), run(0xDE7F));
}

#[test]
fn noop_sink_writes_nothing() {
    let j = Journal::noop();
    assert!(!j.enabled(Level::Error));
    for _ in 0..1_000 {
        j.info("c", "e", &[("x", FieldValue::U64(1))]);
        j.error("c", "e", &[]);
    }
    assert_eq!(j.events_written(), 0);
    // Stderr journal below Info level also stays silent.
    let quiet = Journal::new(Sink::Stderr, Level::Error);
    quiet.info("c", "suppressed", &[]);
    assert_eq!(quiet.events_written(), 0);
}

#[test]
fn fault_counters_flow_into_snapshot_json() {
    // End-to-end: seeded RNG drives counters through the registry and the
    // rendered snapshot carries exact integer counts.
    let r = Registry::new();
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let drops = r.counter("sim.faults.drops{session=0}");
    let mut expected = 0u64;
    for _ in 0..10_000 {
        if rng.bernoulli(0.125) {
            drops.inc();
            expected += 1;
        }
    }
    let json = r.snapshot().to_json();
    let v = gps_obs::json::parse(&json).expect("snapshot json");
    let counters = v.get("counters").expect("counters key");
    assert_eq!(
        counters
            .get("sim.faults.drops{session=0}")
            .unwrap()
            .as_u64(),
        Some(expected)
    );
}
