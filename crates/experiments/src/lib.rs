//! Shared infrastructure for the reproduction experiments.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (or one of the additional validation/ablation studies listed in
//! `DESIGN.md`). This library holds what they share:
//!
//! * [`paper`] — the paper's Section-6.3 scenario as constants: Table-1
//!   source parameters, the two ρ sets, the printed Table-2 values, and
//!   constructors for the Figure-2 network;
//! * [`csv`] — a minimal CSV writer into `results/`;
//! * [`plot`] — ASCII log-scale tail plots, so every figure is visible
//!   directly in the terminal transcript;
//! * [`scenarios`] — the named campaign scenarios (`paper`, `overload`)
//!   that `campaignd` and `campaign-worker` resolve on both ends of a
//!   distributed run;
//! * [`service`] — the shared `--out-service` service-health snapshot
//!   (SLO statuses + per-route telemetry) the daemons persist;
//! * [`admitd`] — `admitd`'s routes, default classes and read-time
//!   metrics collector;
//! * [`init_obs`]/[`finish_obs`] — the observability bracket every binary
//!   runs inside: journal sink selection, then metrics snapshot + run
//!   manifest into `results/`.

pub mod admitd;
pub mod csv;
pub mod paper;
pub mod plot;
pub mod scenarios;
pub mod service;

use gps_obs::{Exporter, Level, ObsConfig, RunManifest, SinkKind};
use std::path::PathBuf;
use std::time::Instant;

/// Handle returned by [`init_obs`], consumed by [`finish_obs`].
#[derive(Debug)]
pub struct ObsSetup {
    campaign: String,
    journal_path: Option<PathBuf>,
    exporter: Option<Exporter>,
    start: Instant,
}

impl ObsSetup {
    /// The bound address of the live `/metrics` server, when one was
    /// requested via `--serve` / `GPS_OBS_SERVE` (useful with port 0).
    pub fn exporter_addr(&self) -> Option<std::net::SocketAddr> {
        self.exporter.as_ref().map(|e| e.local_addr())
    }
}

/// The telemetry-server address requested for this run: the value of a
/// `--serve <addr>` / `--serve=<addr>` command-line flag if present,
/// otherwise the `GPS_OBS_SERVE` environment variable, otherwise `None`.
pub fn serve_addr_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--serve" {
            if let Some(addr) = args.next() {
                return Some(addr);
            }
        } else if let Some(addr) = a.strip_prefix("--serve=") {
            return Some(addr.to_string());
        }
    }
    std::env::var("GPS_OBS_SERVE").ok()
}

/// Configures the global observability hub for the campaign named
/// `campaign` (by convention the binary name).
///
/// * `quiet` forces the Noop sink (no journal output at all);
/// * otherwise `GPS_OBS_SINK` picks the sink — `stderr` (the default),
///   `noop`, the shorthand `file` (= `results/<campaign>_journal.ndjson`),
///   or an explicit path;
/// * `GPS_OBS_LEVEL` / `GPS_OBS_TIMING` select verbosity and span timing;
/// * `GPS_OBS_TRACE` arms the flight recorder ([`gps_obs::trace`]) —
///   `1`/`timing` for per-worker timelines, `counts` for the deterministic
///   counts-only digest; [`finish_obs`] exports the collected events to
///   `results/<campaign>_trace.json`;
/// * `--serve <addr>` on the command line or `GPS_OBS_SERVE=<addr>` starts
///   the live telemetry server ([`gps_obs::exporter`]) on `addr` for the
///   duration of the campaign — `/metrics`, `/metrics.json`, `/health`, and
///   the live `/progress` campaign tracker (shut down by [`finish_obs`]
///   after the final metrics snapshot is written).
pub fn init_obs(campaign: &str, quiet: bool) -> ObsSetup {
    let mut cfg = ObsConfig::from_env_or(ObsConfig {
        sink: SinkKind::Stderr,
        level: Level::Info,
        timing: false,
    });
    if quiet {
        cfg.sink = SinkKind::Noop;
    }
    let mut journal_path = None;
    if let SinkKind::File(p) = &cfg.sink {
        let path = if p.as_os_str() == "file" {
            results_dir().join(format!("{campaign}_journal.ndjson"))
        } else {
            p.clone()
        };
        cfg.sink = SinkKind::File(path.clone());
        journal_path = Some(path);
    }
    gps_obs::init(cfg);
    gps_obs::trace::init_from_env();
    gps_obs::info("campaign", "start", &[("name", campaign.into())]);
    let exporter = serve_addr_from_args().and_then(|addr| {
        match Exporter::serve(&addr, gps_obs::metrics().clone(), None, None) {
            Ok(e) => {
                eprintln!("telemetry: serving /metrics on http://{}", e.local_addr());
                Some(e)
            }
            Err(err) => {
                eprintln!("telemetry: cannot serve on {addr}: {err}");
                None
            }
        }
    });
    ObsSetup {
        campaign: campaign.to_string(),
        journal_path,
        exporter,
        start: Instant::now(),
    }
}

/// Closes out a campaign: stamps wall-clock time and the journal path on
/// `manifest`, writes `results/<campaign>_metrics.json` (if any metrics
/// were recorded) and `results/<campaign>_manifest.json`.
pub fn finish_obs(setup: ObsSetup, mut manifest: RunManifest) -> std::io::Result<()> {
    let dir = results_dir();
    if let Some(p) = &setup.journal_path {
        manifest.journal(&p.display().to_string());
    }
    manifest.wall_ms(setup.start.elapsed().as_secs_f64() * 1e3);
    let snap = gps_obs::metrics().snapshot();
    if !snap.is_empty() {
        std::fs::write(
            dir.join(format!("{}_metrics.json", setup.campaign)),
            snap.to_json(),
        )?;
    }
    if let Some(body) = gps_obs::trace::export_json(&setup.campaign) {
        let path = dir.join(format!("{}_trace.json", setup.campaign));
        std::fs::write(&path, body)?;
        manifest.trace(&path.display().to_string());
    }
    gps_obs::info(
        "campaign",
        "end",
        &[("name", setup.campaign.as_str().into())],
    );
    manifest.write_to(&dir)?;
    // Shut the telemetry server down last so a scraper polling during the
    // campaign can still observe the final counters.
    if let Some(exporter) = setup.exporter {
        exporter.shutdown();
    }
    Ok(())
}

/// True when `--resume` was passed on the command line: supervised
/// campaigns then restore completed replications from their checkpoint
/// instead of discarding it and recomputing everything.
pub fn resume_flag() -> bool {
    std::env::args().skip(1).any(|a| a == "--resume")
}

/// Default checkpoint location for a supervised campaign:
/// `results/<campaign>_checkpoint.ndjson` (see [`gps_sim::supervise`]).
pub fn checkpoint_path(campaign: &str) -> PathBuf {
    results_dir().join(format!("{campaign}_checkpoint.ndjson"))
}

/// Measurement-length override for smoke runs: `GPS_MEASURE_SLOTS` (a
/// plain integer) replaces `default` when set and parseable.
pub fn measure_slots_or(default: u64) -> u64 {
    std::env::var("GPS_MEASURE_SLOTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Resolves the output directory (`results/` under the workspace root,
/// overridable with `GPS_RESULTS_DIR`), creating it if needed.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::env::var("GPS_RESULTS_DIR").unwrap_or_else(|_| {
        // The binaries run from anywhere in the workspace; walk up from
        // the manifest dir to the workspace root.
        let manifest = env!("CARGO_MANIFEST_DIR");
        format!("{manifest}/../../results")
    });
    let path = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create results dir");
    path
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_dir_exists_after_call() {
        let d = super::results_dir();
        assert!(d.is_dir());
    }
}
