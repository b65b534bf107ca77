//! The campaign funnel: panic isolation, typed failures, deterministic
//! retry, and crash-safe checkpoint/resume for every model in [`crate::runner`].
//!
//! A model implements [`Replication`] (run core over scratch, merge,
//! metrics, monitor fold, fingerprint, checkpoint codec, validity
//! check); [`SingleNode`] and [`Network`] are the two in tree.
//! [`run_campaign`] is the one entry point: it runs a replication range
//! of any model under a [`Supervisor`] — worker count, chunk size, retry
//! budget, checkpoint, resume, fault injection — and a plain campaign
//! is the same call with `Supervisor::new()`. Every replication runs
//! inside [`gps_par::par_try_map_chunked`] so that:
//!
//! * a panicking replication is retried up to [`gps_par::RetryPolicy`]
//!   attempts with the *same* replication seed (replication `r` always
//!   uses master seed `base.seed + r`, so a recovered run is
//!   byte-identical to one that never panicked), then **quarantined** —
//!   the campaign completes with the surviving replications and the
//!   quarantined indices are surfaced through `sim.campaign.quarantined`
//!   counters and `warn` journal events;
//! * typed failures ([`SimError`]) are never retried — they are
//!   deterministic functions of the inputs;
//! * completed replication reports are appended to a **line-atomic NDJSON
//!   checkpoint** in `results/`, keyed by (config fingerprint, base seed,
//!   replication index). A killed campaign resumes with
//!   [`Supervisor::resume`]: checkpointed replications short-circuit
//!   inside the worker closure (so pool/metric accounting is identical)
//!   and only missing indices are recomputed. Straight-through, killed +
//!   resumed, and retried runs all produce byte-identical CSVs and
//!   metrics JSON;
//! * computed, restored, and remotely submitted reports all pass the
//!   same [`Replication::check`] before they are folded, so a corrupt
//!   line (say `"throughput":"nan"`) is recomputed, never merged.
//!
//! # Checkpoint file layout
//!
//! One JSON object per line, written with a single `write_all` under a
//! mutex (line-atomic: a crash can only truncate the *last* line, and the
//! loader skips unparseable or mismatched lines):
//!
//! ```text
//! {"v":1,"kind":"single_node","config":"<16-hex fnv1a>","seed":123,"replication":4,"report":{...}}
//! ```
//!
//! The config fingerprint covers everything but the seed (weights,
//! capacity, warmup/measure, grids, topology), so a stale checkpoint from
//! a different configuration is ignored rather than corrupting results.
//! Grids are pinned by the fingerprint and therefore omitted from the
//! report payload; non-finite floats (legal in empty
//! [`StreamingMoments`] extrema) are encoded as the strings
//! `"inf"`/`"-inf"`/`"nan"` because JSON has no non-finite numbers.
//!
//! # Fault injection
//!
//! `GPS_FAULT_TASK_PANIC=<r>` makes replication `r` panic on every
//! attempt (quarantine path); `GPS_FAULT_TASK_PANIC=<r>:once` panics only
//! on the first attempt (retry-recovery path). [`PanicInjection`] is also
//! constructible directly so tests need not race on the environment.

use crate::runner::{
    merge_network_reports, merge_single_node_reports, monitor_network_fold,
    monitor_single_node_fold, record_network_metrics, record_single_node_metrics, run_network_core,
    run_single_node_core_scratch, NetworkRunConfig, NetworkRunReport, NetworkScratch,
    SessionReport, SingleNodeRunConfig, SingleNodeRunReport, SingleNodeScratch,
};
use gps_ebb::numeric::NumericError;
use gps_obs::json::{self, Json};
use gps_obs::metrics::{labeled, Registry};
use gps_obs::monitor::BoundMonitor;
use gps_obs::{fnv1a, FNV_OFFSET};
use gps_par::{RetryPolicy, TaskOutcome, TaskReport};
use gps_sources::spectral::ConvergenceError;
use gps_sources::SlotSource;
use gps_stats::{BinnedCcdf, StreamingMoments};
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::faults::FaultConfigError;

/// Typed failure of one campaign replication (or of the campaign itself,
/// for checkpoint I/O). Everything a supervised run can report instead
/// of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A replication panicked on every permitted attempt.
    Panicked {
        /// The replication index.
        replication: u64,
        /// The final panic message.
        message: String,
    },
    /// A numeric helper or θ-optimizer failed.
    Numeric(NumericError),
    /// The Perron power iteration failed to converge.
    Convergence(ConvergenceError),
    /// A fault-injection config was out of domain.
    Fault(FaultConfigError),
    /// The checkpoint file could not be opened or read (campaign-fatal:
    /// running without the requested crash safety would be silent data
    /// loss).
    Checkpoint(String),
    /// A replication's report failed [`Replication::check`] (a
    /// non-finite statistic or an inconsistent sample count).
    InvalidReport {
        /// The replication index.
        replication: u64,
        /// Which invariant broke.
        what: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Panicked {
                replication,
                message,
            } => {
                write!(f, "replication {replication} panicked: {message}")
            }
            SimError::Numeric(e) => write!(f, "numeric failure: {e}"),
            SimError::Convergence(e) => write!(f, "{e}"),
            SimError::Fault(e) => write!(f, "invalid fault config: {e}"),
            SimError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            SimError::InvalidReport { replication, what } => {
                write!(
                    f,
                    "replication {replication} failed its report check: {what}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<NumericError> for SimError {
    fn from(e: NumericError) -> Self {
        SimError::Numeric(e)
    }
}

impl From<ConvergenceError> for SimError {
    fn from(e: ConvergenceError) -> Self {
        SimError::Convergence(e)
    }
}

impl From<FaultConfigError> for SimError {
    fn from(e: FaultConfigError) -> Self {
        SimError::Fault(e)
    }
}

/// Deterministic per-replication panic injection, normally parsed from
/// `GPS_FAULT_TASK_PANIC` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// The replication index to fault.
    pub replication: u64,
    /// When true, only the first attempt panics (exercises the
    /// retry-recovery path); otherwise every attempt panics (exercises
    /// quarantine).
    pub once: bool,
}

impl PanicInjection {
    /// Parses `GPS_FAULT_TASK_PANIC` (`"<r>"` or `"<r>:once"`). Returns
    /// `None` when unset; malformed values are reported via a `warn`
    /// event and ignored.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("GPS_FAULT_TASK_PANIC").ok()?;
        let (num, once) = match raw.strip_suffix(":once") {
            Some(head) => (head, true),
            None => (raw.as_str(), false),
        };
        match num.trim().parse::<u64>() {
            Ok(replication) => Some(Self { replication, once }),
            Err(_) => {
                gps_obs::warn(
                    "sim.supervise",
                    "bad_fault_injection",
                    &[("value", raw.as_str().into())],
                );
                None
            }
        }
    }

    /// Panics iff this injection targets `replication` on `attempt`.
    pub fn arm(&self, replication: u64, attempt: u32) {
        if replication == self.replication && (!self.once || attempt == 0) {
            panic!(
                "injected task panic (GPS_FAULT_TASK_PANIC) at replication {replication} attempt {attempt}"
            );
        }
    }
}

/// Callback invoked after each freshly computed replication completes
/// (checkpoint payload in hand, before the replication is counted done).
/// Workers in [`crate::orchestrate`] use this to stream results to the
/// coordinator; an `Err` fails the replication with
/// [`SimError::Checkpoint`] (never retried — transport retries belong in
/// the hook).
pub type OnComplete = std::sync::Arc<dyn Fn(u64, &Json) -> Result<(), String> + Send + Sync>;

/// How a campaign should run: worker count, chunk size, retry budget,
/// optional checkpoint file, resume mode, and optional fault injection.
#[derive(Clone, Default)]
pub struct Supervisor {
    /// Pool workers (0 → [`gps_par::max_threads`]).
    pub threads: usize,
    /// Replications per claimed task-queue chunk (`None` →
    /// [`gps_par::chunk_size`] default). Chunking only shapes scheduling:
    /// results, restores, retries and quarantines are identical for every
    /// `(threads, chunk)` combination.
    pub chunk: Option<usize>,
    /// Retry policy for panicking replications (default: one retry).
    pub retry: RetryPolicy,
    /// Checkpoint NDJSON path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// When true, replications already in the checkpoint are restored
    /// instead of recomputed; when false an existing checkpoint file is
    /// discarded first.
    pub resume: bool,
    /// Deterministic panic injection (tests pass this directly;
    /// binaries use [`PanicInjection::from_env`]).
    pub inject: Option<PanicInjection>,
    /// Streaming hook for freshly computed replications (not fired for
    /// checkpoint restores). See [`OnComplete`].
    pub on_complete: Option<OnComplete>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("threads", &self.threads)
            .field("chunk", &self.chunk)
            .field("retry", &self.retry)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("inject", &self.inject)
            .field("on_complete", &self.on_complete.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Supervisor {
    /// A supervisor with every worker, default chunking, default retry,
    /// no checkpoint, no injection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 → [`gps_par::max_threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the chunk size (`None` → [`gps_par::chunk_size`] default).
    pub fn with_chunk(mut self, chunk: Option<usize>) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the checkpoint path.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets resume mode.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the injection knob.
    pub fn with_inject(mut self, inject: Option<PanicInjection>) -> Self {
        self.inject = inject;
        self
    }
}

/// Result of a supervised campaign: one [`TaskReport`] per replication
/// (in replication order), plus restore/quarantine accounting.
#[derive(Debug)]
pub struct CampaignOutcome<R> {
    /// Per-replication outcome and attempt count, in replication order.
    pub tasks: Vec<TaskReport<R, SimError>>,
    /// Replications restored from the checkpoint instead of recomputed.
    pub restored: u64,
    /// Replication indices quarantined after exhausting retries.
    pub quarantined: Vec<u64>,
}

impl<R: Clone> CampaignOutcome<R> {
    /// The completed reports, in replication order (quarantined and
    /// failed slots omitted).
    pub fn completed(&self) -> Vec<R> {
        self.tasks
            .iter()
            .filter_map(|t| t.outcome.as_ok().cloned())
            .collect()
    }
}

// ---------------------------------------------------------------------
// Config fingerprints

fn push_f64s(out: &mut String, label: &str, values: &[f64]) {
    out.push_str(label);
    out.push(':');
    for v in values {
        out.push_str(&format!("{:016x},", v.to_bits()));
    }
    out.push(';');
}

/// Fingerprint of a single-node config, excluding the seed (the seed is
/// stored separately on every checkpoint line so one file can in
/// principle hold several campaigns of the same shape).
pub fn fingerprint_single_node(cfg: &SingleNodeRunConfig) -> u64 {
    let mut s = String::from("single_node;");
    push_f64s(&mut s, "phis", &cfg.phis);
    push_f64s(&mut s, "capacity", &[cfg.capacity]);
    s.push_str(&format!("warmup:{};measure:{};", cfg.warmup, cfg.measure));
    push_f64s(&mut s, "backlog_grid", &cfg.backlog_grid);
    push_f64s(&mut s, "delay_grid", &cfg.delay_grid);
    fnv1a(FNV_OFFSET, s.as_bytes())
}

// ---------------------------------------------------------------------
// Report (de)serialization

/// JSON-encodes an `f64` exactly: finite values round-trip through the
/// shortest-decimal writer; non-finite values (which `json::fmt_f64`
/// would flatten to `null`) become tagged strings.
fn num_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::F64(v)
    } else if v.is_nan() {
        Json::Str("nan".to_string())
    } else if v > 0.0 {
        Json::Str("inf".to_string())
    } else {
        Json::Str("-inf".to_string())
    }
}

fn num_from_json(j: &Json) -> Option<f64> {
    match j {
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        other => other.as_f64(),
    }
}

fn ccdf_to_json(c: &BinnedCcdf) -> Json {
    Json::Obj(vec![
        ("total".to_string(), Json::U64(c.len())),
        (
            "exceed".to_string(),
            Json::Arr(c.exceed_counts().iter().map(|&e| Json::U64(e)).collect()),
        ),
    ])
}

fn ccdf_from_json(grid: &[f64], j: &Json) -> Option<BinnedCcdf> {
    let total = j.get("total")?.as_u64()?;
    let Json::Arr(items) = j.get("exceed")? else {
        return None;
    };
    let exceed: Option<Vec<u64>> = items.iter().map(|e| e.as_u64()).collect();
    BinnedCcdf::from_parts(grid.to_vec(), exceed?, total)
}

fn moments_to_json(m: &StreamingMoments) -> Json {
    Json::Obj(vec![
        ("count".to_string(), Json::U64(m.count())),
        ("mean".to_string(), num_to_json(m.mean())),
        ("m2".to_string(), num_to_json(m.m2())),
        ("min".to_string(), num_to_json(m.min())),
        ("max".to_string(), num_to_json(m.max())),
    ])
}

fn moments_from_json(j: &Json) -> Option<StreamingMoments> {
    Some(StreamingMoments::from_parts(
        j.get("count")?.as_u64()?,
        num_from_json(j.get("mean")?)?,
        num_from_json(j.get("m2")?)?,
        num_from_json(j.get("min")?)?,
        num_from_json(j.get("max")?)?,
    ))
}

/// Checkpoint payload for one single-node replication (grids omitted —
/// the config fingerprint pins them).
pub fn single_node_report_to_json(report: &SingleNodeRunReport) -> Json {
    Json::Obj(vec![
        (
            "measured_slots".to_string(),
            Json::U64(report.measured_slots),
        ),
        (
            "sessions".to_string(),
            Json::Arr(
                report
                    .sessions
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("backlog".to_string(), ccdf_to_json(&s.backlog)),
                            ("delay".to_string(), ccdf_to_json(&s.delay)),
                            ("moments".to_string(), moments_to_json(&s.backlog_moments)),
                            ("throughput".to_string(), num_to_json(s.throughput)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`single_node_report_to_json`]; the grids come from `cfg`.
/// Returns `None` on any structural mismatch.
pub fn single_node_report_from_json(
    cfg: &SingleNodeRunConfig,
    j: &Json,
) -> Option<SingleNodeRunReport> {
    let measured_slots = j.get("measured_slots")?.as_u64()?;
    let Json::Arr(items) = j.get("sessions")? else {
        return None;
    };
    if items.len() != cfg.phis.len() {
        return None;
    }
    let sessions: Option<Vec<SessionReport>> = items
        .iter()
        .map(|s| {
            Some(SessionReport {
                backlog: ccdf_from_json(&cfg.backlog_grid, s.get("backlog")?)?,
                delay: ccdf_from_json(&cfg.delay_grid, s.get("delay")?)?,
                backlog_moments: moments_from_json(s.get("moments")?)?,
                throughput: num_from_json(s.get("throughput")?)?,
            })
        })
        .collect();
    Some(SingleNodeRunReport {
        sessions: sessions?,
        measured_slots,
    })
}

// ---------------------------------------------------------------------
// Checkpoint file

/// Renders one checkpoint line (no trailing newline) in the v1 format
/// described in the module docs. The same encoding is used by local
/// checkpoints, worker result streams, and the coordinator journal, so
/// a line written anywhere restores everywhere.
pub fn checkpoint_line(
    kind: &str,
    fingerprint: u64,
    seed: u64,
    replication: u64,
    report: &Json,
) -> String {
    Json::Obj(vec![
        ("v".to_string(), Json::U64(1)),
        ("kind".to_string(), Json::Str(kind.to_string())),
        (
            "config".to_string(),
            Json::Str(format!("{fingerprint:016x}")),
        ),
        ("seed".to_string(), Json::U64(seed)),
        ("replication".to_string(), Json::U64(replication)),
        ("report".to_string(), report.clone()),
    ])
    .to_compact()
}

/// Parses one checkpoint line, returning `(replication, payload)` when
/// the line is well-formed and belongs to the campaign identified by
/// `(kind, fingerprint, seed)`. Inverse of [`checkpoint_line`].
pub fn decode_checkpoint_line(
    line: &str,
    kind: &str,
    fingerprint: u64,
    seed: u64,
) -> Option<(u64, Json)> {
    let v = json::parse(line).ok()?;
    if v.get("v")?.as_u64()? != 1
        || v.get("kind")?.as_str()? != kind
        || v.get("config")?.as_str()? != format!("{fingerprint:016x}")
        || v.get("seed")?.as_u64()? != seed
    {
        return None;
    }
    let r = v.get("replication")?.as_u64()?;
    let report = v.get("report")?.clone();
    Some((r, report))
}

/// Open NDJSON checkpoint: appends are single `write_all`s of complete
/// lines under one mutex, so a crash can only truncate the final line.
/// [`rewrite_durable`](Self::rewrite_durable) additionally offers
/// write-to-temp + fsync + atomic-rename compaction for records that
/// must survive power loss, not just process death. Used for local
/// campaign checkpoints and as the coordinator journal in
/// [`crate::orchestrate`].
#[derive(Debug)]
pub struct CheckpointFile {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    kind: String,
    fingerprint: u64,
    seed: u64,
}

impl CheckpointFile {
    /// Opens (resume) or recreates (fresh) the checkpoint at `path` and
    /// loads the restorable replication payloads.
    pub fn open(
        path: &Path,
        kind: &str,
        fingerprint: u64,
        seed: u64,
        resume: bool,
    ) -> Result<(Self, HashMap<u64, Json>), SimError> {
        let io_err = |what: &str, e: std::io::Error| {
            SimError::Checkpoint(format!("{what} {}: {e}", path.display()))
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err("create dir for", e))?;
            }
        }
        let mut restored = HashMap::new();
        let mut needs_newline = false;
        if resume {
            match std::fs::read_to_string(path) {
                Ok(content) => {
                    needs_newline = !content.is_empty() && !content.ends_with('\n');
                    for (lineno, line) in content.lines().enumerate() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match decode_checkpoint_line(line, kind, fingerprint, seed) {
                            Some((r, report)) => {
                                restored.insert(r, report);
                            }
                            None => {
                                gps_obs::warn(
                                    "sim.supervise",
                                    "checkpoint_line_skipped",
                                    &[("line", (lineno + 1).into())],
                                );
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("read", e)),
            }
        } else {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("remove stale", e)),
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        if needs_newline {
            // Terminate a truncated trailing line so our appends start on
            // a fresh line; the partial line stays (and is skipped by the
            // loader) rather than being rewritten, preserving append-only
            // crash safety.
            file.write_all(b"\n").map_err(|e| io_err("repair", e))?;
        }
        Ok((
            Self {
                path: path.to_path_buf(),
                file: Mutex::new(file),
                kind: kind.to_string(),
                fingerprint,
                seed,
            },
            restored,
        ))
    }

    /// Appends one completed replication as a full line. Append failures
    /// are reported as `warn` events, not errors — the campaign result is
    /// still correct, the file just protects less work on the next crash.
    pub fn append(&self, replication: u64, report: Json) {
        let mut text = checkpoint_line(
            &self.kind,
            self.fingerprint,
            self.seed,
            replication,
            &report,
        );
        text.push('\n');
        gps_obs::trace::instant(
            gps_obs::TraceKind::CheckpointWrite,
            "checkpoint_write",
            replication,
        );
        let mut file = self.file.lock().expect("checkpoint mutex poisoned");
        if let Err(e) = file.write_all(text.as_bytes()) {
            gps_obs::warn(
                "sim.supervise",
                "checkpoint_append_failed",
                &[
                    ("replication", replication.into()),
                    ("error", e.to_string().as_str().into()),
                ],
            );
        }
    }

    /// Flushes appended lines to stable storage (`fsync`). Failures are
    /// warn-only, like [`append`](Self::append).
    pub fn sync(&self) {
        let file = self.file.lock().expect("checkpoint mutex poisoned");
        if let Err(e) = file.sync_data() {
            gps_obs::warn(
                "sim.supervise",
                "checkpoint_sync_failed",
                &[("error", e.to_string().as_str().into())],
            );
        }
    }

    /// Durably replaces the file's contents with `entries` (ascending
    /// replication order): write to a sibling temp file, `fsync` it,
    /// atomically rename over the checkpoint, and `fsync` the directory,
    /// so a power cut leaves either the old complete file or the new
    /// complete file — never a torn mix. Also compacts duplicate lines
    /// accumulated by at-least-once delivery. The append handle is
    /// reopened on the new file, so later [`append`](Self::append)s land
    /// after the rewritten records.
    pub fn rewrite_durable(
        &self,
        entries: &std::collections::BTreeMap<u64, Json>,
    ) -> Result<(), SimError> {
        let io_err = |what: &str, e: std::io::Error| {
            SimError::Checkpoint(format!("{what} {}: {e}", self.path.display()))
        };
        let mut text = String::new();
        for (r, report) in entries {
            text.push_str(&checkpoint_line(
                &self.kind,
                self.fingerprint,
                self.seed,
                *r,
                report,
            ));
            text.push('\n');
        }
        let mut tmp_name = self.path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        // Hold the append lock across the swap so no line lands in the
        // doomed pre-rename inode.
        let mut file = self.file.lock().expect("checkpoint mutex poisoned");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create temp for", e))?;
            f.write_all(text.as_bytes())
                .map_err(|e| io_err("write temp for", e))?;
            f.sync_all().map_err(|e| io_err("fsync temp for", e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("rename into", e))?;
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                // Make the rename itself durable.
                std::fs::File::open(dir)
                    .and_then(|d| d.sync_all())
                    .map_err(|e| io_err("fsync dir of", e))?;
            }
        }
        *file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen", e))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The replication contract

/// A Monte Carlo model the campaign funnel can run: everything
/// [`run_campaign`] needs to know about one model, so supervision,
/// checkpoints, the monitor fold and sharding are written once for all
/// of them.
///
/// Replication `r` of a campaign runs [`run_core`](Self::run_core) on
/// the base config re-seeded to `seed(base) + r`, with fresh sources
/// from the caller's factory and the worker's reusable scratch. The
/// report must be a pure function of `(sources, config)` — a reused
/// scratch must produce the same bits as a fresh one — which is what
/// makes campaigns byte-identical across threads, chunks, resume and
/// distribution.
pub trait Replication {
    /// Run configuration; its seed is the campaign's base seed.
    type Config: Clone + Sync;
    /// Per-worker state reused across the replications a worker drains.
    type Scratch: Default;
    /// One replication's measurements.
    type Report: Clone + Send + Sync;

    /// Model tag on checkpoint lines, journal events and progress.
    const KIND: &'static str;

    /// The config's master seed.
    fn seed(cfg: &Self::Config) -> u64;
    /// `cfg` with its master seed replaced by `seed`.
    fn with_seed(cfg: &Self::Config, seed: u64) -> Self::Config;
    /// Runs one replication over `scratch` (no global metrics fold).
    fn run_core(
        scratch: &mut Self::Scratch,
        sources: &mut [Box<dyn SlotSource>],
        cfg: &Self::Config,
    ) -> Self::Report;
    /// Pools replication reports in slice order.
    fn merge(reports: &[Self::Report]) -> Self::Report;
    /// Folds one report into `registry`.
    fn record_metrics(registry: &Registry, report: &Self::Report);
    /// Checks a pooled report against `monitor`'s curves; returns the
    /// number of violating grid points.
    fn monitor_fold(
        monitor: &BoundMonitor,
        registry: &Registry,
        merged: &Self::Report,
        fold: u64,
    ) -> u64;
    /// Fingerprint of everything in `cfg` but the seed.
    fn fingerprint(cfg: &Self::Config) -> u64;
    /// Checkpoint payload of one report (grids omitted — the
    /// fingerprint pins them).
    fn to_json(report: &Self::Report) -> Json;
    /// Inverse of [`to_json`](Self::to_json); `None` on any structural
    /// mismatch with `cfg`.
    fn from_json(cfg: &Self::Config, payload: &Json) -> Option<Self::Report>;
    /// Semantic validity: `Err` names the first broken invariant. Every
    /// report passes this before it is folded — computed, restored from
    /// a checkpoint, or submitted by a remote worker.
    fn check(report: &Self::Report) -> Result<(), &'static str>;

    /// Decodes a checkpoint payload and applies [`check`](Self::check):
    /// the one gate for reports that crossed a file or a socket.
    fn decode(cfg: &Self::Config, payload: &Json) -> Option<Self::Report> {
        Self::from_json(cfg, payload).filter(|report| Self::check(report).is_ok())
    }
}

/// The single-node slotted GPS model ([`crate::runner::run_single_node_core`]).
#[derive(Debug, Clone, Copy)]
pub struct SingleNode;

impl Replication for SingleNode {
    type Config = SingleNodeRunConfig;
    type Scratch = SingleNodeScratch;
    type Report = SingleNodeRunReport;

    const KIND: &'static str = "single_node";

    fn seed(cfg: &SingleNodeRunConfig) -> u64 {
        cfg.seed
    }

    fn with_seed(cfg: &SingleNodeRunConfig, seed: u64) -> SingleNodeRunConfig {
        SingleNodeRunConfig {
            seed,
            ..cfg.clone()
        }
    }

    fn run_core(
        scratch: &mut SingleNodeScratch,
        sources: &mut [Box<dyn SlotSource>],
        cfg: &SingleNodeRunConfig,
    ) -> SingleNodeRunReport {
        run_single_node_core_scratch(scratch, sources, cfg)
    }

    fn merge(reports: &[SingleNodeRunReport]) -> SingleNodeRunReport {
        merge_single_node_reports(reports)
    }

    fn record_metrics(registry: &Registry, report: &SingleNodeRunReport) {
        record_single_node_metrics(registry, report);
    }

    fn monitor_fold(
        monitor: &BoundMonitor,
        registry: &Registry,
        merged: &SingleNodeRunReport,
        fold: u64,
    ) -> u64 {
        monitor_single_node_fold(monitor, registry, merged, fold)
    }

    fn fingerprint(cfg: &SingleNodeRunConfig) -> u64 {
        fingerprint_single_node(cfg)
    }

    fn to_json(report: &SingleNodeRunReport) -> Json {
        single_node_report_to_json(report)
    }

    fn from_json(cfg: &SingleNodeRunConfig, payload: &Json) -> Option<SingleNodeRunReport> {
        single_node_report_from_json(cfg, payload)
    }

    /// Finite throughput and moments with `M2 ≥ 0`; one backlog sample
    /// and one moments sample per measured slot; at most one delay
    /// sample per measured slot.
    fn check(report: &SingleNodeRunReport) -> Result<(), &'static str> {
        let slots = report.measured_slots;
        for s in &report.sessions {
            let m = &s.backlog_moments;
            if !s.throughput.is_finite() {
                return Err("throughput");
            }
            if !m.mean().is_finite() || !m.m2().is_finite() || m.m2() < 0.0 {
                return Err("backlog_moments");
            }
            if s.backlog.len() != slots || m.count() != slots {
                return Err("backlog_count");
            }
            if s.delay.len() > slots {
                return Err("delay_count");
            }
        }
        Ok(())
    }
}

/// The multi-node network model ([`crate::runner::run_network`]).
#[derive(Debug, Clone, Copy)]
pub struct Network;

impl Replication for Network {
    type Config = NetworkRunConfig;
    type Scratch = NetworkScratch;
    type Report = NetworkRunReport;

    const KIND: &'static str = "network";

    fn seed(cfg: &NetworkRunConfig) -> u64 {
        cfg.seed
    }

    fn with_seed(cfg: &NetworkRunConfig, seed: u64) -> NetworkRunConfig {
        NetworkRunConfig {
            seed,
            ..cfg.clone()
        }
    }

    fn run_core(
        scratch: &mut NetworkScratch,
        sources: &mut [Box<dyn SlotSource>],
        cfg: &NetworkRunConfig,
    ) -> NetworkRunReport {
        run_network_core(scratch, sources, cfg)
    }

    fn merge(reports: &[NetworkRunReport]) -> NetworkRunReport {
        merge_network_reports(reports)
    }

    fn record_metrics(registry: &Registry, report: &NetworkRunReport) {
        record_network_metrics(registry, report);
    }

    fn monitor_fold(
        monitor: &BoundMonitor,
        registry: &Registry,
        merged: &NetworkRunReport,
        fold: u64,
    ) -> u64 {
        monitor_network_fold(monitor, registry, merged, fold)
    }

    fn fingerprint(cfg: &NetworkRunConfig) -> u64 {
        let mut s = String::from("network;");
        let topo = &cfg.topology;
        let rates: Vec<f64> = (0..topo.num_nodes()).map(|m| topo.node_rate(m)).collect();
        push_f64s(&mut s, "node_rates", &rates);
        for (i, sess) in topo.sessions().iter().enumerate() {
            s.push_str(&format!("session{i}:"));
            for &n in &sess.route {
                s.push_str(&format!("{n},"));
            }
            s.push('|');
            for p in &sess.phis {
                s.push_str(&format!("{:016x},", p.to_bits()));
            }
            s.push(';');
        }
        s.push_str(&format!("warmup:{};measure:{};", cfg.warmup, cfg.measure));
        push_f64s(&mut s, "backlog_grid", &cfg.backlog_grid);
        push_f64s(&mut s, "delay_grid", &cfg.delay_grid);
        fnv1a(FNV_OFFSET, s.as_bytes())
    }

    fn to_json(report: &NetworkRunReport) -> Json {
        let arr = |ccdfs: &[BinnedCcdf]| Json::Arr(ccdfs.iter().map(ccdf_to_json).collect());
        Json::Obj(vec![
            (
                "measured_slots".to_string(),
                Json::U64(report.measured_slots),
            ),
            ("backlog".to_string(), arr(&report.backlog)),
            ("delay".to_string(), arr(&report.delay)),
        ])
    }

    fn from_json(cfg: &NetworkRunConfig, payload: &Json) -> Option<NetworkRunReport> {
        let measured_slots = payload.get("measured_slots")?.as_u64()?;
        let n = cfg.topology.num_sessions();
        let decode = |key: &str, grid: &[f64]| -> Option<Vec<BinnedCcdf>> {
            let Json::Arr(items) = payload.get(key)? else {
                return None;
            };
            if items.len() != n {
                return None;
            }
            items.iter().map(|c| ccdf_from_json(grid, c)).collect()
        };
        Some(NetworkRunReport {
            backlog: decode("backlog", &cfg.backlog_grid)?,
            delay: decode("delay", &cfg.delay_grid)?,
            measured_slots,
        })
    }

    /// One network-backlog sample per session per measured slot.
    fn check(report: &NetworkRunReport) -> Result<(), &'static str> {
        if report
            .backlog
            .iter()
            .any(|b| b.len() != report.measured_slots)
        {
            return Err("backlog_count");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The campaign funnel

/// Quarantine/fold bookkeeping. Restores are journal-only (no counters)
/// so a resumed run's metrics snapshot is byte-identical to a
/// straight-through run's; quarantines *do* move counters — they only
/// occur under real or injected faults. `start` offsets task indices
/// into absolute replication indices for range-sharded campaigns.
fn account_outcomes<R>(
    campaign: &str,
    tasks: &[TaskReport<R, SimError>],
    restored: u64,
    start: u64,
) -> Vec<u64> {
    if restored > 0 {
        gps_obs::info(
            "sim.supervise",
            "replications_restored",
            &[("campaign", campaign.into()), ("count", restored.into())],
        );
    }
    let mut quarantined = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let r = start + i as u64;
        match &t.outcome {
            TaskOutcome::Ok(_) => {}
            TaskOutcome::Panicked(message) => {
                quarantined.push(r);
                gps_obs::global_progress().add_quarantined(1);
                let m = gps_obs::metrics();
                m.counter("sim.campaign.quarantined").inc();
                let rep = r.to_string();
                m.counter(&labeled(
                    "sim.campaign.quarantined",
                    &[("replication", &rep)],
                ))
                .inc();
                gps_obs::warn(
                    "sim.supervise",
                    "replication_quarantined",
                    &[
                        ("campaign", campaign.into()),
                        ("replication", r.into()),
                        ("attempts", u64::from(t.attempts).into()),
                        ("message", message.as_str().into()),
                    ],
                );
            }
            TaskOutcome::Failed(e) => {
                gps_obs::global_progress().add_done(1);
                gps_obs::metrics().counter("sim.campaign.failed").inc();
                gps_obs::warn(
                    "sim.supervise",
                    "replication_failed",
                    &[
                        ("campaign", campaign.into()),
                        ("replication", r.into()),
                        ("error", e.to_string().as_str().into()),
                    ],
                );
            }
        }
    }
    quarantined
}

/// Runs replications `range` of the campaign `base` under `supervisor`
/// — the one campaign funnel every model and caller goes through.
///
/// Replication `r` uses master seed `seed(base) + r` and fresh sources
/// from `make_sources(r)`, wherever the range starts, so sharded runs
/// compose into exactly the reports a full run produces. The
/// supervisor's `threads` workers (0 → [`gps_par::max_threads`]) drain
/// `chunk`-sized ranges of replications, each over its own reusable
/// [`Replication::Scratch`] (rebuilt after a caught panic). Panics are
/// retried per [`Supervisor::retry`] and then quarantined; computed
/// reports must pass [`Replication::check`]; completed replications are
/// checkpointed (and restored when [`Supervisor::resume`], if they
/// decode and pass the same check). Metrics and the optional monitor
/// fold happen after the join, in replication order over the completed
/// reports, so worker count, chunk size and resume state never change
/// the output. A plain campaign is this with `Supervisor::new()`.
pub fn run_campaign<R: Replication>(
    base: &R::Config,
    range: Range<u64>,
    make_sources: impl Fn(u64) -> Vec<Box<dyn SlotSource>> + Sync,
    supervisor: &Supervisor,
    monitor: Option<&BoundMonitor>,
) -> Result<CampaignOutcome<R::Report>, SimError> {
    let threads = match supervisor.threads {
        0 => gps_par::max_threads(),
        t => t,
    };
    let seed = R::seed(base);
    let count = range.end.saturating_sub(range.start);
    gps_obs::info(
        "sim.supervise",
        &format!("{}_campaign", R::KIND),
        &[
            ("replications", count.into()),
            ("threads", (threads as u64).into()),
            ("base_seed", seed.into()),
            ("resume", supervisor.resume.into()),
            (
                "max_attempts",
                u64::from(supervisor.retry.max_attempts).into(),
            ),
        ],
    );
    let _span = gps_obs::span(&format!("sim/supervised_{}_campaign", R::KIND));
    gps_obs::global_progress().begin_campaign(&format!("supervised_{}", R::KIND), count);
    let (ckpt, payloads) = match &supervisor.checkpoint {
        Some(path) => {
            let fp = R::fingerprint(base);
            let (ckpt, map) = CheckpointFile::open(path, R::KIND, fp, seed, supervisor.resume)?;
            (Some(ckpt), map)
        }
        None => (None, HashMap::new()),
    };
    // Only in-range payloads that decode and pass the check restore;
    // anything else is recomputed.
    let restorable: HashMap<u64, R::Report> = payloads
        .into_iter()
        .filter(|(r, _)| range.contains(r))
        .filter_map(|(r, payload)| Some((r, R::decode(base, &payload)?)))
        .collect();
    let restored = restorable.len() as u64;
    let reps: Vec<u64> = range.clone().collect();
    let tasks = gps_par::par_try_map_chunked(
        threads,
        supervisor.chunk,
        &reps,
        supervisor.retry,
        R::Scratch::default,
        |scratch, _, attempt, &r| -> Result<R::Report, SimError> {
            // Restores short-circuit inside the task so pool and metric
            // accounting match a straight-through run.
            if let Some(report) = restorable.get(&r) {
                gps_obs::trace::instant(
                    gps_obs::TraceKind::CheckpointRestore,
                    "checkpoint_restore",
                    r,
                );
                gps_obs::global_progress().add_restored(1);
                return Ok(report.clone());
            }
            if attempt > 1 {
                gps_obs::global_progress().add_retried(1);
            }
            if let Some(inj) = &supervisor.inject {
                inj.arm(r, attempt);
            }
            let cfg = R::with_seed(base, seed.wrapping_add(r));
            let mut sources = make_sources(r);
            let report = R::run_core(scratch, &mut sources, &cfg);
            R::check(&report).map_err(|what| SimError::InvalidReport {
                replication: r,
                what,
            })?;
            let payload =
                (ckpt.is_some() || supervisor.on_complete.is_some()).then(|| R::to_json(&report));
            if let (Some(c), Some(p)) = (&ckpt, &payload) {
                c.append(r, p.clone());
            }
            if let (Some(hook), Some(p)) = (&supervisor.on_complete, &payload) {
                hook(r, p).map_err(SimError::Checkpoint)?;
            }
            gps_obs::global_progress().add_done(1);
            Ok(report)
        },
    );
    if let Some(c) = &ckpt {
        // Completed work reaches the platter before the campaign is
        // reported done.
        c.sync();
    }
    drop(ckpt);
    let completed = || tasks.iter().filter_map(|t| t.outcome.as_ok());
    for report in completed() {
        R::record_metrics(gps_obs::metrics(), report);
    }
    let quarantined = account_outcomes(R::KIND, &tasks, restored, range.start);
    if let Some(mon) = monitor {
        // Check the merged-so-far tails after every fold, so a violation
        // is caught at the earliest replication the pooled evidence
        // supports.
        let mut merged: Option<R::Report> = None;
        for (fold, report) in completed().enumerate() {
            let fold = fold as u64;
            let _t = gps_obs::trace::scope(gps_obs::TraceKind::MonitorFold, "monitor_fold", fold);
            let pooled = match merged.take() {
                None => report.clone(),
                Some(prev) => R::merge(&[prev, report.clone()]),
            };
            R::monitor_fold(mon, gps_obs::metrics(), &pooled, fold);
            merged = Some(pooled);
        }
    }
    if gps_obs::global().timing_enabled() {
        gps_obs::global_progress().publish_gauges(gps_obs::metrics());
    }
    Ok(CampaignOutcome {
        tasks,
        restored,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_single_node_core;
    use gps_sources::OnOffSource;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn grids() -> (Vec<f64>, Vec<f64>) {
        let b: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let d: Vec<f64> = (0..20).map(|i| i as f64).collect();
        (b, d)
    }

    fn base_cfg(seed: u64) -> SingleNodeRunConfig {
        let (bg, dg) = grids();
        SingleNodeRunConfig {
            phis: vec![0.2, 0.25, 0.2, 0.25],
            capacity: 1.0,
            warmup: 50,
            measure: 500,
            seed,
            backlog_grid: bg,
            delay_grid: dg,
        }
    }

    fn onoff_sources() -> Vec<Box<dyn SlotSource>> {
        OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect()
    }

    /// A single-node campaign of replications `0..n` on `threads` workers.
    fn campaign(
        threads: usize,
        base: &SingleNodeRunConfig,
        n: u64,
        make_sources: impl Fn(u64) -> Vec<Box<dyn SlotSource>> + Sync,
        sup: &Supervisor,
    ) -> Result<CampaignOutcome<SingleNodeRunReport>, SimError> {
        let sup = sup.clone().with_threads(threads);
        run_campaign::<SingleNode>(base, 0..n, make_sources, &sup, None)
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gps_supervise_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}_checkpoint.ndjson"))
    }

    fn assert_reports_equal(a: &SingleNodeRunReport, b: &SingleNodeRunReport) {
        assert_eq!(a.measured_slots, b.measured_slots);
        assert_eq!(a.sessions.len(), b.sessions.len());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.backlog.exceed_counts(), y.backlog.exceed_counts());
            assert_eq!(x.delay.exceed_counts(), y.delay.exceed_counts());
            assert_eq!(x.backlog_moments, y.backlog_moments);
            assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
        }
    }

    #[test]
    fn fingerprint_ignores_seed_but_not_shape() {
        let a = base_cfg(1);
        let b = base_cfg(999);
        assert_eq!(fingerprint_single_node(&a), fingerprint_single_node(&b));
        let mut c = base_cfg(1);
        c.capacity = 2.0;
        assert_ne!(fingerprint_single_node(&a), fingerprint_single_node(&c));
        let mut d = base_cfg(1);
        d.backlog_grid.push(100.0);
        assert_ne!(fingerprint_single_node(&a), fingerprint_single_node(&d));
    }

    #[test]
    fn report_json_round_trips_exactly() {
        let cfg = base_cfg(0xAB);
        let mut sources = onoff_sources();
        let report = run_single_node_core(&mut sources, &cfg);
        let j = single_node_report_to_json(&report);
        let text = j.to_compact();
        let back = single_node_report_from_json(&cfg, &json::parse(&text).unwrap()).unwrap();
        assert_reports_equal(&report, &back);
    }

    #[test]
    fn supervised_matches_direct_core_runs() {
        let base = base_cfg(0x5EED);
        let plain: Vec<SingleNodeRunReport> = (0..3)
            .map(|r| {
                run_single_node_core(
                    &mut onoff_sources(),
                    &SingleNode::with_seed(&base, base.seed + r),
                )
            })
            .collect();
        let sup = Supervisor::new();
        let out = campaign(2, &base, 3, |_| onoff_sources(), &sup).unwrap();
        assert_eq!(out.restored, 0);
        assert!(out.quarantined.is_empty());
        let completed = out.completed();
        assert_eq!(completed.len(), 3);
        for (a, b) in plain.iter().zip(&completed) {
            assert_reports_equal(a, b);
        }
    }

    #[test]
    fn checkpoint_then_resume_restores_everything() {
        let base = base_cfg(0xC0);
        let path = temp_path("resume_all");
        let sup = Supervisor::new().with_checkpoint(&path);
        let first = campaign(2, &base, 4, |_| onoff_sources(), &sup).unwrap();
        assert_eq!(first.restored, 0);
        // Two corrupt lines for replications 4 and 5 that decode but fail
        // the check: a NaN throughput, and a backlog CCDF total beyond
        // the measured slots. Both must be recomputed, not restored.
        let run = |r: u64| {
            run_single_node_core(
                &mut onoff_sources(),
                &SingleNode::with_seed(&base, base.seed + r),
            )
        };
        let mut nan = run(4);
        nan.sessions[0].throughput = f64::NAN;
        let mut inflated = run(5);
        let b = &inflated.sessions[1].backlog;
        inflated.sessions[1].backlog = BinnedCcdf::from_parts(
            base.backlog_grid.clone(),
            b.exceed_counts().to_vec(),
            b.len() + 1,
        )
        .unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        for (r, report) in [(4, &nan), (5, &inflated)] {
            let fp = fingerprint_single_node(&base);
            let payload = single_node_report_to_json(report);
            text.push_str(&checkpoint_line("single_node", fp, base.seed, r, &payload));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        // Resume: every valid replication restored, no recomputation —
        // and a make_sources poisoned below replication 4 proves nothing
        // restorable runs.
        let resumed = campaign(
            2,
            &base,
            6,
            |r| -> Vec<Box<dyn SlotSource>> {
                assert!(r >= 4, "must not recompute");
                onoff_sources()
            },
            &Supervisor::new().with_checkpoint(&path).with_resume(true),
        )
        .unwrap();
        assert_eq!(resumed.restored, 4);
        for (a, b) in first.completed().iter().zip(&resumed.completed()) {
            assert_reports_equal(a, b);
        }
        let resumed = resumed.completed();
        assert_eq!(resumed.len(), 6);
        assert_reports_equal(&resumed[4], &run(4));
        assert_reports_equal(&resumed[5], &run(5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_checkpoint_resumes_and_matches() {
        let base = base_cfg(0xD1);
        let path = temp_path("truncated");
        let sup = Supervisor::new().with_checkpoint(&path);
        let straight = campaign(1, &base, 4, |_| onoff_sources(), &sup).unwrap();
        // Kill mid-write: keep two full lines plus half of the third.
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 4);
        let truncated = format!(
            "{}\n{}\n{}",
            lines[0],
            lines[1],
            &lines[2][..lines[2].len() / 2]
        );
        std::fs::write(&path, truncated).unwrap();
        let resumed = campaign(
            2,
            &base,
            4,
            |_| onoff_sources(),
            &Supervisor::new().with_checkpoint(&path).with_resume(true),
        )
        .unwrap();
        assert_eq!(resumed.restored, 2);
        for (a, b) in straight.completed().iter().zip(&resumed.completed()) {
            assert_reports_equal(a, b);
        }
        // The repaired file now restores all four.
        let again = campaign(
            1,
            &base,
            4,
            |_| -> Vec<Box<dyn SlotSource>> { panic!("must not recompute") },
            &Supervisor::new().with_checkpoint(&path).with_resume(true),
        )
        .unwrap();
        assert_eq!(again.restored, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_fingerprint_lines_are_ignored() {
        let base = base_cfg(0xE2);
        let path = temp_path("stale");
        let sup = Supervisor::new().with_checkpoint(&path);
        campaign(1, &base, 2, |_| onoff_sources(), &sup).unwrap();
        // Same file, different config shape: nothing restorable.
        let mut other = base_cfg(0xE2);
        other.capacity = 2.0;
        let resumed = campaign(
            1,
            &other,
            2,
            |_| onoff_sources(),
            &Supervisor::new().with_checkpoint(&path).with_resume(true),
        )
        .unwrap();
        assert_eq!(resumed.restored, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permanent_injection_quarantines_and_campaign_completes() {
        let base = base_cfg(0xF3);
        let sup = Supervisor::new().with_inject(Some(PanicInjection {
            replication: 2,
            once: false,
        }));
        let out = campaign(2, &base, 5, |_| onoff_sources(), &sup).unwrap();
        assert_eq!(out.quarantined, vec![2]);
        assert_eq!(out.completed().len(), 4);
        assert!(matches!(
            out.tasks[2].outcome,
            TaskOutcome::Panicked(ref m) if m.contains("GPS_FAULT_TASK_PANIC")
        ));
        assert_eq!(out.tasks[2].attempts, 2); // default policy: one retry
        let quarantined_total = gps_obs::metrics().counter("sim.campaign.quarantined").get();
        assert!(quarantined_total >= 1);
    }

    #[test]
    fn transient_injection_recovers_byte_identically() {
        let base = base_cfg(0x1234);
        let clean = campaign(1, &base, 4, |_| onoff_sources(), &Supervisor::new()).unwrap();
        let sup = Supervisor::new().with_inject(Some(PanicInjection {
            replication: 1,
            once: true,
        }));
        let out = campaign(2, &base, 4, |_| onoff_sources(), &sup).unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.tasks[1].attempts, 2);
        for (a, b) in clean.completed().iter().zip(&out.completed()) {
            assert_reports_equal(a, b);
        }
    }

    /// Wraps a source and panics once — the first time any wrapper
    /// sharing `armed` is drawn past `after` slots.
    struct PanicOnce {
        inner: Box<dyn SlotSource>,
        armed: Arc<AtomicBool>,
        after: u64,
        drawn: u64,
    }

    impl SlotSource for PanicOnce {
        fn next_slot(&mut self, rng: &mut dyn gps_stats::rng::RngCore) -> f64 {
            self.drawn += 1;
            if self.drawn > self.after && self.armed.swap(false, Ordering::SeqCst) {
                panic!("source fault mid-measurement");
            }
            self.inner.next_slot(rng)
        }

        fn mean_rate(&self) -> f64 {
            self.inner.mean_rate()
        }

        fn peak_rate(&self) -> Option<f64> {
            self.inner.peak_rate()
        }

        fn reset(&mut self, rng: &mut dyn gps_stats::rng::RngCore) {
            self.drawn = 0;
            self.inner.reset(rng);
        }
    }

    #[test]
    fn retry_after_mid_measurement_panic_rebuilds_scratch() {
        // One worker drains the whole campaign as one chunk, so the same
        // scratch would carry replication 1's half-run server into its
        // retry. The retried campaign must still match a clean run.
        let base = base_cfg(0x5C);
        let whole = Supervisor::new().with_chunk(Some(4));
        let clean = campaign(1, &base, 4, |_| onoff_sources(), &whole).unwrap();
        let armed = Arc::new(AtomicBool::new(true));
        let faulty = |r: u64| -> Vec<Box<dyn SlotSource>> {
            let mut sources = onoff_sources();
            if r == 1 {
                let inner = sources.remove(0);
                let after = base.warmup + base.measure / 2;
                let armed = Arc::clone(&armed);
                let drawn = 0;
                sources.insert(
                    0,
                    Box::new(PanicOnce {
                        inner,
                        armed,
                        after,
                        drawn,
                    }),
                );
            }
            sources
        };
        let retried = campaign(1, &base, 4, faulty, &whole).unwrap();
        assert!(!armed.load(Ordering::SeqCst), "the fault fired");
        assert!(retried.quarantined.is_empty());
        assert_eq!(retried.tasks[1].attempts, 2);
        for (a, b) in clean.completed().iter().zip(&retried.completed()) {
            assert_reports_equal(a, b);
        }
    }

    #[test]
    fn injection_env_parsing() {
        assert_eq!(
            "7".parse::<u64>().map(|r| PanicInjection {
                replication: r,
                once: false
            }),
            Ok(PanicInjection {
                replication: 7,
                once: false
            })
        );
        // from_env reads the process environment, which tests must not
        // mutate (parallel test runner); the parse paths are covered via
        // the strip_suffix contract instead.
        let raw = "3:once";
        let (num, once) = match raw.strip_suffix(":once") {
            Some(head) => (head, true),
            None => (raw, false),
        };
        assert_eq!((num.parse::<u64>().unwrap(), once), (3, true));
    }

    #[test]
    fn network_checkpoint_round_trips() {
        use gps_core::NetworkTopology;
        let (bg, dg) = grids();
        let base = NetworkRunConfig {
            topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
            warmup: 50,
            measure: 400,
            seed: 0x77,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let path = temp_path("network");
        let sup = Supervisor::new().with_checkpoint(&path);
        let first = run_campaign::<Network>(&base, 0..3, |_| onoff_sources(), &sup, None).unwrap();
        let resumed = run_campaign::<Network>(
            &base,
            0..3,
            |_| -> Vec<Box<dyn SlotSource>> { panic!("must not recompute") },
            &Supervisor::new().with_checkpoint(&path).with_resume(true),
            None,
        )
        .unwrap();
        assert_eq!(resumed.restored, 3);
        for (a, b) in first.completed().iter().zip(&resumed.completed()) {
            assert_eq!(a.measured_slots, b.measured_slots);
            for i in 0..4 {
                assert_eq!(a.backlog[i].exceed_counts(), b.backlog[i].exceed_counts());
                assert_eq!(a.delay[i].exceed_counts(), b.delay[i].exceed_counts());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_error_display_and_froms() {
        let e: SimError = NumericError::EmptyFamily.into();
        assert!(e.to_string().contains("numeric"));
        let e: SimError = ConvergenceError {
            iterations: 10,
            residual: 0.5,
        }
        .into();
        assert!(e.to_string().contains("converge"));
        let e: SimError = FaultConfigError::DropChance(2.0).into();
        assert!(e.to_string().contains("drop_chance"));
        let e = SimError::InvalidReport {
            replication: 3,
            what: "throughput",
        };
        assert!(e.to_string().contains("throughput"));
    }

    #[test]
    fn durable_rewrite_is_atomic_ordered_and_appendable() {
        let path = std::path::PathBuf::from(format!(
            "results/_test_durable_rewrite_{}.ndjson",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let (ckpt, restored) =
            CheckpointFile::open(&path, "single_node", 0xabcd, 7, false).expect("open checkpoint");
        assert!(restored.is_empty());
        // Simulate at-least-once delivery: appends arrive out of order
        // and with a duplicate.
        ckpt.append(2, Json::U64(22));
        ckpt.append(0, Json::U64(10));
        ckpt.append(2, Json::U64(22));
        ckpt.append(1, Json::U64(11));
        let entries: std::collections::BTreeMap<u64, Json> =
            [(0, Json::U64(10)), (1, Json::U64(11)), (2, Json::U64(22))]
                .into_iter()
                .collect();
        ckpt.rewrite_durable(&entries).expect("durable rewrite");
        // The rewrite compacted duplicates into ascending order...
        let content = std::fs::read_to_string(&path).unwrap();
        let reps: Vec<u64> = content
            .lines()
            .map(|l| {
                decode_checkpoint_line(l, "single_node", 0xabcd, 7)
                    .expect("line decodes")
                    .0
            })
            .collect();
        assert_eq!(reps, vec![0, 1, 2]);
        // ...left no temp file behind...
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        assert!(!std::path::Path::new(&tmp_name).exists());
        // ...and appends keep landing on the renamed file, not the old
        // inode.
        ckpt.append(3, Json::U64(33));
        ckpt.sync();
        drop(ckpt);
        let (_ckpt2, restored) =
            CheckpointFile::open(&path, "single_node", 0xabcd, 7, true).expect("reopen checkpoint");
        assert_eq!(restored.len(), 4);
        assert_eq!(restored[&3], Json::U64(33));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_line_round_trips_and_rejects_mismatches() {
        let payload = Json::Obj(vec![("x".to_string(), Json::U64(5))]);
        let line = checkpoint_line("single_node", 0x1234, 99, 41, &payload);
        let (r, back) = decode_checkpoint_line(&line, "single_node", 0x1234, 99).unwrap();
        assert_eq!((r, back), (41, payload));
        // Any identity mismatch makes the line invisible.
        assert!(decode_checkpoint_line(&line, "network", 0x1234, 99).is_none());
        assert!(decode_checkpoint_line(&line, "single_node", 0x9999, 99).is_none());
        assert!(decode_checkpoint_line(&line, "single_node", 0x1234, 98).is_none());
        assert!(decode_checkpoint_line("not json", "single_node", 0x1234, 99).is_none());
    }

    #[test]
    fn non_finite_numbers_round_trip_via_strings() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 1.5, 0.0] {
            let j = num_to_json(v);
            let text = j.to_compact();
            let back = num_from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
        let j = num_to_json(f64::NAN);
        assert!(num_from_json(&json::parse(&j.to_compact()).unwrap())
            .unwrap()
            .is_nan());
    }
}
