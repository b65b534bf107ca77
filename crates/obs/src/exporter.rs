//! Live metrics exposition over TCP: a minimal, dependency-free HTTP/1.1
//! responder serving the registry while a campaign runs.
//!
//! Endpoints:
//!
//! * `/metrics` — the registry snapshot in Prometheus text exposition
//!   format v0.0.4 (see [`to_prometheus_text`]).
//! * `/metrics.json` — the existing deterministic snapshot JSON
//!   ([`Snapshot::to_json`]), spans included.
//! * `/progress` — the live campaign progress document
//!   ([`crate::progress::Progress::to_json`]): replications
//!   done/restored/retried/quarantined, chunk count, throughput, ETA.
//! * `/health` — structured liveness JSON (`status`, `service`,
//!   `uptime_seconds`, `requests`).
//! * `/healthz` — bare `ok`, for probes that can't parse JSON.
//! * `/slo` — per-SLO error budgets and burn rates
//!   ([`crate::slo::SloSet::to_json`]); served when the exporter was
//!   started with request telemetry.
//!
//! [`Exporter::serve`] takes an optional [`RequestHandler`], consulted
//! for every GET path the built-ins don't claim and for every POST — the
//! admission-control daemon serves `/admit`, `/depart`, and `/region`
//! this way, concurrently with `/metrics` scrapes, and the campaign
//! coordinator takes its worker POSTs the same way.
//!
//! # Request telemetry
//!
//! Passing a [`TelemetryConfig`] to [`Exporter::serve`] wraps dispatch
//! in a per-request middleware: every request gets a monotonically-assigned request ID
//! (readable from route handlers via [`current_request_id`]), a
//! per-route/per-status `obs.http.requests` counter, an HDR latency
//! observation per route (`obs.http.request_duration_ns`, exposed as
//! Prometheus `le` buckets), in-flight/connection gauges, an SLO
//! burn-rate evaluation, a flight-recorder
//! [`TraceKind::RequestDispatch`](crate::trace::TraceKind) slice, and —
//! when [`TelemetryConfig::access_log`] is set (env:
//! `GPS_OBS_ACCESS_LOG`) — one NDJSON access-log line through the
//! journal sink. Access-log lines carry wall-clock latency only when
//! global timing is enabled, so the untimed log is byte-deterministic
//! for a deterministic client (verify.sh diffs it across the thread
//! matrix).
//!
//! The accept loop runs on one named thread (`gps-obs-exporter`); each
//! accepted connection is handled on its own short-lived `gps-obs-conn`
//! thread so a slow or stalled client can never wedge `/metrics` for
//! other scrapers. Connections are persistent in the HTTP/1.1 style:
//! the handler loops serving requests (pipelining included) until the
//! client asks `Connection: close`, speaks HTTP/1.0, goes quiet past the
//! read timeout, or exhausts the per-connection request budget
//! ([`MAX_REQUESTS_PER_CONN`]). Shutdown stays exact: dropping (or
//! [`Exporter::shutdown`]-ing) the handle sets a stop flag and makes a
//! wake-up connection to unblock `accept`, then joins the accept thread
//! (in-flight connection threads finish on their own, bounded by the
//! per-connection timeouts and the request budget).
//!
//! Malformed and hostile clients are bounded on every axis: reads and
//! writes time out after two seconds, the request line is capped at 1 KiB
//! (`414 URI Too Long` beyond that), the whole request head at 8 KiB
//! (`431 Request Header Fields Too Large`), and a body at 1 MiB
//! (`413 Content Too Large`). A `Content-Length` that is not a plain
//! decimal, or two that disagree, gets `400 Bad Request`: the body cannot
//! be framed, so the connection closes rather than read the next request
//! from an unknown offset.
//!
//! Nothing here is on a hot path: every request takes a fresh
//! [`Registry::snapshot`], so the exporter never holds metric locks
//! across I/O.

use crate::journal::{FieldValue, Journal, SinkKind};
use crate::metrics::{labeled, Registry, Snapshot};
use crate::slo::{SloSet, SloSpec};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Prometheus text exposition

/// Maps a registry metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Splits the registry's `name{k=v,k2=v2}` form (see
/// [`crate::metrics::labeled`]) back into base name and label pairs.
fn split_labels(full: &str) -> (&str, Vec<(&str, &str)>) {
    match full.find('{') {
        Some(open) if full.ends_with('}') => {
            let base = &full[..open];
            let inner = &full[open + 1..full.len() - 1];
            let labels = inner
                .split(',')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.find('=') {
                    Some(eq) => (&pair[..eq], &pair[eq + 1..]),
                    None => (pair, ""),
                })
                .collect();
            (base, labels)
        }
        _ => (full, Vec::new()),
    }
}

/// Renders a label set (plus an optional extra label such as `le`) as `{k="v",…}`; empty string when there are none.
fn render_labels(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.iter().copied().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Prometheus float rendering: finite values use Rust's shortest
/// round-trip `Display`; non-finite values use the format's spellings.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// One exposition family: a `# TYPE` header followed by sample lines,
/// grouped so each family name is declared exactly once.
struct Family {
    name: String,
    kind: &'static str,
    lines: Vec<String>,
}

fn push_family(
    families: &mut Vec<Family>,
    index: &mut std::collections::BTreeMap<String, usize>,
    name: &str,
    kind: &'static str,
) -> usize {
    if let Some(&i) = index.get(name) {
        return i;
    }
    families.push(Family {
        name: name.to_string(),
        kind,
        lines: Vec::new(),
    });
    index.insert(name.to_string(), families.len() - 1);
    families.len() - 1
}

/// Renders a snapshot in Prometheus text exposition format v0.0.4.
///
/// Registry conventions map as follows: dotted names flatten to
/// underscores, counters gain the `_total` suffix (exactly once), labeled
/// names (`name{k=v}`) become proper label sets, and HDR histograms emit
/// their exact non-empty log buckets as integer `le` boundaries plus
/// `_sum`/`_count`. Span timing stats are exposed as `obs_span_*` gauges
/// labeled by path (`obs_span_samples`, not `_count` — that suffix is
/// reserved for histogram families).
///
/// The output is a pure function of the snapshot: same snapshot, same
/// bytes, which is what lets the thread-count determinism tests pin this
/// surface.
pub fn to_prometheus_text(snap: &Snapshot) -> String {
    let mut families: Vec<Family> = Vec::new();
    let mut index = std::collections::BTreeMap::new();

    for (full, v) in &snap.counters {
        let (base, labels) = split_labels(full);
        // Counters carry exactly one `_total` suffix: appended for the
        // common dotted registry names, left alone if the registry name
        // already ends in `_total`.
        let base = sanitize_name(base);
        let name = if base.ends_with("_total") {
            base
        } else {
            format!("{base}_total")
        };
        let i = push_family(&mut families, &mut index, &name, "counter");
        families[i]
            .lines
            .push(format!("{name}{} {v}", render_labels(&labels, None)));
    }
    for (full, v) in &snap.gauges {
        let (base, labels) = split_labels(full);
        let name = sanitize_name(base);
        let i = push_family(&mut families, &mut index, &name, "gauge");
        families[i].lines.push(format!(
            "{name}{} {}",
            render_labels(&labels, None),
            prom_f64(*v)
        ));
    }
    for (full, h) in &snap.hdr {
        let (base, labels) = split_labels(full);
        let name = sanitize_name(base);
        let i = push_family(&mut families, &mut index, &name, "histogram");
        for (le, cumulative) in h.cumulative_buckets() {
            families[i].lines.push(format!(
                "{name}_bucket{} {cumulative}",
                render_labels(&labels, Some(("le", &le.to_string())))
            ));
        }
        families[i].lines.push(format!(
            "{name}_bucket{} {}",
            render_labels(&labels, Some(("le", "+Inf"))),
            h.total
        ));
        families[i].lines.push(format!(
            "{name}_sum{} {}",
            render_labels(&labels, None),
            h.sum
        ));
        families[i].lines.push(format!(
            "{name}_count{} {}",
            render_labels(&labels, None),
            h.total
        ));
    }
    for (path, s) in &snap.spans {
        for (metric, value) in [
            // `_samples`, not `_count`: the reserved `_count` suffix is
            // kept for histogram families only.
            ("obs_span_samples", s.count as f64),
            ("obs_span_total_ns", s.total_ns as f64),
            ("obs_span_mean_ns", s.mean_ns()),
            ("obs_span_min_ns", s.min_ns as f64),
            ("obs_span_max_ns", s.max_ns as f64),
        ] {
            let i = push_family(&mut families, &mut index, metric, "gauge");
            families[i].lines.push(format!(
                "{metric}{} {}",
                render_labels(&[("path", path)], None),
                prom_f64(value)
            ));
        }
    }

    let mut out = String::new();
    for f in &families {
        out.push_str("# TYPE ");
        out.push_str(&f.name);
        out.push(' ');
        out.push_str(f.kind);
        out.push('\n');
        for line in &f.lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------
// The HTTP server

const READ_TIMEOUT: Duration = Duration::from_secs(2);
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
const MAX_REQUEST_BYTES: usize = 8 * 1024;
const MAX_REQUEST_LINE: usize = 1024;
/// Largest request body accepted on POST routes (`413` beyond that) —
/// checkpoint NDJSON lines are well under this.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Requests served on one persistent connection before the server closes
/// it — bounds how long a keep-alive client can pin a `gps-obs-conn`
/// thread (together with the 2 s read timeout per request).
pub const MAX_REQUESTS_PER_CONN: usize = 100;

/// A response produced by a [`RequestHandler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResponse {
    /// HTTP status code (the reason phrase is derived from it).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl RouteResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json".to_string(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain".to_string(),
            body: body.into(),
        }
    }
}

/// One parsed request handed to a [`RequestHandler`]: method, path
/// (query string included), and the request body (empty for GET), all
/// borrowed from the connection's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpRequest<'a> {
    /// Request method (`GET` or `POST`; others are rejected upstream).
    pub method: &'a str,
    /// Request path with its query string.
    pub path: &'a str,
    /// Request body, bounded by the server's body cap.
    pub body: &'a str,
}

/// Custom dispatch mounted via [`Exporter::serve`]: consulted for every
/// GET path the built-ins don't claim *and* for every POST. Return
/// `Some` to serve, `None` to fall through to 404.
pub type RequestHandler = Arc<dyn Fn(&HttpRequest<'_>) -> Option<RouteResponse> + Send + Sync>;

/// Configuration for the exporter's request-telemetry middleware (see
/// the module docs and [`Exporter::serve`]).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Service name, surfaced in `/health` and `/slo`.
    pub service: String,
    /// SLOs evaluated over the request stream.
    pub slos: Vec<SloSpec>,
    /// Where NDJSON access-log lines go (`None` = no access log).
    pub access_log: Option<SinkKind>,
    /// A pre-built SLO set to share with the host process. When set it
    /// replaces `slos`: the exporter records HTTP outcomes into it, and
    /// the host can record non-HTTP events (e.g. shard completions in
    /// `campaignd`) into the same set — both show up at `/slo`.
    pub shared_slo: Option<Arc<SloSet>>,
}

impl TelemetryConfig {
    /// Telemetry with no SLOs and no access log.
    pub fn new(service: impl Into<String>) -> TelemetryConfig {
        TelemetryConfig {
            service: service.into(),
            slos: Vec::new(),
            access_log: None,
            shared_slo: None,
        }
    }

    /// Like [`new`](Self::new), plus an access-log sink taken from
    /// `GPS_OBS_ACCESS_LOG` (`noop`/`stderr`/a file path) when set.
    pub fn from_env(service: impl Into<String>) -> TelemetryConfig {
        let mut cfg = TelemetryConfig::new(service);
        if let Ok(v) = std::env::var("GPS_OBS_ACCESS_LOG") {
            cfg.access_log = Some(SinkKind::parse(&v));
        }
        cfg
    }

    /// Adds SLOs to evaluate.
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> TelemetryConfig {
        self.slos = slos;
        self
    }

    /// Shares a pre-built [`SloSet`] between the exporter and the host
    /// process (overrides [`with_slos`](Self::with_slos)).
    pub fn with_shared_slo(mut self, slo: Arc<SloSet>) -> TelemetryConfig {
        self.shared_slo = Some(slo);
        self
    }
}

/// Live request-telemetry state shared by all connection threads.
#[derive(Debug)]
struct Telemetry {
    next_id: AtomicU64,
    in_flight: AtomicU64,
    open_conns: AtomicU64,
    access: Option<Journal>,
    slo: Arc<SloSet>,
}

/// Per-exporter state threaded into every connection handler.
#[derive(Debug)]
struct ServerState {
    service: String,
    started: Instant,
    telemetry: Option<Telemetry>,
}

impl ServerState {
    fn new(service: String, telemetry: Option<Telemetry>) -> ServerState {
        ServerState {
            service,
            started: Instant::now(),
            telemetry,
        }
    }
}

thread_local! {
    /// The request ID the current connection thread is dispatching
    /// (0 = none). Route handlers run synchronously on the connection
    /// thread, so downstream code (e.g. the admission engine) can tag
    /// its own journal events and trace slices with the ID without any
    /// signature change.
    static CURRENT_REQUEST_ID: Cell<u64> = const { Cell::new(0) };
}

/// The request ID being dispatched on this thread, when the exporter
/// was started with telemetry and a request is in flight.
pub fn current_request_id() -> Option<u64> {
    let id = CURRENT_REQUEST_ID.with(|c| c.get());
    (id != 0).then_some(id)
}

/// In-flight accounting for one request: assigned ID, start instant,
/// and the flight-recorder slice open for its duration.
struct RequestCtx {
    id: u64,
    t0: Instant,
    _slice: crate::trace::TraceScope,
}

/// How a request ended: the final route/status labels and the response
/// body size, as recorded by [`Telemetry::finish_request`].
struct RequestOutcome<'a> {
    method: &'a str,
    route: &'a str,
    status: u16,
    bytes: usize,
}

impl Telemetry {
    fn new(registry: &Registry, cfg: &TelemetryConfig) -> Telemetry {
        let access = cfg.access_log.as_ref().map(|kind| {
            Journal::from_kind(kind, crate::Level::Info).unwrap_or_else(|_| Journal::noop())
        });
        // Touch the gauges so they render (at zero) from the first
        // scrape, not the first request.
        registry.gauge("obs.http.in_flight").set(0.0);
        registry.gauge("obs.http.open_connections").set(0.0);
        Telemetry {
            next_id: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            access,
            slo: cfg
                .shared_slo
                .clone()
                .unwrap_or_else(|| Arc::new(SloSet::new(cfg.slos.clone()))),
        }
    }

    fn connection_opened(&self, registry: &Registry) {
        registry.counter("obs.http.connections").inc();
        let open = self.open_conns.fetch_add(1, Ordering::Relaxed) + 1;
        registry.gauge("obs.http.open_connections").set(open as f64);
    }

    fn connection_closed(&self, registry: &Registry) {
        let open = self
            .open_conns
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        registry.gauge("obs.http.open_connections").set(open as f64);
    }

    /// Assigns the next request ID and opens its trace slice. `route`
    /// is only advisory here (the final label is decided at finish).
    fn begin_request(&self, registry: &Registry, route: &str) -> RequestCtx {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        CURRENT_REQUEST_ID.with(|c| c.set(id));
        let in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        registry.gauge("obs.http.in_flight").set(in_flight as f64);
        RequestCtx {
            id,
            t0: Instant::now(),
            _slice: crate::trace::scope(crate::trace::TraceKind::RequestDispatch, route, id),
        }
    }

    /// Closes out one request once its response body is decided (and
    /// before the bytes hit the socket — a client that has read the
    /// response can rely on the access-log line being flushed): counters,
    /// HDR latency, SLO evaluation, and the optional access-log line.
    fn finish_request(
        &self,
        registry: &Registry,
        started: &Instant,
        ctx: RequestCtx,
        outcome: RequestOutcome<'_>,
    ) {
        let RequestOutcome {
            method,
            route,
            status,
            bytes,
        } = outcome;
        CURRENT_REQUEST_ID.with(|c| c.set(0));
        let latency_ns = ctx.t0.elapsed().as_nanos() as u64;
        let in_flight = self
            .in_flight
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        registry.gauge("obs.http.in_flight").set(in_flight as f64);
        let status_str = status.to_string();
        registry
            .counter(&labeled(
                "obs.http.requests",
                &[("route", route), ("status", &status_str)],
            ))
            .inc();
        registry
            .hdr(&labeled(
                "obs.http.request_duration_ns",
                &[("route", route)],
            ))
            .observe(latency_ns);
        self.slo.record(
            registry,
            started.elapsed().as_secs(),
            route,
            status,
            latency_ns,
        );
        if let Some(access) = &self.access {
            // Latency is wall clock; keep it out of the line unless
            // timing was opted into, so the untimed access log stays
            // byte-deterministic for a deterministic client.
            if crate::global().timing_enabled() {
                access.info(
                    "obs.access",
                    "request",
                    &[
                        ("request_id", FieldValue::U64(ctx.id)),
                        ("method", FieldValue::from(method)),
                        ("route", FieldValue::from(route)),
                        ("status", FieldValue::U64(u64::from(status))),
                        ("bytes", FieldValue::U64(bytes as u64)),
                        ("latency_us", FieldValue::U64(latency_ns / 1_000)),
                    ],
                );
            } else {
                access.info(
                    "obs.access",
                    "request",
                    &[
                        ("request_id", FieldValue::U64(ctx.id)),
                        ("method", FieldValue::from(method)),
                        ("route", FieldValue::from(route)),
                        ("status", FieldValue::U64(u64::from(status))),
                        ("bytes", FieldValue::U64(bytes as u64)),
                    ],
                );
            }
        }
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A live `/metrics` server bound to one registry. Construct with
/// [`Exporter::serve`]; the listener thread stops when the handle is
/// shut down or dropped.
#[derive(Debug)]
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Exporter {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `registry` on a thread named `gps-obs-exporter`.
    ///
    /// `handler`, when given, answers unclaimed GETs and every POST
    /// (bodies framed by `Content-Length`, `413` beyond the cap);
    /// without one a POST gets `405`. `telemetry`, when given, arms the
    /// request-telemetry middleware: request IDs, per-route counters and
    /// HDR latency, in-flight gauges, SLO burn-rate evaluation (served
    /// at `/slo`), and the optional access log.
    pub fn serve(
        addr: &str,
        registry: Registry,
        handler: Option<RequestHandler>,
        telemetry: Option<TelemetryConfig>,
    ) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let service = telemetry
            .as_ref()
            .map(|t| t.service.clone())
            .unwrap_or_else(|| "gps-obs".to_string());
        let state = Arc::new(ServerState::new(
            service,
            telemetry.as_ref().map(|cfg| Telemetry::new(&registry, cfg)),
        ));
        let handle = std::thread::Builder::new()
            .name("gps-obs-exporter".to_string())
            .spawn(move || serve_loop(listener, registry, thread_stop, handler, state))?;
        crate::info(
            "obs.exporter",
            "started",
            &[("addr", local.to_string().as_str().into())],
        );
        Ok(Exporter {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — useful when serving on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it. Also runs on drop;
    /// calling it explicitly just makes teardown order visible.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect_timeout(&self.addr, READ_TIMEOUT);
            let _ = handle.join();
            crate::info(
                "obs.exporter",
                "stopped",
                &[("addr", self.addr.to_string().as_str().into())],
            );
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(
    listener: TcpListener,
    registry: Registry,
    stop: Arc<AtomicBool>,
    handler: Option<RequestHandler>,
    state: Arc<ServerState>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = conn {
            // One short-lived thread per connection: a stalled client
            // burns its own read timeout, not other scrapers' latency.
            let registry = registry.clone();
            let handler = handler.clone();
            let state = Arc::clone(&state);
            let _ = std::thread::Builder::new()
                .name("gps-obs-conn".to_string())
                .spawn(move || handle_connection(stream, &registry, handler.as_ref(), &state));
        }
    }
}

/// Outcome of pulling one request head off a persistent connection.
enum HeadRead {
    /// A complete head (request line + headers + blank line).
    Complete(Vec<u8>),
    /// Request line exceeded [`MAX_REQUEST_LINE`].
    LineTooLong,
    /// Head exceeded [`MAX_REQUEST_BYTES`].
    HeadTooLarge,
    /// Peer closed, stalled past the read timeout, or errored.
    Closed,
}

/// Reads one request head, consuming it from `carry` (which may already
/// hold pipelined bytes from the previous read and keeps any surplus for
/// the next request). Bodies are framed separately by
/// [`read_request_body`] using the head's `Content-Length`.
fn read_request_head(stream: &mut TcpStream, carry: &mut Vec<u8>) -> HeadRead {
    let mut chunk = [0u8; 512];
    loop {
        let line_end = carry.windows(2).position(|w| w == b"\r\n");
        if line_end.map_or(carry.len() > MAX_REQUEST_LINE, |e| e > MAX_REQUEST_LINE) {
            return HeadRead::LineTooLong;
        }
        if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = carry[..end + 4].to_vec();
            carry.drain(..end + 4);
            return HeadRead::Complete(head);
        }
        if carry.len() > MAX_REQUEST_BYTES {
            return HeadRead::HeadTooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return HeadRead::Closed,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(_) => return HeadRead::Closed,
        }
    }
}

/// The request body size announced by the head: `Some(0)` when absent,
/// `None` when a value is not a plain decimal or two values disagree —
/// then the body cannot be framed and the next request's offset is
/// unknown.
fn content_length_of(head: &str) -> Option<usize> {
    let mut announced = None;
    for (_, value) in head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
    {
        // Digits only: `usize::from_str` would also take a leading `+`.
        let value = value.trim();
        if !value.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let len: usize = value.parse().ok()?;
        if announced.is_some_and(|prev| prev != len) {
            return None;
        }
        announced = Some(len);
    }
    Some(announced.unwrap_or(0))
}

/// Pulls `len` body bytes off the connection, starting from whatever the
/// head read left in `carry`. Returns `None` if the peer closes or stalls
/// mid-body.
fn read_request_body(stream: &mut TcpStream, carry: &mut Vec<u8>, len: usize) -> Option<Vec<u8>> {
    let mut chunk = [0u8; 1024];
    while carry.len() < len {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
        }
    }
    let body = carry[..len].to_vec();
    carry.drain(..len);
    Some(body)
}

/// True when the request head asks to keep the connection open: HTTP/1.1
/// defaults to persistent unless a `Connection: close` header appears;
/// HTTP/1.0 (and anything unrecognized) closes.
fn wants_keep_alive(head: &str) -> bool {
    let mut lines = head.lines();
    let version = lines
        .next()
        .unwrap_or("")
        .split_whitespace()
        .nth(2)
        .unwrap_or("");
    if version != "HTTP/1.1" {
        return false;
    }
    for line in lines {
        if let Some(value) = line
            .split_once(':')
            .filter(|(name, _)| name.eq_ignore_ascii_case("connection"))
            .map(|(_, v)| v)
        {
            return !value.trim().eq_ignore_ascii_case("close");
        }
    }
    true
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &Registry,
    handler: Option<&RequestHandler>,
    state: &ServerState,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Request/response over a persistent connection is exactly the
    // write-write-read pattern where Nagle + delayed ACK costs ~40 ms per
    // round trip; responses are tiny, so flush segments immediately.
    let _ = stream.set_nodelay(true);
    let telemetry = state.telemetry.as_ref();
    if let Some(t) = telemetry {
        t.connection_opened(registry);
    }
    // Refuses a request whose head cannot be served, counting it under
    // the `bad_request` telemetry route; the connection closes after.
    let refuse = |stream: &mut TcpStream, method: &str, status: u16, body: &str| {
        if let Some(t) = telemetry {
            let ctx = t.begin_request(registry, "bad_request");
            let outcome = RequestOutcome {
                method,
                route: "bad_request",
                status,
                bytes: 0,
            };
            t.finish_request(registry, &state.started, ctx, outcome);
        }
        respond_and_drain(stream, status, body);
    };
    let mut carry = Vec::with_capacity(512);
    for served in 0..MAX_REQUESTS_PER_CONN {
        let head_bytes = match read_request_head(&mut stream, &mut carry) {
            HeadRead::Complete(bytes) => bytes,
            HeadRead::LineTooLong => {
                registry.counter("obs.exporter.requests").inc();
                refuse(&mut stream, "GET", 414, "request line too long\n");
                break;
            }
            HeadRead::HeadTooLarge => {
                registry.counter("obs.exporter.requests").inc();
                refuse(&mut stream, "GET", 431, "request head too large\n");
                break;
            }
            HeadRead::Closed => break,
        };
        let head = String::from_utf8_lossy(&head_bytes);
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        registry.counter("obs.exporter.requests").inc();
        // The last budgeted request closes regardless of what the client
        // asked for; the `Connection:` header in the response says which.
        let keep = wants_keep_alive(&head) && served + 1 < MAX_REQUESTS_PER_CONN;
        // Provisional route label: path without its query string. The
        // final label collapses unmatched paths to "unmatched" so hostile
        // scans cannot mint unbounded per-route series.
        let provisional = path.split('?').next().unwrap_or(path);
        let Some(announced) = content_length_of(&head) else {
            refuse(&mut stream, method, 400, "bad content-length\n");
            break;
        };
        if announced > MAX_BODY_BYTES {
            refuse(&mut stream, method, 413, "request body too large\n");
            break;
        }
        // Consume the body even on paths that ignore it — keep-alive
        // framing depends on the next head starting after it.
        let Some(body_bytes) = read_request_body(&mut stream, &mut carry, announced) else {
            break;
        };
        let request = HttpRequest {
            method,
            path,
            body: &String::from_utf8_lossy(&body_bytes),
        };
        let ctx = telemetry.map(|t| t.begin_request(registry, provisional));
        let (status, content_type, body) = dispatch(&request, registry, handler, state);
        if let (Some(t), Some(ctx)) = (telemetry, ctx) {
            let route = if status == 404 || status == 405 {
                "unmatched"
            } else {
                provisional
            };
            let outcome = RequestOutcome {
                method,
                route,
                status,
                bytes: body.len(),
            };
            t.finish_request(registry, &state.started, ctx, outcome);
        }
        respond(
            &mut stream,
            status,
            reason_for(status),
            &content_type,
            &body,
            keep,
        );
        if !keep {
            break;
        }
    }
    if let Some(t) = telemetry {
        t.connection_closed(registry);
    }
}

/// Produces `(status, content type, body)` for one request; the caller
/// writes the response and feeds the outcome to the telemetry layer.
/// Built-ins answer GET only; POST goes to the mounted
/// [`RequestHandler`] when there is one, `405` otherwise.
fn dispatch(
    request: &HttpRequest<'_>,
    registry: &Registry,
    handler: Option<&RequestHandler>,
    state: &ServerState,
) -> (u16, String, String) {
    if request.method == "POST" {
        return match handler {
            Some(handler) => handler_or_404(handler, request),
            None => (405, "text/plain".to_string(), "GET only\n".to_string()),
        };
    }
    if request.method != "GET" {
        let hint = if handler.is_some() {
            "GET or POST only\n"
        } else {
            "GET only\n"
        };
        return (405, "text/plain".to_string(), hint.to_string());
    }
    match (request.path, &state.telemetry) {
        ("/metrics", _) => (
            200,
            "text/plain; version=0.0.4; charset=utf-8".to_string(),
            to_prometheus_text(&registry.snapshot()),
        ),
        ("/metrics.json", _) => (
            200,
            "application/json".to_string(),
            registry.snapshot().to_json(),
        ),
        ("/progress", _) => (
            200,
            "application/json".to_string(),
            crate::progress::global_progress().to_json(),
        ),
        ("/health", _) => (
            200,
            "application/json".to_string(),
            health_json(registry, state),
        ),
        ("/healthz", _) => (200, "text/plain".to_string(), "ok\n".to_string()),
        ("/slo", Some(t)) => (
            200,
            "application/json".to_string(),
            t.slo
                .to_json(&state.service, state.started.elapsed().as_secs()),
        ),
        _ => match handler {
            Some(handler) => handler_or_404(handler, request),
            None => not_found(),
        },
    }
}

fn handler_or_404(handler: &RequestHandler, request: &HttpRequest<'_>) -> (u16, String, String) {
    match handler(request) {
        Some(r) => (r.status, r.content_type, r.body),
        None => not_found(),
    }
}

fn not_found() -> (u16, String, String) {
    (404, "text/plain".to_string(), "not found\n".to_string())
}

/// The structured `/health` document: liveness plus just enough
/// identity (service, uptime, request count) to tell *which* healthy
/// process answered.
fn health_json(registry: &Registry, state: &ServerState) -> String {
    let mut service = String::new();
    crate::json::write_escaped(&state.service, &mut service);
    format!(
        "{{\"status\":\"ok\",\"service\":{service},\"uptime_seconds\":{},\"requests\":{}}}\n",
        state.started.elapsed().as_secs(),
        registry.counter("obs.exporter.requests").get()
    )
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One write per response: head and body in the same segment keeps a
    // keep-alive round trip to a single packet each way.
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    let _ = stream.write_all(message.as_bytes());
    let _ = stream.flush();
}

/// Responds with an error status and then drains whatever the client has
/// already sent before the connection drops. Closing a socket with unread
/// bytes in its receive buffer sends `RST`, which can destroy the response
/// before the client reads it; draining (bounded by the read timeout and a
/// byte cap) turns the close into an orderly `FIN`.
fn respond_and_drain(stream: &mut TcpStream, status: u16, body: &str) {
    respond(
        stream,
        status,
        reason_for(status),
        "text/plain",
        body,
        false,
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained > 64 * 1024 {
            break;
        }
    }
}

/// A persistent-connection HTTP client: issues many GETs over one TCP
/// connection (the server's keep-alive path), parsing `Content-Length`
/// to frame each response. Used by the admission benchmarks and the
/// `obs_check` / `verify.sh` smoke tests so scripted decision streams
/// don't pay a TCP handshake per request.
///
/// The server closes the connection after [`MAX_REQUESTS_PER_CONN`]
/// requests; a `get` past that returns an error — reconnect to continue
/// (or use [`RetryingClient`], which does it for you).
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    carry: Vec<u8>,
}

/// Timeout/retry policy for [`RetryingClient`]. Fully deterministic: a fixed timeout on connect,
/// read, and write, a bounded retry count, and linear attempt-count
/// backoff (`attempt × backoff_step`, no jitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Connect/read/write timeout.
    pub timeout: Duration,
    /// Retries after the first attempt (0 = fail fast).
    pub retries: u32,
    /// Backoff step: attempt `k` (1-based) sleeps `k × backoff_step`
    /// before retrying.
    pub backoff_step: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: READ_TIMEOUT,
            retries: 2,
            backoff_step: Duration::from_millis(25),
        }
    }
}

impl ClientConfig {
    /// Policy from the environment: `GPS_HTTP_TIMEOUT_MS` (default
    /// 2000) and `GPS_HTTP_RETRIES` (default 2).
    pub fn from_env() -> ClientConfig {
        let mut cfg = ClientConfig::default();
        if let Some(ms) = std::env::var("GPS_HTTP_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            cfg.timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(n) = std::env::var("GPS_HTTP_RETRIES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
        {
            cfg.retries = n;
        }
        cfg
    }
}

impl HttpClient {
    /// Connects to a local exporter with the default 2 s timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<HttpClient> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with an explicit timeout policy — the connect, read, and
    /// write timeouts all come from `cfg.timeout`, so a dead peer costs
    /// one bounded timeout instead of hanging forever.
    fn connect_with(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> std::io::Result<HttpClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, cfg.timeout)?;
        stream.set_read_timeout(Some(cfg.timeout))?;
        stream.set_write_timeout(Some(cfg.timeout))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            carry: Vec::with_capacity(512),
        })
    }

    /// Issues one GET on the persistent connection; returns
    /// `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, None)
    }

    /// Issues one POST with a `Content-Length`-framed body; returns
    /// `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        request_body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let request = match request_body {
            Some(b) => format!(
                "{method} {path} HTTP/1.1\r\nHost: gps-obs\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ),
            None => format!("{method} {path} HTTP/1.1\r\nHost: gps-obs\r\n\r\n"),
        };
        self.stream.write_all(request.as_bytes())?;
        let head = self.read_until_blank_line()?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let content_length: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "missing content-length")
            })?;
        while self.carry.len() < content_length {
            let mut chunk = [0u8; 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "body truncated",
                ));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.carry[..content_length]).into_owned();
        self.carry.drain(..content_length);
        Ok((status, body))
    }

    /// Reads (and consumes) one response head, keeping surplus bytes in
    /// the carry buffer for the body read.
    fn read_until_blank_line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(end) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.carry[..end]).into_owned();
                self.carry.drain(..end + 4);
                return Ok(head);
            }
            let mut chunk = [0u8; 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-head",
                ));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
    }
}

/// [`HttpClient`] wrapped in the deterministic retry policy of
/// [`ClientConfig`]: reconnects on any transport error (bounded retries,
/// linear attempt-count backoff, no jitter) and transparently rolls the
/// connection before it hits the server's [`MAX_REQUESTS_PER_CONN`]
/// budget. Every reconnect-and-retry increments the global
/// `client.retries` counter. A request that still fails after the last
/// retry returns the final error.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<HttpClient>,
    served: usize,
}

impl RetryingClient {
    /// A lazy client for `addr` with the policy from
    /// [`ClientConfig::from_env`]. No connection is made until the first
    /// request.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RetryingClient> {
        Self::with_config(addr, ClientConfig::from_env())
    }

    /// A lazy client with an explicit policy.
    pub fn with_config(
        addr: impl ToSocketAddrs,
        cfg: ClientConfig,
    ) -> std::io::Result<RetryingClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        Ok(RetryingClient {
            addr,
            cfg,
            conn: None,
            served: 0,
        })
    }

    /// The retry policy in force.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// GET with retries; returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request(path, None)
    }

    /// POST with retries; returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request(path, Some(body))
    }

    fn request(&mut self, path: &str, body: Option<&str>) -> std::io::Result<(u16, String)> {
        let mut last_err = None;
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                crate::metrics().counter("client.retries").inc();
                std::thread::sleep(self.cfg.backoff_step * attempt);
            }
            // Roll the connection before the server's per-connection
            // budget closes it mid-request.
            if self.served >= MAX_REQUESTS_PER_CONN - 1 {
                self.conn = None;
            }
            if self.conn.is_none() {
                match HttpClient::connect_with(self.addr, &self.cfg) {
                    Ok(c) => {
                        self.conn = Some(c);
                        self.served = 0;
                    }
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connection just established");
            let result = match body {
                Some(b) => conn.post(path, b),
                None => conn.get(path),
            };
            match result {
                Ok(reply) => {
                    self.served += 1;
                    return Ok(reply);
                }
                Err(e) => {
                    // The connection is in an unknown framing state;
                    // retry on a fresh one.
                    self.conn = None;
                    self.served = 0;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("request failed")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_label_mapping() {
        assert_eq!(sanitize_name("sim.measured_slots"), "sim_measured_slots");
        assert_eq!(sanitize_name("9lives"), "_lives");
        let (base, labels) = split_labels("sim.session.backlog_mean{session=2,node=a}");
        assert_eq!(base, "sim.session.backlog_mean");
        assert_eq!(labels, vec![("session", "2"), ("node", "a")]);
        let (base, labels) = split_labels("plain");
        assert_eq!(base, "plain");
        assert!(labels.is_empty());
        assert_eq!(
            render_labels(&[("session", "2")], Some(("le", "+Inf"))),
            "{session=\"2\",le=\"+Inf\"}"
        );
    }

    #[test]
    fn prom_float_spellings() {
        assert_eq!(prom_f64(1.5), "1.5");
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
    }

    /// Golden exposition of a hand-built registry: every metric family
    /// kind, labels, and HDR histogram buckets, pinned byte-for-byte.
    #[test]
    fn prometheus_text_golden() {
        let r = Registry::new();
        // A registry name already carrying `_total` must not be
        // double-suffixed.
        r.counter("ingest_total").add(9);
        r.counter("sim.measured_slots").add(240);
        r.counter(&crate::metrics::labeled(
            "sim.session.delay_samples",
            &[("session", "0")],
        ))
        .add(12);
        r.gauge(&crate::metrics::labeled(
            "sim.session.throughput",
            &[("session", "0")],
        ))
        .set(0.25);
        // Tiny HDR config (4 unit buckets, 2 sub-buckets per octave,
        // saturation at 48) so the expected `le` boundaries are easy to
        // derive by hand: 100 clamps into the [48,64) top bucket.
        let hdr = r.hdr_with("rpc.latency_ns", || {
            crate::hdrhist::HdrHistogram::with_config(2, 48)
        });
        for v in [1u64, 5, 7, 100] {
            hdr.observe(v);
        }
        r.record_span("sim/step", 100);
        r.record_span("sim/step", 300);
        let text = to_prometheus_text(&r.snapshot());
        let expected = "\
# TYPE ingest_total counter
ingest_total 9
# TYPE sim_measured_slots_total counter
sim_measured_slots_total 240
# TYPE sim_session_delay_samples_total counter
sim_session_delay_samples_total{session=\"0\"} 12
# TYPE sim_session_throughput gauge
sim_session_throughput{session=\"0\"} 0.25
# TYPE rpc_latency_ns histogram
rpc_latency_ns_bucket{le=\"1\"} 1
rpc_latency_ns_bucket{le=\"5\"} 2
rpc_latency_ns_bucket{le=\"7\"} 3
rpc_latency_ns_bucket{le=\"63\"} 4
rpc_latency_ns_bucket{le=\"+Inf\"} 4
rpc_latency_ns_sum 61
rpc_latency_ns_count 4
# TYPE obs_span_samples gauge
obs_span_samples{path=\"sim/step\"} 2
# TYPE obs_span_total_ns gauge
obs_span_total_ns{path=\"sim/step\"} 400
# TYPE obs_span_mean_ns gauge
obs_span_mean_ns{path=\"sim/step\"} 200
# TYPE obs_span_min_ns gauge
obs_span_min_ns{path=\"sim/step\"} 100
# TYPE obs_span_max_ns gauge
obs_span_max_ns{path=\"sim/step\"} 300
";
        assert_eq!(text, expected);
    }

    #[test]
    fn server_round_trip_and_shutdown() {
        let r = Registry::new();
        r.counter("hits").add(3);
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let (status, body) = HttpClient::connect(addr).unwrap().get("/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = HttpClient::connect(addr).unwrap().get("/health").unwrap();
        assert_eq!(status, 200);
        let health = crate::json::parse(&body).expect("health json parses");
        assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(
            health.get("service").and_then(|v| v.as_str()),
            Some("gps-obs")
        );
        assert!(health
            .get("uptime_seconds")
            .and_then(|v| v.as_u64())
            .is_some());
        assert!(health.get("requests").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);

        let (status, body) = HttpClient::connect(addr).unwrap().get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE hits_total counter"));
        assert!(body.contains("hits_total 3"));

        let (status, body) = HttpClient::connect(addr)
            .unwrap()
            .get("/metrics.json")
            .unwrap();
        assert_eq!(status, 200);
        let parsed = crate::json::parse(&body).expect("snapshot json parses");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("hits"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );

        crate::progress::global_progress().begin_campaign("exporter_test", 10);
        crate::progress::global_progress().add_done(4);
        let (status, body) = HttpClient::connect(addr).unwrap().get("/progress").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).expect("progress json parses");
        assert_eq!(
            doc.get("campaign").and_then(|v| v.as_str()),
            Some("exporter_test")
        );
        assert_eq!(doc.get("total").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(doc.get("done").and_then(|v| v.as_u64()), Some(4));

        let (status, _) = HttpClient::connect(addr).unwrap().get("/nope").unwrap();
        assert_eq!(status, 404);

        // Requests were counted on the live registry.
        assert!(r.counter("obs.exporter.requests").get() >= 4);

        exporter.shutdown();
        // The port is released: a fresh bind to the same address works.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let r = Registry::new();
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let before = r.counter("obs.exporter.requests").get();
        let mut client = HttpClient::connect(addr).unwrap();
        for _ in 0..10 {
            let (status, body) = client.get("/healthz").unwrap();
            assert_eq!((status, body.as_str()), (200, "ok\n"));
        }
        // All ten requests rode one connection and were all counted.
        assert_eq!(r.counter("obs.exporter.requests").get(), before + 10);

        exporter.shutdown();
    }

    #[test]
    fn connection_request_budget_is_enforced() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut client = HttpClient::connect(addr).unwrap();
        for i in 0..MAX_REQUESTS_PER_CONN {
            let (status, _) = client.get("/health").unwrap_or_else(|e| {
                panic!("request {i} within budget failed: {e}");
            });
            assert_eq!(status, 200);
        }
        // The server closed after the budgeted request; one more on the
        // same connection cannot be answered.
        assert!(client.get("/health").is_err());
        // A fresh connection works fine.
        let mut fresh = HttpClient::connect(addr).unwrap();
        assert_eq!(fresh.get("/health").unwrap().0, 200);

        exporter.shutdown();
    }

    #[test]
    fn pipelined_requests_are_served_in_order() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        // Two requests in one write; the second asks to close so the
        // server ends the connection after answering both.
        let requests = "GET /health HTTP/1.1\r\nHost: t\r\n\r\n\
                        GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        stream.write_all(requests.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let statuses: Vec<&str> = response
            .lines()
            .filter(|l| l.starts_with("HTTP/1.1 "))
            .collect();
        assert_eq!(statuses, vec!["HTTP/1.1 200 OK", "HTTP/1.1 404 Not Found"]);
        assert!(response.contains("Connection: keep-alive"));
        assert!(response.contains("Connection: close"));

        exporter.shutdown();
    }

    #[test]
    fn custom_routes_mount_beside_builtins() {
        let r = Registry::new();
        r.counter("hits").add(7);
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| match req.path {
            "/echo" => Some(RouteResponse::json(200, "{\"ok\":true}")),
            p if p.starts_with("/echo?") => Some(RouteResponse::text(200, p.to_string())),
            _ => None,
        });
        let exporter = Exporter::serve("127.0.0.1:0", r, Some(handler), None).expect("bind");
        let addr = exporter.local_addr();

        let (status, body) = HttpClient::connect(addr).unwrap().get("/echo").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
        // The query string reaches the handler verbatim.
        let (status, body) = HttpClient::connect(addr).unwrap().get("/echo?x=1").unwrap();
        assert_eq!((status, body.as_str()), (200, "/echo?x=1"));
        // Built-ins still win, unclaimed paths still 404.
        let (status, body) = HttpClient::connect(addr).unwrap().get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("hits_total 7"));
        assert_eq!(
            HttpClient::connect(addr)
                .unwrap()
                .get("/unclaimed")
                .unwrap()
                .0,
            404
        );

        exporter.shutdown();
    }

    #[test]
    fn keep_alive_header_parsing() {
        assert!(wants_keep_alive("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(!wants_keep_alive(
            "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        ));
        assert!(!wants_keep_alive(
            "GET / HTTP/1.1\r\nCONNECTION:  CLOSE \r\n\r\n"
        ));
        assert!(wants_keep_alive(
            "GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
        ));
        assert!(!wants_keep_alive("GET / HTTP/1.0\r\n\r\n"));
        assert!(!wants_keep_alive(""));
    }

    #[test]
    fn content_length_parsing() {
        assert_eq!(content_length_of("GET / HTTP/1.1\r\n\r\n"), Some(0));
        assert_eq!(
            content_length_of("POST / HTTP/1.1\r\ncontent-length:  12 \r\n\r\n"),
            Some(12)
        );
        // Agreeing duplicates frame the body unambiguously.
        assert_eq!(
            content_length_of("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n"),
            Some(5)
        );
        for bad in ["abc", "-1", "+5", "", "5 5", "99999999999999999999999"] {
            let head = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert_eq!(content_length_of(&head), None, "{bad:?}");
        }
    }

    #[test]
    fn stalled_connection_does_not_wedge_other_clients() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        // Open a connection and send nothing: it sits in its handler
        // thread waiting out READ_TIMEOUT (2 s).
        let stalled = TcpStream::connect(addr).unwrap();

        // Another client must still be served well before that timeout
        // elapses — the serial loop this replaced would block ~2 s here.
        let start = std::time::Instant::now();
        let (status, body) = HttpClient::connect(addr).unwrap().get("/healthz").unwrap();
        let elapsed = start.elapsed();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(
            elapsed < Duration::from_millis(1500),
            "stalled peer delayed a healthy scrape by {elapsed:?}"
        );

        drop(stalled);
        exporter.shutdown();
    }

    #[test]
    fn overlong_request_line_gets_414() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let request = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4 * 1024));
        stream.write_all(request.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 414 "),
            "got: {}",
            response.lines().next().unwrap_or("")
        );

        exporter.shutdown();
    }

    #[test]
    fn oversized_request_head_gets_431() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        // Short request line, then enough short header lines to blow the
        // 8 KiB head cap before the terminating blank line.
        let mut request = String::from("GET /health HTTP/1.1\r\n");
        for i in 0..200 {
            request.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(64)));
        }
        request.push_str("\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 431 "),
            "got: {}",
            response.lines().next().unwrap_or("")
        );

        exporter.shutdown();
    }

    #[test]
    fn request_head_split_across_reads_hits_carry_path() {
        // The head arrives in three TCP segments, each smaller than a
        // request line; the server must keep accumulating in the carry
        // buffer instead of treating a partial head as a request.
        let r = Registry::new();
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        stream.set_nodelay(true).unwrap();
        for part in ["GET /hea", "lthz HTTP/1.1\r\nHost: t\r\nConnec", ""] {
            stream.write_all(part.as_bytes()).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        stream.write_all(b"tion: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 200 OK"),
            "got: {}",
            response.lines().next().unwrap_or("")
        );
        assert!(response.ends_with("ok\n"));
        assert_eq!(r.counter("obs.exporter.requests").get(), 1);

        exporter.shutdown();
    }

    #[test]
    fn two_pipelined_requests_in_one_segment_use_carry() {
        // Both heads land in a single read; the second must be served
        // entirely from the carry buffer (no further socket read), and
        // both must be counted.
        let r = Registry::new();
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let requests = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                        GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        stream.write_all(requests.as_bytes()).unwrap();
        // Nothing more is written: if the server failed to carry the
        // second head it would stall on read until timeout and close
        // without the second response.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let oks = response.matches("HTTP/1.1 200 OK").count();
        assert_eq!(oks, 2, "expected both pipelined responses: {response}");
        assert_eq!(response.matches("ok\n").count(), 2);
        assert_eq!(r.counter("obs.exporter.requests").get(), 2);

        exporter.shutdown();
    }

    #[test]
    fn telemetry_counts_routes_latency_and_serves_slo() {
        let r = Registry::new();
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| {
            if !req.path.starts_with("/admit") {
                return None;
            }
            // The request ID must be visible to downstream code on the
            // dispatch thread.
            let id = current_request_id().expect("request id set during dispatch");
            Some(RouteResponse::json(200, format!("{{\"id\":{id}}}")))
        });
        let cfg = TelemetryConfig::new("svc-test")
            .with_slos(vec![crate::slo::SloSpec::availability("avail", 0.999)]);
        let exporter =
            Exporter::serve("127.0.0.1:0", r.clone(), Some(handler), Some(cfg)).expect("bind");
        let addr = exporter.local_addr();

        // IDs are monotonically assigned in request order on one
        // connection.
        let mut client = HttpClient::connect(addr).unwrap();
        let (_, first) = client.get("/admit?class=0").unwrap();
        let (_, second) = client.get("/admit?class=1").unwrap();
        let id_of = |body: &str| {
            crate::json::parse(body)
                .unwrap()
                .get("id")
                .and_then(|v| v.as_u64())
                .unwrap()
        };
        assert_eq!(id_of(&second), id_of(&first) + 1);
        let (status, _) = client.get("/missing").unwrap();
        assert_eq!(status, 404);
        // No request in flight on this thread.
        assert_eq!(current_request_id(), None);

        // Health names the service; /slo serves budget + burn rates.
        let (_, health) = client.get("/health").unwrap();
        let doc = crate::json::parse(&health).unwrap();
        assert_eq!(
            doc.get("service").and_then(|v| v.as_str()),
            Some("svc-test")
        );
        let (status, slo) = client.get("/slo").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&slo).unwrap();
        assert_eq!(
            doc.get("service").and_then(|v| v.as_str()),
            Some("svc-test")
        );
        let slos = match doc.get("slos") {
            Some(crate::json::Json::Arr(items)) => items.clone(),
            other => panic!("slos not an array: {other:?}"),
        };
        assert_eq!(slos.len(), 1);
        assert!(slos[0].get("budget_remaining").is_some());
        assert!(slos[0]
            .get("fast")
            .and_then(|w| w.get("burn_rate"))
            .is_some());

        // The Prometheus surface carries per-route requests counters and
        // per-route HDR `le` buckets; the query string is stripped and
        // unmatched paths collapse to one label.
        let (_, text) = client.get("/metrics").unwrap();
        assert!(text.contains("obs_http_requests_total{route=\"/admit\",status=\"200\"} 2"));
        assert!(text.contains("obs_http_requests_total{route=\"unmatched\",status=\"404\"} 1"));
        assert!(text.contains("obs_http_request_duration_ns_bucket{route=\"/admit\",le=\""));
        assert!(text.contains("obs_http_request_duration_ns_count{route=\"/admit\"} 2"));
        assert!(text.contains("obs_http_in_flight 1")); // the /metrics request itself
        assert!(text.contains("obs_http_connections_total 1"));
        drop(client);

        exporter.shutdown();
        // Without telemetry, /slo falls through to 404.
        let plain = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        assert_eq!(
            HttpClient::connect(plain.local_addr())
                .unwrap()
                .get("/slo")
                .unwrap()
                .0,
            404
        );
        plain.shutdown();
    }

    #[test]
    fn post_routes_round_trip_with_bodies() {
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| match req.path {
            "/echo" if req.method == "POST" => {
                Some(RouteResponse::text(200, format!("got:{}", req.body)))
            }
            "/info" if req.method == "GET" => Some(RouteResponse::text(200, "info")),
            _ => None,
        });
        let exporter =
            Exporter::serve("127.0.0.1:0", Registry::new(), Some(handler), None).expect("bind");
        let addr = exporter.local_addr();

        let mut client = HttpClient::connect(addr).unwrap();
        // POST bodies reach the handler, keep-alive framing intact:
        // mixed POSTs and GETs ride the same connection.
        let (status, body) = client.post("/echo", "hello world").unwrap();
        assert_eq!((status, body.as_str()), (200, "got:hello world"));
        let (status, body) = client.get("/info").unwrap();
        assert_eq!((status, body.as_str()), (200, "info"));
        let (status, body) = client.post("/echo", "{\"x\":[1,2]}").unwrap();
        assert_eq!((status, body.as_str()), (200, "got:{\"x\":[1,2]}"));
        // Builtins still answer GET on the same server.
        assert_eq!(client.get("/healthz").unwrap().0, 200);
        // POST to an unclaimed path is 404, not 405.
        assert_eq!(client.post("/nope", "x").unwrap().0, 404);
        drop(client);

        // Without a request handler, POST stays 405 as before.
        let plain = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let mut c = HttpClient::connect(plain.local_addr()).unwrap();
        assert_eq!(c.post("/metrics", "x").unwrap().0, 405);
        plain.shutdown();
        exporter.shutdown();
    }

    #[test]
    fn oversized_post_body_gets_413() {
        let handler: RequestHandler =
            Arc::new(|_req: &HttpRequest| Some(RouteResponse::text(200, "ok")));
        let exporter =
            Exporter::serve("127.0.0.1:0", Registry::new(), Some(handler), None).expect("bind");
        let addr = exporter.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        // Announce a body over the cap; the server must refuse before
        // reading it.
        let head = format!(
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 413 "),
            "expected 413, got: {}",
            response.lines().next().unwrap_or("")
        );

        exporter.shutdown();
    }

    #[test]
    fn malformed_content_length_gets_400_and_closes() {
        let r = Registry::new();
        let handler: RequestHandler =
            Arc::new(|_req: &HttpRequest| Some(RouteResponse::text(200, "ok")));
        let exporter = Exporter::serve(
            "127.0.0.1:0",
            r.clone(),
            Some(handler),
            Some(TelemetryConfig::new("framing-test")),
        )
        .expect("bind");
        let addr = exporter.local_addr();

        // Each head is followed by a pipelined GET. Neither the POST's
        // body nor the GET may be dispatched: the server cannot know
        // where the body ends, so it must refuse and close.
        let smuggled = "GET /smuggled HTTP/1.1\r\nHost: t\r\n\r\n";
        let heads = [
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n".to_string(),
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n".to_string(),
            format!(
                "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\
                 Content-Length: {}\r\n\r\n",
                smuggled.len()
            ),
        ];
        for head in &heads {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            let request = format!("{head}{smuggled}GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            stream.write_all(request.as_bytes()).unwrap();
            // Read until the server closes; a read timeout means it kept
            // the connection open instead.
            let mut response = Vec::new();
            let closed = stream.read_to_end(&mut response).is_ok();
            let response = String::from_utf8_lossy(&response);
            let statuses: Vec<&str> = response
                .lines()
                .filter(|l| l.starts_with("HTTP/1.1 "))
                .collect();
            assert_eq!(
                statuses,
                vec!["HTTP/1.1 400 Bad Request"],
                "head {head:?} got: {response}"
            );
            assert!(closed, "head {head:?}: connection left open");
        }
        assert_eq!(
            r.counter("obs.http.requests{route=bad_request,status=400}")
                .get(),
            heads.len() as u64
        );

        exporter.shutdown();
    }

    #[test]
    fn client_config_env_knobs_parse() {
        // Uses explicit values rather than set_var: the suite is
        // multi-threaded and env mutation races other tests.
        let cfg = ClientConfig::default();
        assert_eq!(cfg.timeout, Duration::from_secs(2));
        assert_eq!(cfg.retries, 2);
        let fast = ClientConfig {
            timeout: Duration::from_millis(100),
            retries: 5,
            ..ClientConfig::default()
        };
        assert_eq!(fast.timeout, Duration::from_millis(100));
        assert_eq!(fast.retries, 5);
    }

    #[test]
    fn retrying_client_survives_connection_budget_and_counts_retries() {
        let exporter = Exporter::serve("127.0.0.1:0", Registry::new(), None, None).expect("bind");
        let addr = exporter.local_addr();
        let mut client = RetryingClient::with_config(addr, ClientConfig::default()).unwrap();
        // Cross the per-connection request budget several times over: the
        // client reconnects proactively, so no request observes an error.
        for _ in 0..(2 * MAX_REQUESTS_PER_CONN + 7) {
            let (status, body) = client.get("/healthz").unwrap();
            assert_eq!((status, body.as_str()), (200, "ok\n"));
        }
        exporter.shutdown();

        // Against a dead peer the client fails bounded-fast and counts
        // each retry.
        let before = crate::metrics().counter("client.retries").get();
        let cfg = ClientConfig {
            timeout: Duration::from_millis(50),
            retries: 2,
            backoff_step: Duration::from_millis(1),
        };
        let mut dead = RetryingClient::with_config(addr, cfg).unwrap();
        assert!(dead.get("/healthz").is_err());
        assert_eq!(crate::metrics().counter("client.retries").get(), before + 2);
    }

    #[test]
    fn shared_slo_merges_http_and_host_events() {
        let r = Registry::new();
        let slo = Arc::new(SloSet::new(vec![crate::slo::SloSpec::availability(
            "shard-completion",
            0.9,
        )
        .for_route("shard")]));
        let cfg = TelemetryConfig::new("campaignd-test").with_shared_slo(Arc::clone(&slo));
        let exporter = Exporter::serve("127.0.0.1:0", r.clone(), None, Some(cfg)).expect("bind");
        let addr = exporter.local_addr();

        // The host records synthetic (non-HTTP) events into the same set
        // the exporter serves at /slo.
        slo.record(&r, 0, "shard", 200, 0);
        slo.record(&r, 1, "shard", 503, 0);
        let (status, body) = HttpClient::connect(addr).unwrap().get("/slo").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).unwrap();
        let slos = match doc.get("slos") {
            Some(crate::json::Json::Arr(items)) => items.clone(),
            other => panic!("slos not an array: {other:?}"),
        };
        assert_eq!(slos.len(), 1);
        assert_eq!(
            slos[0].get("name").and_then(|v| v.as_str()),
            Some("shard-completion")
        );
        // One good + one bad event reached the shared tracker.
        assert_eq!(slos[0].get("good").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(slos[0].get("bad").and_then(|v| v.as_u64()), Some(1));

        exporter.shutdown();
    }
}
