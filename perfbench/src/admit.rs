//! The `admit-warm` and `admit-churn` workloads: `admitd` over loopback,
//! a closed loop of one synchronous caller for throughput and round-trip
//! latency, an open loop in traced runs, and an in-process
//! `AdmissionEngine` replay of the exact request stream that every
//! reply is checked against.

use crate::calib::Calibrator;
use crate::loadgen::{poisson_schedule, run_open_loop, SpinClient};
use crate::util::{
    children_cpu, fnv1a, mean, mix, proc_cpu, quantile, ratio, reconcile, vm_hwm_kb, EndToEnd,
    Metrics, Proc, Tally, FNV_OFFSET,
};
use crate::Ctx;
use gps_analysis::engine::DEFAULT_CACHE_CAP;
use gps_analysis::{
    AdmissionEngine, CacheStats, CertBackend, ClassSpec, QosTarget, Request, RequestKind,
};
use gps_ebb::{EbbProcess, TimeModel};
use gps_obs::exporter::{HttpClient, MAX_REQUESTS_PER_CONN};
use gps_obs::metrics::Registry;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One admit workload: how `admitd` is started and what it is sent.
pub struct AdmitConfig {
    pub backend: CertBackend,
    /// Server rate `R` (`admitd --rate`).
    pub rate: f64,
    /// Admits that build the standing population during set-up; the
    /// stream then holds each class near a quarter of it.
    pub population: u64,
    /// Share of admits, per mille (the rest depart); used only without a
    /// standing population.
    pub admit_per_mille: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests in one closed-loop window, about a second's worth. A
    /// fixed count, not a fixed time, so every run of a seed
    /// sends the server the same requests in the same order and its
    /// state (cache fill, evictions) moves the same way whatever the
    /// host's speed.
    pub window_requests: usize,
}

/// `admitd --backend eb` with its default classes: every certificate is
/// a cache hit once the first request of each class has been served.
pub const WARM: AdmitConfig = AdmitConfig {
    backend: CertBackend::EffectiveBandwidth,
    rate: 1.0,
    population: 0,
    admit_per_mille: 700,
    setups: 31,
    window_requests: 20_000,
};

/// `admitd --backend rpps --rate 1000` around a standing population of
/// 2000 sessions that the stream keeps stationary, so every admit moves
/// the RPPS share g and needs fresh certificates.
pub const CHURN: AdmitConfig = AdmitConfig {
    backend: CertBackend::Rpps,
    rate: 1000.0,
    population: 2000,
    admit_per_mille: 0,
    setups: 5,
    window_requests: 8_000,
};

/// Connections (and threads) the generator uses. One: the server then
/// sees one request at a time in a fixed order, so its work does not
/// depend on how two senders interleave or contend for its engine
/// lock, and the spinning sender leaves the other vCPU to `admitd`, so
/// no request waits for the server to preempt it. At the open loop's
/// offered rates a request rarely finds the previous one in flight.
const SENDERS: usize = 1;
/// Requests of the main stream served during set-up.
const WARMUP_REQUESTS: usize = 64;
/// Length of the main stream, more than any run can send.
const STREAM_LEN: u64 = 1_000_000;
/// `admitd --slo`'s `/admit` latency objective: 5 ms at p99.
pub const LATENCY_LIMIT_US: f64 = 5000.0;

/// `admitd`'s default traffic classes, which the in-process replay must
/// share for its decisions to be comparable.
fn classes() -> Vec<ClassSpec> {
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

/// The admits that build the standing population, round robin over
/// the classes.
fn population(cfg: &AdmitConfig) -> Vec<Request> {
    (0..cfg.population)
        .map(|i| Request {
            class: (i % 4) as usize,
            kind: RequestKind::Admit,
        })
        .collect()
}

/// The main request stream of a seed. With a standing population each
/// request picks a class uniformly and admits with probability
/// `target / (target + count)`, so every class count reverts to its
/// target and the population stays stationary however long the run.
pub fn stream(cfg: &AdmitConfig, seed: u64) -> Vec<Request> {
    let target = cfg.population / 4;
    let mut counts = [target; 4];
    (0..STREAM_LEN)
        .map(|i| {
            let h = mix(seed, i);
            let class = (h % 4) as usize;
            let u = (h >> 32) % 1000;
            let admit = if cfg.population == 0 {
                u < cfg.admit_per_mille
            } else {
                u * (target + counts[class]) < 1000 * target
            };
            if admit {
                counts[class] += 1;
            } else {
                counts[class] = counts[class].saturating_sub(1);
            }
            Request {
                class,
                kind: if admit {
                    RequestKind::Admit
                } else {
                    RequestKind::Depart
                },
            }
        })
        .collect()
}

/// What `admitd` answered to one decision request.
#[derive(Debug, Clone, PartialEq)]
struct Reply {
    seq: u64,
    class: usize,
    admit: bool,
    accepted: bool,
    sessions: u64,
    load_bits: u64,
}

/// One request sent and its reply (`None` when it failed).
struct Rec {
    sent: Request,
    reply: Option<Reply>,
}

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse_reply(body: &str) -> Option<Reply> {
    Some(Reply {
        seq: field(body, "seq")?.parse().ok()?,
        class: field(body, "class")?.parse().ok()?,
        admit: field(body, "kind")? == "admit",
        accepted: field(body, "accepted")? == "true",
        sessions: field(body, "sessions")?.parse().ok()?,
        load_bits: u64::from_str_radix(field(body, "load_bits")?, 16).ok()?,
    })
}

/// A keep-alive connection that reconnects before the server's
/// per-connection request budget runs out, as `admitd --replay` does.
struct Conn {
    addr: SocketAddr,
    client: Option<SpinClient>,
    on_conn: usize,
    opened: u64,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            client: None,
            on_conn: 0,
            opened: 0,
        }
    }

    fn get(&mut self, path: &str) -> Option<(u16, String)> {
        if self.client.is_none() || self.on_conn + 1 >= MAX_REQUESTS_PER_CONN {
            self.client = SpinClient::connect(self.addr).ok();
            self.on_conn = 0;
            self.opened += 1;
        }
        let result = self.client.as_mut()?.get(path);
        self.on_conn += 1;
        match result {
            Ok(r) => Some(r),
            Err(_) => {
                self.client = None;
                None
            }
        }
    }

    fn decide(&mut self, req: Request) -> Rec {
        let op = match req.kind {
            RequestKind::Admit => "admit",
            RequestKind::Depart => "depart",
        };
        let reply = match self.get(&format!("/{op}?class={}", req.class)) {
            Some((200, body)) => parse_reply(&body),
            _ => None,
        };
        Rec { sent: req, reply }
    }
}

/// A running `admitd`.
struct Server {
    proc: Proc,
    addr: SocketAddr,
}

fn start_server(ctx: &Ctx, cfg: &AdmitConfig) -> Result<Server, String> {
    let mut cmd = ctx.command("admitd");
    let backend = match cfg.backend {
        CertBackend::EffectiveBandwidth => "eb",
        CertBackend::Rpps => "rpps",
    };
    cmd.args(["--serve", "127.0.0.1:0", "--backend", backend, "--rate"])
        .arg(cfg.rate.to_string());
    let mut proc = Proc::spawn(cmd).map_err(|e| format!("start admitd: {e}"))?;
    // "admitd listening on 127.0.0.1:PORT (backend ..., rate ...)"
    let line = proc.read_line().map_err(|e| format!("admitd: {e}"))?;
    let addr = line
        .split_whitespace()
        .nth(3)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("admitd printed {line:?}"))?;
    Ok(Server { proc, addr })
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    match HttpClient::connect(addr).and_then(|mut c| c.get("/metrics")) {
        Ok((200, text)) => Ok(text),
        Ok((status, _)) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("/metrics: {e}")),
    }
}

fn counter(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

fn server_cache(text: &str) -> Option<CacheStats> {
    Some(CacheStats {
        hits: counter(text, "admission_cache_hits_total")?,
        misses: counter(text, "admission_cache_misses_total")?,
        evictions: counter(text, "admission_cache_evictions_total")?,
    })
}

/// The server's own request-duration HDR for the decision routes:
/// per-bucket upper bounds (ns) with cumulative counts, plus sum and count.
#[derive(Default)]
struct Hdr {
    buckets: Vec<(String, u64, u64)>,
    sum: u64,
    count: u64,
}

const DECISION_ROUTES: [&str; 2] = ["/admit", "/depart"];

fn parse_hdr(text: &str) -> Hdr {
    let mut hdr = Hdr::default();
    for route in DECISION_ROUTES {
        let bucket = format!("obs_http_request_duration_ns_bucket{{route=\"{route}\",le=\"");
        let sum = format!("obs_http_request_duration_ns_sum{{route=\"{route}\"}} ");
        let count = format!("obs_http_request_duration_ns_count{{route=\"{route}\"}} ");
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(&bucket) {
                let Some((le, n)) = rest.split_once("\"} ") else {
                    continue;
                };
                if let (Ok(le), Ok(n)) = (le.parse(), n.trim().parse()) {
                    hdr.buckets.push((route.to_string(), le, n));
                }
            } else if let Some(v) = line.strip_prefix(&sum) {
                hdr.sum += v.trim().parse::<u64>().unwrap_or(0);
            } else if let Some(v) = line.strip_prefix(&count) {
                hdr.count += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    hdr
}

/// Server-side latency quantiles (µs) and mean (µs) of the requests
/// served between two scrapes.
fn hdr_window(before: &Hdr, after: &Hdr, qs: &[f64]) -> (Vec<f64>, f64) {
    let cum_at = |hdr: &Hdr, route: &str, le: u64| {
        hdr.buckets
            .iter()
            .filter(|(r, b, _)| r == route && *b <= le)
            .map(|&(_, _, n)| n)
            .max()
            .unwrap_or(0)
    };
    let mut per_bucket: Vec<(u64, u64)> = Vec::new();
    for route in DECISION_ROUTES {
        let mut prev = 0u64;
        let mut les: Vec<u64> = after
            .buckets
            .iter()
            .filter(|(r, _, _)| r == route)
            .map(|&(_, le, _)| le)
            .collect();
        les.sort_unstable();
        for le in les {
            let window = cum_at(after, route, le) - cum_at(before, route, le);
            per_bucket.push((le, window - prev));
            prev = window;
        }
    }
    per_bucket.sort_unstable();
    let total: u64 = per_bucket.iter().map(|b| b.1).sum();
    let quantiles = qs
        .iter()
        .map(|&q| {
            let target = (q * total as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for &(le, n) in &per_bucket {
                seen += n;
                if seen >= target {
                    return le as f64 / 1e3;
                }
            }
            0.0
        })
        .collect();
    let count = after.count - before.count;
    let mean = ratio((after.sum - before.sum) as f64, count as f64) / 1e3;
    (quantiles, mean)
}

/// What a closed-loop phase sent, its round trips when timed, the
/// connections it opened, and how long it took.
#[derive(Default)]
struct Phase {
    recs: Vec<Rec>,
    rtt_us: Vec<f64>,
    opened: u64,
    elapsed: Duration,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.recs.extend(other.recs);
        self.rtt_us.extend(other.rtt_us);
        self.opened += other.opened;
        self.elapsed += other.elapsed;
    }
}

/// Sends requests claimed from `claim` over `SENDERS` keep-alive
/// connections until it runs dry; with `timed`, records each round trip.
fn closed_loop(
    addr: SocketAddr,
    reqs: &[Request],
    claim: &(dyn Fn() -> Option<usize> + Sync),
    timed: bool,
) -> Phase {
    let start = Instant::now();
    let per_thread: Vec<(Vec<Rec>, Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let (mut recs, mut rtt_us) = (Vec::new(), Vec::new());
                    while let Some(i) = claim() {
                        let t0 = Instant::now();
                        recs.push(conn.decide(reqs[i]));
                        if timed {
                            rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    (recs, rtt_us, conn.opened)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop sender panicked"))
            .collect()
    });
    let mut all = Phase {
        recs: Vec::new(),
        rtt_us: Vec::new(),
        opened: 0,
        elapsed: start.elapsed(),
    };
    for (recs, rtt_us, opened) in per_thread {
        all.recs.extend(recs);
        all.rtt_us.extend(rtt_us);
        all.opened += opened;
    }
    all
}

/// Sends the next `n` requests of the main stream, timing each round
/// trip.
fn closed_count(s: &Session, n: usize) -> Phase {
    let end = (s.next.load(Ordering::Relaxed) + n).min(s.stream.len());
    let next = &s.next;
    closed_loop(
        s.server.addr,
        s.stream,
        &|| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            (i < end).then_some(i)
        },
        true,
    )
}

/// Sends requests for `secs`, continuing the main stream at `next`.
fn closed_until(s: &Session, secs: f64, timed: bool) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let next = &s.next;
    closed_loop(
        s.server.addr,
        s.stream,
        &|| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            (Instant::now() < deadline && i < s.stream.len()).then_some(i)
        },
        timed,
    )
}

/// Open loop at `rate` requests per second; returns the records and
/// the per-request latency and lateness.
fn open_loop(
    s: &Session,
    rate: f64,
    seed: u64,
    secs: f64,
) -> (Vec<Rec>, crate::loadgen::OpenLoopTimes) {
    let mut schedule = poisson_schedule(seed, rate, secs);
    let base = s.next.fetch_add(schedule.len(), Ordering::Relaxed);
    schedule.truncate(s.stream.len().saturating_sub(base));
    let recs = Mutex::new(Vec::with_capacity(schedule.len()));
    let times = run_open_loop(
        &schedule,
        SENDERS,
        LATENCY_LIMIT_US,
        || Conn::new(s.server.addr),
        |conn, k| {
            let rec = conn.decide(s.stream[base + k]);
            let ok = rec.reply.is_some();
            recs.lock().expect("record list poisoned").push(rec);
            ok
        },
    );
    (recs.into_inner().expect("record list poisoned"), times)
}

/// A set-up `admitd`: population built, caches warm, every request so
/// far logged for the replay.
struct Session<'a> {
    server: Server,
    stream: &'a [Request],
    recs: Vec<Rec>,
    next: AtomicUsize,
}

fn set_up<'a>(ctx: &Ctx, cfg: &AdmitConfig, stream: &'a [Request]) -> Result<Session<'a>, String> {
    let server = start_server(ctx, cfg)?;
    let pop = population(cfg);
    let (next_pop, next_warm) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let claim = |next: &AtomicUsize, len: usize| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < len).then_some(i)
    };
    let mut recs = closed_loop(server.addr, &pop, &|| claim(&next_pop, pop.len()), false).recs;
    let warm = &stream[..WARMUP_REQUESTS];
    recs.extend(closed_loop(server.addr, warm, &|| claim(&next_warm, warm.len()), false).recs);
    Ok(Session {
        server,
        stream,
        recs,
        next: AtomicUsize::new(WARMUP_REQUESTS),
    })
}

/// The in-process replay of the stream in the order the server decided
/// it, with per-call timing of `decide` and `publish`.
struct Replay {
    decide_ns: Vec<f64>,
    publish_ns: Vec<f64>,
    cache: CacheStats,
    decisions: u64,
}

/// Replays every answered request through a fresh `AdmissionEngine`
/// configured like `admitd`, in the server's `seq` order, and counts
/// replies that differ from the replica's decision or from what was
/// sent. Also compares the replica's cache counters with the server's.
fn replay(cfg: &AdmitConfig, recs: &[Rec], server_text: &str, tally: &mut Tally) -> Replay {
    let mut answered: Vec<(&Request, &Reply)> = Vec::new();
    for rec in recs {
        match &rec.reply {
            Some(r) => answered.push((&rec.sent, r)),
            None => tally.fail(1, "admitd request failed".into()),
        }
    }
    answered.sort_by_key(|(_, r)| r.seq);
    let mut engine = AdmissionEngine::with_cache_cap(
        classes(),
        cfg.rate,
        TimeModel::Discrete,
        cfg.backend,
        DEFAULT_CACHE_CAP,
    )
    .expect("admitd's default classes are valid");
    let registry = Registry::new();
    engine.publish(&registry); // admitd publishes once before serving
    let mut out = Replay {
        decide_ns: Vec::with_capacity(answered.len()),
        publish_ns: Vec::with_capacity(answered.len()),
        cache: CacheStats::default(),
        decisions: answered.len() as u64,
    };
    let (mut server_digest, mut replica_digest) = (FNV_OFFSET, FNV_OFFSET);
    for (k, (sent, reply)) in answered.iter().enumerate() {
        if reply.seq != k as u64 + 1 {
            tally.fail(
                answered.len() as u64 - k as u64,
                format!(
                    "admitd seq {} where {} was due; replay stopped",
                    reply.seq,
                    k + 1
                ),
            );
            break;
        }
        let t0 = Instant::now();
        let d = engine.decide(**sent);
        let t1 = Instant::now();
        engine.publish(&registry);
        out.publish_ns.push(t1.elapsed().as_nanos() as f64);
        out.decide_ns.push((t1 - t0).as_nanos() as f64);
        let replica = Reply {
            seq: d.seq,
            class: d.class,
            admit: d.kind == RequestKind::Admit,
            accepted: d.accepted,
            sessions: d.sessions,
            load_bits: d.load.to_bits(),
        };
        fnv1a(
            &mut server_digest,
            format!("{},{}\n", reply.seq, reply.accepted).as_bytes(),
        );
        fnv1a(
            &mut replica_digest,
            format!("{},{}\n", d.seq, d.accepted).as_bytes(),
        );
        if replica != **reply
            || sent.class != reply.class
            || (sent.kind == RequestKind::Admit) != reply.admit
        {
            tally.fail(
                1,
                format!(
                    "decision {} differs: admitd {reply:?}, replica {replica:?}",
                    reply.seq
                ),
            );
        }
    }
    out.cache = engine.cache_stats();
    match server_cache(server_text) {
        Some(c) if c == out.cache => {}
        other => tally.fail(
            1,
            format!(
                "cache counters differ: admitd {other:?}, replica {:?}",
                out.cache
            ),
        ),
    }
    println!(
        "  accept/reject digest: admitd {server_digest:016x}, replica {replica_digest:016x}; \
         cache hits/misses/evictions {}/{}/{}",
        out.cache.hits, out.cache.misses, out.cache.evictions
    );
    out
}

/// Set-up cost: `n` servers set up and stopped in turn, each sample the
/// calibrated CPU seconds `admitd` used from start to the end of set-up.
fn setup_cpu(
    ctx: &Ctx,
    cfg: &AdmitConfig,
    stream: &[Request],
    n: usize,
    cal: &mut Calibrator,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let before = children_cpu();
            let (done, slow) = cal.around(|| set_up(ctx, cfg, stream).map(drop));
            done?; // admitd is stopped and reaped
            Ok((children_cpu() - before) / slow)
        })
        .collect()
}

/// Seconds a closed-loop window takes, about: a run has `secs /
/// WINDOW_S` windows.
const WINDOW_S: f64 = 1.0;

/// The untraced end-to-end run: a freshly set-up server, then about
/// `secs` of closed-loop windows with every round trip timed,
/// with half the set-up samples taken before and half after. Every
/// window and set-up is calibrated by the bursts on either side of it.
pub fn run(
    ctx: &Ctx,
    cfg: &AdmitConfig,
    seed: u64,
    secs: f64,
) -> Result<(EndToEnd, Tally), String> {
    let stream = stream(cfg, seed);
    let mut cal = Calibrator::new();
    let mut setup_s = setup_cpu(ctx, cfg, &stream, cfg.setups / 2, &mut cal)?;
    let mut s = set_up(ctx, cfg, &stream)?;
    let pid = s.server.proc.pid();
    let windows = ((secs / WINDOW_S).round() as usize).max(2);
    let (mut decisions, mut cpu, mut wall) = (0.0, 0.0, 0.0);
    let (mut ops_per_cpu_s, mut latency_us, mut rtt_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..windows {
        let cpu0 = proc_cpu(pid);
        let (closed, slow) = cal.around(|| closed_count(&s, cfg.window_requests));
        let c = proc_cpu(pid) - cpu0; // admitd is idle during the burst
        let n = closed.recs.len() as f64;
        ops_per_cpu_s.push(ratio(n, c / slow));
        latency_us.extend(closed.rtt_us.iter().map(|t| t / slow));
        rtt_us.extend(closed.rtt_us);
        decisions += n;
        cpu += c;
        wall += closed.elapsed.as_secs_f64();
        s.recs.extend(closed.recs);
    }
    let text = scrape(s.server.addr)?;
    let peak = vm_hwm_kb(pid).unwrap_or(0);
    let mut tally = Tally {
        attempted: s.recs.len() as u64,
        ..Tally::default()
    };
    replay(cfg, &s.recs, &text, &mut tally);
    drop(s);
    setup_s.extend(setup_cpu(
        ctx,
        cfg,
        &stream,
        cfg.setups - cfg.setups / 2,
        &mut cal,
    )?);
    println!(
        "  closed loop: {decisions} decisions in {wall:.3} s wall ({:.0}/s) and {cpu:.2} s admitd CPU \
         ({:.0}/CPU s) over {SENDERS} connection, {windows} windows; round trip p50 {:.1} us, \
         p99 {:.1} us, uncalibrated",
        decisions / wall,
        decisions / cpu,
        quantile(&rtt_us, 0.5),
        quantile(&rtt_us, 0.99)
    );
    let listed: Vec<String> = ops_per_cpu_s.iter().map(|v| format!("{v:.0}")).collect();
    println!(
        "  calibrated decisions per CPU s by window: {}",
        listed.join(" ")
    );
    Ok((
        EndToEnd {
            setup_s,
            ops_per_cpu_s,
            latency_us,
            peak_rss_kb: peak,
            calibration: cal.readings,
        },
        tally,
    ))
}

/// Alternating untraced and traced closed-loop windows of the traced
/// run; interleaving them keeps the host's drift out of their ratio.
const TRACE_ROUNDS: usize = 4;

/// The traced run: closed-loop windows with each round trip timed, the
/// server's HDR diffed across them, a short open loop at `rate` for
/// generator lateness, and the timed in-process replay for the engine
/// layer. With `recon` (the workload's own probe) untraced windows
/// alternate with the traced ones, their per-request ratio is
/// `trace.overhead`, and the reconciliation is written.
pub fn trace(
    ctx: &Ctx,
    cfg: &AdmitConfig,
    rate: f64,
    seed: u64,
    secs: f64,
    recon: Option<&mut String>,
) -> Result<(Metrics, Tally), String> {
    let stream = stream(cfg, seed);
    let mut s = set_up(ctx, cfg, &stream)?;
    let rounds = TRACE_ROUNDS as f64;
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let before = parse_hdr(&scrape(s.server.addr)?);
    for _ in 0..TRACE_ROUNDS {
        if recon.is_some() {
            plain.absorb(closed_until(&s, secs / (4.0 * rounds), false));
        }
        traced.absorb(closed_until(&s, secs / (2.0 * rounds), true));
    }
    let after = parse_hdr(&scrape(s.server.addr)?);
    let (open_recs, times) = open_loop(&s, rate, seed, secs / 4.0);
    let text = scrape(s.server.addr)?;
    let n_traced = traced.recs.len() as f64;
    let per_plain = ratio(plain.elapsed.as_secs_f64(), plain.recs.len() as f64);
    s.recs.extend(plain.recs);
    s.recs.extend(traced.recs);
    s.recs.extend(open_recs);
    let mut tally = Tally {
        attempted: s.recs.len() as u64,
        ..Tally::default()
    };
    let rep = replay(cfg, &s.recs, &text, &mut tally);

    let (server_q, server_mean) = hdr_window(&before, &after, &[0.5, 0.99]);
    let engine_ns: Vec<f64> = rep
        .decide_ns
        .iter()
        .zip(&rep.publish_ns)
        .map(|(d, p)| d + p)
        .collect();
    let rtt_p50 = quantile(&traced.rtt_us, 0.5);
    let lookups = rep.cache.hits + rep.cache.misses;
    let mut m = Metrics::default();
    m.set("exporter.server_p50_us", server_q[0], "us");
    m.set("exporter.server_p99_us", server_q[1], "us");
    m.set(
        "exporter.self_us",
        server_q[0] - quantile(&engine_ns, 0.5) / 1e3,
        "us",
    );
    m.set("exporter.client_rtt_p50_us", rtt_p50, "us");
    m.set("exporter.kernel_client_us", rtt_p50 - server_q[0], "us");
    m.set(
        "exporter.connections_per_1k",
        ratio(traced.opened as f64 * 1e3, n_traced),
        "count",
    );
    m.set("engine.decide_p50_ns", quantile(&rep.decide_ns, 0.5), "ns");
    m.set("engine.decide_p99_ns", quantile(&rep.decide_ns, 0.99), "ns");
    m.set(
        "engine.publish_p50_ns",
        quantile(&rep.publish_ns, 0.5),
        "ns",
    );
    m.set(
        "engine.publish_p99_ns",
        quantile(&rep.publish_ns, 0.99),
        "ns",
    );
    m.set(
        "engine.cache_hit_ratio",
        ratio(rep.cache.hits as f64, lookups as f64),
        "ratio",
    );
    m.set(
        "engine.misses_per_decision",
        ratio(rep.cache.misses as f64, rep.decisions as f64),
        "ratio",
    );
    m.set(
        "engine.evictions_per_decision",
        ratio(rep.cache.evictions as f64, rep.decisions as f64),
        "ratio",
    );
    m.set(
        "loadgen.late_p99_ms",
        quantile(&times.late_us, 0.99) / 1e3,
        "ms",
    );
    m.set(
        "loadgen.latency_p50_us",
        quantile(&times.latency_us, 0.5),
        "us",
    );
    m.set(
        "loadgen.latency_p99_us",
        quantile(&times.latency_us, 0.99),
        "us",
    );
    let per_traced = ratio(traced.elapsed.as_secs_f64(), n_traced);
    let Some(recon) = recon else {
        return Ok((m, tally));
    };
    m.set(
        "trace.overhead",
        ratio(per_traced, per_plain) - 1.0,
        "ratio",
    );

    // Reconciliation, in mean microseconds per request on one connection.
    let e2e = per_traced * SENDERS as f64 * 1e6;
    let rtt = mean(&traced.rtt_us);
    let engine = mean(&engine_ns) / 1e3;
    reconcile(
        recon,
        &format!(
            "admit layers, mean us per request per connection ({SENDERS} connections, {n_traced} traced requests):"
        ),
        &[
            ("engine decide+publish (in-process replay)", engine),
            ("exporter self + lock wait (server - engine)", server_mean - engine),
            ("kernel + client (rtt - server)", rtt - server_mean),
        ],
        "end to end (elapsed x connections / n)",
        e2e,
    );
    let _ = writeln!(
        recon,
        "  ratios: cache hits {} / lookups {lookups}; misses {} / decisions {}; evictions {} / decisions {}; \
         connections {} / traced requests {n_traced}",
        rep.cache.hits, rep.cache.misses, rep.decisions, rep.cache.evictions, rep.decisions, traced.opened
    );
    let _ = writeln!(
        recon,
        "  trace.overhead: {:.2} us traced / {:.2} us untraced closed-loop wall per request \
         ({TRACE_ROUNDS} alternating windows each) - 1 = {:+.4}",
        per_traced * 1e6,
        per_plain * 1e6,
        m.get("trace.overhead")
    );
    Ok((m, tally))
}
