//! The orchestration probe of the traced run: `campaignd --listen` on
//! loopback, drained by this process through the public
//! `orchestrate::run_worker` over a timed `HttpTransport`, each merged
//! CSV compared byte for byte with `campaignd --local` on the same spec.

use crate::sim::THREADS;
use crate::util::{mean, median, quantile, ratio, wait_for_file, Metrics, Proc, Tally};
use crate::Ctx;
use gps_experiments::scenarios::resolve;
use gps_sim::orchestrate::{
    run_worker, CompleteReply, HttpTransport, LeaseReply, ShardTransport, SubmitReply,
    WorkerOptions,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Scenario, replication count and shard size of every campaign.
const SCENARIO: &str = "paper";
pub const REPLICATIONS: u64 = 192;
const SHARD_SIZE: u64 = 8;
/// Warm-up slots per replication (`GPS_CAMPAIGN_WARMUP`).
const WARMUP: u64 = 200;

/// Measured slots per replication (`GPS_CAMPAIGN_MEASURE`) for a seed:
/// the scenario fixes its RNG seed, so the benchmark seed moves only
/// the replication length, between 200 and 207 slots.
pub fn measure_slots(seed: u64) -> u64 {
    200 + seed % 8
}

/// Sets the campaign-length knobs in this process, where the worker
/// resolves the scenario; they must match what `campaignd` resolves.
/// Called before any thread starts.
pub fn configure(seed: u64) {
    std::env::set_var("GPS_CAMPAIGN_WARMUP", WARMUP.to_string());
    std::env::set_var("GPS_CAMPAIGN_MEASURE", measure_slots(seed).to_string());
}

fn campaignd(ctx: &Ctx, seed: u64, dir: &PathBuf, replications: u64) -> std::process::Command {
    let mut cmd = ctx.command("campaignd");
    cmd.args(["--scenario", SCENARIO, "--quiet", "--replications"])
        .arg(replications.to_string())
        .arg("--shard-size")
        .arg(SHARD_SIZE.to_string())
        .env("GPS_RESULTS_DIR", dir)
        .env("GPS_CAMPAIGN_WARMUP", WARMUP.to_string())
        .env("GPS_CAMPAIGN_MEASURE", measure_slots(seed).to_string());
    cmd
}

fn csv_path(dir: &std::path::Path) -> PathBuf {
    dir.join(format!("campaignd_{SCENARIO}.csv"))
}

/// The reference output: the same spec drained in-process by
/// `campaignd --local`.
fn reference(ctx: &Ctx, seed: u64, replications: u64) -> Result<Vec<u8>, String> {
    let dir = ctx.fresh_dir(&format!("campaignd-local-{replications}"));
    let mut cmd = campaignd(ctx, seed, &dir, replications);
    cmd.arg("--local").arg(THREADS.to_string());
    let proc = Proc::spawn(cmd).map_err(|e| format!("start campaignd --local: {e}"))?;
    let (status, _) = proc.wait_output(Duration::from_secs(120))?;
    if !status.success() {
        return Err(format!("campaignd --local exited with {status}"));
    }
    std::fs::read(csv_path(&dir)).map_err(|e| format!("campaignd --local CSV: {e}"))
}

/// Per-call round trips of the three orchestration requests.
#[derive(Default)]
struct CallTimes {
    lease_us: Vec<f64>,
    submit_us: Vec<f64>,
    complete_us: Vec<f64>,
}

/// `HttpTransport` with each call timed from the benchmark side.
struct TimedTransport {
    inner: HttpTransport,
    times: Arc<Mutex<CallTimes>>,
}

fn timed<R>(f: impl FnOnce() -> R, sink: &mut Vec<f64>) -> R {
    let t0 = Instant::now();
    let r = f();
    sink.push(t0.elapsed().as_secs_f64() * 1e6);
    r
}

impl ShardTransport for TimedTransport {
    fn lease(&mut self, worker: &str) -> Result<LeaseReply, String> {
        let mut t = self.times.lock().map_err(|_| "timing poisoned")?;
        timed(|| self.inner.lease(worker), &mut t.lease_us)
    }

    fn submit(&mut self, line: &str) -> Result<SubmitReply, String> {
        let mut t = self.times.lock().map_err(|_| "timing poisoned")?;
        timed(|| self.inner.submit(line), &mut t.submit_us)
    }

    fn complete(&mut self, shard: u64, token: u64) -> Result<CompleteReply, String> {
        let mut t = self.times.lock().map_err(|_| "timing poisoned")?;
        timed(|| self.inner.complete(shard, token), &mut t.complete_us)
    }
}

/// One distributed campaign.
struct Job {
    /// From the coordinator listening to the campaign sealed.
    wall: Duration,
    wait_polls: u64,
    journal_kb: f64,
}

fn run_job(
    ctx: &Ctx,
    seed: u64,
    replications: u64,
    reference: &[u8],
    times: Option<&Arc<Mutex<CallTimes>>>,
    tally: &mut Tally,
) -> Result<Job, String> {
    let dir = ctx.fresh_dir("campaignd-listen");
    let addr_file = dir.join("addr");
    let mut cmd = campaignd(ctx, seed, &dir, replications);
    cmd.args(["--listen", "127.0.0.1:0", "--addr-file"])
        .arg(&addr_file);
    let start = Instant::now();
    let proc = Proc::spawn(cmd).map_err(|e| format!("start campaignd: {e}"))?;
    let addr = wait_for_file(&addr_file, Duration::from_secs(30))?;
    let setup = start.elapsed();
    let transport =
        HttpTransport::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    let opts = WorkerOptions {
        worker_id: "perfbench".into(),
        threads: THREADS,
        poll: Duration::from_millis(2),
        ..WorkerOptions::default()
    };
    let scenario = |name: &str| resolve(name).map(|s| s.worker_scenario());
    let summary = match times {
        Some(t) => run_worker(
            TimedTransport {
                inner: transport,
                times: Arc::clone(t),
            },
            &opts,
            scenario,
        ),
        None => run_worker(transport, &opts, scenario),
    }
    .map_err(|e| format!("worker: {e}"))?;
    let wall = start.elapsed() - setup;
    // campaignd lingers for a grace period after the campaign is done.
    let (status, _) = proc.wait_output(Duration::from_secs(30))?;
    tally.attempted += replications;
    if !status.success() {
        tally.fail(replications, format!("campaignd exited with {status}"));
    }
    if summary.replications_run != replications {
        tally.fail(
            replications.abs_diff(summary.replications_run),
            format!(
                "worker ran {} of {replications} replications",
                summary.replications_run
            ),
        );
    }
    match std::fs::read(csv_path(&dir)) {
        Ok(csv) if csv == reference => {}
        _ => tally.fail(
            replications,
            "merged CSV differs from campaignd --local".into(),
        ),
    }
    let journal_kb = std::fs::metadata(dir.join(format!("campaignd_{SCENARIO}_checkpoint.ndjson")))
        .map_or(0.0, |m| m.len() as f64 / 1024.0);
    Ok(Job {
        wall,
        wait_polls: summary.wait_polls,
        journal_kb,
    })
}

/// Mean single-thread compute time of one replication of the scenario.
fn compute_per_replication(seed: u64) -> f64 {
    let scenario = resolve(SCENARIO).expect("shipped scenario");
    let mut cfg = scenario.cfg.clone();
    let samples: Vec<f64> = (0..32)
        .map(|r| {
            cfg.seed = seed.wrapping_add(r);
            let mut sources = (scenario.make_sources)(r);
            let t0 = Instant::now();
            std::hint::black_box(gps_sim::runner::run_single_node_core(&mut sources, &cfg));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    mean(&samples)
}

/// Layer metrics of orchestration and the durable journal, from
/// campaigns through the timed transport for `secs` (at least two).
pub fn trace(
    ctx: &Ctx,
    seed: u64,
    replications: u64,
    secs: f64,
) -> Result<(Metrics, Tally), String> {
    let mut tally = Tally::default();
    let reference = reference(ctx, seed, replications)?;
    let times = Arc::new(Mutex::new(CallTimes::default()));
    let retries = gps_obs::metrics().counter("orchestrate.backpressure.retries");
    let mut retries_503 = 0;
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < secs {
        let retries_before = retries.get();
        traced.push(run_job(
            ctx,
            seed,
            replications,
            &reference,
            Some(&times),
            &mut tally,
        )?);
        retries_503 += retries.get() - retries_before;
    }
    let t = times.lock().expect("timing poisoned");
    let per_rep = compute_per_replication(seed);
    let traced_wall = median(
        &traced
            .iter()
            .map(|j| j.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let polls: u64 = traced.iter().map(|j| j.wait_polls).sum();

    let mut m = Metrics::default();
    m.set("orchestrate.lease_p50_us", quantile(&t.lease_us, 0.5), "us");
    m.set(
        "orchestrate.submit_p50_us",
        quantile(&t.submit_us, 0.5),
        "us",
    );
    m.set(
        "orchestrate.submit_p99_us",
        quantile(&t.submit_us, 0.99),
        "us",
    );
    m.set(
        "orchestrate.complete_p50_us",
        quantile(&t.complete_us, 0.5),
        "us",
    );
    m.set(
        "orchestrate.complete_p99_us",
        quantile(&t.complete_us, 0.99),
        "us",
    );
    m.set(
        "orchestrate.wait_polls",
        ratio(polls as f64, traced.len() as f64),
        "count",
    );
    m.set("orchestrate.retries_503", retries_503 as f64, "count");
    let compute_share = ratio(replications as f64 * per_rep, THREADS as f64 * traced_wall);
    m.set("orchestrate.compute_share", compute_share, "ratio");
    m.set("supervise.journal_kb_at_seal", traced[0].journal_kb, "KB");
    Ok((m, tally))
}
