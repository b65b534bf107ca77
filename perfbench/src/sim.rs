//! The `campaign` workload — repeated V2 paper campaigns through the
//! `validate_single` binary — and the in-process probes of the layers
//! a campaign slot passes through: `gps_sources`, `gps_sim::slotted`,
//! `gps_stats`, `gps_sim::runner`, `gps_par` and `gps_sim::supervise`.

use crate::calib::Calibrator;
use crate::util::{
    children_cpu, fnv1a, median, ratio, reconcile, thread_cpu, EndToEnd, HwmSampler, Metrics, Proc,
    Tally, FNV_OFFSET,
};
use crate::Ctx;
use gps_experiments::paper::{table1_sources, ParamSet};
use gps_sim::runner::{
    merge_single_node_reports, run_single_node_core_scratch, SingleNodeRunConfig,
    SingleNodeRunReport, SingleNodeScratch,
};
use gps_sim::supervise::{
    checkpoint_line, decode_checkpoint_line, fingerprint_single_node, single_node_report_from_json,
    single_node_report_to_json,
};
use gps_sim::{SlotOutput, SlottedGps};
use gps_sources::SlotSource;
use gps_stats::{BinnedCcdf, SeedSequence, StreamingMoments};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Worker threads of a campaign: the host's 2 vCPUs.
pub const THREADS: usize = 2;
/// `validate_single`'s fixed shape: 8 replications of 50 000 warm-up
/// slots plus `GPS_MEASURE_SLOTS / 8` measured slots each.
const REPLICATIONS: u64 = 8;
const WARMUP: u64 = 50_000;
/// Set-ups per run at the least; `setup_s` is their median.
const SETUPS: usize = 9;
/// In-process replications of each kind in a traced run, alternating
/// plain runner and layer split so drift cancels from their ratio.
const TRACE_ROUNDS: usize = 3;

/// Measured slots of one campaign for a seed. `validate_single` fixes
/// its own RNG seed, so the benchmark seed moves only the measured
/// length, by less than 0.4 %.
pub fn measure_slots(seed: u64) -> u64 {
    2_000_000 + REPLICATIONS * (seed % 1000)
}

/// Slots one campaign simulates, warm-up included.
fn simulated_slots(measure: u64) -> u64 {
    REPLICATIONS * (WARMUP + (measure / REPLICATIONS).max(1))
}

/// What one `validate_single` run produced.
struct Job {
    wall: Duration,
    /// CPU seconds of the `validate_single` process.
    cpu: f64,
    peak_kb: u64,
    csv_digest: u64,
    checkpoint_kb: f64,
}

fn run_job(ctx: &Ctx, measure: u64, tally: &mut Tally) -> Result<Job, String> {
    let dir = ctx.fresh_dir("validate_single");
    let mut cmd = ctx.command("validate_single");
    cmd.arg("--quiet")
        .env("GPS_RESULTS_DIR", &dir)
        .env("GPS_MEASURE_SLOTS", measure.to_string())
        .env("GPS_PAR_THREADS", THREADS.to_string());
    let cpu0 = children_cpu();
    let start = Instant::now();
    let proc = Proc::spawn(cmd).map_err(|e| format!("start validate_single: {e}"))?;
    let sampler = HwmSampler::start(proc.pid());
    let (status, out) = proc.wait_output(Duration::from_secs(120))?;
    let wall = start.elapsed();
    let cpu = children_cpu() - cpu0;
    let peak_kb = sampler.finish();
    tally.attempted += 1;
    if !status.success() {
        tally.fail(1, format!("validate_single exited with {status}"));
    }
    // One line per session: "bound violations: backlog 0, delay 0 (expect 0, 0)".
    let verdicts: Vec<&str> = out
        .lines()
        .filter(|l| l.contains("bound violations:"))
        .collect();
    if verdicts.len() != 4 || verdicts.iter().any(|l| !l.contains("backlog 0, delay 0 (")) {
        tally.fail(1, format!("validate_single bound check: {verdicts:?}"));
    }
    let csv = std::fs::read(dir.join("validate_single.csv")).unwrap_or_default();
    if csv.is_empty() {
        tally.fail(1, "validate_single wrote no CSV".into());
    }
    let mut csv_digest = FNV_OFFSET;
    fnv1a(&mut csv_digest, &csv);
    let checkpoint_kb = std::fs::metadata(dir.join("validate_single_checkpoint.ndjson"))
        .map_or(0.0, |m| m.len() as f64 / 1024.0);
    Ok(Job {
        wall,
        cpu,
        peak_kb,
        csv_digest,
        checkpoint_kb,
    })
}

/// Runs campaigns back to back for at least `secs` (and at least two),
/// checking that every one reports zero violations and the same CSV,
/// each with the host's slowdown over it. With `setups`, takes a
/// calibrated set-up sample after each campaign, so the samples spread
/// over the run.
fn run_jobs(
    ctx: &Ctx,
    seed: u64,
    secs: f64,
    cal: &mut Calibrator,
    mut setups: Option<&mut Vec<f64>>,
    tally: &mut Tally,
) -> Result<Vec<(Job, f64)>, String> {
    let measure = measure_slots(seed);
    let start = Instant::now();
    let mut jobs: Vec<(Job, f64)> = Vec::new();
    while jobs.len() < 2 || start.elapsed().as_secs_f64() < secs {
        let (job, slow) = cal.around(|| run_job(ctx, measure, tally));
        let job = job?;
        if let Some((first, _)) = jobs.first() {
            if job.csv_digest != first.csv_digest {
                tally.fail(
                    1,
                    "validate_single output differs between runs of one seed".into(),
                );
            }
        }
        jobs.push((job, slow));
        if let Some(samples) = setups.as_deref_mut() {
            samples.push(set_up_once(ctx, cal, tally)?);
        }
    }
    println!(
        "  {} campaigns of {} slots, output digest {:016x}",
        jobs.len(),
        simulated_slots(measure),
        jobs[0].0.csv_digest
    );
    Ok(jobs)
}

/// Set-up cost in calibrated CPU seconds: campaigns whose measured
/// length is one slot per replication — process start, Set-1
/// characterization, Theorem-10 bounds, warm-up and output, everything
/// a campaign pays regardless of its length.
fn set_up_once(ctx: &Ctx, cal: &mut Calibrator, tally: &mut Tally) -> Result<f64, String> {
    let (job, slow) = cal.around(|| run_job(ctx, REPLICATIONS, tally));
    Ok(job?.cpu / slow)
}

/// Campaigns for `secs` with a set-up sample after each, then set-ups
/// until there are `SETUPS`. Each campaign and set-up is calibrated by
/// the bursts on either side of it.
pub fn run(ctx: &Ctx, seed: u64, secs: f64) -> Result<(EndToEnd, Tally), String> {
    let mut tally = Tally::default();
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::new();
    let jobs = run_jobs(ctx, seed, secs, &mut cal, Some(&mut setup_s), &mut tally)?;
    while setup_s.len() < SETUPS {
        setup_s.push(set_up_once(ctx, &mut cal, &mut tally)?);
    }
    let slots = simulated_slots(measure_slots(seed)) as f64;
    let (cpu, wall): (f64, f64) = jobs.iter().fold((0.0, 0.0), |(c, w), (j, _)| {
        (c + j.cpu, w + j.wall.as_secs_f64())
    });
    let done = slots * jobs.len() as f64;
    println!(
        "  {:.0} slots/s wall, {:.0} per CPU s, uncalibrated",
        done / wall,
        done / cpu
    );
    Ok((
        EndToEnd {
            setup_s,
            ops_per_cpu_s: jobs.iter().map(|(j, s)| slots / (j.cpu / s)).collect(),
            latency_us: jobs
                .iter()
                .map(|(j, s)| j.wall.as_secs_f64() * 1e6 / s)
                .collect(),
            // The median campaign's peak: now and then one campaign
            // peaks 1.6 MB above the rest, and the run's maximum would
            // carry that into a run's figure.
            peak_rss_kb: median(
                &jobs
                    .iter()
                    .map(|(j, _)| j.peak_kb as f64)
                    .collect::<Vec<_>>(),
            ) as u64,
            calibration: cal.readings,
        },
        tally,
    ))
}

/// The campaign configuration the in-process probes run: the V2
/// scenario's weights and grids.
fn probe_config(seed: u64, measure: u64) -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: ParamSet::Set1.rhos().to_vec(),
        capacity: 1.0,
        warmup: WARMUP / 10,
        measure,
        seed,
        backlog_grid: (0..60).map(|i| i as f64 * 0.25).collect(),
        delay_grid: (0..80).map(|i| i as f64).collect(),
    }
}

fn sources() -> Vec<Box<dyn SlotSource>> {
    table1_sources()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

/// Per-slot time of each layer, from one replication run phase by
/// phase: draws for a chunk of slots, then server steps, then the
/// statistics. The report must equal the runner's.
struct Split {
    draw: Duration,
    step: Duration,
    record: Duration,
    report: SingleNodeRunReport,
}

fn run_split(cfg: &SingleNodeRunConfig) -> Split {
    const CHUNK: usize = 4096;
    let n = cfg.phis.len();
    let mut srcs = sources();
    let seeds = SeedSequence::new(cfg.seed);
    let mut rngs: Vec<_> = (0..n).map(|i| seeds.rng("source", i as u64)).collect();
    for (s, rng) in srcs.iter_mut().zip(rngs.iter_mut()) {
        s.reset(rng);
    }
    let mut server = SlottedGps::new(cfg.phis.clone(), cfg.capacity);
    let mut out = SlotOutput::new();
    let mut sessions: Vec<(BinnedCcdf, BinnedCcdf, StreamingMoments, f64)> = (0..n)
        .map(|_| {
            (
                BinnedCcdf::new(cfg.backlog_grid.clone()),
                BinnedCcdf::new(cfg.delay_grid.clone()),
                StreamingMoments::new(),
                0.0,
            )
        })
        .collect();
    let mut arrivals = vec![0.0; CHUNK * n];
    let mut backlogs = vec![0.0; CHUNK * n];
    let mut services = vec![0.0; CHUNK * n];
    let mut cleared: Vec<(usize, u64, u64)> = Vec::new();
    let (mut draw, mut step, mut record) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let total = cfg.warmup + cfg.measure;
    let measure_start = cfg.warmup;
    let mut slot = 0u64;
    while slot < total {
        let len = CHUNK.min((total - slot) as usize);
        let t0 = thread_cpu();
        for c in 0..len {
            for i in 0..n {
                arrivals[c * n + i] = srcs[i].next_slot(&mut rngs[i]);
            }
        }
        let t1 = thread_cpu();
        cleared.clear();
        for c in 0..len {
            server.step_into(&arrivals[c * n..(c + 1) * n], &mut out);
            for i in 0..n {
                backlogs[c * n + i] = server.backlog(i);
                services[c * n + i] = out.services[i];
            }
            cleared.extend_from_slice(&out.cleared);
        }
        let t2 = thread_cpu();
        let first_measured = measure_start.saturating_sub(slot) as usize;
        for c in first_measured.min(len)..len {
            for (i, s) in sessions.iter_mut().enumerate() {
                let q = backlogs[c * n + i];
                s.0.push(q);
                s.2.push(q);
                s.3 += services[c * n + i];
            }
        }
        // The runner records a cleared watermark in the slot it clears,
        // so only watermarks cleared during measured slots count; their
        // order within the chunk is the runner's order.
        if slot + len as u64 > measure_start {
            for &(i, arrived, d) in &cleared {
                if arrived >= measure_start {
                    sessions[i].1.push(d as f64);
                }
            }
        }
        record += thread_cpu() - t2;
        draw += t1 - t0;
        step += t2 - t1;
        slot += len as u64;
    }
    let report = SingleNodeRunReport {
        sessions: sessions
            .into_iter()
            .map(
                |(backlog, delay, backlog_moments, served)| gps_sim::runner::SessionReport {
                    backlog,
                    delay,
                    backlog_moments,
                    throughput: served / cfg.measure as f64,
                },
            )
            .collect(),
        measured_slots: cfg.measure,
    };
    Split {
        draw,
        step,
        record,
        report,
    }
}

fn report_text(r: &SingleNodeRunReport) -> String {
    single_node_report_to_json(r).to_compact()
}

/// Layer metrics of the per-slot simulation, the replication fold and
/// the checkpoint codec, from in-process runs of `measure` slots per
/// replication. With `recon` (the workload's own probe), also
/// reconciles them against campaign CPU time, which costs
/// `validate_single` runs for `secs`, and sets `trace.overhead`: CPU per
/// slot of the layer-split replication against the plain runner's.
pub fn trace(
    ctx: &Ctx,
    seed: u64,
    measure: u64,
    secs: f64,
    recon: Option<&mut String>,
) -> Result<(Metrics, Tally), String> {
    let mut tally = Tally::default();
    let cfg = probe_config(seed, measure);
    let slots = (cfg.warmup + cfg.measure) as f64;

    // The runner alone, one thread, alternating with the same
    // replication split by layer; each split must report what the
    // runner does.
    let mut scratch = SingleNodeScratch::new();
    let mut plain = Vec::new();
    let (mut draw, mut step, mut record) = (Vec::new(), Vec::new(), Vec::new());
    // Draws and steps happen every slot, recording only in measured ones.
    let measured = cfg.measure as f64;
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    for _ in 0..TRACE_ROUNDS {
        let mut srcs = sources();
        let t0 = thread_cpu();
        let r = run_single_node_core_scratch(&mut scratch, &mut srcs, &cfg);
        plain.push((thread_cpu() - t0).as_secs_f64() * 1e9 / slots);
        let split = run_split(&cfg);
        tally.attempted += 1;
        if report_text(&split.report) != report_text(&r) {
            tally.fail(
                1,
                "layer-split replication differs from the runner's".into(),
            );
        }
        draw.push(ns(split.draw) / slots);
        step.push(ns(split.step) / slots);
        record.push(ns(split.record) / measured);
    }
    let ns_per_slot = median(&plain);
    let (draw, step, record) = (median(&draw), median(&step), median(&record));
    let split_total = draw + step + record * measured / slots;

    // Replications on the pool: busy share of the two workers.
    let reps: Vec<u64> = (0..2 * THREADS as u64).collect();
    let wall = Instant::now();
    let results: Vec<(SingleNodeRunReport, f64, f64)> =
        gps_par::par_map_threads(THREADS, &reps, |&r| {
            let mut c = cfg.clone();
            c.seed = cfg.seed.wrapping_add(r);
            let mut srcs = sources();
            let (t0, cpu0) = (Instant::now(), thread_cpu());
            let rep = gps_sim::runner::run_single_node_core(&mut srcs, &c);
            (
                rep,
                t0.elapsed().as_secs_f64(),
                (thread_cpu() - cpu0).as_secs_f64(),
            )
        });
    let wall = wall.elapsed().as_secs_f64();
    let busy: f64 = results.iter().map(|r| r.1).sum();
    let pooled_cpu: f64 = results.iter().map(|r| r.2).sum();
    let reports: Vec<SingleNodeRunReport> = results.into_iter().map(|r| r.0).collect();

    // The replication fold and the checkpoint codec.
    let mut merge_ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        std::hint::black_box(merge_single_node_reports(std::hint::black_box(&reports)));
        merge_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let fp = fingerprint_single_node(&cfg);
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    for (r, rep) in reports.iter().enumerate() {
        let t0 = Instant::now();
        let line = checkpoint_line(
            "single_node",
            fp,
            cfg.seed,
            r as u64,
            &single_node_report_to_json(rep),
        );
        let t1 = Instant::now();
        let back = decode_checkpoint_line(&line, "single_node", fp, cfg.seed)
            .and_then(|(_, j)| single_node_report_from_json(&cfg, &j));
        decode_us.push(t1.elapsed().as_secs_f64() * 1e6);
        encode_us.push((t1 - t0).as_secs_f64() * 1e6);
        tally.attempted += 1;
        if back.as_ref().map(report_text) != Some(report_text(rep)) {
            tally.fail(
                1,
                format!("checkpoint line {r} does not decode to its report"),
            );
        }
    }

    let mut m = Metrics::default();
    m.set("sources.draw_ns", draw, "ns");
    m.set("slotted.step_ns", step, "ns");
    m.set("stats.record_ns", record, "ns");
    m.set("runner.ns_per_slot_1t", ns_per_slot, "ns");
    m.set(
        "runner.residual_ns_per_slot",
        ns_per_slot - split_total,
        "ns",
    );
    m.set(
        "par.busy_share",
        ratio(busy, THREADS as f64 * wall),
        "ratio",
    );
    m.set("runner.merge_ms", median(&merge_ms), "ms");
    m.set("supervise.encode_us", median(&encode_us), "us");
    m.set("supervise.decode_us", median(&decode_us), "us");

    if let Some(recon) = recon {
        m.set(
            "trace.overhead",
            ratio(split_total, ns_per_slot) - 1.0,
            "ratio",
        );
        let mut job_tally = Tally::default();
        let mut cal = Calibrator::new();
        let jobs: Vec<Job> = run_jobs(ctx, seed, secs, &mut cal, None, &mut job_tally)?
            .into_iter()
            .map(|(j, _)| j)
            .collect();
        tally.absorb(job_tally);
        let job_slots = simulated_slots(measure_slots(seed)) as f64;
        let job_measured = job_slots - (REPLICATIONS * WARMUP) as f64;
        let residual = ns_per_slot - split_total;
        // Per-slot cost of a replication run beside another on the pool.
        let pooled = pooled_cpu * 1e9 / (reps.len() as f64 * slots);
        let job_cpu = median(&jobs.iter().map(|j| j.cpu).collect::<Vec<_>>());
        // CPU nanoseconds per simulated slot of a whole campaign.
        let e2e = job_cpu * 1e9 / job_slots;
        let setup_cpu = median(
            &(0..SETUPS)
                .map(|_| set_up_once(ctx, &mut cal, &mut tally))
                .collect::<Result<Vec<_>, _>>()?,
        );
        // The set-up campaign's slots are warm-up slots, priced per slot.
        let setup_slots = simulated_slots(REPLICATIONS) as f64;
        let fixed = (setup_cpu * 1e9 - setup_slots * (draw + step + residual)) / job_slots;
        m.set("supervise.journal_kb_at_seal", jobs[0].checkpoint_kb, "KB");
        reconcile(
            recon,
            &format!(
                "campaign layers, CPU ns per simulated slot ({THREADS} threads, median of {} campaigns of {job_slots} slots):",
                jobs.len()
            ),
            &[
                ("sources draw (gps_sources)", draw),
                ("slotted step (gps_sim::slotted)", step),
                ("stats record (gps_stats)", record * job_measured / job_slots),
                ("runner residual, 1 thread (gps_sim::runner)", residual),
                ("two threads vs one (gps_par pool)", pooled - ns_per_slot),
                ("fixed per-campaign cost", fixed),
            ],
            "end to end (campaign CPU / slots)",
            e2e,
        );
        let _ = writeln!(
            recon,
            "  ratios: record {record:.1} ns x {job_measured} measured / {job_slots} simulated slots; \
             pool busy {busy:.3} s / ({THREADS} threads x {wall:.3} s wall); fixed cost = (set-up campaign \
             CPU {setup_cpu:.3} s - {setup_slots} warm-up slots at draw+step+residual) / {job_slots} slots"
        );
        let _ = writeln!(
            recon,
            "  trace.overhead: {split_total:.1} ns split / {ns_per_slot:.1} ns runner CPU per slot \
             (median of {TRACE_ROUNDS} alternating replications each) - 1 = {:+.4}",
            m.get("trace.overhead")
        );
    }
    Ok((m, tally))
}
