//! `perfbench`: the repository's benchmark. Drives the real `admitd`,
//! `validate_single` and `campaignd` binaries, checks their outputs on
//! every run, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload admit-warm|admit-churn|campaign
//!           --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//!           --admit-warm-rate R --admit-churn-rate R
//! ```
//!
//! The two rates are the admit workloads' open-loop offered rates, in
//! requests per second, as `BENCHMARK.json` declares them; only traced
//! runs have an open loop.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics, timed around calls into each module's public
//! functions from this package, and prints a reconciliation of the
//! workload's layers against its end-to-end figure. `perfbench/run.py`
//! builds everything and is the entry point.

mod admit;
mod calib;
mod dist;
mod loadgen;
mod sim;
mod util;

use util::{Ctx, Metrics, Tally};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    AdmitWarm,
    AdmitChurn,
    Campaign,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Open-loop offered rates of admit-warm and admit-churn, req/s.
    warm_rate: f64,
    churn_rate: f64,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = match value("--workload")? {
        "admit-warm" => Workload::AdmitWarm,
        "admit-churn" => Workload::AdmitChurn,
        "campaign" => Workload::Campaign,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let rate = |flag: &str| -> Result<f64, String> {
        match value(flag)?.parse::<f64>() {
            Ok(r) if r > 0.0 && r.is_finite() => Ok(r),
            _ => Err(format!("bad {flag}")),
        }
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
        warm_rate: rate("--admit-warm-rate")?,
        churn_rate: rate("--admit-churn-rate")?,
        ctx: Ctx {
            bin_dir: value("--bin-dir")?.into(),
            work_dir: value("--work-dir")?.into(),
        },
    })
}

fn end_to_end(a: &Args) -> Result<(Metrics, Tally), String> {
    let (e2e, tally) = match a.workload {
        Workload::AdmitWarm => admit::run(&a.ctx, &admit::WARM, a.seed, a.seconds)?,
        Workload::AdmitChurn => admit::run(&a.ctx, &admit::CHURN, a.seed, a.seconds)?,
        Workload::Campaign => sim::run(&a.ctx, a.seed, a.seconds)?,
    };
    let q = |p| util::quantile(&e2e.setup_s, p) * 1e3;
    println!(
        "  set-up: {} samples, calibrated CPU ms min {:.3}, quartiles {:.3} / {:.3} / {:.3}, max {:.3}",
        e2e.setup_s.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    );
    let c = &e2e.calibration;
    println!(
        "  host slowdown over {} calibration bursts: min {:.3}, quartiles {:.3} / {:.3} / {:.3}, max {:.3}",
        c.len(),
        util::quantile(c, 0.0),
        util::quantile(c, 0.25),
        util::quantile(c, 0.5),
        util::quantile(c, 0.75),
        util::quantile(c, 1.0)
    );
    Ok((e2e.metrics(), tally))
}

/// Measured slots per replication of the short simulation probe that
/// runs when the workload's own layers are elsewhere.
const SHORT_SIM_SLOTS: u64 = 50_000;
/// Replications of the short orchestration probe.
const SHORT_DIST_REPLICATIONS: u64 = 64;
/// Seconds of the short admission probe.
const SHORT_ADMIT_SECS: f64 = 2.0;

/// The traced run: the workload's own layers for `--seconds`, with the
/// reconciliation and `trace.overhead`, and a short probe of every
/// other layer so each per-layer metric is measured on every workload.
/// Orchestration (`gps_sim::orchestrate`, `gps_sim::supervise`) has no
/// workload of its own: a distributed campaign's wall time is set by the
/// host disk's fsync latency, which moved by more than any bound between
/// runs; it is probed on every workload, at full size on `campaign`.
fn traced(a: &Args, recon: &mut String) -> Result<(Metrics, Tally), String> {
    let (ctx, seed, secs) = (&a.ctx, a.seed, a.seconds);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut add = |(metrics, t): (Metrics, Tally)| {
        m.extend(metrics);
        tally.absorb(t);
    };
    match a.workload {
        Workload::AdmitWarm | Workload::AdmitChurn => {
            add(sim::trace(ctx, seed, SHORT_SIM_SLOTS, 0.0, None)?);
            add(dist::trace(ctx, seed, SHORT_DIST_REPLICATIONS, 1.0)?);
            let (cfg, rate) = if a.workload == Workload::AdmitWarm {
                (&admit::WARM, a.warm_rate)
            } else {
                (&admit::CHURN, a.churn_rate)
            };
            add(admit::trace(ctx, cfg, rate, seed, secs, Some(recon))?);
        }
        Workload::Campaign => {
            add(admit::trace(
                ctx,
                &admit::WARM,
                a.warm_rate,
                seed,
                SHORT_ADMIT_SECS,
                None,
            )?);
            // The campaign's nearest relation: the same scenario
            // sharded over HTTP, at full size.
            add(dist::trace(ctx, seed, dist::REPLICATIONS, secs / 4.0)?);
            add(sim::trace(ctx, seed, 400_000, secs / 2.0, Some(recon))?);
        }
    }
    let error_rate = util::ratio(tally.failed as f64, tally.attempted as f64);
    m.set("error_rate", error_rate, "ratio");
    Ok((m, tally))
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    dist::configure(a.seed);
    if let Err(e) = std::fs::create_dir_all(&a.ctx.work_dir) {
        eprintln!("perfbench: create {}: {e}", a.ctx.work_dir.display());
        std::process::exit(2);
    }
    let mut recon = String::new();
    let result = if a.trace {
        traced(&a, &mut recon)
    } else {
        end_to_end(&a)
    };
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    print!("{recon}");
    for p in &tally.problems {
        println!("  CHECK FAILED: {p}");
    }
    for (name, (value, unit)) in &metrics.0 {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    let json = match metrics.to_json() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
}
