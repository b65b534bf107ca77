//! Measurement runner for the continuous-time fluid GPS server driven by
//! CTMC fluid sources — the continuous twin of [`crate::runner`].
//!
//! Rate-change events from all sources and periodic backlog-sampling
//! instants are merged chronologically and applied to an exact
//! [`RateFluidGps`]; per-session backlog CCDFs come back ready to compare
//! against the continuous-time Lemma-5 bounds.

use crate::fluid_rates::RateFluidGps;
use gps_sources::CtmcFluidSource;
use gps_stats::rng::SeedSequence;
use gps_stats::BinnedCcdf;

/// Configuration of a continuous-time run.
#[derive(Debug, Clone)]
pub struct CtRunConfig {
    /// GPS weights (also used as the server's session shares).
    pub phis: Vec<f64>,
    /// Server rate.
    pub capacity: f64,
    /// Time horizon to simulate.
    pub horizon: f64,
    /// Warmup time (no samples collected before this).
    pub warmup: f64,
    /// Interval between backlog samples.
    pub sample_dt: f64,
    /// Master seed.
    pub seed: u64,
    /// Backlog CCDF grid.
    pub backlog_grid: Vec<f64>,
}

/// Output of a continuous-time run.
#[derive(Debug, Clone)]
pub struct CtRunReport {
    /// Per-session backlog CCDF.
    pub backlog: Vec<BinnedCcdf>,
    /// Number of samples per session.
    pub samples: u64,
}

/// Runs CTMC fluid sources through a continuous fluid GPS server.
///
/// # Panics
///
/// Panics on length mismatch or nonsensical configuration.
pub fn run_ct_fluid(sources: &[CtmcFluidSource], config: &CtRunConfig) -> CtRunReport {
    let n = config.phis.len();
    assert_eq!(sources.len(), n, "one source per session");
    assert!(config.horizon > config.warmup && config.warmup >= 0.0);
    assert!(config.sample_dt > 0.0);
    gps_obs::info(
        "sim.ct_runner",
        "ct_fluid_start",
        &[
            ("sessions", n.into()),
            ("seed", config.seed.into()),
            ("horizon", config.horizon.into()),
            ("warmup", config.warmup.into()),
            ("sample_dt", config.sample_dt.into()),
        ],
    );
    let _run_span = gps_obs::span("sim/run_ct_fluid");

    let seeds = SeedSequence::new(config.seed);
    let mut rngs: Vec<_> = (0..n).map(|i| seeds.rng("ct", i as u64)).collect();
    let mut srcs: Vec<CtmcFluidSource> = sources.to_vec();
    let mut sim = RateFluidGps::new(config.phis.clone(), config.capacity);
    let mut next_change = vec![0.0_f64; n];
    for i in 0..n {
        srcs[i].reset_stationary(&mut rngs[i]);
        let (dur, rate) = srcs[i].next_segment(&mut rngs[i]);
        sim.set_input_rate(0.0, i, rate);
        next_change[i] = dur;
    }

    let mut backlog: Vec<BinnedCcdf> = (0..n)
        .map(|_| BinnedCcdf::new(config.backlog_grid.clone()))
        .collect();
    let mut t_sample = config.warmup.max(config.sample_dt);
    let mut samples = 0u64;

    loop {
        let (i_min, &t_event) = next_change
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("nonempty");
        while t_sample <= t_event.min(config.horizon) {
            sim.advance_to(t_sample);
            for (i, b) in backlog.iter_mut().enumerate() {
                b.push(sim.backlog(i));
            }
            samples += 1;
            t_sample += config.sample_dt;
        }
        if t_event >= config.horizon || t_sample >= config.horizon {
            break;
        }
        let (dur, rate) = srcs[i_min].next_segment(&mut rngs[i_min]);
        sim.set_input_rate(t_event, i_min, rate);
        next_change[i_min] = t_event + dur;
    }

    gps_obs::metrics().counter("sim.ct_samples").add(samples);
    gps_obs::info(
        "sim.ct_runner",
        "ct_fluid_end",
        &[("samples", samples.into())],
    );
    CtRunReport { backlog, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_ebb::DeltaTailBound;

    fn grid() -> Vec<f64> {
        (0..40).map(|k| k as f64 * 0.25).collect()
    }

    #[test]
    fn light_load_rarely_queues() {
        let sources = vec![
            CtmcFluidSource::on_off(1.0, 4.0, 0.5), // mean 0.1
            CtmcFluidSource::on_off(1.0, 4.0, 0.5),
        ];
        let cfg = CtRunConfig {
            phis: vec![1.0, 1.0],
            capacity: 1.0,
            horizon: 20_000.0,
            warmup: 500.0,
            sample_dt: 1.0,
            seed: 3,
            backlog_grid: grid(),
        };
        let rep = run_ct_fluid(&sources, &cfg);
        assert!(rep.samples > 10_000);
        for b in &rep.backlog {
            // Peak input 0.5 = fair share: queues only transiently when
            // both are on; mass beyond 2.0 should be tiny.
            assert!(b.tail_at(8) < 0.05, "tail at 2.0: {}", b.tail_at(8));
        }
    }

    #[test]
    fn continuous_lemma5_bound_respected() {
        let source = CtmcFluidSource::on_off(0.8, 1.6, 0.9); // mean 0.3
        let rho = 0.42;
        let ebb = source.ebb_for_rate(rho).unwrap();
        let g = 0.5;
        let bound = DeltaTailBound::new(ebb, g).continuous_optimal();
        let sources = vec![source, CtmcFluidSource::on_off(0.8, 1.6, 0.9)];
        let cfg = CtRunConfig {
            phis: vec![0.5, 0.5],
            capacity: 1.0,
            horizon: 100_000.0,
            warmup: 1_000.0,
            sample_dt: 0.7,
            seed: 11,
            backlog_grid: grid(),
        };
        let rep = run_ct_fluid(&sources, &cfg);
        for (x, p) in rep.backlog[0].series() {
            let se = (p * (1.0 - p) / rep.samples as f64).sqrt();
            assert!(
                p <= bound.tail(x) + 3.0 * se + 1e-9,
                "bound violated at {x}: {p} > {}",
                bound.tail(x)
            );
        }
    }

    #[test]
    fn reproducible() {
        let sources = vec![CtmcFluidSource::on_off(1.0, 2.0, 1.5)]; // peak > capacity: queues form
        let cfg = CtRunConfig {
            phis: vec![1.0],
            capacity: 1.0,
            horizon: 5_000.0,
            warmup: 100.0,
            sample_dt: 1.0,
            seed: 77,
            backlog_grid: grid(),
        };
        let a = run_ct_fluid(&sources, &cfg);
        let b = run_ct_fluid(&sources, &cfg);
        assert_eq!(a.backlog[0].series(), b.backlog[0].series());
        let mut cfg2 = cfg.clone();
        cfg2.seed = 78;
        let c = run_ct_fluid(&sources, &cfg2);
        assert_ne!(a.backlog[0].series(), c.backlog[0].series());
    }
}
