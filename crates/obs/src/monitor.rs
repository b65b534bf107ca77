//! Online bound-violation monitoring: compare empirical tail frequencies
//! `P(Q_i > b)` / `P(D_i > d)` against analytic exponential tail bounds
//! while a campaign is still folding replications.
//!
//! The curves live here as plain `(prefactor, decay)` pairs rather than
//! as `gps_ebb`/`gps_analysis` types: `gps_obs` sits below those crates
//! in the dependency graph, and the bound the paper's theorems produce
//! is always of the form `min(1, Λ·e^{-θx})` — two floats carry it
//! losslessly. Experiment binaries construct [`BoundCurve`]s from
//! whatever theorem applies (Theorem 7/8, Lemma 5, Theorem 10, …) and
//! hand them to the campaign runner, which calls back per replication
//! fold.
//!
//! A *violation* is a grid point where the empirical frequency exceeds
//! the bound by more than finite-sample noise allows:
//!
//! ```text
//! p  >  tolerance · min(1, Λ·e^{-θ(x - shift)})  +  3 · sqrt(p(1-p)/n)
//! ```
//!
//! with `n` the series' own sample count and `tolerance` from
//! `GPS_OBS_VIOL_TOL` (default 1 — the theorems are strict dominance
//! claims; raise it to quiet short exploratory runs); points whose scaled
//! bound is ≥ 1 never count. [`verdict`] is that rule, for the monitor
//! and for every verdict a validation binary prints. Violations emit a
//! `warn` journal event on `obs.monitor` and bump `obs.bound_violations`
//! (plus a per-session/kind labeled counter), so a long campaign flags a
//! broken bound the moment it appears instead of after a CSV diff.

use crate::metrics::{labeled, Registry};

/// Standard errors of binomial noise allowed above the bound before a
/// grid point counts as a violation.
const SIGMAS: f64 = 3.0;

/// An exponential tail bound `x ↦ min(1, Λ·e^{-θx})`, the shape every
/// E.B.B.-style theorem in this workspace produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCurve {
    /// The prefactor Λ.
    pub prefactor: f64,
    /// The decay rate θ.
    pub decay: f64,
}

impl BoundCurve {
    /// A curve with prefactor `prefactor` and decay `decay`.
    pub fn new(prefactor: f64, decay: f64) -> BoundCurve {
        BoundCurve { prefactor, decay }
    }

    /// The bound at `x`, clamped to be a probability.
    pub fn tail(&self, x: f64) -> f64 {
        (self.prefactor * (-self.decay * x).exp()).min(1.0)
    }
}

/// How one empirical series fares against one bound curve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Verdict {
    /// Grid points where the empirical frequency exceeds the bound.
    pub violations: u64,
    /// The violating point with the largest excess, as
    /// `(x, empirical, scaled bound)`.
    pub worst: Option<(f64, f64, f64)>,
}

/// Judges an empirical CCDF series (grid point, frequency) against
/// `curve` evaluated at `x - shift` and scaled by `tolerance`, with
/// `samples` observations behind each frequency — the rule in the module
/// docs. An empty sample set passes.
pub fn verdict(
    curve: BoundCurve,
    series: &[(f64, f64)],
    samples: u64,
    shift: f64,
    tolerance: f64,
) -> Verdict {
    let mut out = Verdict::default();
    if samples == 0 {
        return out;
    }
    let mut worst_excess = f64::NEG_INFINITY;
    for &(x, p) in series {
        let bound = tolerance * curve.tail((x - shift).max(0.0));
        if bound >= 1.0 {
            continue;
        }
        let se = (p * (1.0 - p) / samples as f64).sqrt();
        let excess = p - (bound + SIGMAS * se);
        if excess > 0.0 {
            out.violations += 1;
            if excess > worst_excess {
                worst_excess = excess;
                out.worst = Some((x, p, bound));
            }
        }
    }
    out
}

/// The multiplicative tolerance from `GPS_OBS_VIOL_TOL` (default 1.0;
/// non-finite or non-positive values fall back to the default).
pub fn env_tolerance() -> f64 {
    std::env::var("GPS_OBS_VIOL_TOL")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t > 0.0)
        .unwrap_or(1.0)
}

/// The analytic curves for one session: backlog and/or delay, plus an
/// optional left shift applied to delay thresholds before evaluating the
/// bound (the network validation compares at `d-1` because the slotted
/// simulator timestamps departures at slot *ends*).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionCurves {
    /// Backlog tail bound, if monitored.
    pub backlog: Option<BoundCurve>,
    /// Delay tail bound, if monitored.
    pub delay: Option<BoundCurve>,
    /// Slots subtracted from a delay threshold before evaluating the
    /// delay bound.
    pub delay_shift: f64,
}

/// Which empirical series a check is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Backlog CCDF `P(Q > b)`.
    Backlog,
    /// Delay CCDF `P(D > d)`.
    Delay,
}

impl SeriesKind {
    /// The wire/label name.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Backlog => "backlog",
            SeriesKind::Delay => "delay",
        }
    }
}

/// The online monitor: per-session curves plus the noise allowance.
#[derive(Debug, Clone)]
pub struct BoundMonitor {
    curves: Vec<SessionCurves>,
    tolerance: f64,
}

impl BoundMonitor {
    /// A monitor over `curves` (indexed by session), with the tolerance
    /// taken from `GPS_OBS_VIOL_TOL` ([`env_tolerance`]).
    pub fn new(curves: Vec<SessionCurves>) -> BoundMonitor {
        BoundMonitor {
            curves,
            tolerance: env_tolerance(),
        }
    }

    /// [`verdict`] for session `session`'s `kind` curve, with that
    /// curve's shift and this monitor's tolerance. Sessions without a
    /// curve for `kind` pass.
    pub fn judge(
        &self,
        session: usize,
        kind: SeriesKind,
        series: &[(f64, f64)],
        samples: u64,
    ) -> Verdict {
        let Some(sc) = self.curves.get(session) else {
            return Verdict::default();
        };
        let (curve, shift) = match kind {
            SeriesKind::Backlog => (sc.backlog, 0.0),
            SeriesKind::Delay => (sc.delay, sc.delay_shift),
        };
        curve.map_or_else(Verdict::default, |c| {
            verdict(c, series, samples, shift, self.tolerance)
        })
    }

    /// [`judge`](Self::judge) plus reporting: on any violation of fold
    /// `fold`, emits one `warn` journal event and bumps the
    /// `obs.bound_violations` counters on `registry`. Returns the number
    /// of violating grid points.
    pub fn check_series(
        &self,
        registry: &Registry,
        session: usize,
        kind: SeriesKind,
        series: &[(f64, f64)],
        samples: u64,
        fold: u64,
    ) -> u64 {
        let v = self.judge(session, kind, series, samples);
        if let Some((x, p, bound)) = v.worst {
            crate::warn(
                "obs.monitor",
                "bound_violation",
                &[
                    ("session", session.into()),
                    ("kind", kind.as_str().into()),
                    ("fold", fold.into()),
                    ("points", v.violations.into()),
                    ("x", x.into()),
                    ("empirical", p.into()),
                    ("bound", bound.into()),
                    ("samples", samples.into()),
                    ("tolerance", self.tolerance.into()),
                ],
            );
            registry.counter("obs.bound_violations").add(v.violations);
            let session_label = session.to_string();
            registry
                .counter(&labeled(
                    "obs.bound_violations.by_series",
                    &[("session", &session_label), ("kind", kind.as_str())],
                ))
                .add(v.violations);
        }
        v.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A monitor at a fixed tolerance, independent of `GPS_OBS_VIOL_TOL`.
    fn at_tolerance(curves: Vec<SessionCurves>, tolerance: f64) -> BoundMonitor {
        BoundMonitor { curves, tolerance }
    }

    fn series_from(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
        points.to_vec()
    }

    #[test]
    fn curve_tail_is_clamped() {
        let c = BoundCurve::new(50.0, 1.0);
        assert_eq!(c.tail(0.0), 1.0);
        assert!((c.tail(10.0) - 50.0 * (-10.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn dominated_series_is_silent() {
        let r = Registry::new();
        let m = at_tolerance(
            vec![SessionCurves {
                backlog: Some(BoundCurve::new(1.0, 0.5)),
                ..Default::default()
            }],
            1.0,
        );
        // Empirical tail well under e^{-x/2}.
        let s = series_from(&[(0.0, 1.0), (2.0, 0.1), (4.0, 0.01), (8.0, 0.0)]);
        assert_eq!(
            m.check_series(&r, 0, SeriesKind::Backlog, &s, 100_000, 0),
            0
        );
        assert_eq!(r.counter("obs.bound_violations").get(), 0);
    }

    #[test]
    fn exceedance_fires_counter() {
        let r = Registry::new();
        // Absurdly tight bound: everything nonzero beyond x=0 violates.
        let m = at_tolerance(
            vec![SessionCurves {
                backlog: Some(BoundCurve::new(1e-9, 5.0)),
                ..Default::default()
            }],
            1.0,
        );
        let s = series_from(&[(1.0, 0.5), (2.0, 0.25), (3.0, 0.0)]);
        let v = m.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 3);
        assert_eq!(v, 2); // the zero-frequency point cannot violate
        assert_eq!(r.counter("obs.bound_violations").get(), 2);
        assert_eq!(
            r.counter("obs.bound_violations.by_series{session=0,kind=backlog}")
                .get(),
            2
        );
    }

    #[test]
    fn small_samples_are_forgiven_by_standard_error() {
        let r = Registry::new();
        let m = at_tolerance(
            vec![SessionCurves {
                backlog: Some(BoundCurve::new(1.0, 1.0)),
                ..Default::default()
            }],
            1.0,
        );
        // p = 0.5 at x = 1 exceeds e^{-1} ≈ 0.368, but with only 10
        // samples the 3σ allowance (≈ 0.47) absorbs it…
        let s = series_from(&[(1.0, 0.5)]);
        assert_eq!(m.check_series(&r, 0, SeriesKind::Backlog, &s, 10, 0), 0);
        // …and with 10⁶ samples it does not.
        assert_eq!(
            m.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 0),
            1
        );
    }

    #[test]
    fn tolerance_scales_the_bound() {
        let r = Registry::new();
        let curves = vec![SessionCurves {
            backlog: Some(BoundCurve::new(1.0, 1.0)),
            ..Default::default()
        }];
        let s = series_from(&[(1.0, 0.5)]);
        let strict = at_tolerance(curves.clone(), 1.0);
        assert_eq!(
            strict.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 0),
            1
        );
        let slack = at_tolerance(curves, 2.0);
        assert_eq!(
            slack.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 0),
            0
        );
    }

    #[test]
    fn delay_shift_moves_the_threshold() {
        let r = Registry::new();
        let m = at_tolerance(
            vec![SessionCurves {
                backlog: None,
                delay: Some(BoundCurve::new(0.9, 2.0)),
                delay_shift: 1.0,
            }],
            1.0,
        );
        // At d = 1 the shifted bound is evaluated at 0 → 0.9; p = 0.5
        // does not violate. Without the shift it would (bound ≈ 0.12).
        let s = series_from(&[(1.0, 0.5)]);
        assert_eq!(
            m.check_series(&r, 0, SeriesKind::Delay, &s, 1_000_000, 0),
            0
        );
        let unshifted = at_tolerance(
            vec![SessionCurves {
                backlog: None,
                delay: Some(BoundCurve::new(0.9, 2.0)),
                delay_shift: 0.0,
            }],
            1.0,
        );
        assert_eq!(
            unshifted.check_series(&r, 0, SeriesKind::Delay, &s, 1_000_000, 0),
            1
        );
    }

    #[test]
    fn vacuous_bound_never_counts() {
        // Λ = 50 clamps the curve to 1 up to x = ln 50 ≈ 3.9: even a
        // certain event with no noise allowance is no violation there…
        let c = BoundCurve::new(50.0, 1.0);
        let s = series_from(&[(0.0, 1.0), (3.0, 1.0)]);
        assert_eq!(verdict(c, &s, u64::MAX, 0.0, 1.0), Verdict::default());
        // …nor where only the tolerance lifts the bound to 1 or above.
        let s = series_from(&[(4.0, 1.0)]);
        assert_eq!(verdict(c, &s, u64::MAX, 0.0, 1.0).violations, 1);
        assert_eq!(verdict(c, &s, u64::MAX, 0.0, 2.0).violations, 0);
    }

    #[test]
    fn verdict_applies_shift_and_tolerance() {
        let c = BoundCurve::new(0.9, 2.0);
        let s = series_from(&[(1.0, 0.5)]);
        let v = verdict(c, &s, 1_000_000, 0.0, 1.0);
        assert_eq!(v.violations, 1);
        let (x, p, bound) = v.worst.expect("worst point");
        assert_eq!((x, p), (1.0, 0.5));
        assert!((bound - 0.9 * (-2.0f64).exp()).abs() < 1e-15);
        // Evaluated at d - 1 = 0 the bound is 0.9 ≥ p.
        assert_eq!(verdict(c, &s, 1_000_000, 1.0, 1.0).violations, 0);
        // Scaling by 5 lifts the bound to ≈ 0.61 ≥ p.
        assert_eq!(verdict(c, &s, 1_000_000, 0.0, 5.0).violations, 0);
        // The worst point is the one with the largest excess.
        let s = series_from(&[(1.0, 0.2), (2.0, 0.3), (3.0, 0.1)]);
        let v = verdict(c, &s, 1_000_000, 0.0, 1.0);
        assert_eq!(v.violations, 3);
        assert_eq!(v.worst.map(|w| w.0), Some(2.0));
    }

    #[test]
    fn delay_verdict_is_weighted_by_its_own_samples() {
        // 1,000 clearing samples over 10⁶ slots: p = 0.15 against a
        // bound of e^{-2} ≈ 0.135 is within 3σ of the delay samples
        // (σ ≈ 0.011) but not of the slot count.
        let c = BoundCurve::new(1.0, 1.0);
        let s = series_from(&[(2.0, 0.15)]);
        let (delay_samples, slots) = (1_000, 1_000_000);
        assert_eq!(verdict(c, &s, delay_samples, 0.0, 1.0).violations, 0);
        assert_eq!(verdict(c, &s, slots, 0.0, 1.0).violations, 1);
    }

    #[test]
    fn check_series_reports_the_verdict_count() {
        let c = BoundCurve::new(0.5, 0.5);
        let m = at_tolerance(
            vec![SessionCurves {
                backlog: Some(c),
                delay: Some(c),
                delay_shift: 1.0,
            }],
            1.5,
        );
        let s = series_from(&[(0.0, 0.9), (1.0, 0.7), (2.0, 0.4), (4.0, 0.3)]);
        for samples in [10, 1_000, 1_000_000] {
            for (kind, shift) in [(SeriesKind::Backlog, 0.0), (SeriesKind::Delay, 1.0)] {
                let r = Registry::new();
                let expected = verdict(c, &s, samples, shift, 1.5).violations;
                assert_eq!(m.judge(0, kind, &s, samples).violations, expected);
                assert_eq!(m.check_series(&r, 0, kind, &s, samples, 0), expected);
                assert_eq!(r.counter("obs.bound_violations").get(), expected);
            }
        }
    }

    #[test]
    fn missing_session_or_curve_is_silent() {
        let r = Registry::new();
        let m = BoundMonitor::new(vec![SessionCurves::default()]);
        let s = series_from(&[(1.0, 1.0)]);
        assert_eq!(m.check_series(&r, 0, SeriesKind::Backlog, &s, 1000, 0), 0);
        assert_eq!(m.check_series(&r, 5, SeriesKind::Backlog, &s, 1000, 0), 0);
        assert_eq!(m.check_series(&r, 0, SeriesKind::Backlog, &s, 0, 0), 0);
    }
}
