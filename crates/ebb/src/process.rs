//! The E.B.B. / E.B. process types.

use std::fmt;

/// An exponential tail bound `Pr{X >= x} <= min(1, Λ e^{-θ x})`.
///
/// This is the universal currency of the workspace: every theorem produces
/// one (for backlog, delay, or envelope excess), every experiment evaluates
/// or compares them. An **(Λ, θ)-E.B. process** in the paper's terminology
/// is a process all of whose marginals satisfy one fixed `TailBound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailBound {
    /// Prefactor `Λ` (must be positive; may exceed 1 — the bound is then
    /// vacuous for small `x` but still informative in the tail).
    pub prefactor: f64,
    /// Decay rate `θ` (must be positive for a meaningful bound).
    pub decay: f64,
}

/// Alias emphasising the paper's E.B.-process reading of a [`TailBound`].
pub type EbProcess = TailBound;

impl TailBound {
    /// Creates a bound, validating parameters.
    ///
    /// # Panics
    ///
    /// Panics if `prefactor` or `decay` is not finite and positive.
    pub fn new(prefactor: f64, decay: f64) -> Self {
        assert!(
            prefactor.is_finite() && prefactor > 0.0,
            "prefactor must be finite and positive, got {prefactor}"
        );
        assert!(
            decay.is_finite() && decay > 0.0,
            "decay must be finite and positive, got {decay}"
        );
        Self { prefactor, decay }
    }

    /// Evaluates the bound: `min(1, Λ e^{-θ x})`. For `x < 0` the trivial
    /// bound 1 is returned (tail probabilities never exceed one).
    pub fn tail(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 1.0;
        }
        (self.prefactor * (-self.decay * x).exp()).min(1.0)
    }

    /// `ln` of the unclamped bound, useful for log-scale plots where the
    /// clamped form would plateau at 0.
    pub fn log_tail(&self, x: f64) -> f64 {
        self.prefactor.ln() - self.decay * x
    }

    /// The threshold `x` at which the bound equals `p` (0 < p), i.e. the
    /// bound-implied quantile: `x = ln(Λ/p)/θ`, clamped to be nonnegative.
    ///
    /// Used for admission control: "the delay exceeds `x` with probability
    /// at most `p`".
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0, "probability must be positive");
        ((self.prefactor / p).ln() / self.decay).max(0.0)
    }

    /// Transforms a *backlog* bound into a *delay* bound given a guaranteed
    /// service rate `g > 0`: if `Pr{Q >= q} <= Λe^{-θq}` and the session is
    /// served at rate at least `g` whenever backlogged, then
    /// `Pr{D >= d} <= Λ e^{-θ g d}` (the step from Eq. 23 to Eq. 24).
    pub fn delay_from_backlog(&self, g: f64) -> TailBound {
        assert!(g > 0.0, "guaranteed rate must be positive, got {g}");
        TailBound::new(self.prefactor, self.decay * g)
    }

    /// Pointwise-tighter of two bounds at threshold `x`.
    pub fn tighter_at(&self, other: &TailBound, x: f64) -> TailBound {
        if self.tail(x) <= other.tail(x) {
            *self
        } else {
            *other
        }
    }
}

impl fmt::Display for TailBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6e}·exp(-{:.6}·x)", self.prefactor, self.decay)
    }
}

/// The same curve in the bound monitor's two-float form.
impl From<TailBound> for gps_obs::BoundCurve {
    fn from(b: TailBound) -> Self {
        gps_obs::BoundCurve::new(b.prefactor, b.decay)
    }
}

/// A (ρ, Λ, α)-E.B.B. arrival process (paper Eq. 2):
/// `Pr{A(τ,t) >= ρ(t-τ) + x} <= Λ e^{-α x}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbbProcess {
    /// Long-term upper rate `ρ`.
    pub rho: f64,
    /// Prefactor `Λ`.
    pub lambda: f64,
    /// Decay rate `α` of the burstiness tail.
    pub alpha: f64,
}

impl EbbProcess {
    /// Creates an E.B.B. characterization, validating parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `rho >= 0`, `lambda > 0`, `alpha > 0`, all finite.
    pub fn new(rho: f64, lambda: f64, alpha: f64) -> Self {
        assert!(rho.is_finite() && rho >= 0.0, "rho must be >= 0, got {rho}");
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive, got {lambda}"
        );
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be positive, got {alpha}"
        );
        Self { rho, lambda, alpha }
    }

    /// The burstiness tail bound for one interval:
    /// `Pr{A(τ,t) - ρ(t-τ) >= x} <= min(1, Λe^{-αx})`.
    pub fn excess_tail(&self, x: f64) -> f64 {
        TailBound::new(self.lambda, self.alpha).tail(x)
    }

    /// The bound as a [`TailBound`] over the envelope excess.
    pub fn excess_bound(&self) -> TailBound {
        TailBound::new(self.lambda, self.alpha)
    }

    /// A deterministic (σ,ρ) linear-bounded-arrival process `A(τ,t) <=
    /// σ + ρ(t-τ)` is E.B.B. with any decay: this helper embeds it with the
    /// given `alpha` and the tight prefactor `Λ = e^{ασ}` (so that
    /// `Λe^{-αx} >= 1` exactly up to `x = σ` and the bound is vacuous only
    /// where the deterministic envelope permits excess).
    pub fn from_lbap(sigma: f64, rho: f64, alpha: f64) -> Self {
        assert!(sigma >= 0.0 && alpha > 0.0);
        Self::new(rho, (alpha * sigma).exp(), alpha)
    }

    /// Checks the stability requirement of a set of sessions against a
    /// server of rate `r` (paper: `Σ ρ_i < r`).
    pub fn stable(sessions: &[EbbProcess], r: f64) -> bool {
        sessions.iter().map(|s| s.rho).sum::<f64>() < r
    }

    /// Rescales time units by factor `c > 0` (new unit = `c` old units):
    /// rates scale by `c`, the dimensionless tail parameters are unchanged
    /// per *data* amount, i.e. `ρ' = ρ·c`, `Λ' = Λ`, `α' = α` (α is per unit
    /// data, not per unit time).
    pub fn scale_time(&self, c: f64) -> Self {
        assert!(c > 0.0);
        Self::new(self.rho * c, self.lambda, self.alpha)
    }

    /// Rescales data units by factor `c > 0` (new unit = `c` old units):
    /// `ρ' = ρ/c`, `α' = α·c`, `Λ' = Λ`.
    pub fn scale_data(&self, c: f64) -> Self {
        assert!(c > 0.0);
        Self::new(self.rho / c, self.lambda, self.alpha * c)
    }
}

impl fmt::Display for EbbProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EBB(ρ={:.4}, Λ={:.4}, α={:.4})",
            self.rho, self.lambda, self.alpha
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_clamps_and_decays() {
        let b = TailBound::new(2.0, 1.0);
        assert_eq!(b.tail(-1.0), 1.0);
        assert_eq!(b.tail(0.0), 1.0); // 2.0 clamped to 1
        assert!((b.tail(1.0) - 2.0 * (-1.0f64).exp()).abs() < 1e-15);
        assert!(b.tail(100.0) < 1e-40);
    }

    #[test]
    fn quantile_inverts_tail() {
        let b = TailBound::new(0.5, 2.0);
        let p = 1e-6;
        let x = b.quantile(p);
        assert!((b.prefactor * (-b.decay * x).exp() - p).abs() < 1e-18);
        // Already below target at x=0 -> clamp to 0.
        assert_eq!(b.quantile(0.9), 0.0);
    }

    #[test]
    fn delay_from_backlog_scales_decay() {
        let q = TailBound::new(1.5, 3.0);
        let d = q.delay_from_backlog(0.25);
        assert_eq!(d.prefactor, 1.5);
        assert!((d.decay - 0.75).abs() < 1e-15);
    }

    #[test]
    fn tighter_at_picks_smaller() {
        let a = TailBound::new(1.0, 2.0); // tighter far out
        let b = TailBound::new(0.1, 0.5); // tighter near 0
        assert_eq!(a.tighter_at(&b, 0.1), b);
        assert_eq!(a.tighter_at(&b, 10.0), a);
    }

    #[test]
    fn ebb_basics() {
        let e = EbbProcess::new(0.2, 1.0, 1.74);
        assert_eq!(e.excess_tail(0.0), 1.0);
        assert!(e.excess_tail(1.0) < 0.2);
        assert!(EbbProcess::stable(&[e, e], 0.5));
        assert!(!EbbProcess::stable(&[e, e, e], 0.6));
    }

    #[test]
    fn lbap_embedding_vacuous_until_sigma() {
        let e = EbbProcess::from_lbap(2.0, 0.3, 1.0);
        // Λe^{-αx} = e^{α(σ-x)} >= 1 iff x <= σ.
        assert_eq!(e.excess_tail(1.9), 1.0);
        assert!(e.excess_tail(2.1) < 1.0);
    }

    #[test]
    fn unit_scaling_roundtrips() {
        let e = EbbProcess::new(0.25, 0.92, 1.76);
        let t = e.scale_time(2.0).scale_time(0.5);
        assert!((t.rho - e.rho).abs() < 1e-15);
        let d = e.scale_data(8.0).scale_data(0.125);
        assert!((d.rho - e.rho).abs() < 1e-12);
        assert!((d.alpha - e.alpha).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "decay must be finite and positive")]
    fn rejects_zero_decay() {
        let _ = TailBound::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_zero_lambda() {
        let _ = EbbProcess::new(0.1, 0.0, 1.0);
    }

    #[test]
    fn display_formats() {
        let e = EbbProcess::new(0.2, 1.0, 1.74);
        assert_eq!(format!("{e}"), "EBB(ρ=0.2000, Λ=1.0000, α=1.7400)");
        assert!(format!("{}", TailBound::new(1.0, 2.0)).contains("exp(-2"));
    }
}
