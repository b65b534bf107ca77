//! Declarative service-level objectives with multi-window burn-rate
//! evaluation.
//!
//! An [`SloSpec`] is the operational mirror of a per-class (delay, ε)
//! E.B.B. certificate: where Theorem 10 certifies
//! `P(delay > d) <= eps` for the *queue*, an SLO states "fraction of
//! good requests ≥ objective" for the *service*, and the error budget
//! `1 - objective` plays the role of ε. Following SRE practice, each
//! SLO is evaluated over two rolling windows — a fast window that
//! catches sharp regressions quickly and a slow window that catches
//! smouldering ones — and an alert (a warn journal event plus
//! `obs.slo.*` counters) fires only when the *burn rate* (observed
//! bad fraction divided by the budget) exceeds the window's threshold.
//!
//! Trackers are driven by the exporter's request-telemetry middleware
//! (see [`crate::exporter::TelemetryConfig`]); recording is O(1) per
//! request and the per-second ring holds one slow window of history.
//! Everything here is deterministic given the same sequence of
//! `(second, good)` observations — wall-clock enters only through the
//! caller's choice of `now_s`.

use crate::journal::FieldValue;
use crate::metrics::Registry;

/// Default fast alerting window: 5 minutes.
pub const DEFAULT_FAST_WINDOW_S: u64 = 300;
/// Default slow alerting window: 1 hour.
pub const DEFAULT_SLOW_WINDOW_S: u64 = 3_600;
/// Default fast-window burn-rate threshold (SRE workbook page-now tier).
pub const DEFAULT_FAST_BURN: f64 = 14.4;
/// Default slow-window burn-rate threshold (SRE workbook ticket tier).
pub const DEFAULT_SLOW_BURN: f64 = 6.0;

/// A JSON string literal (quotes included) for `s`.
fn quoted(s: &str) -> String {
    let mut out = String::new();
    crate::json::write_escaped(s, &mut out);
    out
}

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable identifier used in journal events, counters, and JSON.
    pub name: String,
    /// Restrict to one route (`None` = all routes).
    pub route: Option<String>,
    /// Target good fraction, e.g. `0.999`; the error budget is
    /// `1 - objective`.
    pub objective: f64,
    /// When set, a request must also finish within this latency to
    /// count as good (latency SLO); `None` = availability only.
    pub latency_threshold_ns: Option<u64>,
    /// Fast alerting window in seconds.
    pub fast_window_s: u64,
    /// Slow alerting window in seconds.
    pub slow_window_s: u64,
    /// Burn-rate threshold for the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold for the slow window.
    pub slow_burn: f64,
}

impl SloSpec {
    /// An availability SLO over all routes: a request is good when its
    /// status is below 500.
    pub fn availability(name: impl Into<String>, objective: f64) -> SloSpec {
        SloSpec {
            name: name.into(),
            route: None,
            objective,
            latency_threshold_ns: None,
            fast_window_s: DEFAULT_FAST_WINDOW_S,
            slow_window_s: DEFAULT_SLOW_WINDOW_S,
            fast_burn: DEFAULT_FAST_BURN,
            slow_burn: DEFAULT_SLOW_BURN,
        }
    }

    /// A latency SLO: a request is good when its status is below 500
    /// *and* it finished within `threshold_ns`.
    pub fn latency(name: impl Into<String>, objective: f64, threshold_ns: u64) -> SloSpec {
        let mut s = SloSpec::availability(name, objective);
        s.latency_threshold_ns = Some(threshold_ns);
        s
    }

    /// Restricts this SLO to requests on one route.
    pub fn for_route(mut self, route: impl Into<String>) -> SloSpec {
        self.route = Some(route.into());
        self
    }

    /// Whether a request on `route` with `status` and `latency_ns`
    /// counts against this SLO, and if so whether it was good.
    pub fn classify(&self, route: &str, status: u16, latency_ns: u64) -> Option<bool> {
        if let Some(want) = &self.route {
            if want != route {
                return None;
            }
        }
        let mut good = status < 500;
        if let Some(t) = self.latency_threshold_ns {
            good = good && latency_ns <= t;
        }
        Some(good)
    }
}

/// One window's evaluated state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowState {
    /// Window length in seconds.
    pub seconds: u64,
    /// Good requests observed inside the window.
    pub good: u64,
    /// Bad requests observed inside the window.
    pub bad: u64,
    /// Observed bad fraction divided by the error budget (0 when the
    /// window is empty).
    pub burn_rate: f64,
    /// The alerting threshold this window compares against.
    pub threshold: f64,
    /// Whether the burn rate currently exceeds the threshold.
    pub breached: bool,
}

/// Evaluated status of one SLO, as served at `/slo`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The spec this status was evaluated from.
    pub spec: SloSpec,
    /// Lifetime good requests.
    pub good_total: u64,
    /// Lifetime bad requests.
    pub bad_total: u64,
    /// Fraction of the lifetime error budget still unspent (clamped to
    /// ≥ 0; 1 when nothing has been observed).
    pub budget_remaining: f64,
    /// Fast-window state.
    pub fast: WindowState,
    /// Slow-window state.
    pub slow: WindowState,
    /// Breach transitions seen so far (fast and slow combined).
    pub breaches: u64,
}

impl SloStatus {
    /// Renders this status as a JSON object (deterministic field
    /// order).
    pub fn to_json(&self) -> String {
        let window = |w: &WindowState| {
            format!(
                "{{\"seconds\":{},\"good\":{},\"bad\":{},\"burn_rate\":{},\"threshold\":{},\"breached\":{}}}",
                w.seconds,
                w.good,
                w.bad,
                crate::json::fmt_f64(w.burn_rate),
                crate::json::fmt_f64(w.threshold),
                w.breached
            )
        };
        let route = match &self.spec.route {
            Some(r) => quoted(r),
            None => "null".to_string(),
        };
        let latency = match self.spec.latency_threshold_ns {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\":{},\"route\":{},\"objective\":{},\"latency_threshold_ns\":{},\"good\":{},\"bad\":{},\"budget_remaining\":{},\"breaches\":{},\"fast\":{},\"slow\":{}}}",
            quoted(&self.spec.name),
            route,
            crate::json::fmt_f64(self.spec.objective),
            latency,
            self.good_total,
            self.bad_total,
            crate::json::fmt_f64(self.budget_remaining),
            self.breaches,
            window(&self.fast),
            window(&self.slow)
        )
    }
}

/// Rolling-window burn-rate tracker for one [`SloSpec`].
#[derive(Debug)]
pub struct SloTracker {
    spec: SloSpec,
    /// Per-second (good, bad) slots covering one slow window.
    ring: Vec<(u64, u64)>,
    /// The absolute second the cursor currently points at.
    cur_s: u64,
    started: bool,
    good_total: u64,
    bad_total: u64,
    fast_breached: bool,
    slow_breached: bool,
    breaches: u64,
}

impl SloTracker {
    /// A tracker with empty history.
    pub fn new(spec: SloSpec) -> SloTracker {
        assert!(
            spec.objective > 0.0 && spec.objective < 1.0,
            "objective must be in (0,1)"
        );
        let slots = spec.slow_window_s.max(spec.fast_window_s).max(1) as usize;
        SloTracker {
            spec,
            ring: vec![(0, 0); slots],
            cur_s: 0,
            started: false,
            good_total: 0,
            bad_total: 0,
            fast_breached: false,
            slow_breached: false,
            breaches: 0,
        }
    }

    /// The spec this tracker evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Records one classified request at absolute second `now_s`.
    /// Returns the breach transitions this observation caused (fast,
    /// slow) — `Some(true)` entering breach, `Some(false)` leaving.
    pub fn record(&mut self, now_s: u64, good: bool) -> (Option<bool>, Option<bool>) {
        let transitions = self.advance_to(now_s);
        let slot = (now_s % self.ring.len() as u64) as usize;
        if good {
            self.ring[slot].0 += 1;
            self.good_total += 1;
        } else {
            self.ring[slot].1 += 1;
            self.bad_total += 1;
        }
        transitions
    }

    /// Moves the cursor to `now_s`, zeroing skipped slots, and
    /// re-evaluates breach state on each second boundary.
    fn advance_to(&mut self, now_s: u64) -> (Option<bool>, Option<bool>) {
        if !self.started {
            self.started = true;
            self.cur_s = now_s;
            return (None, None);
        }
        if now_s <= self.cur_s {
            return (None, None); // same second (or clock went backwards)
        }
        let len = self.ring.len() as u64;
        let steps = (now_s - self.cur_s).min(len);
        for k in 1..=steps {
            let slot = ((self.cur_s + k) % len) as usize;
            self.ring[slot] = (0, 0);
        }
        self.cur_s = now_s;
        self.evaluate_transitions(now_s)
    }

    /// Sums (good, bad) over the last `window_s` seconds ending at
    /// `now_s`.
    fn window_sums(&self, now_s: u64, window_s: u64) -> (u64, u64) {
        let len = self.ring.len() as u64;
        let span = window_s.min(len);
        let mut good = 0;
        let mut bad = 0;
        for k in 0..span {
            if k > now_s {
                break;
            }
            let (g, b) = self.ring[((now_s - k) % len) as usize];
            good += g;
            bad += b;
        }
        (good, bad)
    }

    fn window_state(&self, now_s: u64, window_s: u64, threshold: f64) -> WindowState {
        let (good, bad) = self.window_sums(now_s, window_s);
        let total = good + bad;
        let burn_rate = if total == 0 {
            0.0
        } else {
            (bad as f64 / total as f64) / (1.0 - self.spec.objective)
        };
        WindowState {
            seconds: window_s,
            good,
            bad,
            burn_rate,
            threshold,
            breached: burn_rate > threshold,
        }
    }

    fn evaluate_transitions(&mut self, now_s: u64) -> (Option<bool>, Option<bool>) {
        let fast = self
            .window_state(now_s, self.spec.fast_window_s, self.spec.fast_burn)
            .breached;
        let slow = self
            .window_state(now_s, self.spec.slow_window_s, self.spec.slow_burn)
            .breached;
        let fast_t = if fast != self.fast_breached {
            self.fast_breached = fast;
            if fast {
                self.breaches += 1;
            }
            Some(fast)
        } else {
            None
        };
        let slow_t = if slow != self.slow_breached {
            self.slow_breached = slow;
            if slow {
                self.breaches += 1;
            }
            Some(slow)
        } else {
            None
        };
        (fast_t, slow_t)
    }

    /// Evaluates both windows and the lifetime budget at `now_s`.
    pub fn status(&self, now_s: u64) -> SloStatus {
        let total = self.good_total + self.bad_total;
        let budget_remaining = if total == 0 {
            1.0
        } else {
            let budget = total as f64 * (1.0 - self.spec.objective);
            (1.0 - self.bad_total as f64 / budget).max(0.0)
        };
        SloStatus {
            spec: self.spec.clone(),
            good_total: self.good_total,
            bad_total: self.bad_total,
            budget_remaining,
            fast: self.window_state(now_s, self.spec.fast_window_s, self.spec.fast_burn),
            slow: self.window_state(now_s, self.spec.slow_window_s, self.spec.slow_burn),
            breaches: self.breaches,
        }
    }
}

/// A set of SLO trackers sharing one lock, as held by the exporter's
/// request-telemetry middleware.
#[derive(Debug)]
pub struct SloSet {
    trackers: std::sync::Mutex<Vec<SloTracker>>,
}

impl SloSet {
    /// Builds trackers for `specs`.
    pub fn new(specs: Vec<SloSpec>) -> SloSet {
        SloSet {
            trackers: std::sync::Mutex::new(specs.into_iter().map(SloTracker::new).collect()),
        }
    }

    /// Whether any SLOs are configured.
    pub fn is_empty(&self) -> bool {
        self.trackers.lock().expect("slo set poisoned").is_empty()
    }

    /// Routes one finished request to every matching tracker. Breach
    /// transitions raise warn journal events (through the global
    /// journal) and bump `obs.slo.*` counters in `registry`.
    pub fn record(
        &self,
        registry: &Registry,
        now_s: u64,
        route: &str,
        status: u16,
        latency_ns: u64,
    ) {
        let mut trackers = self.trackers.lock().expect("slo set poisoned");
        for t in trackers.iter_mut() {
            let Some(good) = t.spec.classify(route, status, latency_ns) else {
                continue;
            };
            let name = t.spec.name.clone();
            let (fast_t, slow_t) = t.record(now_s, good);
            registry
                .counter(&crate::metrics::labeled(
                    "obs.slo.requests",
                    &[
                        ("slo", name.as_str()),
                        ("good", if good { "true" } else { "false" }),
                    ],
                ))
                .inc();
            for (window, transition) in [("fast", fast_t), ("slow", slow_t)] {
                let Some(entered) = transition else { continue };
                if entered {
                    registry
                        .counter(&crate::metrics::labeled(
                            "obs.slo.breaches",
                            &[("slo", name.as_str()), ("window", window)],
                        ))
                        .inc();
                    crate::warn(
                        "obs.slo",
                        "burn_rate_breach",
                        &[
                            ("slo", FieldValue::from(name.as_str())),
                            ("window", FieldValue::from(window)),
                        ],
                    );
                } else {
                    crate::info(
                        "obs.slo",
                        "burn_rate_recovered",
                        &[
                            ("slo", FieldValue::from(name.as_str())),
                            ("window", FieldValue::from(window)),
                        ],
                    );
                }
            }
        }
    }

    /// Evaluated statuses for every SLO at `now_s`, in spec order.
    pub fn statuses(&self, now_s: u64) -> Vec<SloStatus> {
        self.trackers
            .lock()
            .expect("slo set poisoned")
            .iter()
            .map(|t| t.status(now_s))
            .collect()
    }

    /// Renders all statuses as the `/slo` JSON document.
    pub fn to_json(&self, service: &str, now_s: u64) -> String {
        let slos: Vec<String> = self
            .statuses(now_s)
            .iter()
            .map(SloStatus::to_json)
            .collect();
        format!(
            "{{\"service\":{},\"now_s\":{},\"slos\":[{}]}}\n",
            quoted(service),
            now_s,
            slos.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short windows (fast 5 s, slow 20 s) so tests step through them.
    fn spec() -> SloSpec {
        SloSpec {
            fast_window_s: 5,
            fast_burn: 2.0,
            slow_window_s: 20,
            slow_burn: 1.5,
            ..SloSpec::availability("avail", 0.9)
        }
    }

    #[test]
    fn classify_filters_route_and_latency() {
        let s = SloSpec::latency("lat", 0.99, 1_000).for_route("/admit");
        assert_eq!(s.classify("/depart", 200, 10), None);
        assert_eq!(s.classify("/admit", 200, 10), Some(true));
        assert_eq!(s.classify("/admit", 200, 5_000), Some(false));
        assert_eq!(s.classify("/admit", 500, 10), Some(false));
        let a = SloSpec::availability("a", 0.999);
        assert_eq!(a.classify("/anything", 404, 0), Some(true)); // 4xx is "available"
        assert_eq!(a.classify("/anything", 503, 0), Some(false));
    }

    #[test]
    fn burn_rate_and_budget_math() {
        let mut t = SloTracker::new(spec());
        // 90 good + 10 bad at second 0: bad fraction 0.1 = exactly the
        // budget, burn rate 1.0 in both windows.
        for _ in 0..90 {
            t.record(0, true);
        }
        for _ in 0..10 {
            t.record(0, false);
        }
        let st = t.status(0);
        assert!((st.fast.burn_rate - 1.0).abs() < 1e-12);
        assert!((st.slow.burn_rate - 1.0).abs() < 1e-12);
        assert!((st.budget_remaining - 0.0).abs() < 1e-12);
        assert!(!st.fast.breached && !st.slow.breached);
        assert_eq!((st.good_total, st.bad_total), (90, 10));
    }

    #[test]
    fn breach_fires_on_transition_only() {
        let mut t = SloTracker::new(spec());
        // Second 0: all bad — burn rate 1/0.1 = 10 ≫ both thresholds,
        // but transitions are evaluated on the next second boundary.
        for _ in 0..10 {
            assert_eq!(t.record(0, false), (None, None));
        }
        let (fast, slow) = t.record(1, false);
        assert_eq!((fast, slow), (Some(true), Some(true)));
        // Still breached: no repeated transition.
        assert_eq!(t.record(2, false), (None, None));
        assert_eq!(t.status(2).breaches, 2);
    }

    #[test]
    fn fast_window_recovers_before_slow() {
        let mut t = SloTracker::new(spec()); // fast 5 s, slow 20 s
        for _ in 0..10 {
            t.record(0, false);
        }
        // Transitions into breach on both windows.
        t.record(1, true);
        // 6 seconds later the bad burst has left the fast window but
        // still sits inside the slow one.
        let (fast, slow) = t.record(7, true);
        assert_eq!(fast, Some(false), "fast window should have recovered");
        assert_eq!(slow, None, "slow window should still be breached");
        let st = t.status(7);
        assert!(!st.fast.breached);
        assert!(st.slow.breached);
        // After the slow window drains too, it recovers as well.
        let (_, slow) = t.record(25, true);
        assert_eq!(slow, Some(false));
    }

    #[test]
    fn ring_wraps_without_resurrecting_old_slots() {
        let mut t = SloTracker::new(spec()); // ring of 20 slots
        for _ in 0..100 {
            t.record(3, false);
        }
        // Jump far beyond the ring: every slot must be zeroed, not
        // re-read as stale history.
        t.record(1_000, true);
        let st = t.status(1_000);
        assert_eq!((st.fast.good, st.fast.bad), (1, 0));
        assert_eq!((st.slow.good, st.slow.bad), (1, 0));
        assert_eq!(st.bad_total, 100, "lifetime totals keep the history");
    }

    #[test]
    fn slo_set_records_and_serves_json() {
        let registry = Registry::new();
        let set = SloSet::new(vec![
            SloSpec::availability("avail", 0.999),
            SloSpec::latency("admit-latency", 0.99, 1_000_000).for_route("/admit"),
        ]);
        set.record(&registry, 0, "/admit", 200, 500);
        set.record(&registry, 0, "/region", 200, 50);
        set.record(&registry, 0, "/admit", 200, 5_000_000);
        let json = set.to_json("svc", 0);
        assert!(json.starts_with("{\"service\":\"svc\",\"now_s\":0,\"slos\":["));
        assert!(json.contains("\"name\":\"avail\""));
        assert!(json.contains("\"name\":\"admit-latency\""));
        assert!(json.contains("\"budget_remaining\""));
        assert!(json.contains("\"burn_rate\""));
        // avail saw 3 requests (all good), the route-scoped latency SLO
        // saw 2 (one over threshold).
        let statuses = set.statuses(0);
        assert_eq!((statuses[0].good_total, statuses[0].bad_total), (3, 0));
        assert_eq!((statuses[1].good_total, statuses[1].bad_total), (1, 1));
        let snap = registry.snapshot();
        let find = |needle: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n.contains(needle))
                .map(|(_, v)| *v)
        };
        assert_eq!(find("slo=avail,good=true"), Some(3));
        assert_eq!(find("slo=admit-latency,good=false"), Some(1));
    }

    #[test]
    fn statuses_are_deterministic_in_spec_order() {
        let set = SloSet::new(vec![
            SloSpec::availability("b", 0.99),
            SloSpec::availability("a", 0.999),
        ]);
        let names: Vec<String> = set
            .statuses(0)
            .iter()
            .map(|s| s.spec.name.clone())
            .collect();
        assert_eq!(names, vec!["b", "a"], "spec order, not sorted");
    }
}
