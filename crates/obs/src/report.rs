//! Static-HTML results dashboard: renders campaign metrics snapshots,
//! run manifests, bench results, and bound-vs-simulation curves into one
//! self-contained `dashboard.html` — inline SVG only, no scripts, no
//! external assets, so the artifact is committable and diffs cleanly.
//!
//! Everything here is a pure function of its inputs: same parsed JSON
//! and curve data, same bytes out. The `report` experiment binary owns
//! the filesystem scan; this module owns layout and drawing.
//!
//! Chart conventions (shared with the repo's ASCII plots): tail curves
//! are drawn on a log₁₀ y-axis with empirical data first and analytic
//! bounds after, categorical palette slots assigned in fixed order, a
//! legend plus per-point `<title>` tooltips (the no-JS hover layer), and
//! muted grid/axis chrome under the data ink.

use crate::json::Json;
use std::fmt::Write as _;

/// Categorical palette, light-mode steps (slots assigned in fixed
/// order, never cycled; charts here use at most four series).
const SERIES_LIGHT: [&str; 4] = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100"];
/// The same four slots stepped for the dark surface.
const SERIES_DARK: [&str; 4] = ["#3987e5", "#d95926", "#199e70", "#c98500"];

/// One named curve on a chart.
#[derive(Debug, Clone)]
pub struct CurveSeries {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

/// One chart: a handful of curves over a shared x-axis.
#[derive(Debug, Clone)]
pub struct CurveChart {
    /// Chart heading.
    pub title: String,
    /// X-axis caption.
    pub x_label: String,
    /// Curves, palette slots assigned in order.
    pub series: Vec<CurveSeries>,
    /// Log₁₀ y-axis (tail probabilities) vs linear.
    pub log_y: bool,
}

/// One bench measurement (nanoseconds per iteration).
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Bench name within the suite.
    pub name: String,
    /// Median ns/iter.
    pub median_ns: f64,
    /// 10th percentile.
    pub p10_ns: f64,
    /// 90th percentile.
    pub p90_ns: f64,
}

/// One bench suite (`results/bench_<name>.json`).
#[derive(Debug, Clone)]
pub struct BenchSuite {
    /// Suite name.
    pub name: String,
    /// Entries in file order.
    pub entries: Vec<BenchEntry>,
}

/// One campaign: its manifest and/or metrics snapshot, as parsed JSON.
#[derive(Debug, Clone)]
pub struct CampaignSection {
    /// Campaign name (`validate_single`, …).
    pub name: String,
    /// Parsed `<name>_manifest.json`, when present.
    pub manifest: Option<Json>,
    /// Parsed `<name>_metrics.json`, when present.
    pub metrics: Option<Json>,
}

/// One executed interval on a worker lane, decoded from a paired
/// begin/end pair of Chrome trace events.
#[derive(Debug, Clone)]
pub struct TraceSlice {
    /// Event name (`chunk`, `sim/supervised_single_node_campaign`, …).
    pub name: String,
    /// Start, microseconds since the timeline origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// One worker lane of a campaign timeline.
#[derive(Debug, Clone)]
pub struct TraceLane {
    /// Lane label (`main`, `worker-1`, …).
    pub name: String,
    /// Chrome `tid` the lane was recorded under.
    pub tid: u64,
    /// Executed slices in start order.
    pub slices: Vec<TraceSlice>,
}

/// One campaign's flight-recorder timeline (`<name>_trace.json`).
#[derive(Debug, Clone)]
pub struct TraceTimeline {
    /// Campaign the trace belongs to.
    pub campaign: String,
    /// Lanes sorted by `tid` (main first, then workers).
    pub lanes: Vec<TraceLane>,
    /// Horizontal extent of the timeline, microseconds.
    pub span_us: f64,
    /// Events the bounded ring dropped while recording.
    pub dropped: u64,
}

/// One session row of the distributed overload panel.
#[derive(Debug, Clone)]
pub struct OverloadSession {
    /// Display label (`session 1`, …).
    pub label: String,
    /// Measured long-run throughput from the merged campaign.
    pub throughput: f64,
    /// GPS guaranteed rate `φᵢ/Σφ · C`.
    pub guaranteed: f64,
    /// True for the hostile session behind the shedding policer.
    pub attack: bool,
}

/// The distributed overload-campaign panel: tail charts for the
/// protected sessions against their Theorem-10 certificates, the
/// per-session throughput-vs-guarantee table, the attack shed fractions,
/// and the coordinator's orchestration counters.
#[derive(Debug, Clone, Default)]
pub struct OverloadPanel {
    /// Scenario name (`overload`).
    pub scenario: String,
    /// Tail charts (protected session vs certificate, attack session).
    pub charts: Vec<CurveChart>,
    /// Per-session throughput summary, in session order.
    pub sessions: Vec<OverloadSession>,
    /// `(measured, analytic)` shed fraction of the attack session.
    pub shed: Option<(f64, f64)>,
    /// Coordinator orchestration counters (leases, expiries, …).
    pub orchestration: Vec<(String, String)>,
}

/// Everything the dashboard shows.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    /// Bound-vs-simulation charts, in display order.
    pub charts: Vec<CurveChart>,
    /// Campaign sections, in display order.
    pub campaigns: Vec<CampaignSection>,
    /// Bench suites, in display order.
    pub benches: Vec<BenchSuite>,
    /// Flight-recorder timelines, in display order.
    pub timelines: Vec<TraceTimeline>,
    /// Distributed overload-campaign panel (`results/campaignd_overload.csv`
    /// plus the coordinator manifest), when present.
    pub overload: Option<OverloadPanel>,
    /// Admission-service region snapshot (`results/admission_region.json`,
    /// the `/region` body captured by `admitd --replay`), when present.
    pub admission: Option<Json>,
    /// Service-health snapshots (`results/service_health.json` from
    /// `admitd --replay --out-service`, `results/*_service.json` from the
    /// daemons' `--out-service`): SLO statuses, per-route request
    /// counters, and HDR latency histograms, one entry per service.
    pub services: Vec<Json>,
}

/// Escapes text for HTML body and attribute positions.
fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Compact deterministic number rendering for labels and table cells.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "–".to_string();
    }
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        let s = format!("{v:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    }
}

/// Nanoseconds, scaled to a readable unit.
fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "–".to_string()
    } else if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

// ---------------------------------------------------------------------
// SVG charts

const CHART_W: f64 = 540.0;
const CHART_H: f64 = 230.0;
const MARGIN_L: f64 = 52.0;
const MARGIN_R: f64 = 14.0;
const MARGIN_T: f64 = 12.0;
const MARGIN_B: f64 = 32.0;
/// Probabilities below this clamp to the chart floor on log axes.
const LOG_FLOOR: f64 = 1e-10;

fn fmt_coord(v: f64) -> String {
    format!("{v:.2}")
}

/// Renders one curve chart as an inline SVG string.
fn svg_curve_chart(chart: &CurveChart) -> String {
    let pts: Vec<(f64, f64)> = chart
        .series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if pts.is_empty() {
        return "<p class=\"empty\">no data</p>".to_string();
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, _) in &pts {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
    }
    if x_max <= x_min {
        x_max = x_min + 1.0;
    }

    // The y transform: log₁₀ with a floor, or linear from 0.
    let to_ly = |y: f64| -> f64 {
        if chart.log_y {
            y.max(LOG_FLOOR).log10()
        } else {
            y
        }
    };
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, y) in &pts {
        let ly = to_ly(y);
        y_min = y_min.min(ly);
        y_max = y_max.max(ly);
    }
    if chart.log_y {
        y_min = y_min.floor();
        y_max = y_max.ceil().max(y_min + 1.0);
    } else {
        y_min = y_min.min(0.0);
        if y_max <= y_min {
            y_max = y_min + 1.0;
        }
    }

    let plot_w = CHART_W - MARGIN_L - MARGIN_R;
    let plot_h = CHART_H - MARGIN_T - MARGIN_B;
    let sx = |x: f64| MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w;
    let sy = |y: f64| MARGIN_T + (1.0 - (to_ly(y) - y_min) / (y_max - y_min)) * plot_h;

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {CHART_W:.0} {CHART_H:.0}\" width=\"{CHART_W:.0}\" \
         height=\"{CHART_H:.0}\" role=\"img\" aria-label=\"{}\">",
        html_escape(&chart.title)
    );

    // Horizontal gridlines + y tick labels.
    let ticks: Vec<f64> = if chart.log_y {
        let decades = (y_max - y_min) as i64;
        let step = (decades as f64 / 6.0).ceil().max(1.0) as i64;
        (0..=decades)
            .step_by(step as usize)
            .map(|d| y_min + d as f64)
            .collect()
    } else {
        (0..=4)
            .map(|i| y_min + (y_max - y_min) * i as f64 / 4.0)
            .collect()
    };
    for &t in &ticks {
        let y = MARGIN_T + (1.0 - (t - y_min) / (y_max - y_min)) * plot_h;
        let _ = write!(
            svg,
            "<line class=\"grid\" x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\"/>",
            fmt_coord(MARGIN_L),
            fmt_coord(y),
            fmt_coord(CHART_W - MARGIN_R),
            fmt_coord(y)
        );
        let label = if chart.log_y {
            format!("1e{}", t as i64)
        } else {
            fmt_num(t)
        };
        let _ = write!(
            svg,
            "<text class=\"tick\" x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>",
            fmt_coord(MARGIN_L - 6.0),
            fmt_coord(y + 3.5),
            html_escape(&label)
        );
    }
    // X axis baseline + ticks.
    let base_y = MARGIN_T + plot_h;
    let _ = write!(
        svg,
        "<line class=\"axis\" x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\"/>",
        fmt_coord(MARGIN_L),
        fmt_coord(base_y),
        fmt_coord(CHART_W - MARGIN_R),
        fmt_coord(base_y)
    );
    for i in 0..=4 {
        let xv = x_min + (x_max - x_min) * i as f64 / 4.0;
        let _ = write!(
            svg,
            "<text class=\"tick\" x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>",
            fmt_coord(sx(xv)),
            fmt_coord(base_y + 14.0),
            html_escape(&fmt_num(xv))
        );
    }
    let _ = write!(
        svg,
        "<text class=\"tick\" x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>",
        fmt_coord(MARGIN_L + plot_w / 2.0),
        fmt_coord(CHART_H - 4.0),
        html_escape(&chart.x_label)
    );

    // Data ink: one 2px polyline per series plus hoverable point markers
    // carrying native tooltips.
    for (si, s) in chart.series.iter().enumerate().take(SERIES_LIGHT.len()) {
        let finite: Vec<(f64, f64)> = s
            .points
            .iter()
            .copied()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if finite.len() >= 2 {
            let path: Vec<String> = finite
                .iter()
                .map(|&(x, y)| format!("{},{}", fmt_coord(sx(x)), fmt_coord(sy(y))))
                .collect();
            let _ = write!(
                svg,
                "<polyline class=\"s{si}\" fill=\"none\" stroke-width=\"2\" \
                 stroke-linejoin=\"round\" points=\"{}\"/>",
                path.join(" ")
            );
        }
        for &(x, y) in &finite {
            let _ = write!(
                svg,
                "<circle class=\"s{si} pt\" cx=\"{}\" cy=\"{}\" r=\"2.5\">\
                 <title>{}: ({}, {})</title></circle>",
                fmt_coord(sx(x)),
                fmt_coord(sy(y)),
                html_escape(&s.label),
                fmt_num(x),
                fmt_num(y)
            );
        }
    }
    svg.push_str("</svg>");

    // Legend: chip carries the hue, text stays in ink tokens.
    let mut legend = String::from("<div class=\"legend\">");
    for (si, s) in chart.series.iter().enumerate().take(SERIES_LIGHT.len()) {
        let _ = write!(
            legend,
            "<span class=\"key\"><span class=\"chip s{si}bg\"></span>{}</span>",
            html_escape(&s.label)
        );
    }
    legend.push_str("</div>");

    format!("{legend}{svg}")
}

// ---------------------------------------------------------------------
// Flight-recorder timelines

const TL_W: f64 = 860.0;
const TL_LANE_H: f64 = 18.0;
const TL_GAP: f64 = 5.0;
/// Left margin: lane labels.
const TL_L: f64 = 84.0;
/// Right margin: the per-lane utilization bar.
const TL_R: f64 = 150.0;
const TL_T: f64 = 8.0;
const TL_B: f64 = 26.0;
const UTIL_BAR_W: f64 = 90.0;

/// Decodes a timing-mode Chrome trace document (`<campaign>_trace.json`)
/// into a [`TraceTimeline`]: `thread_name` metadata labels the lanes and
/// begin/end pairs become slices, matched per `tid` with a stack (the
/// recorder emits properly nested events per lane). Returns `None` for
/// counts-mode digests and anything else without a `traceEvents` array.
pub fn timeline_from_chrome_trace(doc: &Json) -> Option<TraceTimeline> {
    use std::collections::BTreeMap;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return None;
    };
    let other = doc.get("otherData");
    let campaign = other
        .and_then(|o| o.get("campaign"))
        .and_then(|v| v.as_str())
        .unwrap_or("")
        .to_string();
    let dropped = other
        .and_then(|o| o.get("dropped"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);

    let mut lane_names: BTreeMap<u64, String> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<(String, f64)>> = BTreeMap::new();
    let mut slices: BTreeMap<u64, Vec<TraceSlice>> = BTreeMap::new();
    let (mut origin, mut end) = (f64::INFINITY, f64::NEG_INFINITY);
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let tid = e.get("tid").and_then(|v| v.as_u64()).unwrap_or(0);
        if ph == "M" {
            if e.get("name").and_then(|v| v.as_str()) == Some("thread_name") {
                if let Some(n) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                {
                    lane_names.insert(tid, n.to_string());
                }
            }
            continue;
        }
        let Some(ts) = e.get("ts").and_then(|v| v.as_f64()) else {
            continue;
        };
        origin = origin.min(ts);
        end = end.max(ts);
        match ph {
            "B" => {
                let name = e
                    .get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string();
                stacks.entry(tid).or_default().push((name, ts));
            }
            "E" => {
                if let Some((name, t0)) = stacks.entry(tid).or_default().pop() {
                    slices.entry(tid).or_default().push(TraceSlice {
                        name,
                        start_us: t0,
                        dur_us: (ts - t0).max(0.0),
                    });
                }
            }
            _ => {} // instants mark the axis extent but draw no slice
        }
    }
    if !origin.is_finite() {
        return None;
    }
    // One lane per tid that either announced a name or closed a slice.
    let tids: std::collections::BTreeSet<u64> = lane_names
        .keys()
        .copied()
        .chain(slices.keys().copied())
        .collect();
    let lanes = tids
        .into_iter()
        .map(|tid| {
            let mut s = slices.remove(&tid).unwrap_or_default();
            for sl in &mut s {
                sl.start_us -= origin;
            }
            s.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            TraceLane {
                name: lane_names
                    .get(&tid)
                    .cloned()
                    .unwrap_or_else(|| format!("tid-{tid}")),
                tid,
                slices: s,
            }
        })
        .collect();
    Some(TraceTimeline {
        campaign,
        lanes,
        span_us: (end - origin).max(1e-3),
        dropped,
    })
}

/// Renders a flight-recorder timeline as an inline SVG: one horizontal
/// lane per worker with its executed slices as rectangles (tooltip =
/// name, start, duration), plus a busy-fraction utilization bar per lane
/// on the right. Palette slots are assigned to slice names in order of
/// first appearance (extras share the last slot; tooltips disambiguate).
fn svg_trace_timeline(t: &TraceTimeline) -> String {
    if t.lanes.is_empty() {
        return "<p class=\"empty\">no timeline data</p>".to_string();
    }
    let rows = t.lanes.len() as f64;
    let height = TL_T + rows * (TL_LANE_H + TL_GAP) - TL_GAP + TL_B;
    let plot_w = TL_W - TL_L - TL_R;
    let sx = |us: f64| TL_L + (us / t.span_us).clamp(0.0, 1.0) * plot_w;

    let slot_of = |name: &str, slots: &mut Vec<String>| -> usize {
        match slots.iter().position(|n| n == name) {
            Some(i) => i.min(SERIES_LIGHT.len() - 1),
            None => {
                slots.push(name.to_string());
                (slots.len() - 1).min(SERIES_LIGHT.len() - 1)
            }
        }
    };
    let mut slots: Vec<String> = Vec::new();

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {TL_W:.0} {height:.0}\" width=\"{TL_W:.0}\" \
         height=\"{height:.0}\" role=\"img\" aria-label=\"{} worker timeline\">",
        html_escape(&t.campaign)
    );
    let base_y = TL_T + rows * (TL_LANE_H + TL_GAP) - TL_GAP;
    // Time axis: baseline plus five ticks across the span.
    let _ = write!(
        svg,
        "<line class=\"axis\" x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\"/>",
        fmt_coord(TL_L),
        fmt_coord(base_y + 3.0),
        fmt_coord(TL_L + plot_w),
        fmt_coord(base_y + 3.0)
    );
    for i in 0..=4 {
        let us = t.span_us * i as f64 / 4.0;
        let _ = write!(
            svg,
            "<text class=\"tick\" x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>",
            fmt_coord(sx(us)),
            fmt_coord(base_y + 16.0),
            html_escape(&fmt_ns(us * 1e3))
        );
    }

    for (li, lane) in t.lanes.iter().enumerate() {
        let y = TL_T + li as f64 * (TL_LANE_H + TL_GAP);
        let _ = write!(
            svg,
            "<text class=\"tick\" x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>",
            fmt_coord(TL_L - 6.0),
            fmt_coord(y + TL_LANE_H / 2.0 + 3.5),
            html_escape(&lane.name)
        );
        let _ = write!(
            svg,
            "<rect class=\"lanebg\" x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" rx=\"2\"/>",
            fmt_coord(TL_L),
            fmt_coord(y),
            fmt_coord(plot_w),
            fmt_coord(TL_LANE_H)
        );
        let mut busy_us = 0.0;
        for s in &lane.slices {
            busy_us += s.dur_us;
            let x = sx(s.start_us);
            let w = (sx(s.start_us + s.dur_us) - x).max(0.75);
            let si = slot_of(&s.name, &mut slots);
            let _ = write!(
                svg,
                "<rect class=\"f{si}\" x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" rx=\"1\">\
                 <title>{} @ {} for {}</title></rect>",
                fmt_coord(x),
                fmt_coord(y + 2.0),
                fmt_coord(w),
                fmt_coord(TL_LANE_H - 4.0),
                html_escape(&s.name),
                fmt_ns(s.start_us * 1e3),
                fmt_ns(s.dur_us * 1e3)
            );
        }
        // Utilization: the lane's busy fraction of the whole span.
        let frac = (busy_us / t.span_us).clamp(0.0, 1.0);
        let ux = TL_W - TL_R + 14.0;
        let _ = write!(
            svg,
            "<rect class=\"utilbg\" x=\"{}\" y=\"{}\" width=\"{UTIL_BAR_W:.0}\" \
             height=\"8\" rx=\"2\"/><rect class=\"utilbar\" x=\"{}\" y=\"{}\" \
             width=\"{}\" height=\"8\" rx=\"2\"><title>{}: busy {} of {} ({}%)\
             </title></rect><text class=\"tick\" x=\"{}\" y=\"{}\">{}%</text>",
            fmt_coord(ux),
            fmt_coord(y + TL_LANE_H / 2.0 - 4.0),
            fmt_coord(ux),
            fmt_coord(y + TL_LANE_H / 2.0 - 4.0),
            fmt_coord((frac * UTIL_BAR_W).max(0.5)),
            html_escape(&lane.name),
            fmt_ns(busy_us * 1e3),
            fmt_ns(t.span_us * 1e3),
            (frac * 100.0).round(),
            fmt_coord(ux + UTIL_BAR_W + 6.0),
            fmt_coord(y + TL_LANE_H / 2.0 + 3.5),
            (frac * 100.0).round()
        );
    }
    svg.push_str("</svg>");

    let mut legend = String::from("<div class=\"legend\">");
    for (si, name) in slots.iter().take(SERIES_LIGHT.len()).enumerate() {
        let _ = write!(
            legend,
            "<span class=\"key\"><span class=\"chip s{si}bg\"></span>{}</span>",
            html_escape(name)
        );
    }
    let _ = write!(
        legend,
        "<span class=\"key\"><span class=\"chip utilchip\"></span>utilization</span></div>"
    );
    format!("{legend}{svg}")
}

/// Renders a bench suite as a table with an inline bar per entry
/// (median, with a p10–p90 whisker) on a shared linear scale.
fn bench_suite_html(suite: &BenchSuite) -> String {
    let max = suite
        .entries
        .iter()
        .map(|e| e.p90_ns.max(e.median_ns))
        .fold(0.0f64, f64::max)
        .max(1.0);
    let bar_w = 180.0;
    let mut out = String::new();
    let _ = write!(
        out,
        "<h3 id=\"bench-{}\">bench: {}</h3><table><thead><tr><th>name</th>\
         <th>median</th><th>p10</th><th>p90</th><th>profile</th></tr></thead><tbody>",
        html_escape(&suite.name),
        html_escape(&suite.name)
    );
    for e in &suite.entries {
        let w = (e.median_ns / max * bar_w).max(1.0);
        let x10 = e.p10_ns / max * bar_w;
        let x90 = e.p90_ns / max * bar_w;
        let _ = write!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td><svg width=\"{bar_w:.0}\" height=\"14\" \
             viewBox=\"0 0 {bar_w:.0} 14\"><rect class=\"bar\" x=\"0\" y=\"3\" \
             width=\"{}\" height=\"8\" rx=\"2\"/><line class=\"whisker\" x1=\"{}\" \
             y1=\"7\" x2=\"{}\" y2=\"7\"/><title>{}: median {}, p10 {}, p90 {}\
             </title></svg></td></tr>",
            html_escape(&e.name),
            fmt_ns(e.median_ns),
            fmt_ns(e.p10_ns),
            fmt_ns(e.p90_ns),
            fmt_coord(w),
            fmt_coord(x10),
            fmt_coord(x90),
            html_escape(&e.name),
            fmt_ns(e.median_ns),
            fmt_ns(e.p10_ns),
            fmt_ns(e.p90_ns),
        );
    }
    out.push_str("</tbody></table>");
    out
}

// ---------------------------------------------------------------------
// Metrics / manifest sections

fn json_scalar(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::U64(n) => n.to_string(),
        Json::I64(n) => n.to_string(),
        Json::F64(f) => fmt_num(*f),
        Json::Str(s) => s.clone(),
        other => other.to_compact(),
    }
}

fn kv_table(title: &str, pairs: &[(String, String)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = write!(out, "<h4>{}</h4><table><tbody>", html_escape(title));
    for (k, v) in pairs {
        let _ = write!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td></tr>",
            html_escape(k),
            html_escape(v)
        );
    }
    out.push_str("</tbody></table>");
    out
}

fn obj_pairs(v: Option<&Json>) -> Vec<(String, Json)> {
    match v {
        Some(Json::Obj(pairs)) => pairs.clone(),
        _ => Vec::new(),
    }
}

fn metrics_html(metrics: &Json) -> String {
    let mut out = String::new();
    let counters: Vec<(String, String)> = obj_pairs(metrics.get("counters"))
        .iter()
        .map(|(k, v)| (k.clone(), json_scalar(v)))
        .collect();
    out.push_str(&kv_table("counters", &counters));
    let gauges: Vec<(String, String)> = obj_pairs(metrics.get("gauges"))
        .iter()
        .map(|(k, v)| (k.clone(), json_scalar(v)))
        .collect();
    out.push_str(&kv_table("gauges", &gauges));

    let spans = obj_pairs(metrics.get("spans"));
    if !spans.is_empty() {
        out.push_str(
            "<h4>spans (wall clock)</h4><table><thead><tr><th>path</th>\
             <th>count</th><th>total</th><th>mean</th></tr></thead><tbody>",
        );
        for (name, s) in &spans {
            let ns = |key: &str| {
                s.get(key)
                    .and_then(|v| v.as_f64())
                    .map(fmt_ns)
                    .unwrap_or_else(|| "–".to_string())
            };
            let count = s
                .get("count")
                .and_then(|v| v.as_u64())
                .map(|c| c.to_string())
                .unwrap_or_else(|| "–".to_string());
            let _ = write!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td></tr>",
                html_escape(name),
                count,
                ns("total_ns"),
                ns("mean_ns"),
            );
        }
        out.push_str("</tbody></table>");
    }
    out
}

/// Renders the admission-service panel from a `/region` snapshot: a
/// service summary (capacity, load, decision/cache counters with the
/// derived hit ratio) plus a per-class table of sessions, remaining
/// headroom, and region occupancy.
fn admission_html(region: &Json) -> String {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for key in [
        "capacity",
        "load",
        "sessions",
        "decisions",
        "admitted",
        "rejected",
        "departed",
    ] {
        if let Some(v) = region.get(key) {
            pairs.push((key.to_string(), json_scalar(v)));
        }
    }
    if let Some(cache) = region.get("cache") {
        let n = |key: &str| cache.get(key).and_then(|v| v.as_f64());
        for key in ["hits", "misses", "evictions"] {
            if let Some(v) = cache.get(key) {
                pairs.push((format!("cache.{key}"), json_scalar(v)));
            }
        }
        if let (Some(h), Some(m)) = (n("hits"), n("misses")) {
            if h + m > 0.0 {
                pairs.push(("cache.hit_ratio".to_string(), fmt_num(h / (h + m))));
            }
        }
    }
    let mut out = kv_table("service", &pairs);

    if let Some(Json::Arr(classes)) = region.get("classes") {
        if !classes.is_empty() {
            out.push_str(
                "<h4>admissible region</h4><table><thead><tr><th>class</th>\
                 <th>sessions</th><th>headroom</th><th>occupancy</th></tr></thead><tbody>",
            );
            for c in classes {
                let cell = |key: &str| match c.get(key) {
                    Some(v) => json_scalar(v),
                    None => "–".to_string(),
                };
                let _ = write!(
                    out,
                    "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                     <td class=\"num\">{}</td></tr>",
                    html_escape(&cell("name")),
                    cell("sessions"),
                    cell("headroom"),
                    cell("occupancy"),
                );
            }
            out.push_str("</tbody></table>");
        }
    }
    out
}

/// A small inline error-budget gauge: the filled fraction of a fixed-width
/// bar, green while budget remains and the alert palette slot once spent.
fn budget_bar(frac: f64) -> String {
    let w = 90.0_f64;
    let frac = if frac.is_finite() {
        frac.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let filled = (frac * w).round();
    let fill = if frac > 0.25 {
        "var(--series-2)"
    } else {
        "var(--series-1)"
    };
    format!(
        "<svg width=\"{w:.0}\" height=\"10\" viewBox=\"0 0 {w:.0} 10\" role=\"img\">\
         <title>{} of error budget remaining</title>\
         <rect width=\"{w:.0}\" height=\"10\" fill=\"var(--grid)\" rx=\"2\"/>\
         <rect width=\"{filled:.0}\" height=\"10\" fill=\"{fill}\" rx=\"2\"/></svg>",
        fmt_num(frac)
    )
}

/// Renders the service-health panel from an `--out-service` snapshot:
/// the SLO table (objectives, burn rates, error-budget gauges), the
/// per-route request table, and the request-latency CCDF on log axes —
/// the operational mirror of the analytic tail charts above it.
fn service_health_html(service: &Json) -> String {
    let mut out = String::new();

    if let Some(Json::Arr(slos)) = service.get("slo").and_then(|s| s.get("slos")) {
        if !slos.is_empty() {
            out.push_str(
                "<h4>SLOs</h4><table><thead><tr><th>slo</th><th>route</th>\
                 <th>objective</th><th>good</th><th>bad</th><th>budget</th>\
                 <th>fast burn</th><th>slow burn</th><th>breaches</th></tr></thead><tbody>",
            );
            for s in slos {
                let cell = |key: &str| match s.get(key) {
                    Some(Json::Null) | None => "–".to_string(),
                    Some(v) => json_scalar(v),
                };
                let burn = |win: &str| match s.get(win) {
                    Some(w) => {
                        let rate = w.get("burn_rate").map(json_scalar).unwrap_or_default();
                        match w.get("breached") {
                            Some(Json::Bool(true)) => format!("{rate} ⚠"),
                            _ => rate,
                        }
                    }
                    None => "–".to_string(),
                };
                let budget = s
                    .get("budget_remaining")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                let _ = write!(
                    out,
                    "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
                     <td class=\"num\">{}</td><td class=\"num\">{}</td><td>{}</td>\
                     <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                    html_escape(&cell("name")),
                    html_escape(&cell("route")),
                    cell("objective"),
                    cell("good"),
                    cell("bad"),
                    budget_bar(budget),
                    burn("fast"),
                    burn("slow"),
                    cell("breaches"),
                );
            }
            out.push_str("</tbody></table>");
        }
    }

    if let Some(Json::Arr(routes)) = service.get("routes") {
        if !routes.is_empty() {
            out.push_str(
                "<h4>requests</h4><table><thead><tr><th>route</th><th>status</th>\
                 <th>count</th></tr></thead><tbody>",
            );
            for r in routes {
                let cell = |key: &str| match r.get(key) {
                    Some(v) => json_scalar(v),
                    None => "–".to_string(),
                };
                let _ = write!(
                    out,
                    "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                    html_escape(&cell("route")),
                    cell("status"),
                    cell("count"),
                );
            }
            out.push_str("</tbody></table>");
        }
    }

    if let Some(Json::Arr(latency)) = service.get("latency") {
        let mut rows = String::new();
        let mut series: Vec<CurveSeries> = Vec::new();
        for l in latency {
            let route = l
                .get("route")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            let total = l.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let q = |key: &str| match l.get(key) {
                Some(v) => v.as_f64().map(fmt_ns).unwrap_or_else(|| "–".to_string()),
                None => "–".to_string(),
            };
            let _ = write!(
                rows,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                html_escape(&route),
                fmt_num(total),
                q("p50_ns"),
                q("p90_ns"),
                q("p99_ns"),
                q("max_ns"),
            );
            if total <= 0.0 {
                continue;
            }
            let mut points = Vec::new();
            let mut cum = 0.0;
            if let Some(Json::Arr(buckets)) = l.get("buckets") {
                for b in buckets {
                    if let Json::Arr(pair) = b {
                        let le = pair.first().and_then(|v| v.as_f64()).unwrap_or(0.0);
                        let c = pair.get(1).and_then(|v| v.as_f64()).unwrap_or(0.0);
                        if le <= 0.0 {
                            continue;
                        }
                        cum += c;
                        points.push((le.log10(), (1.0 - cum / total).max(0.0)));
                    }
                }
            }
            if !points.is_empty() {
                series.push(CurveSeries {
                    label: route,
                    points,
                });
            }
        }
        if !rows.is_empty() {
            let _ = write!(
                out,
                "<h4>latency</h4><table><thead><tr><th>route</th><th>count</th>\
                 <th>p50</th><th>p90</th><th>p99</th><th>max</th></tr></thead><tbody>{rows}</tbody></table>"
            );
        }
        if !series.is_empty() {
            let chart = CurveChart {
                title: "request latency CCDF (HDR histogram)".to_string(),
                x_label: "log10 latency (ns)".to_string(),
                series,
                log_y: true,
            };
            let _ = write!(
                out,
                "<div class=\"charts\"><figure><figcaption>{}</figcaption>{}</figure></div>",
                html_escape(&chart.title),
                svg_curve_chart(&chart)
            );
        }
    }

    out
}

/// Renders the distributed overload panel: certificate charts, the
/// throughput-vs-guarantee table (attack row flagged), the shed-fraction
/// line, and the coordinator's orchestration counters.
fn overload_html(p: &OverloadPanel) -> String {
    let mut out = String::new();
    if !p.charts.is_empty() {
        out.push_str("<div class=\"charts\">");
        for c in &p.charts {
            let _ = write!(
                out,
                "<figure><figcaption>{}</figcaption>{}</figure>",
                html_escape(&c.title),
                svg_curve_chart(c)
            );
        }
        out.push_str("</div>");
    }
    if !p.sessions.is_empty() {
        out.push_str(
            "<h4>throughput vs guarantee</h4><table><thead><tr><th>session</th>\
             <th>role</th><th>throughput</th><th>guaranteed rate</th></tr></thead><tbody>",
        );
        for s in &p.sessions {
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td></tr>",
                html_escape(&s.label),
                if s.attack { "attack ⚠" } else { "protected" },
                fmt_num(s.throughput),
                fmt_num(s.guaranteed),
            );
        }
        out.push_str("</tbody></table>");
    }
    if let Some((measured, analytic)) = p.shed {
        let _ = write!(
            out,
            "<p class=\"note\">attack shed fraction: measured {} (analytic {})</p>",
            fmt_num(measured),
            fmt_num(analytic)
        );
    }
    out.push_str(&kv_table("orchestration", &p.orchestration));
    out
}

fn manifest_html(manifest: &Json) -> String {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for key in ["campaign", "seed"] {
        if let Some(v) = manifest.get(key) {
            pairs.push((key.to_string(), json_scalar(v)));
        }
    }
    for (k, v) in obj_pairs(manifest.get("params")) {
        pairs.push((format!("param.{k}"), json_scalar(&v)));
    }
    for (k, v) in obj_pairs(manifest.get("outputs")) {
        pairs.push((format!("output.{k}"), format!("{} rows", json_scalar(&v))));
    }
    kv_table("manifest", &pairs)
}

/// Renders the full dashboard document.
pub fn render(d: &Dashboard) -> String {
    let mut body = String::new();

    if !d.charts.is_empty() {
        body.push_str("<h2>Bound vs. simulation</h2><div class=\"charts\">");
        for c in &d.charts {
            let _ = write!(
                body,
                "<figure><figcaption>{}</figcaption>{}</figure>",
                html_escape(&c.title),
                svg_curve_chart(c)
            );
        }
        body.push_str("</div>");
    }

    if !d.timelines.is_empty() {
        body.push_str("<h2>Flight-recorder timelines</h2><div class=\"charts\">");
        for t in &d.timelines {
            let caption = if t.dropped > 0 {
                format!(
                    "{}: worker timeline ({} events dropped by the bounded ring)",
                    t.campaign, t.dropped
                )
            } else {
                format!("{}: worker timeline", t.campaign)
            };
            let _ = write!(
                body,
                "<figure><figcaption>{}</figcaption>{}</figure>",
                html_escape(&caption),
                svg_trace_timeline(t)
            );
        }
        body.push_str("</div>");
    }

    if !d.campaigns.is_empty() {
        body.push_str("<h2>Campaigns</h2>");
        for c in &d.campaigns {
            let _ = write!(
                body,
                "<details open><summary><h3 id=\"campaign-{0}\">{0}</h3></summary>",
                html_escape(&c.name)
            );
            if let Some(m) = &c.manifest {
                body.push_str(&manifest_html(m));
            }
            if let Some(m) = &c.metrics {
                body.push_str(&metrics_html(m));
            }
            if c.manifest.is_none() && c.metrics.is_none() {
                body.push_str("<p class=\"empty\">no artifacts</p>");
            }
            body.push_str("</details>");
        }
    }

    if let Some(p) = &d.overload {
        let _ = write!(
            body,
            "<h2>Distributed overload campaign</h2><details open><summary>\
             <h3 id=\"overload\">{} — shedding under attack, certificates held\
             </h3></summary>",
            html_escape(&p.scenario)
        );
        body.push_str(&overload_html(p));
        body.push_str("</details>");
    }

    if let Some(region) = &d.admission {
        body.push_str(
            "<h2>Admission control</h2><details open><summary>\
                       <h3 id=\"admission\">admission service</h3></summary>",
        );
        body.push_str(&admission_html(region));
        body.push_str("</details>");
    }

    if !d.services.is_empty() {
        body.push_str("<h2>Service health</h2>");
        for service in &d.services {
            let name = service
                .get("service")
                .and_then(|v| v.as_str())
                .unwrap_or("service");
            let _ = write!(
                body,
                "<details open><summary><h3 id=\"service-{0}\">{0}: request \
                 telemetry &amp; SLOs</h3></summary>",
                html_escape(name)
            );
            body.push_str(&service_health_html(service));
            body.push_str("</details>");
        }
    }

    if !d.benches.is_empty() {
        body.push_str("<h2>Benches</h2>");
        for b in &d.benches {
            body.push_str(&bench_suite_html(b));
        }
    }

    let series_css = |palette: [&str; 4]| -> String {
        let mut out = String::new();
        for (i, hex) in palette.iter().enumerate() {
            let _ = writeln!(out, "  --series-{i}: {hex};");
        }
        out
    };

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
         <title>GPS statistical-analysis results</title>\n<style>\n\
         :root {{\n  color-scheme: light dark;\n  --surface: #fcfcfb;\n  --page: #f9f9f7;\n\
         --ink: #0b0b0b;\n  --ink-2: #52514e;\n  --muted: #898781;\n  --grid: #e1e0d9;\n\
         --axis: #c3c2b7;\n{light}}}\n\
         @media (prefers-color-scheme: dark) {{\n:root {{\n  --surface: #1a1a19;\n\
         --page: #0d0d0d;\n  --ink: #ffffff;\n  --ink-2: #c3c2b7;\n  --muted: #898781;\n\
         --grid: #2c2c2a;\n  --axis: #383835;\n{dark}}}\n}}\n\
         body {{ font: 14px/1.45 system-ui, -apple-system, \"Segoe UI\", sans-serif;\n\
           color: var(--ink); background: var(--page); margin: 0 auto; max-width: 1180px;\n\
           padding: 24px; }}\n\
         h1 {{ font-size: 20px; }} h2 {{ font-size: 17px; margin-top: 28px;\n\
           border-bottom: 1px solid var(--grid); padding-bottom: 4px; }}\n\
         h3 {{ font-size: 15px; display: inline-block; margin: 12px 0 4px; }}\n\
         h4 {{ font-size: 13px; color: var(--ink-2); margin: 10px 0 4px; }}\n\
         p.note, p.empty {{ color: var(--ink-2); }}\n\
         figure {{ background: var(--surface); border: 1px solid var(--grid);\n\
           border-radius: 8px; padding: 10px 12px; margin: 0; }}\n\
         figcaption {{ color: var(--ink-2); font-size: 13px; margin-bottom: 4px; }}\n\
         .charts {{ display: flex; flex-wrap: wrap; gap: 14px; }}\n\
         table {{ border-collapse: collapse; margin: 4px 0 10px; background: var(--surface);\n\
           font-variant-numeric: tabular-nums; }}\n\
         th, td {{ border: 1px solid var(--grid); padding: 2px 8px; text-align: left;\n\
           font-size: 12.5px; }}\n\
         th {{ color: var(--ink-2); font-weight: 600; }}\n  td.num {{ text-align: right; }}\n\
         details {{ background: var(--surface); border: 1px solid var(--grid);\n\
           border-radius: 8px; padding: 4px 12px 8px; margin: 10px 0; }}\n\
         summary {{ cursor: pointer; }}\n\
         .legend {{ display: flex; gap: 14px; font-size: 12px; color: var(--ink-2);\n\
           margin: 2px 0 4px; flex-wrap: wrap; }}\n\
         .key {{ display: inline-flex; align-items: center; gap: 5px; }}\n\
         .chip {{ width: 10px; height: 10px; border-radius: 3px; display: inline-block; }}\n\
         svg text.tick {{ fill: var(--muted); font-size: 10px;\n\
           font-family: system-ui, sans-serif; }}\n\
         svg line.grid {{ stroke: var(--grid); stroke-width: 1; }}\n\
         svg line.axis {{ stroke: var(--axis); stroke-width: 1; }}\n\
         svg rect.bar {{ fill: var(--series-0); }}\n\
         svg line.whisker {{ stroke: var(--ink-2); stroke-width: 1.5; }}\n\
         svg rect.lanebg {{ fill: var(--grid); opacity: .45; }}\n\
         svg rect.utilbg {{ fill: var(--grid); }}\n\
         svg rect.utilbar {{ fill: var(--series-2); }}\n\
         .utilchip {{ background: var(--series-2); }}\n\
         {series_rules}\n\
         footer {{ color: var(--muted); font-size: 12px; margin-top: 28px; }}\n\
         </style>\n</head>\n<body>\n\
         <h1>Statistical Analysis of GPS — results dashboard</h1>\n\
         <p class=\"note\">Generated by <code>report</code> from committed\n\
         <code>results/</code> artifacts (CSV curves, metrics snapshots, manifests,\n\
         bench JSON). Deterministic: same inputs, same bytes.</p>\n\
         {body}\n\
         <footer>gps-qos results dashboard · static HTML, no scripts · sources:\n\
         results/*.csv, results/*_metrics.json, results/*_manifest.json,\n\
         results/bench_*.json</footer>\n</body>\n</html>\n",
        light = series_css(SERIES_LIGHT),
        dark = series_css(SERIES_DARK),
        series_rules = {
            let mut rules = String::new();
            for i in 0..SERIES_LIGHT.len() {
                let _ = write!(
                    rules,
                    "svg .s{i} {{ stroke: var(--series-{i}); }}\n\
                     svg circle.s{i} {{ fill: var(--series-{i}); stroke: var(--surface);\n\
                       stroke-width: 1; }}\n\
                     svg rect.f{i} {{ fill: var(--series-{i}); }}\n\
                     .s{i}bg {{ background: var(--series-{i}); }}\n"
                );
            }
            rules
        },
        body = body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn chart() -> CurveChart {
        CurveChart {
            title: "session 1 backlog".to_string(),
            x_label: "backlog b".to_string(),
            series: vec![
                CurveSeries {
                    label: "empirical".to_string(),
                    points: vec![(0.0, 1.0), (1.0, 0.1), (2.0, 0.01)],
                },
                CurveSeries {
                    label: "EBB bound".to_string(),
                    points: vec![(0.0, 1.0), (1.0, 0.5), (2.0, 0.2)],
                },
            ],
            log_y: true,
        }
    }

    #[test]
    fn svg_chart_has_lines_legend_and_tooltips() {
        let svg = svg_curve_chart(&chart());
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("class=\"legend\""));
        assert!(svg.contains("empirical"));
        assert!(svg.contains("<title>"));
        assert!(svg.contains("1e0")); // log decade tick
    }

    #[test]
    fn render_is_deterministic_and_escapes() {
        let d = Dashboard {
            charts: vec![chart()],
            campaigns: vec![CampaignSection {
                name: "validate_single".to_string(),
                manifest: Some(
                    json::parse(
                        "{\"campaign\":\"validate_single\",\"seed\":7,\
                         \"params\":{\"set\":\"Set<1>\"},\"outputs\":{\"a.csv\":10}}",
                    )
                    .unwrap(),
                ),
                metrics: Some(
                    json::parse(
                        "{\"counters\":{\"sim.measured_slots\":100},\"gauges\":{},\
                         \"histograms\":{},\"summaries\":{}}",
                    )
                    .unwrap(),
                ),
            }],
            benches: vec![BenchSuite {
                name: "simulators".to_string(),
                entries: vec![BenchEntry {
                    name: "slotted/4src".to_string(),
                    median_ns: 1.5e6,
                    p10_ns: 1.4e6,
                    p90_ns: 1.7e6,
                }],
            }],
            timelines: Vec::new(),
            admission: Some(
                json::parse(
                    "{\"capacity\":1,\"load\":0.56,\"sessions\":10,\"decisions\":40,\
                     \"admitted\":25,\"rejected\":5,\"departed\":10,\
                     \"cache\":{\"hits\":30,\"misses\":10,\"evictions\":0},\
                     \"classes\":[{\"class\":0,\"name\":\"voice<1>\",\"sessions\":4,\
                     \"headroom\":3,\"occupancy\":0.571}]}",
                )
                .unwrap(),
            ),
            overload: Some(OverloadPanel {
                scenario: "overload".to_string(),
                charts: vec![chart()],
                sessions: vec![
                    OverloadSession {
                        label: "session 1".to_string(),
                        throughput: 0.203,
                        guaranteed: 0.21,
                        attack: false,
                    },
                    OverloadSession {
                        label: "session 5".to_string(),
                        throughput: 0.047,
                        guaranteed: 0.06,
                        attack: true,
                    },
                ],
                shed: Some((0.905, 0.9)),
                orchestration: vec![("leases".to_string(), "7".to_string())],
            }),
            services: vec![json::parse(
                "{\"service\":\"admitd\",\"slo\":{\"service\":\"admitd\",\"now_s\":1,\
                     \"slos\":[{\"name\":\"avail<1>\",\"route\":null,\"objective\":0.999,\
                     \"latency_threshold_ns\":null,\"good\":90,\"bad\":10,\
                     \"budget_remaining\":0.2,\"breaches\":1,\
                     \"fast\":{\"seconds\":300,\"good\":90,\"bad\":10,\"burn_rate\":100,\
                     \"threshold\":14.4,\"breached\":true},\
                     \"slow\":{\"seconds\":3600,\"good\":90,\"bad\":10,\"burn_rate\":100,\
                     \"threshold\":6,\"breached\":false}}]},\
                     \"routes\":[{\"route\":\"/admit\",\"status\":200,\"count\":90}],\
                     \"latency\":[{\"route\":\"/admit\",\"count\":90,\"p50_ns\":63000,\
                     \"p90_ns\":90000,\"p99_ns\":120000,\"max_ns\":130000,\
                     \"buckets\":[[63000,45],[90000,40],[130000,5]]}]}",
            )
            .unwrap()],
        };
        let a = render(&d);
        let b = render(&d);
        assert_eq!(a, b);
        assert!(a.contains("Set&lt;1&gt;")); // escaped param value
        assert!(a.contains("sim.measured_slots"));
        assert!(a.contains("1.50 ms"));
        assert!(a.contains("bench: simulators"));
        assert!(a.contains("Admission control"));
        assert!(a.contains("cache.hit_ratio"));
        assert!(a.contains("voice&lt;1&gt;")); // class names are escaped
        assert!(a.contains("admissible region"));
        assert!(a.contains("Service health"));
        assert!(a.contains("admitd: request telemetry"));
        assert!(a.contains("Distributed overload campaign"));
        assert!(a.contains("attack ⚠"));
        assert!(a.contains("shed fraction: measured 0.905 (analytic 0.9)"));
        assert!(a.contains("orchestration"));
        assert!(a.contains("avail&lt;1&gt;")); // SLO names are escaped
        assert!(a.contains("100 ⚠")); // fast-window breach marker
        assert!(a.contains("error budget remaining"));
        assert!(a.contains("request latency CCDF"));
        assert!(a.contains("63.00 µs")); // p50 in readable units
        assert!(!a.contains("<script"));
    }

    fn sample_trace_doc() -> Json {
        json::parse(
            "{\"traceEvents\":[\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
              \"args\":{\"name\":\"main\"}},\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
              \"args\":{\"name\":\"worker-0\"}},\
             {\"name\":\"sim/campaign\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":0.0,\
              \"pid\":1,\"tid\":0,\"args\":{\"items\":0}},\
             {\"name\":\"chunk\",\"cat\":\"worker_chunk\",\"ph\":\"B\",\"ts\":10.5,\
              \"pid\":1,\"tid\":1,\"args\":{\"items\":4}},\
             {\"name\":\"chunk\",\"cat\":\"worker_chunk\",\"ph\":\"E\",\"ts\":60.5,\
              \"pid\":1,\"tid\":1},\
             {\"name\":\"checkpoint_write\",\"cat\":\"checkpoint_write\",\"ph\":\"i\",\
              \"ts\":61.0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"items\":0}},\
             {\"name\":\"sim/campaign\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":100.0,\
              \"pid\":1,\"tid\":0}],\
             \"displayTimeUnit\":\"ms\",\
             \"otherData\":{\"campaign\":\"demo\",\"dropped\":3}}",
        )
        .unwrap()
    }

    #[test]
    fn timeline_decodes_lanes_slices_and_drops() {
        let t = timeline_from_chrome_trace(&sample_trace_doc()).expect("timeline");
        assert_eq!(t.campaign, "demo");
        assert_eq!(t.dropped, 3);
        assert_eq!(t.lanes.len(), 2);
        assert_eq!(t.lanes[0].name, "main");
        assert_eq!(t.lanes[1].name, "worker-0");
        assert_eq!(t.lanes[0].slices.len(), 1);
        assert!((t.lanes[0].slices[0].dur_us - 100.0).abs() < 1e-9);
        let chunk = &t.lanes[1].slices[0];
        assert_eq!(chunk.name, "chunk");
        assert!((chunk.start_us - 10.5).abs() < 1e-9);
        assert!((chunk.dur_us - 50.0).abs() < 1e-9);
        assert!((t.span_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_rejects_counts_digest() {
        let counts = json::parse(
            "{\"trace\":\"counts\",\"campaign\":\"demo\",\"events\":[\
             {\"kind\":\"worker_chunk\",\"name\":\"chunk\",\"items\":640}]}",
        )
        .unwrap();
        assert!(timeline_from_chrome_trace(&counts).is_none());
    }

    #[test]
    fn timeline_svg_has_lanes_utilization_and_tooltips() {
        let t = timeline_from_chrome_trace(&sample_trace_doc()).unwrap();
        let svg = svg_trace_timeline(&t);
        assert_eq!(svg, svg_trace_timeline(&t), "renderer must be pure");
        assert!(svg.contains(">main</text>"));
        assert!(svg.contains(">worker-0</text>"));
        assert!(svg.contains("class=\"lanebg\""));
        assert!(svg.contains("class=\"utilbar\""));
        assert!(svg.contains("<title>chunk @"));
        // worker-0 is busy 50 µs of the 100 µs span.
        assert!(svg.contains(">50%</text>"), "missing utilization: {svg}");
        assert!(svg.contains("utilization"));
    }

    #[test]
    fn dashboard_renders_timeline_section() {
        let t = timeline_from_chrome_trace(&sample_trace_doc()).unwrap();
        let html = render(&Dashboard {
            timelines: vec![t],
            ..Dashboard::default()
        });
        assert!(html.contains("Flight-recorder timelines"));
        assert!(html.contains("demo: worker timeline (3 events dropped"));
        assert!(html.contains("rect.f0"));
    }

    #[test]
    fn empty_dashboard_still_renders() {
        let html = render(&Dashboard::default());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("</html>"));
    }

    #[test]
    fn number_formats() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(2.5), "2.5");
        assert_eq!(fmt_num(1234.0), "1234.0");
        assert_eq!(fmt_num(0.0001), "1.00e-4");
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2.5e3), "2.50 µs");
        assert_eq!(fmt_ns(3.2e9), "3.20 s");
    }
}
