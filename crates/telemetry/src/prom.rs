//! Prometheus text-format snapshot exporter.
//!
//! Renders one or more sessions' telemetry summaries — optionally with
//! their attribution and SLO verdicts — in the Prometheus exposition
//! format (text/plain version 0.0.4), so standard scrape-file tooling and
//! dashboards can ingest a simulated run. This is a *snapshot* exporter:
//! the simulator has no live endpoint, so the intended flow is writing
//! the rendering to a file (e.g. for the node-exporter textfile
//! collector, or offline promtool analysis).
//!
//! Every family is emitted in a fixed order with samples sorted by the
//! enum declaration orders, and all numbers come from modeled state, so
//! the output is byte-identical across reruns and worker counts.

use crate::attribution::SessionAttribution;
use crate::hist::Exemplar;
use crate::json::json_f64;
use crate::sampling::SessionExemplars;
use crate::slo::SloSummary;
use crate::summary::TelemetrySummary;
use crate::timeseries::SeriesSet;
use crate::{Counter, Gauge};
use std::fmt::Write as _;

/// One session's exportable state.
#[derive(Debug, Clone, Copy)]
pub struct PromSession<'a> {
    /// Value of the `session` label on every sample (keep it short and
    /// stable; the full telemetry label is too noisy for a label value).
    pub name: &'a str,
    /// Aggregated telemetry.
    pub summary: &'a TelemetrySummary,
    /// Deadline-miss attribution, when computed.
    pub attribution: Option<&'a SessionAttribution>,
    /// SLO standings, when computed.
    pub slo: Option<&'a SloSummary>,
    /// Trace-linked exemplars over the session's retained trace, when a
    /// sampling sink collected them (see [`crate::compute_exemplars`]).
    /// Only rendered when [`PromOptions::exemplars`] is on.
    pub exemplars: Option<&'a SessionExemplars>,
}

/// Rendering options for [`render_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PromOptions {
    /// Append OpenMetrics-style `# {trace_id="…"} value` exemplar
    /// annotations to p99 latency and worst-case gauge lines. Off by
    /// default: the annotation is an OpenMetrics extension that plain
    /// Prometheus text-format parsers treat as a syntax error.
    pub exemplars: bool,
}

/// Escapes a Prometheus label value. The exposition format requires `\\`,
/// `\"` and `\n` escapes inside quoted label values — a raw newline would
/// split the sample line and corrupt the whole exposition.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a sample value: finite floats via the shared deterministic
/// float formatting, non-finite as `NaN` (which Prometheus accepts).
fn value(v: f64) -> String {
    if v.is_finite() {
        json_f64(v)
    } else {
        "NaN".to_owned()
    }
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Formats the OpenMetrics exemplar suffix appended to an annotated sample
/// line: `` # {trace_id="0x…"} value``. [`parse_exemplar`] inverts this
/// byte-exactly.
pub fn format_exemplar(e: Exemplar) -> String {
    format!(" # {{trace_id=\"0x{:x}\"}} {}", e.trace_id, value(e.value))
}

/// Parses an exemplar annotation off a sample line, returning the trace id
/// and exemplar value when the line carries one. Round-trips with
/// [`format_exemplar`]: re-formatting the parse reproduces the suffix.
pub fn parse_exemplar(line: &str) -> Option<Exemplar> {
    let (_, suffix) = line.split_once(" # {trace_id=\"0x")?;
    let (hex, rest) = suffix.split_once('"')?;
    let trace_id = u64::from_str_radix(hex, 16).ok()?;
    let value: f64 = rest.strip_prefix("} ")?.parse().ok()?;
    Some(Exemplar { trace_id, value })
}

/// Renders the sessions as one Prometheus text exposition with default
/// options (no exemplar annotations — plain-parser safe).
pub fn render(sessions: &[PromSession<'_>]) -> String {
    render_opts(sessions, PromOptions::default())
}

/// [`render`] with explicit [`PromOptions`]. With exemplars enabled, p99
/// stage-latency lines and worst-case (`stat="max"`) gauge lines gain a
/// `# {trace_id="…"}` suffix linking into the retained Chrome trace.
pub fn render_opts(sessions: &[PromSession<'_>], opts: PromOptions) -> String {
    let mut out = String::new();

    family(
        &mut out,
        "gss_frames_total",
        "counter",
        "Frames completed by the session.",
    );
    for s in sessions {
        let _ = writeln!(
            out,
            "gss_frames_total{{session=\"{}\"}} {}",
            escape_label(s.name),
            s.summary.frames
        );
    }

    family(
        &mut out,
        "gss_deadline_misses_total",
        "counter",
        "Frames whose upscaling critical path exceeded the real-time budget.",
    );
    for s in sessions {
        let _ = writeln!(
            out,
            "gss_deadline_misses_total{{session=\"{}\"}} {}",
            escape_label(s.name),
            s.summary.deadline_misses
        );
    }

    family(
        &mut out,
        "gss_counter_total",
        "counter",
        "Monotonic telemetry counters, keyed by counter label.",
    );
    for s in sessions {
        for c in Counter::ALL {
            let _ = writeln!(
                out,
                "gss_counter_total{{session=\"{}\",counter=\"{}\"}} {}",
                escape_label(s.name),
                c.label(),
                s.summary.counter(c)
            );
        }
    }

    family(
        &mut out,
        "gss_gauge",
        "gauge",
        "Sampled telemetry gauges (last/min/max/mean over the session).",
    );
    for s in sessions {
        for g in Gauge::ALL {
            if let Some(stats) = s.summary.gauge(g) {
                if stats.count == 0 {
                    continue;
                }
                let mean = stats.mean().unwrap_or(f64::NAN);
                for (stat, v) in [
                    ("last", stats.last),
                    ("min", stats.min),
                    ("max", stats.max),
                    ("mean", mean),
                ] {
                    // The worst-frame exemplar annotates the worst-case
                    // (max) line: that is the sample it identifies.
                    let exemplar = if opts.exemplars && stat == "max" {
                        s.exemplars
                            .and_then(|e| e.worst_frame)
                            .map(format_exemplar)
                            .unwrap_or_default()
                    } else {
                        String::new()
                    };
                    let _ = writeln!(
                        out,
                        "gss_gauge{{session=\"{}\",gauge=\"{}\",stat=\"{stat}\"}} {}{exemplar}",
                        escape_label(s.name),
                        g.label(),
                        value(v)
                    );
                }
            }
        }
    }

    family(
        &mut out,
        "gss_stage_latency_ms",
        "gauge",
        "Per-stage latency distribution quantiles, modeled ms.",
    );
    for s in sessions {
        for st in &s.summary.stages {
            for (q, v) in [
                ("0.5", st.dist.p50),
                ("0.9", st.dist.p90),
                ("0.95", st.dist.p95),
                ("0.99", st.dist.p99),
            ] {
                // The per-stage exemplar is the worst retained sample,
                // which lives in the p99 bucket — see `hist::Exemplar`.
                let exemplar = if opts.exemplars && q == "0.99" {
                    s.exemplars
                        .and_then(|e| e.stage(st.stage))
                        .map(format_exemplar)
                        .unwrap_or_default()
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "gss_stage_latency_ms{{session=\"{}\",stage=\"{}\",quantile=\"{q}\"}} {}{exemplar}",
                    escape_label(s.name),
                    st.stage.label(),
                    value(v)
                );
            }
        }
    }
    family(
        &mut out,
        "gss_stage_latency_samples_total",
        "counter",
        "Samples behind each stage latency distribution.",
    );
    for s in sessions {
        for st in &s.summary.stages {
            let _ = writeln!(
                out,
                "gss_stage_latency_samples_total{{session=\"{}\",stage=\"{}\"}} {}",
                escape_label(s.name),
                st.stage.label(),
                st.dist.count
            );
        }
    }

    family(
        &mut out,
        "gss_miss_cause_total",
        "counter",
        "Deadline misses attributed to each root cause.",
    );
    for s in sessions {
        if let Some(a) = s.attribution {
            for b in &a.blame {
                let _ = writeln!(
                    out,
                    "gss_miss_cause_total{{session=\"{}\",cause=\"{}\"}} {}",
                    escape_label(s.name),
                    b.cause.label(),
                    b.misses
                );
            }
        }
    }
    family(
        &mut out,
        "gss_miss_overrun_ms_total",
        "counter",
        "Total budget overrun attributed to each root cause, modeled ms.",
    );
    for s in sessions {
        if let Some(a) = s.attribution {
            for b in &a.blame {
                let _ = writeln!(
                    out,
                    "gss_miss_overrun_ms_total{{session=\"{}\",cause=\"{}\"}} {}",
                    escape_label(s.name),
                    b.cause.label(),
                    value(b.total_overrun_ms)
                );
            }
        }
    }
    family(
        &mut out,
        "gss_miss_attributed_fraction",
        "gauge",
        "Fraction of deadline misses assigned a non-unknown cause.",
    );
    for s in sessions {
        if let Some(a) = s.attribution {
            let _ = writeln!(
                out,
                "gss_miss_attributed_fraction{{session=\"{}\"}} {}",
                escape_label(s.name),
                value(a.attributed_fraction())
            );
        }
    }

    family(
        &mut out,
        "gss_slo_breaches_total",
        "counter",
        "Times each objective entered breach.",
    );
    for s in sessions {
        if let Some(slo) = s.slo {
            for o in &slo.objectives {
                let _ = writeln!(
                    out,
                    "gss_slo_breaches_total{{session=\"{}\",slo=\"{}\"}} {}",
                    escape_label(s.name),
                    escape_label(&o.name),
                    o.breaches
                );
            }
        }
    }
    family(
        &mut out,
        "gss_slo_burn_rate_max",
        "gauge",
        "Worst burn rate each objective saw, by window.",
    );
    for s in sessions {
        if let Some(slo) = s.slo {
            for o in &slo.objectives {
                for (window, v) in [("fast", o.max_fast_burn), ("slow", o.max_slow_burn)] {
                    let _ = writeln!(
                        out,
                        "gss_slo_burn_rate_max{{session=\"{}\",slo=\"{}\",window=\"{window}\"}} {}",
                        escape_label(s.name),
                        escape_label(&o.name),
                        value(v)
                    );
                }
            }
        }
    }
    family(
        &mut out,
        "gss_slo_breached",
        "gauge",
        "Whether each objective was in breach at session end (0/1).",
    );
    for s in sessions {
        if let Some(slo) = s.slo {
            for o in &slo.objectives {
                let _ = writeln!(
                    out,
                    "gss_slo_breached{{session=\"{}\",slo=\"{}\"}} {}",
                    escape_label(s.name),
                    escape_label(&o.name),
                    u8::from(o.breached)
                );
            }
        }
    }

    out
}

/// Fleet-level exportable state: the per-tick series set plus the anomaly
/// and knee verdicts the fleet loop derived from it.
#[derive(Debug, Clone, Copy)]
pub struct PromFleet<'a> {
    /// Value of the `fleet` label on every sample.
    pub name: &'a str,
    /// Fleet time series (active sessions, fairness, latency, …).
    pub series: &'a SeriesSet,
    /// `(detector label, episode count)` pairs, in a fixed caller order.
    pub anomalies: &'a [(&'a str, u64)],
    /// First tick where fairness or the latency budget gave way, if any.
    pub knee_tick: Option<u64>,
}

/// Renders a fleet snapshot as a Prometheus text exposition: per-series
/// `min`/`max`/`last` summary gauges with sample counts, anomaly episode
/// counters, and the knee tick (−1 when the run never kneeled). Same
/// determinism contract as [`render`]: fixed family order, insertion-order
/// series, modeled values only.
pub fn render_fleet(fleet: &PromFleet<'_>) -> String {
    let mut out = String::new();
    let name = escape_label(fleet.name);

    family(
        &mut out,
        "gss_fleet_series",
        "gauge",
        "Fleet time-series summary statistics (min/max/last over the run).",
    );
    for s in fleet.series.iter() {
        for (stat, v) in [
            ("min", s.min().unwrap_or(f64::NAN)),
            ("max", s.max().unwrap_or(f64::NAN)),
            ("last", s.last().unwrap_or(f64::NAN)),
        ] {
            let _ = writeln!(
                out,
                "gss_fleet_series{{fleet=\"{name}\",series=\"{}\",stat=\"{stat}\"}} {}",
                escape_label(s.name()),
                value(v)
            );
        }
    }
    family(
        &mut out,
        "gss_fleet_series_samples_total",
        "counter",
        "Per-tick samples folded into each fleet series.",
    );
    for s in fleet.series.iter() {
        let _ = writeln!(
            out,
            "gss_fleet_series_samples_total{{fleet=\"{name}\",series=\"{}\"}} {}",
            escape_label(s.name()),
            s.samples()
        );
    }
    family(
        &mut out,
        "gss_fleet_anomalies_total",
        "counter",
        "Streaming anomaly-detector episodes, by detector kind.",
    );
    for (kind, count) in fleet.anomalies {
        let _ = writeln!(
            out,
            "gss_fleet_anomalies_total{{fleet=\"{name}\",kind=\"{}\"}} {count}",
            escape_label(kind)
        );
    }
    family(
        &mut out,
        "gss_fleet_knee_tick",
        "gauge",
        "First tick where fairness < 0.9 or fleet p99 missed budget (-1: never).",
    );
    let knee = fleet.knee_tick.map_or(-1.0, |t| t as f64);
    let _ = writeln!(
        out,
        "gss_fleet_knee_tick{{fleet=\"{name}\"}} {}",
        value(knee)
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Stage};

    fn summary() -> TelemetrySummary {
        let mut rec = Recorder::new("test".to_owned(), crate::REALTIME_BUDGET_MS);
        for i in 0..4u64 {
            rec.begin_frame(i);
            rec.record_span(Stage::NpuSr, i as f64 * 16.67, 4.0);
            rec.gauge(Gauge::LadderRung, 1.0);
            rec.incr(Counter::FramesEncoded);
            rec.end_frame(12.0, 4.0, 1000);
        }
        rec.finish()
    }

    #[test]
    fn renders_a_parseable_snapshot() {
        let s = summary();
        let text = render(&[PromSession {
            name: "controller",
            summary: &s,
            attribution: None,
            slo: None,
            exemplars: None,
        }]);
        assert!(text.contains("gss_frames_total{session=\"controller\"} 4"));
        assert!(text.contains("# TYPE gss_counter_total counter"));
        assert!(
            text.contains("gss_counter_total{session=\"controller\",counter=\"frames-encoded\"} 4")
        );
        assert!(text.contains(
            "gss_stage_latency_ms{session=\"controller\",stage=\"npu-sr\",quantile=\"0.99\"}"
        ));
        // every non-comment line is `name{labels} value`
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (metric, v) = line.rsplit_once(' ').expect("sample has a value");
            assert!(metric.contains('{') && metric.ends_with('}'), "{line}");
            assert!(
                v == "NaN" || v.parse::<f64>().is_ok(),
                "value must parse: {line}"
            );
        }
    }

    #[test]
    fn rendering_is_deterministic_and_escapes_labels() {
        let s = summary();
        let sess = [PromSession {
            name: "a\"b\\c",
            summary: &s,
            attribution: None,
            slo: None,
            exemplars: None,
        }];
        let a = render(&sess);
        assert_eq!(a, render(&sess));
        assert!(a.contains("session=\"a\\\"b\\\\c\""));
    }

    /// Satellite regression: a raw newline in a label value would split the
    /// sample line and corrupt the exposition; it must render as `\n`.
    #[test]
    fn escape_label_escapes_newlines() {
        assert_eq!(escape_label("a\nb"), "a\\nb");
        assert_eq!(escape_label("x\\y\"z\n"), "x\\\\y\\\"z\\n");
        let s = summary();
        let sess = [PromSession {
            name: "line\nbreak",
            summary: &s,
            attribution: None,
            slo: None,
            exemplars: None,
        }];
        let text = render(&sess);
        assert!(text.contains("session=\"line\\nbreak\""));
        // every non-comment line still parses as `name{labels} value`
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (metric, v) = line.rsplit_once(' ').expect("sample has a value");
            assert!(metric.contains('{') && metric.ends_with('}'), "{line}");
            assert!(v == "NaN" || v.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn exemplar_annotations_render_behind_the_flag_and_round_trip() {
        let s = summary();
        let exemplars = SessionExemplars {
            label: "test".to_owned(),
            pid: 1,
            worst_frame: Some(Exemplar {
                trace_id: 1_000_003,
                value: 12.0,
            }),
            stages: vec![(
                Stage::NpuSr,
                Exemplar {
                    trace_id: 1_000_002,
                    value: 4.0,
                },
            )],
        };
        let sess = [PromSession {
            name: "controller",
            summary: &s,
            attribution: None,
            slo: None,
            exemplars: Some(&exemplars),
        }];
        // Flag off: byte-identical to a session without exemplars, so the
        // default stays plain-parser safe.
        let plain = render(&sess);
        assert!(!plain.contains("# {trace_id="));

        let annotated = render_opts(&sess, PromOptions { exemplars: true });
        let p99_line = annotated
            .lines()
            .find(|l| l.contains("stage=\"npu-sr\",quantile=\"0.99\""))
            .expect("p99 line present");
        let e = parse_exemplar(p99_line).expect("p99 line carries an exemplar");
        assert_eq!(e.trace_id, 1_000_002);
        assert_eq!(e.value, 4.0);
        // round trip: re-formatting the parse reproduces the suffix bytes
        assert!(p99_line.ends_with(&format_exemplar(e)), "{p99_line}");

        let max_line = annotated
            .lines()
            .find(|l| l.contains("gss_gauge{") && l.contains("stat=\"max\""))
            .expect("gauge max line present");
        let w = parse_exemplar(max_line).expect("gauge max line carries an exemplar");
        assert_eq!(w.trace_id, 1_000_003);
        assert!(max_line.ends_with(&format_exemplar(w)));

        // unannotated lines parse as no-exemplar
        assert_eq!(parse_exemplar("gss_frames_total{session=\"x\"} 4"), None);
        // quantiles below p99 stay clean even with the flag on
        for line in annotated.lines() {
            if line.contains("quantile=\"0.5\"") {
                assert_eq!(parse_exemplar(line), None, "{line}");
            }
        }
    }

    #[test]
    fn fleet_snapshot_renders_series_anomalies_and_knee() {
        let mut series = SeriesSet::new(16);
        for tick in 0..10u64 {
            series.push("active-sessions", tick, (tick % 4) as f64);
            series.push("fairness-jain", tick, 1.0 - tick as f64 * 0.02);
        }
        let fleet = PromFleet {
            name: "storm",
            series: &series,
            anomalies: &[("rung-flap", 2), ("starvation", 1), ("admission-storm", 1)],
            knee_tick: Some(7),
        };
        let text = render_fleet(&fleet);
        assert_eq!(text, render_fleet(&fleet), "snapshot must be deterministic");
        assert!(text.contains(
            "gss_fleet_series{fleet=\"storm\",series=\"active-sessions\",stat=\"max\"} 3"
        ));
        assert!(text.contains(
            "gss_fleet_series_samples_total{fleet=\"storm\",series=\"fairness-jain\"} 10"
        ));
        assert!(text.contains("gss_fleet_anomalies_total{fleet=\"storm\",kind=\"starvation\"} 1"));
        assert!(text.contains("gss_fleet_knee_tick{fleet=\"storm\"} 7"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (metric, v) = line.rsplit_once(' ').expect("sample has a value");
            assert!(metric.contains('{') && metric.ends_with('}'), "{line}");
            assert!(v == "NaN" || v.parse::<f64>().is_ok(), "{line}");
        }
        // a kneeless run exports the -1 sentinel
        let calm = PromFleet {
            knee_tick: None,
            ..fleet
        };
        assert!(render_fleet(&calm).contains("gss_fleet_knee_tick{fleet=\"storm\"} -1"));
    }
}
