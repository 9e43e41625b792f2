//! Aggregate session summaries: the durable output of a recorder.
//!
//! [`TelemetrySummary`] is what rides on `SessionReport`: per-stage latency
//! distributions, the whole-frame motion-to-photon distribution, per-frame
//! wire bytes, counters and gauges, and deadline-miss accounting. It
//! renders either as a human-readable table ([`TelemetrySummary::table`])
//! or as deterministic JSON ([`TelemetrySummary::to_json`]) — two runs with
//! identical inputs produce byte-identical JSON, which the test-suite
//! relies on.

use std::fmt::Write as _;

use crate::hist::DistSummary;
use crate::json::{json_escape, json_f64};
use crate::{Counter, Gauge, GaugeStat, Stage};

/// Latency distribution of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct StageSummary {
    /// Which stage.
    pub stage: Stage,
    /// Its per-frame duration distribution, in milliseconds.
    pub dist: DistSummary,
}

/// Final value of one counter.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CounterSummary {
    /// Which counter.
    pub counter: Counter,
    /// Its value at session end.
    pub value: u64,
}

/// Aggregated observations of one gauge.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct GaugeSummary {
    /// Which gauge.
    pub gauge: Gauge,
    /// last/min/max/mean statistics over its observations.
    pub stats: GaugeStat,
}

/// Aggregate telemetry for one session.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TelemetrySummary {
    /// Session label (e.g. `"ours @ S8 Tab (wifi)"`).
    pub label: String,
    /// Frames completed.
    pub frames: u64,
    /// Per-frame deadline budget, in milliseconds.
    pub budget_ms: f64,
    /// Frames whose motion-to-photon latency exceeded the budget.
    pub deadline_misses: u64,
    /// Per-stage latency distributions, in [`Stage::ALL`] order; stages
    /// that never recorded a sample are omitted.
    pub stages: Vec<StageSummary>,
    /// Whole-frame motion-to-photon latency distribution.
    pub mtp_ms: Option<DistSummary>,
    /// Per-frame wire-byte distribution.
    pub frame_bytes: Option<DistSummary>,
    /// Non-zero counters, in [`Counter::ALL`] order.
    pub counters: Vec<CounterSummary>,
    /// Observed gauges, in [`Gauge::ALL`] order.
    pub gauges: Vec<GaugeSummary>,
}

/// An empty-session placeholder used where a report field is mandatory but
/// telemetry was not enabled.
impl Default for TelemetrySummary {
    fn default() -> Self {
        TelemetrySummary {
            label: String::new(),
            frames: 0,
            budget_ms: 0.0,
            deadline_misses: 0,
            stages: Vec::new(),
            mtp_ms: None,
            frame_bytes: None,
            counters: Vec::new(),
            gauges: Vec::new(),
        }
    }
}

pub(crate) fn dist_json(d: &DistSummary) -> String {
    format!(
        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"below_range\":{},\"above_range\":{},\"rejected\":{}}}",
        d.count,
        json_f64(d.min),
        json_f64(d.max),
        json_f64(d.mean),
        json_f64(d.p50),
        json_f64(d.p90),
        json_f64(d.p95),
        json_f64(d.p99),
        d.below_range,
        d.above_range,
        d.rejected
    )
}

impl TelemetrySummary {
    /// The summary for `stage`, if it recorded any samples.
    pub fn stage(&self, stage: Stage) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// The final value of `counter` (0 when never incremented).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|c| c.counter == counter)
            .map_or(0, |c| c.value)
    }

    /// The statistics of `gauge`, if it was ever observed.
    pub fn gauge(&self, gauge: Gauge) -> Option<GaugeStat> {
        self.gauges
            .iter()
            .find(|g| g.gauge == gauge)
            .map(|g| g.stats)
    }

    /// Fraction of frames that missed the deadline, in `[0, 1]`.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.frames as f64
        }
    }

    /// Renders the summary as deterministic single-line JSON: identical
    /// session inputs produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"frames\":{},\"budget_ms\":{},\"deadline_misses\":{}",
            json_escape(&self.label),
            self.frames,
            json_f64(self.budget_ms),
            self.deadline_misses
        );
        out.push_str(",\"stages\":{");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", s.stage.label(), dist_json(&s.dist));
        }
        out.push('}');
        match &self.mtp_ms {
            Some(d) => {
                let _ = write!(out, ",\"mtp_ms\":{}", dist_json(d));
            }
            None => out.push_str(",\"mtp_ms\":null"),
        }
        match &self.frame_bytes {
            Some(d) => {
                let _ = write!(out, ",\"frame_bytes\":{}", dist_json(d));
            }
            None => out.push_str(",\"frame_bytes\":null"),
        }
        out.push_str(",\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.counter.label(), c.value);
        }
        out.push('}');
        out.push_str(",\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mean = match g.stats.mean() {
                Some(m) => json_f64(m),
                None => "null".to_owned(),
            };
            let _ = write!(
                out,
                "\"{}\":{{\"last\":{},\"min\":{},\"max\":{},\"mean\":{},\"count\":{}}}",
                g.gauge.label(),
                json_f64(g.stats.last),
                json_f64(g.stats.min),
                json_f64(g.stats.max),
                mean,
                g.stats.count
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders the summary as a human-readable aligned table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {}  frames {}  budget {:.2} ms  misses {} ({:.1}%)",
            if self.label.is_empty() {
                "(unlabelled)"
            } else {
                &self.label
            },
            self.frames,
            self.budget_ms,
            self.deadline_misses,
            self.deadline_miss_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}",
            "stage", "count", "p50", "p90", "p95", "p99", "max", "under/over"
        );
        let mut row = |name: &str, d: &DistSummary| {
            let overflow = if d.below_range == 0 && d.above_range == 0 && d.rejected == 0 {
                "-".to_owned()
            } else if d.rejected == 0 {
                format!("{}/{}", d.below_range, d.above_range)
            } else {
                format!("{}/{} !{}", d.below_range, d.above_range, d.rejected)
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>11}",
                name, d.count, d.p50, d.p90, d.p95, d.p99, d.max, overflow
            );
        };
        for s in &self.stages {
            row(s.stage.label(), &s.dist);
        }
        if let Some(d) = &self.mtp_ms {
            row("mtp (ms)", d);
        }
        if let Some(d) = &self.frame_bytes {
            row("frame bytes", d);
        }
        if !self.counters.is_empty() {
            let parts: Vec<String> = self
                .counters
                .iter()
                .map(|c| format!("{} {}", c.counter.label(), c.value))
                .collect();
            let _ = writeln!(out, "  counters: {}", parts.join(", "));
        }
        if !self.gauges.is_empty() {
            let parts: Vec<String> = self
                .gauges
                .iter()
                .map(|g| {
                    let mean = match g.stats.mean() {
                        Some(m) => format!("{m:.1}"),
                        None => "—".to_owned(),
                    };
                    format!("{} last {:.1} mean {}", g.gauge.label(), g.stats.last, mean)
                })
                .collect();
            let _ = writeln!(out, "  gauges: {}", parts.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> TelemetrySummary {
        let dist = DistSummary {
            count: 4,
            min: 1.0,
            max: 4.0,
            mean: 2.5,
            p50: 2.0,
            p90: 4.0,
            p95: 4.0,
            p99: 4.0,
            below_range: 0,
            above_range: 1,
            rejected: 0,
        };
        TelemetrySummary {
            label: "ours @ test".to_owned(),
            frames: 4,
            budget_ms: 16.67,
            deadline_misses: 1,
            stages: vec![StageSummary {
                stage: Stage::Render,
                dist,
            }],
            mtp_ms: Some(dist),
            frame_bytes: Some(dist),
            counters: vec![CounterSummary {
                counter: Counter::FramesEncoded,
                value: 4,
            }],
            gauges: vec![GaugeSummary {
                gauge: Gauge::RoiAreaPx,
                stats: GaugeStat {
                    last: 2.0,
                    min: 1.0,
                    max: 2.0,
                    sum: 3.0,
                    count: 2,
                },
            }],
        }
    }

    #[test]
    fn accessors_find_entries() {
        let s = sample_summary();
        assert!(s.stage(Stage::Render).is_some());
        assert!(s.stage(Stage::Decode).is_none());
        assert_eq!(s.counter(Counter::FramesEncoded), 4);
        assert_eq!(s.counter(Counter::Nacks), 0);
        assert_eq!(s.gauge(Gauge::RoiAreaPx).unwrap().count, 2);
        assert_eq!(s.deadline_miss_rate(), 0.25);
    }

    #[test]
    fn json_is_single_line_and_contains_all_sections() {
        let json = sample_summary().to_json();
        assert!(!json.contains('\n'));
        for key in [
            "\"label\":",
            "\"stages\":",
            "\"mtp_ms\":",
            "\"frame_bytes\":",
            "\"counters\":",
            "\"gauges\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"render\":{\"count\":4"));
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample_summary().to_json(), sample_summary().to_json());
    }

    #[test]
    fn table_lists_stages_and_counters() {
        let table = sample_summary().table();
        assert!(table.contains("render"));
        assert!(table.contains("mtp (ms)"));
        assert!(table.contains("frames-encoded 4"));
        assert!(table.contains("misses 1 (25.0%)"));
        // overflow column: header plus the sample's one above-range clamp
        assert!(table.contains("under/over"));
        assert!(table.contains("0/1"));
    }

    #[test]
    fn json_carries_overflow_and_rejection_counts() {
        let json = sample_summary().to_json();
        assert!(json.contains("\"below_range\":0"));
        assert!(json.contains("\"above_range\":1"));
        assert!(json.contains("\"rejected\":0"));
    }

    #[test]
    fn empty_gauge_renders_null_and_em_dash() {
        let mut s = sample_summary();
        s.gauges[0].stats = GaugeStat::default();
        assert!(
            s.to_json().contains("\"mean\":null"),
            "empty gauge mean must serialize as null, not 0"
        );
        assert!(
            s.table().contains("mean —"),
            "empty gauge mean must render as an em dash"
        );
    }

    #[test]
    fn default_summary_is_empty() {
        let s = TelemetrySummary::default();
        assert_eq!(s.frames, 0);
        assert_eq!(s.deadline_miss_rate(), 0.0);
        assert!(s.to_json().contains("\"mtp_ms\":null"));
    }
}
