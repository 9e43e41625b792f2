//! Deadline-miss root-cause attribution over the causal frame trace.
//!
//! A deadline miss recorded by the session is a single boolean; triage
//! needs to know *what ate the budget*. This module replays a completed
//! [`TraceSession`] — the per-frame causal span tree plus its instant
//! markers — and assigns every missed frame to a cause from a small
//! taxonomy ([`MissCause`]):
//!
//! - Stage spans are compared against a rolling per-stage baseline (an
//!   exponential moving average fed only by healthy frames), so "the NPU
//!   pass was 3× its usual cost" is judged relative to what this session
//!   normally does at its current ladder rung, not a fixed table.
//! - Fault instants carry the active fault set across frames, so a miss
//!   that coincides with an `npu-throttle` window is blamed on the
//!   throttle rather than on the SR pass being intrinsically slow.
//! - Ladder-shift instants give the pass hindsight: a miss while the
//!   degradation controller is still mid-descent is `LadderLag` (the
//!   ladder had not yet caught up with the fault), distinct from
//!   `NpuThrottle` (the ladder had nothing left to give).
//!
//! Frozen display slots never miss the upscaling deadline (there is
//! nothing to upscale), so stalls are attributed separately from drop
//! instants: the ledger distinguishes outage stalls from queue-overflow
//! stalls and reports the longest run per cause.
//!
//! Everything is computed from modeled timestamps, so attribution of the
//! same session is byte-identical across reruns and worker counts.

use crate::hist::{DistSummary, Histogram};
use crate::json::{json_escape, json_f64};
use crate::summary::dist_json;
use crate::trace::{TraceFrame, TraceSession, UPSCALE_SPAN};
use crate::{InstantKind, Stage};

/// Root causes a missed deadline (or a frozen stall) can be blamed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum MissCause {
    /// NPU thermal throttle inflated the SR pass beyond the budget.
    NpuThrottle,
    /// A scripted link outage starved the client.
    NetOutage,
    /// A latency jitter spike inflated the transfer beyond its baseline.
    JitterSpike,
    /// The bottleneck queue overflowed and tail-dropped the frame.
    QueueOverflow,
    /// A decoder stall inflated the decode stage beyond its baseline.
    DecoderStall,
    /// The hardware decoder crashed: the frame missed (or froze) while the
    /// recovery state machine was draining, reconfiguring or waiting for a
    /// keyframe resync.
    DecoderCrash,
    /// The SR pass overran the budget with no fault active — the
    /// configuration is intrinsically too slow for the deadline.
    SrOverrun,
    /// The degradation ladder was still descending when the frame missed:
    /// the fault was survivable, the reaction was late.
    LadderLag,
    /// Worker-pool load imbalance. Reserved: the modeled trace timestamps
    /// are scheduling-independent by construction, so this cause can only
    /// be assigned from wall-clock pool accounting (see the collapsed-stack
    /// exporter), never from a trace replay.
    PoolImbalance,
    /// No cause matched — the miss needs a human.
    Unknown,
}

impl MissCause {
    /// Number of causes.
    pub const COUNT: usize = 10;

    /// All causes, in declaration order.
    pub const ALL: [MissCause; MissCause::COUNT] = [
        MissCause::NpuThrottle,
        MissCause::NetOutage,
        MissCause::JitterSpike,
        MissCause::QueueOverflow,
        MissCause::DecoderStall,
        MissCause::DecoderCrash,
        MissCause::SrOverrun,
        MissCause::LadderLag,
        MissCause::PoolImbalance,
        MissCause::Unknown,
    ];

    /// Stable array index of this cause.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Kebab-case label used in reports and metrics. Causes that mirror a
    /// scripted fault reuse the fault's label, so traces and blame tables
    /// correlate textually.
    pub fn label(self) -> &'static str {
        match self {
            MissCause::NpuThrottle => "npu-throttle",
            MissCause::NetOutage => "net-outage",
            MissCause::JitterSpike => "jitter-spike",
            MissCause::QueueOverflow => "queue-overflow",
            MissCause::DecoderStall => "decoder-stall",
            MissCause::DecoderCrash => "decoder-crash",
            MissCause::SrOverrun => "sr-overrun",
            MissCause::LadderLag => "ladder-lag",
            MissCause::PoolImbalance => "pool-imbalance",
            MissCause::Unknown => "unknown",
        }
    }
}

/// One attributed deadline miss.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MissRecord {
    /// Frame index within the session.
    pub frame: u64,
    /// Session-clock timestamp of the miss, modeled ms.
    pub ts_ms: f64,
    /// How far past the budget the critical path ran, ms.
    pub overrun_ms: f64,
    /// Assigned root cause.
    pub cause: MissCause,
    /// Evidence the verdict rests on (spans vs baselines, active faults).
    pub detail: String,
}

/// Aggregate blame for one cause.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BlameEntry {
    /// The cause.
    pub cause: MissCause,
    /// Misses blamed on it.
    pub misses: u64,
    /// Total budget overrun across those misses, ms.
    pub total_overrun_ms: f64,
    /// Frame with the largest overrun.
    pub worst_frame: u64,
    /// That frame's overrun, ms.
    pub worst_overrun_ms: f64,
    /// Distribution of the overruns (geometric-bucket histogram summary).
    pub overrun: Option<DistSummary>,
}

/// Aggregate ledger for frozen display slots blamed on one cause.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct StallEntry {
    /// The cause.
    pub cause: MissCause,
    /// Frozen frames blamed on it.
    pub frames: u64,
    /// Longest consecutive frozen run blamed on it, frames.
    pub longest_run: u64,
}

/// The full attribution verdict for one session.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct SessionAttribution {
    /// Session label (pipeline | device | link).
    pub label: String,
    /// Frames in the session.
    pub frames: u64,
    /// Deadline misses found in the trace.
    pub misses: u64,
    /// Per-cause blame table, [`MissCause::ALL`] order, causes with at
    /// least one miss only.
    pub blame: Vec<BlameEntry>,
    /// Frozen-slot ledger, [`MissCause::ALL`] order, causes with at least
    /// one frozen frame only.
    pub stalls: Vec<StallEntry>,
    /// Every miss in frame order, with evidence.
    pub records: Vec<MissRecord>,
}

impl SessionAttribution {
    /// Misses assigned a non-[`MissCause::Unknown`] cause.
    pub fn attributed(&self) -> u64 {
        self.misses
            - self
                .blame
                .iter()
                .find(|b| b.cause == MissCause::Unknown)
                .map_or(0, |b| b.misses)
    }

    /// Fraction of misses with a known cause (1.0 when nothing missed).
    pub fn attributed_fraction(&self) -> f64 {
        if self.misses == 0 {
            1.0
        } else {
            self.attributed() as f64 / self.misses as f64
        }
    }

    /// The blame entry for a cause, if it was ever assigned.
    pub fn entry(&self, cause: MissCause) -> Option<&BlameEntry> {
        self.blame.iter().find(|b| b.cause == cause)
    }

    /// Deterministic single-line JSON rendering.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"frames\":{},\"misses\":{},\"attributed\":{},\
             \"attributed_fraction\":{},\"blame\":[",
            json_escape(&self.label),
            self.frames,
            self.misses,
            self.attributed(),
            json_f64(self.attributed_fraction())
        );
        for (i, b) in self.blame.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"cause\":\"{}\",\"misses\":{},\"total_overrun_ms\":{},\
                 \"worst_frame\":{},\"worst_overrun_ms\":{},\"overrun\":{}}}",
                b.cause.label(),
                b.misses,
                json_f64(b.total_overrun_ms),
                b.worst_frame,
                json_f64(b.worst_overrun_ms),
                b.overrun
                    .as_ref()
                    .map_or_else(|| "null".to_owned(), dist_json)
            );
        }
        out.push_str("],\"stalls\":[");
        for (i, s) in self.stalls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"cause\":\"{}\",\"frames\":{},\"longest_run\":{}}}",
                s.cause.label(),
                s.frames,
                s.longest_run
            );
        }
        out.push_str("],\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"frame\":{},\"ts_ms\":{},\"overrun_ms\":{},\"cause\":\"{}\",\"detail\":\"{}\"}}",
                r.frame,
                json_f64(r.ts_ms),
                json_f64(r.overrun_ms),
                r.cause.label(),
                json_escape(&r.detail)
            );
        }
        out.push_str("]}");
        out
    }

    /// Human-readable blame table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution: {} | {} frames, {} misses, {:.1}% attributed",
            self.label,
            self.frames,
            self.misses,
            self.attributed_fraction() * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>8} {:>16} {:>12} {:>16}",
            "cause", "misses", "total overrun", "worst frame", "worst overrun"
        );
        for b in &self.blame {
            let _ = writeln!(
                out,
                "  {:<16} {:>8} {:>13.2} ms {:>12} {:>13.2} ms",
                b.cause.label(),
                b.misses,
                b.total_overrun_ms,
                b.worst_frame,
                b.worst_overrun_ms
            );
        }
        for s in &self.stalls {
            let _ = writeln!(
                out,
                "  {:<16} {:>8} frozen frames, longest run {}",
                s.cause.label(),
                s.frames,
                s.longest_run
            );
        }
        out
    }
}

/// EMA smoothing for the per-stage baselines (healthy frames only).
const BASELINE_ALPHA: f64 = 0.2;

/// A stage span counts as elevated when it exceeds its baseline by this
/// ratio plus [`ELEVATION_SLACK_MS`].
const ELEVATION_RATIO: f64 = 1.05;

/// Absolute slack on top of [`ELEVATION_RATIO`], ms.
const ELEVATION_SLACK_MS: f64 = 0.05;

/// How far ahead (in frames) a ladder downgrade may trail a miss for the
/// miss to count as [`MissCause::LadderLag`]: the controller is still
/// reacting to the episode this miss belongs to.
const LADDER_LOOKAHEAD_FRAMES: u64 = 90;

/// Everything pass 1 extracts from one [`TraceFrame`].
struct FrameFacts {
    frame: u64,
    deadline_met: bool,
    frozen: bool,
    critical_ms: f64,
    miss_ts_ms: f64,
    stage_ms: [f64; Stage::COUNT],
    faults: Vec<String>,
    drop_cause: Option<String>,
}

/// Replays completed trace sessions and assigns blame.
///
/// The attributor is stateless between sessions; construct once and call
/// [`Attributor::attribute`] per [`TraceSession`].
#[derive(Debug, Clone)]
pub struct Attributor {
    budget_ms: f64,
}

impl Attributor {
    /// An attributor judging frames against `budget_ms`.
    pub fn new(budget_ms: f64) -> Self {
        Attributor { budget_ms }
    }

    /// Walks the session's frames in order and attributes every deadline
    /// miss and every frozen stall.
    pub fn attribute(&self, session: &TraceSession) -> SessionAttribution {
        // ---- pass 1: flatten each frame's spans + instants into facts,
        // carrying the active fault set across frames ----
        let mut facts: Vec<FrameFacts> = Vec::with_capacity(session.frames.len());
        let mut active_faults: Vec<String> = Vec::new();
        let mut downgrade_frames: Vec<u64> = Vec::new();
        for f in &session.frames {
            for inst in &f.instants {
                match inst.kind {
                    InstantKind::Fault => {
                        if inst.detail.trim() == "faults cleared" {
                            active_faults.clear();
                        } else if let Some(list) = inst.detail.strip_prefix("faults active: ") {
                            active_faults = list.split('+').map(str::to_owned).collect();
                        }
                    }
                    InstantKind::LadderShift if inst.detail.starts_with("ladder down") => {
                        downgrade_frames.push(f.frame);
                    }
                    _ => {}
                }
            }
            facts.push(self.frame_facts(f, &active_faults));
        }

        // ---- pass 2: baselines stream forward over healthy frames; each
        // miss is judged against the baseline as of its own frame, with
        // ladder hindsight from the downgrade schedule ----
        let mut baselines: [Option<f64>; Stage::COUNT] = [None; Stage::COUNT];
        let mut hists: Vec<Histogram> = (0..MissCause::COUNT)
            .map(|_| Histogram::latency_ms())
            .collect();
        let mut tallies: Vec<(u64, f64, u64, f64)> = vec![(0, 0.0, 0, 0.0); MissCause::COUNT];
        let mut records: Vec<MissRecord> = Vec::new();
        let mut misses = 0u64;
        // frozen-slot ledger: carry the causing drop across the stall run
        let mut stall_frames = [0u64; MissCause::COUNT];
        let mut stall_longest = [0u64; MissCause::COUNT];
        let mut stall_run = 0u64;
        let mut stall_cause = MissCause::Unknown;
        for f in &facts {
            if f.frozen {
                if let Some(cause) = f.drop_cause.as_deref().and_then(drop_label_to_cause) {
                    if stall_run == 0 || cause != stall_cause {
                        stall_cause = cause;
                    }
                } else if stall_run == 0 {
                    stall_cause = MissCause::Unknown;
                }
                stall_run += 1;
                let idx = stall_cause.index();
                stall_frames[idx] += 1;
                stall_longest[idx] = stall_longest[idx].max(stall_run);
            } else {
                stall_run = 0;
            }
            if f.deadline_met {
                if !f.frozen {
                    for s in Stage::ALL {
                        let v = f.stage_ms[s.index()];
                        if v > 0.0 {
                            let b = baselines[s.index()].unwrap_or(v);
                            baselines[s.index()] =
                                Some(b * (1.0 - BASELINE_ALPHA) + v * BASELINE_ALPHA);
                        }
                    }
                }
                continue;
            }
            misses += 1;
            let overrun = (f.critical_ms - self.budget_ms).max(0.0);
            let (cause, detail) = self.judge(f, &baselines, &downgrade_frames);
            let idx = cause.index();
            hists[idx].record(overrun);
            let t = &mut tallies[idx];
            t.0 += 1;
            t.1 += overrun;
            if overrun > t.3 || t.0 == 1 {
                t.2 = f.frame;
                t.3 = overrun;
            }
            records.push(MissRecord {
                frame: f.frame,
                ts_ms: f.miss_ts_ms,
                overrun_ms: overrun,
                cause,
                detail,
            });
        }

        let blame = MissCause::ALL
            .iter()
            .filter(|c| tallies[c.index()].0 > 0)
            .map(|&cause| {
                let (n, total, worst_frame, worst) = tallies[cause.index()];
                BlameEntry {
                    cause,
                    misses: n,
                    total_overrun_ms: total,
                    worst_frame,
                    worst_overrun_ms: worst,
                    overrun: hists[cause.index()].summary(),
                }
            })
            .collect();
        let stalls = MissCause::ALL
            .iter()
            .filter(|c| stall_frames[c.index()] > 0)
            .map(|&cause| StallEntry {
                cause,
                frames: stall_frames[cause.index()],
                longest_run: stall_longest[cause.index()],
            })
            .collect();
        SessionAttribution {
            label: session.label.clone(),
            frames: session.frames.len() as u64,
            misses,
            blame,
            stalls,
            records,
        }
    }

    fn frame_facts(&self, f: &TraceFrame, active_faults: &[String]) -> FrameFacts {
        let mut stage_ms = [0.0; Stage::COUNT];
        let mut umbrella: Option<(f64, f64)> = None;
        for span in &f.spans {
            if span.name == UPSCALE_SPAN {
                umbrella = Some((span.start_ms, span.end_ms));
                continue;
            }
            if let Some(stage) = Stage::ALL.iter().find(|s| s.label() == span.name) {
                stage_ms[stage.index()] += span.end_ms - span.start_ms;
            }
        }
        // the umbrella's extent is exactly the upscale critical path
        // (slower of the NPU/GPU legs plus the merge); fall back to the
        // legs' envelope for traces without the synthetic umbrella
        let critical_ms = match umbrella {
            Some((lo, hi)) => hi - lo,
            None => {
                let legs = [Stage::NpuSr, Stage::GpuInterp, Stage::Merge];
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for span in &f.spans {
                    if legs.iter().any(|s| s.label() == span.name) {
                        lo = lo.min(span.start_ms);
                        hi = hi.max(span.end_ms);
                    }
                }
                if hi > lo {
                    hi - lo
                } else {
                    0.0
                }
            }
        };
        let miss_ts_ms = f
            .instants
            .iter()
            .find(|i| i.kind == InstantKind::DeadlineMiss)
            .map_or_else(|| umbrella.map_or(0.0, |(_, hi)| hi), |i| i.ts_ms);
        let drop_cause = f.instants.iter().find_map(|i| {
            if i.kind == InstantKind::Drop {
                i.detail
                    .rsplit_once(": ")
                    .map(|(_, label)| label.to_owned())
            } else {
                None
            }
        });
        let frozen = stage_ms[Stage::Decode.index()] == 0.0
            && stage_ms[Stage::NpuSr.index()] == 0.0
            && stage_ms[Stage::GpuInterp.index()] == 0.0
            && stage_ms[Stage::Merge.index()] == 0.0;
        FrameFacts {
            frame: f.frame,
            deadline_met: f.deadline_met,
            frozen,
            critical_ms,
            miss_ts_ms,
            stage_ms,
            faults: active_faults.to_vec(),
            drop_cause,
        }
    }

    /// The decision tree for one missed frame.
    fn judge(
        &self,
        f: &FrameFacts,
        baselines: &[Option<f64>; Stage::COUNT],
        downgrade_frames: &[u64],
    ) -> (MissCause, String) {
        let stage = |s: Stage| f.stage_ms[s.index()];
        let baseline = |s: Stage| baselines[s.index()];
        // elevated: the span exceeds its rolling baseline (or the baseline
        // is still unknown, in which case the fault correlation decides)
        let elevated = |s: Stage| {
            let v = stage(s);
            v > 0.0 && baseline(s).is_none_or(|b| v > b * ELEVATION_RATIO + ELEVATION_SLACK_MS)
        };
        let vs_baseline = |s: Stage| match baseline(s) {
            Some(b) if b > 0.0 => format!(
                "{} {:.2} ms vs baseline {:.2} ms (x{:.2})",
                s.label(),
                stage(s),
                b,
                stage(s) / b
            ),
            _ => format!("{} {:.2} ms (no baseline yet)", s.label(), stage(s)),
        };
        let fault = |name: &str| f.faults.iter().any(|l| l == name);
        let upscale_over = !crate::deadline_met(
            stage(Stage::NpuSr).max(stage(Stage::GpuInterp)) + stage(Stage::Merge),
            self.budget_ms,
        );

        if fault("npu-throttle") && (elevated(Stage::NpuSr) || upscale_over) {
            // ladder hindsight: a downgrade at or shortly after this frame
            // means the controller was still descending toward a rung that
            // absorbs the throttle — the reaction, not the NPU, is to blame
            let lagging = downgrade_frames
                .iter()
                .any(|&d| d >= f.frame && d <= f.frame + LADDER_LOOKAHEAD_FRAMES);
            let evidence = format!("{}, npu-throttle active", vs_baseline(Stage::NpuSr));
            if lagging {
                return (
                    MissCause::LadderLag,
                    format!("{evidence}, ladder still descending"),
                );
            }
            return (MissCause::NpuThrottle, evidence);
        }
        if fault("decoder-crash") || f.drop_cause.as_deref() == Some("decoder-down") {
            return (
                MissCause::DecoderCrash,
                "decoder down: crash recovery in progress".to_owned(),
            );
        }
        if fault("decoder-stall") && elevated(Stage::Decode) {
            return (
                MissCause::DecoderStall,
                format!("{}, decoder-stall active", vs_baseline(Stage::Decode)),
            );
        }
        if fault("jitter-spike") && elevated(Stage::LinkTransfer) {
            return (
                MissCause::JitterSpike,
                format!("{}, jitter-spike active", vs_baseline(Stage::LinkTransfer)),
            );
        }
        if fault("outage") || f.drop_cause.as_deref() == Some("outage") {
            return (
                MissCause::NetOutage,
                "frame lost to a scripted outage window".to_owned(),
            );
        }
        if f.drop_cause.as_deref() == Some("queue-overflow") {
            return (
                MissCause::QueueOverflow,
                "frame tail-dropped by the bottleneck queue".to_owned(),
            );
        }
        if upscale_over {
            return (
                MissCause::SrOverrun,
                format!(
                    "upscale critical path {:.2} ms > budget {:.2} ms with no fault active ({})",
                    f.critical_ms,
                    self.budget_ms,
                    vs_baseline(Stage::NpuSr)
                ),
            );
        }
        (
            MissCause::Unknown,
            format!(
                "no stage elevated and no fault active (critical {:.2} ms, budget {:.2} ms)",
                f.critical_ms, self.budget_ms
            ),
        )
    }
}

/// Maps a drop instant's cause label onto the taxonomy.
fn drop_label_to_cause(label: &str) -> Option<MissCause> {
    match label {
        "queue-overflow" => Some(MissCause::QueueOverflow),
        "outage" => Some(MissCause::NetOutage),
        "decoder-down" => Some(MissCause::DecoderCrash),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceInstant, TraceSpan};

    fn span(id: u32, name: &str, start: f64, end: f64) -> TraceSpan {
        TraceSpan {
            id,
            parent: if id == 0 { None } else { Some(0) },
            name: name.to_owned(),
            lane: 0,
            start_ms: start,
            end_ms: end,
        }
    }

    /// A healthy frame: 4 ms NPU leg, 2 ms GPU leg, 1 ms merge.
    fn good_frame(i: u64, t0: f64) -> TraceFrame {
        TraceFrame {
            frame: i,
            trace_id: i,
            deadline_met: true,
            spans: vec![
                span(0, "frame", t0, t0 + 16.0),
                span(1, "decode", t0, t0 + 3.0),
                span(2, "npu-sr", t0 + 3.0, t0 + 7.0),
                span(3, "gpu-interp", t0 + 3.0, t0 + 5.0),
                span(4, "merge", t0 + 7.0, t0 + 8.0),
                span(5, UPSCALE_SPAN, t0 + 3.0, t0 + 8.0),
            ],
            instants: vec![],
        }
    }

    /// A missed frame whose NPU leg ran `npu_ms` (baseline is 4 ms).
    fn miss_frame(i: u64, t0: f64, npu_ms: f64) -> TraceFrame {
        TraceFrame {
            frame: i,
            trace_id: i,
            deadline_met: false,
            spans: vec![
                span(0, "frame", t0, t0 + 16.0 + npu_ms),
                span(1, "decode", t0, t0 + 3.0),
                span(2, "npu-sr", t0 + 3.0, t0 + 3.0 + npu_ms),
                span(3, "gpu-interp", t0 + 3.0, t0 + 5.0),
                span(4, "merge", t0 + 3.0 + npu_ms, t0 + 4.0 + npu_ms),
                span(5, UPSCALE_SPAN, t0 + 3.0, t0 + 4.0 + npu_ms),
            ],
            instants: vec![TraceInstant {
                kind: InstantKind::DeadlineMiss,
                ts_ms: t0 + 4.0 + npu_ms,
                detail: "critical path over budget".to_owned(),
            }],
        }
    }

    fn fault_instant(detail: &str, ts: f64) -> TraceInstant {
        TraceInstant {
            kind: InstantKind::Fault,
            ts_ms: ts,
            detail: detail.to_owned(),
        }
    }

    fn session(frames: Vec<TraceFrame>) -> TraceSession {
        TraceSession {
            label: "test".to_owned(),
            pid: 1,
            frames,
        }
    }

    #[test]
    fn throttled_miss_is_blamed_on_the_npu() {
        let mut frames: Vec<TraceFrame> =
            (0..20).map(|i| good_frame(i, i as f64 * 16.67)).collect();
        let mut bad = miss_frame(20, 20.0 * 16.67, 20.0);
        bad.instants
            .push(fault_instant("faults active: npu-throttle", 20.0 * 16.67));
        frames.push(bad);
        let a = Attributor::new(crate::REALTIME_BUDGET_MS).attribute(&session(frames));
        assert_eq!(a.misses, 1);
        assert_eq!(a.records[0].cause, MissCause::NpuThrottle);
        assert!(a.records[0].detail.contains("vs baseline"));
        assert_eq!(a.attributed_fraction(), 1.0);
        let entry = a.entry(MissCause::NpuThrottle).unwrap();
        assert_eq!(entry.misses, 1);
        assert_eq!(entry.worst_frame, 20);
        assert!(entry.worst_overrun_ms > 4.0);
    }

    #[test]
    fn miss_before_a_downgrade_is_ladder_lag() {
        let mut frames: Vec<TraceFrame> =
            (0..20).map(|i| good_frame(i, i as f64 * 16.67)).collect();
        let mut bad = miss_frame(20, 20.0 * 16.67, 20.0);
        bad.instants
            .push(fault_instant("faults active: npu-throttle", 20.0 * 16.67));
        frames.push(bad);
        let mut after = good_frame(22, 22.0 * 16.67);
        after.instants.push(TraceInstant {
            kind: InstantKind::LadderShift,
            ts_ms: 22.0 * 16.67,
            detail: "ladder down: rung 0 -> 1 (fp16, roi 416 px, rate x0.85)".to_owned(),
        });
        frames.push(after);
        let a = Attributor::new(crate::REALTIME_BUDGET_MS).attribute(&session(frames));
        assert_eq!(a.records[0].cause, MissCause::LadderLag);
    }

    #[test]
    fn faultless_overrun_is_sr_overrun_and_no_spans_is_unknown() {
        let mut frames: Vec<TraceFrame> = (0..5).map(|i| good_frame(i, i as f64 * 16.67)).collect();
        frames.push(miss_frame(5, 5.0 * 16.67, 18.0));
        let mut bare = miss_frame(6, 6.0 * 16.67, 18.0);
        bare.spans.clear();
        frames.push(bare);
        let a = Attributor::new(crate::REALTIME_BUDGET_MS).attribute(&session(frames));
        assert_eq!(a.misses, 2);
        assert_eq!(a.records[0].cause, MissCause::SrOverrun);
        assert_eq!(a.records[1].cause, MissCause::Unknown);
        assert_eq!(a.attributed(), 1);
        assert!((a.attributed_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frozen_slots_are_ledgered_by_drop_cause() {
        let mut frames: Vec<TraceFrame> = vec![good_frame(0, 0.0)];
        for i in 1..4u64 {
            let t0 = i as f64 * 16.67;
            let mut frozen = TraceFrame {
                frame: i,
                trace_id: i,
                deadline_met: true,
                spans: vec![span(0, "frame", t0, t0 + 1.0)],
                instants: vec![],
            };
            if i == 1 {
                frozen.instants.push(TraceInstant {
                    kind: InstantKind::Drop,
                    ts_ms: t0,
                    detail: "frame dropped: queue-overflow".to_owned(),
                });
            }
            frames.push(frozen);
        }
        let a = Attributor::new(crate::REALTIME_BUDGET_MS).attribute(&session(frames));
        assert_eq!(a.misses, 0);
        assert_eq!(a.stalls.len(), 1);
        assert_eq!(a.stalls[0].cause, MissCause::QueueOverflow);
        assert_eq!(
            a.stalls[0].frames, 3,
            "the stall run carries the drop cause"
        );
        assert_eq!(a.stalls[0].longest_run, 3);
    }

    #[test]
    fn cause_indices_and_labels_are_stable() {
        for (i, c) in MissCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let labels: std::collections::HashSet<&str> =
            MissCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels.len(),
            MissCause::COUNT,
            "cause labels must be unique"
        );
    }

    #[test]
    fn attribution_json_is_deterministic_and_parses() {
        let mut frames: Vec<TraceFrame> =
            (0..10).map(|i| good_frame(i, i as f64 * 16.67)).collect();
        frames.push(miss_frame(10, 10.0 * 16.67, 19.0));
        let s = session(frames);
        let att = Attributor::new(crate::REALTIME_BUDGET_MS);
        let a = att.attribute(&s).to_json();
        assert_eq!(a, att.attribute(&s).to_json());
        let parsed = crate::json::parse(&a).expect("attribution json parses");
        assert_eq!(parsed.get("misses").and_then(|v| v.as_f64()), Some(1.0));
    }
}
