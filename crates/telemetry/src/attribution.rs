//! Deadline-miss root-cause attribution, judged from the facts the
//! session step hands over.
//!
//! A deadline miss recorded by the session is a single boolean; triage
//! needs to know *what ate the budget*. The session step feeds its
//! [`Attributor`] one [`FrameFacts`] per closed frame, the way it feeds
//! the SLO engine: the recorder's span totals ([`FrameSpans`]), the
//! deadline verdict, the freeze, the drop cause and the active faults. The
//! attributor judges the frame and keeps only the verdicts of missed
//! frames. Every miss gets a cause from a small taxonomy ([`MissCause`]):
//!
//! - Stage spans are compared against a rolling per-stage baseline (an
//!   exponential moving average fed only by healthy frames), so "the NPU
//!   pass was 3× its usual cost" is judged relative to what this session
//!   normally does at its current ladder rung, not a fixed table.
//! - The active fault set comes with every frame, so a miss that
//!   coincides with an `npu-throttle` window is blamed on the throttle
//!   rather than on the SR pass being intrinsically slow.
//! - Ladder downgrades give hindsight: a miss while the degradation
//!   controller is still mid-descent is `LadderLag` (the ladder had not
//!   yet caught up with the fault), distinct from `NpuThrottle` (the
//!   ladder had nothing left to give). The controller decides after a
//!   frame closes, so [`Attributor::ladder_down`] arrives after the misses
//!   it answers have been judged, and relabels them.
//!
//! Frozen display slots never miss the upscaling deadline (there is
//! nothing to upscale), so stalls are attributed separately from drops:
//! the ledger distinguishes outage stalls from queue-overflow stalls and
//! reports the longest run per cause.
//!
//! Everything is computed from modeled timestamps, so attribution of the
//! same session is byte-identical across reruns and worker counts. The
//! recorder's event stream is an export only; nothing here reads it.

use crate::hist::{DistSummary, Histogram};
use crate::json::{json_escape, json_f64};
use crate::recorder::FrameSpans;
use crate::summary::dist_json;
use crate::Stage;

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
    /// No cause matched — the miss needs a human.
    Unknown,
}

impl MissCause {
    /// Number of causes.
    pub const COUNT: usize = 9;

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

/// What the session step knows about one closed frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameFacts<'a> {
    /// Frame index within the session.
    pub frame: u64,
    /// The frame's span totals ([`crate::Recorder::frame_spans`]).
    pub spans: &'a FrameSpans,
    /// Whether the frame met the deadline.
    pub deadline_met: bool,
    /// Whether the display repeated the last frame.
    pub frozen: bool,
    /// Session-clock time of the miss, modeled ms: the end of the upscale
    /// critical path. Read only when the deadline was missed.
    pub miss_ts_ms: f64,
    /// The cause the frame's drop blames (queue-overflow, net-outage or
    /// decoder-crash), if it was dropped.
    pub drop: Option<MissCause>,
    /// Labels of the scripted faults active while the frame was open.
    pub faults: &'a [&'a str],
}

/// Attributes every deadline miss and frozen stall of one session as its
/// frames close. See the module docs.
#[derive(Debug, Clone)]
pub struct Attributor {
    label: String,
    budget_ms: f64,
    frames: u64,
    /// Per-stage EMA baselines, fed by healthy frames only.
    baselines: [Option<f64>; Stage::COUNT],
    // frozen-slot ledger: the causing drop carries across the stall run
    stall_frames: [u64; MissCause::COUNT],
    stall_longest: [u64; MissCause::COUNT],
    stall_run: u64,
    stall_cause: MissCause,
    /// Every miss judged so far, in frame order.
    records: Vec<MissRecord>,
}

impl Attributor {
    /// An attributor for the session `label`, judging frames against
    /// `budget_ms`.
    pub fn new(label: impl Into<String>, budget_ms: f64) -> Self {
        Attributor {
            label: label.into(),
            budget_ms,
            frames: 0,
            baselines: [None; Stage::COUNT],
            stall_frames: [0; MissCause::COUNT],
            stall_longest: [0; MissCause::COUNT],
            stall_run: 0,
            stall_cause: MissCause::Unknown,
            records: Vec::new(),
        }
    }

    /// Judges one closed frame: the stall ledger, the baselines, and a
    /// verdict when it missed.
    pub fn observe(&mut self, f: &FrameFacts<'_>) {
        self.frames += 1;
        if f.frozen {
            if let Some(cause) = f.drop {
                self.stall_cause = cause;
            } else if self.stall_run == 0 {
                self.stall_cause = MissCause::Unknown;
            }
            self.stall_run += 1;
            let idx = self.stall_cause.index();
            self.stall_frames[idx] += 1;
            self.stall_longest[idx] = self.stall_longest[idx].max(self.stall_run);
        } else {
            self.stall_run = 0;
        }
        if f.deadline_met {
            if !f.frozen {
                for s in Stage::ALL {
                    let v = f.spans.stage_ms(s);
                    if v > 0.0 {
                        let b = self.baselines[s.index()].unwrap_or(v);
                        self.baselines[s.index()] =
                            Some(b * (1.0 - BASELINE_ALPHA) + v * BASELINE_ALPHA);
                    }
                }
            }
        } else {
            let critical_ms = f.spans.critical_ms();
            let (cause, detail) = self.judge(f, critical_ms);
            self.records.push(MissRecord {
                frame: f.frame,
                ts_ms: f.miss_ts_ms,
                overrun_ms: (critical_ms - self.budget_ms).max(0.0),
                cause,
                detail,
            });
        }
    }

    /// Ladder hindsight: a downgrade decided after frame `frame` closed
    /// means the controller was still descending toward a rung that
    /// absorbs the throttle, so the reaction, not the NPU, is to blame for
    /// the throttle misses of frames `frame - 90 ..= frame`.
    pub fn ladder_down(&mut self, frame: u64) {
        for r in self.records.iter_mut().rev() {
            if r.frame + LADDER_LOOKAHEAD_FRAMES < frame {
                break;
            }
            if r.frame <= frame && r.cause == MissCause::NpuThrottle {
                r.cause = MissCause::LadderLag;
                r.detail.push_str(", ladder still descending");
            }
        }
    }

    /// The decision tree for one missed frame.
    fn judge(&self, f: &FrameFacts<'_>, critical_ms: f64) -> (MissCause, String) {
        let budget_ms = self.budget_ms;
        let stage = |s: Stage| f.spans.stage_ms(s);
        let baseline = |s: Stage| self.baselines[s.index()];
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
        let fault = |name: &str| f.faults.contains(&name);
        let upscale_over = !crate::deadline_met(
            stage(Stage::NpuSr).max(stage(Stage::GpuInterp)) + stage(Stage::Merge),
            budget_ms,
        );

        if fault("npu-throttle") && (elevated(Stage::NpuSr) || upscale_over) {
            // a later downgrade may still relabel this as ladder lag
            return (
                MissCause::NpuThrottle,
                format!("{}, npu-throttle active", vs_baseline(Stage::NpuSr)),
            );
        }
        if fault("decoder-crash") || f.drop == Some(MissCause::DecoderCrash) {
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
        if fault("outage") || f.drop == Some(MissCause::NetOutage) {
            return (
                MissCause::NetOutage,
                "frame lost to a scripted outage window".to_owned(),
            );
        }
        if f.drop == Some(MissCause::QueueOverflow) {
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
                    critical_ms,
                    budget_ms,
                    vs_baseline(Stage::NpuSr)
                ),
            );
        }
        (
            MissCause::Unknown,
            format!(
                "no stage elevated and no fault active (critical {:.2} ms, budget {:.2} ms)",
                critical_ms, budget_ms
            ),
        )
    }

    /// The verdict over every frame observed so far.
    pub fn attribution(&self) -> SessionAttribution {
        // tallied from the records in frame order, after any relabelling,
        // so the float sums are those of a single pass over the misses
        let mut hists: Vec<Histogram> = (0..MissCause::COUNT)
            .map(|_| Histogram::latency_ms())
            .collect();
        let mut tallies: Vec<(u64, f64, u64, f64)> = vec![(0, 0.0, 0, 0.0); MissCause::COUNT];
        for r in &self.records {
            let idx = r.cause.index();
            hists[idx].record(r.overrun_ms);
            let t = &mut tallies[idx];
            t.0 += 1;
            t.1 += r.overrun_ms;
            if r.overrun_ms > t.3 || t.0 == 1 {
                t.2 = r.frame;
                t.3 = r.overrun_ms;
            }
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
            .filter(|c| self.stall_frames[c.index()] > 0)
            .map(|&cause| StallEntry {
                cause,
                frames: self.stall_frames[cause.index()],
                longest_run: self.stall_longest[cause.index()],
            })
            .collect();
        SessionAttribution {
            label: self.label.clone(),
            frames: self.frames,
            misses: self.records.len() as u64,
            blame,
            stalls,
            records: self.records.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Spans<'a> = &'a [(Stage, f64, f64)];

    fn attributor() -> Attributor {
        Attributor::new("test", crate::REALTIME_BUDGET_MS)
    }

    fn totals(spans: Spans<'_>) -> FrameSpans {
        let mut totals = FrameSpans::default();
        for &(stage, start_ms, end_ms) in spans {
            totals.add(stage, start_ms, end_ms);
        }
        totals
    }

    /// The facts of a healthy, unfaulted frame `i` with span totals `spans`.
    fn facts(i: u64, spans: &FrameSpans) -> FrameFacts<'_> {
        FrameFacts {
            frame: i,
            spans,
            deadline_met: true,
            frozen: false,
            miss_ts_ms: 0.0,
            drop: None,
            faults: &[],
        }
    }

    /// A healthy frame: 5 ms link transfer, 3 ms decode, 4 ms NPU leg,
    /// 2 ms GPU leg, 1 ms merge.
    fn good_frame(att: &mut Attributor, i: u64, t0: f64) {
        let spans = totals(&[
            (Stage::LinkTransfer, t0 - 5.0, t0),
            (Stage::Decode, t0, t0 + 3.0),
            (Stage::NpuSr, t0 + 3.0, t0 + 7.0),
            (Stage::GpuInterp, t0 + 3.0, t0 + 5.0),
            (Stage::Merge, t0 + 7.0, t0 + 8.0),
        ]);
        att.observe(&facts(i, &spans));
    }

    /// A missed frame whose NPU leg ran `npu_ms` (baseline is 4 ms) under
    /// the active `faults`.
    fn miss_frame(att: &mut Attributor, i: u64, t0: f64, npu_ms: f64, faults: &[&str]) {
        let spans = totals(&[
            (Stage::LinkTransfer, t0 - 5.0, t0),
            (Stage::Decode, t0, t0 + 3.0),
            (Stage::NpuSr, t0 + 3.0, t0 + 3.0 + npu_ms),
            (Stage::GpuInterp, t0 + 3.0, t0 + 5.0),
            (Stage::Merge, t0 + 3.0 + npu_ms, t0 + 4.0 + npu_ms),
        ]);
        att.observe(&FrameFacts {
            deadline_met: false,
            miss_ts_ms: t0 + 4.0 + npu_ms,
            faults,
            ..facts(i, &spans)
        });
    }

    #[test]
    fn throttled_miss_is_blamed_on_the_npu() {
        let mut att = attributor();
        for i in 0..20 {
            good_frame(&mut att, i, i as f64 * 16.67);
        }
        miss_frame(&mut att, 20, 20.0 * 16.67, 20.0, &["npu-throttle"]);
        let a = att.attribution();
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
        let mut att = attributor();
        for i in 0..20 {
            good_frame(&mut att, i, i as f64 * 16.67);
        }
        miss_frame(&mut att, 20, 20.0 * 16.67, 20.0, &["npu-throttle"]);
        good_frame(&mut att, 22, 22.0 * 16.67);
        assert_eq!(att.attribution().records[0].cause, MissCause::NpuThrottle);
        // the controller decides after frame 22 closes
        att.ladder_down(22);
        let a = att.attribution();
        assert_eq!(a.records[0].cause, MissCause::LadderLag);
        assert!(a.records[0]
            .detail
            .ends_with("npu-throttle active, ladder still descending"));
    }

    #[test]
    fn faultless_overrun_is_sr_overrun_and_no_spans_is_unknown() {
        let mut att = attributor();
        for i in 0..5 {
            good_frame(&mut att, i, i as f64 * 16.67);
        }
        miss_frame(&mut att, 5, 5.0 * 16.67, 18.0, &[]);
        let none = FrameSpans::default();
        att.observe(&FrameFacts {
            deadline_met: false,
            miss_ts_ms: 6.0 * 16.67 + 22.0,
            ..facts(6, &none)
        });
        let a = att.attribution();
        assert_eq!(a.misses, 2);
        assert_eq!(a.records[0].cause, MissCause::SrOverrun);
        assert_eq!(a.records[1].cause, MissCause::Unknown);
        assert_eq!(a.attributed(), 1);
        assert!((a.attributed_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frozen_slots_are_ledgered_by_drop_cause() {
        let mut att = attributor();
        good_frame(&mut att, 0, 0.0);
        let none = FrameSpans::default();
        for i in 1..4u64 {
            att.observe(&FrameFacts {
                frozen: true,
                drop: (i == 1).then_some(MissCause::QueueOverflow),
                ..facts(i, &none)
            });
        }
        let a = att.attribution();
        assert_eq!(a.misses, 0);
        assert_eq!(a.stalls.len(), 1);
        assert_eq!(a.stalls[0].cause, MissCause::QueueOverflow);
        assert_eq!(
            a.stalls[0].frames, 3,
            "the stall run carries the drop cause"
        );
        assert_eq!(a.stalls[0].longest_run, 3);
    }

    /// The branches of the decision tree below the NPU throttle: each row
    /// is one missed frame after a healthy baseline, with its elevated
    /// stage, faults and drop, and the cause and evidence it must get.
    #[test]
    fn each_fault_and_drop_is_blamed_on_its_own_cause() {
        struct Case {
            name: &'static str,
            decode_ms: f64,
            link_ms: f64,
            faults: &'static [&'static str],
            drop: Option<MissCause>,
            cause: MissCause,
            evidence: &'static str,
        }
        let cases = [
            Case {
                name: "elevated decode under decoder-stall",
                decode_ms: 9.0,
                link_ms: 5.0,
                faults: &["decoder-stall"],
                drop: None,
                cause: MissCause::DecoderStall,
                evidence: "decode 9.00 ms vs baseline 3.00 ms (x3.00), decoder-stall active",
            },
            Case {
                name: "elevated link transfer under jitter-spike",
                decode_ms: 3.0,
                link_ms: 30.0,
                faults: &["jitter-spike"],
                drop: None,
                cause: MissCause::JitterSpike,
                evidence: "link-transfer 30.00 ms vs baseline 5.00 ms (x6.00), jitter-spike active",
            },
            Case {
                name: "an outage drop",
                decode_ms: 3.0,
                link_ms: 5.0,
                faults: &[],
                drop: Some(MissCause::NetOutage),
                cause: MissCause::NetOutage,
                evidence: "frame lost to a scripted outage window",
            },
            Case {
                name: "a queue-overflow drop",
                decode_ms: 3.0,
                link_ms: 5.0,
                faults: &[],
                drop: Some(MissCause::QueueOverflow),
                cause: MissCause::QueueOverflow,
                evidence: "frame tail-dropped by the bottleneck queue",
            },
            Case {
                name: "a queue-overflow drop under a jitter-spike at baseline",
                decode_ms: 3.0,
                link_ms: 5.0,
                faults: &["jitter-spike"],
                drop: Some(MissCause::QueueOverflow),
                cause: MissCause::QueueOverflow,
                evidence: "frame tail-dropped by the bottleneck queue",
            },
            Case {
                name: "decoder-stall active with decode at baseline",
                decode_ms: 3.0,
                link_ms: 5.0,
                faults: &["decoder-stall"],
                drop: None,
                cause: MissCause::Unknown,
                evidence: "no stage elevated",
            },
        ];
        for case in cases {
            let mut att = attributor();
            for i in 0..20 {
                good_frame(&mut att, i, i as f64 * 16.67);
            }
            let t0 = 20.0 * 16.67;
            let d = case.decode_ms;
            let spans = totals(&[
                (Stage::LinkTransfer, t0 - case.link_ms, t0),
                (Stage::Decode, t0, t0 + d),
                (Stage::NpuSr, t0 + d, t0 + d + 4.0),
                (Stage::GpuInterp, t0 + d, t0 + d + 2.0),
                (Stage::Merge, t0 + d + 4.0, t0 + d + 5.0),
            ]);
            att.observe(&FrameFacts {
                deadline_met: false,
                miss_ts_ms: t0 + d + 5.0,
                drop: case.drop,
                faults: case.faults,
                ..facts(20, &spans)
            });
            let a = att.attribution();
            assert_eq!(a.misses, 1, "{}", case.name);
            let r = &a.records[0];
            assert_eq!(r.cause, case.cause, "{}: {}", case.name, r.detail);
            assert!(
                r.detail.starts_with(case.evidence),
                "{}: {}",
                case.name,
                r.detail
            );
            assert_eq!(r.ts_ms, t0 + d + 5.0, "{}", case.name);
            assert_eq!(r.overrun_ms, 0.0, "{}: a 5 ms upscale fits", case.name);
        }
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
        let run = || {
            let mut att = attributor();
            for i in 0..10 {
                good_frame(&mut att, i, i as f64 * 16.67);
            }
            miss_frame(&mut att, 10, 10.0 * 16.67, 19.0, &[]);
            att.attribution().to_json()
        };
        let a = run();
        assert_eq!(a, run());
        let parsed = crate::json::parse(&a).expect("attribution json parses");
        assert_eq!(parsed.get("misses").and_then(|v| v.as_f64()), Some(1.0));
    }
}
