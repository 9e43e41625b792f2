//! Deadline-miss root-cause attribution, streamed from the recorder's
//! events.
//!
//! A deadline miss recorded by the session is a single boolean; triage
//! needs to know *what ate the budget*. [`Attributor`] is a [`Sink`]: it
//! folds each frame's stage spans and instant markers into a handful of
//! facts as they arrive, judges the frame when it closes, and keeps only
//! the verdicts of missed frames. Every miss gets a cause from a small
//! taxonomy ([`MissCause`]):
//!
//! - Stage spans are compared against a rolling per-stage baseline (an
//!   exponential moving average fed only by healthy frames), so "the NPU
//!   pass was 3× its usual cost" is judged relative to what this session
//!   normally does at its current ladder rung, not a fixed table.
//! - Fault instants carry the active fault set across frames, so a miss
//!   that coincides with an `npu-throttle` window is blamed on the
//!   throttle rather than on the SR pass being intrinsically slow.
//! - Ladder-shift instants give hindsight: a miss while the degradation
//!   controller is still mid-descent is `LadderLag` (the ladder had not
//!   yet caught up with the fault), distinct from `NpuThrottle` (the
//!   ladder had nothing left to give). The controller decides after a
//!   frame closes, so a downgrade arrives after the misses it answers
//!   have been judged, and relabels them.
//!
//! Frozen display slots never miss the upscaling deadline (there is
//! nothing to upscale), so stalls are attributed separately from drop
//! instants: the ledger distinguishes outage stalls from queue-overflow
//! stalls and reports the longest run per cause.
//!
//! Everything is computed from modeled timestamps, so attribution of the
//! same session is byte-identical across reruns and worker counts.

use std::sync::{Arc, Mutex};

use crate::hist::{DistSummary, Histogram};
use crate::json::{json_escape, json_f64};
use crate::sink::{Event, Sink};
use crate::summary::dist_json;
use crate::trace::is_upscale_leg;
use crate::{InstantKind, Stage};

/// Root causes a missed deadline (or a frozen stall) can be blamed on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
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
    #[default]
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

/// What one frame's events add up to, accumulated as they arrive.
#[derive(Debug, Default)]
struct FrameFacts {
    frame: u64,
    /// Summed span time per stage, ms.
    stage_ms: [f64; Stage::COUNT],
    /// Envelope of the upscale legs (NPU, GPU, merge): the critical path.
    legs: Option<(f64, f64)>,
    /// Timestamp of the first deadline-miss instant.
    miss_ts_ms: Option<f64>,
    /// Cause label of the first drop instant.
    drop_cause: Option<String>,
    /// A ladder downgrade was decided while the frame was still open.
    downgraded: bool,
}

impl FrameFacts {
    fn span(&mut self, stage: Stage, start_ms: f64, end_ms: f64) {
        let end_ms = end_ms.max(start_ms);
        self.stage_ms[stage.index()] += end_ms - start_ms;
        if is_upscale_leg(stage) {
            let (lo, hi) = self.legs.get_or_insert((start_ms, end_ms));
            *lo = lo.min(start_ms);
            *hi = hi.max(end_ms);
        }
    }

    fn instant(&mut self, kind: InstantKind, ts_ms: f64, detail: &str) {
        match kind {
            InstantKind::DeadlineMiss if self.miss_ts_ms.is_none() => self.miss_ts_ms = Some(ts_ms),
            InstantKind::Drop if self.drop_cause.is_none() => {
                self.drop_cause = detail.rsplit_once(": ").map(|(_, label)| label.to_owned());
            }
            InstantKind::LadderShift if is_downgrade(detail) => self.downgraded = true,
            _ => {}
        }
    }

    fn stage(&self, stage: Stage) -> f64 {
        self.stage_ms[stage.index()]
    }

    /// The upscale critical path: the slower of the NPU/GPU legs plus the
    /// merge, or 0 when nothing was upscaled.
    fn critical_ms(&self) -> f64 {
        self.legs.map_or(0.0, |(lo, hi)| hi - lo)
    }

    /// A frame with nothing decoded or upscaled repeats the last one.
    fn frozen(&self) -> bool {
        [Stage::Decode, Stage::NpuSr, Stage::GpuInterp, Stage::Merge]
            .iter()
            .all(|&s| self.stage(s) == 0.0)
    }
}

fn is_downgrade(detail: &str) -> bool {
    detail.starts_with("ladder down")
}

/// One session's attribution state.
#[derive(Debug, Default)]
struct AttributionState {
    label: String,
    frames: u64,
    /// The frame in flight, between `FrameStart` and `FrameEnd`.
    open: Option<FrameFacts>,
    /// The last frame judged: post-frame instants belong to it.
    last_judged: Option<u64>,
    active_faults: Vec<String>,
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

impl AttributionState {
    fn open_frame(&mut self, frame: u64) -> &mut FrameFacts {
        self.open.get_or_insert_with(|| FrameFacts {
            frame,
            ..FrameFacts::default()
        })
    }

    fn instant(&mut self, frame: u64, kind: InstantKind, ts_ms: f64, detail: &str) {
        if kind == InstantKind::Fault {
            if detail.trim() == "faults cleared" {
                self.active_faults.clear();
            } else if let Some(list) = detail.strip_prefix("faults active: ") {
                self.active_faults = list.split('+').map(str::to_owned).collect();
            }
        }
        match (self.open.as_mut(), self.last_judged) {
            (Some(open), _) => open.instant(kind, ts_ms, detail),
            // a post-frame instant: the controller's verdict on the frame
            // just judged
            (None, Some(last)) => {
                if kind == InstantKind::LadderShift && is_downgrade(detail) {
                    self.relabel(last);
                }
            }
            (None, None) => self.open_frame(frame).instant(kind, ts_ms, detail),
        }
    }

    /// Judges the open frame, if any: the stall ledger, the baselines,
    /// and a verdict when it missed.
    fn close(&mut self, deadline_met: bool, budget_ms: f64) {
        let Some(f) = self.open.take() else {
            return;
        };
        self.frames += 1;
        self.last_judged = Some(f.frame);
        let frozen = f.frozen();
        if frozen {
            if let Some(cause) = f.drop_cause.as_deref().and_then(drop_label_to_cause) {
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
        if deadline_met {
            if !frozen {
                for s in Stage::ALL {
                    let v = f.stage(s);
                    if v > 0.0 {
                        let b = self.baselines[s.index()].unwrap_or(v);
                        self.baselines[s.index()] =
                            Some(b * (1.0 - BASELINE_ALPHA) + v * BASELINE_ALPHA);
                    }
                }
            }
        } else {
            let critical_ms = f.critical_ms();
            let (cause, detail) = self.judge(&f, critical_ms, budget_ms);
            self.records.push(MissRecord {
                frame: f.frame,
                ts_ms: f
                    .miss_ts_ms
                    .unwrap_or_else(|| f.legs.map_or(0.0, |(_, hi)| hi)),
                overrun_ms: (critical_ms - budget_ms).max(0.0),
                cause,
                detail,
            });
        }
        if f.downgraded {
            self.relabel(f.frame);
        }
    }

    /// Ladder hindsight: a downgrade decided at frame `d` means the
    /// controller was still descending toward a rung that absorbs the
    /// throttle, so the reaction, not the NPU, is to blame for the
    /// throttle misses of frames `d - LADDER_LOOKAHEAD_FRAMES ..= d`.
    fn relabel(&mut self, d: u64) {
        for r in self.records.iter_mut().rev() {
            if r.frame + LADDER_LOOKAHEAD_FRAMES < d {
                break;
            }
            if r.frame <= d && r.cause == MissCause::NpuThrottle {
                r.cause = MissCause::LadderLag;
                r.detail.push_str(", ladder still descending");
            }
        }
    }

    /// The decision tree for one missed frame.
    fn judge(&self, f: &FrameFacts, critical_ms: f64, budget_ms: f64) -> (MissCause, String) {
        let stage = |s: Stage| f.stage(s);
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
        let fault = |name: &str| self.active_faults.iter().any(|l| l == name);
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
}

/// A [`Sink`] that attributes every deadline miss and frozen stall of the
/// session it is attached to, as the frames close.
///
/// Cloning shares the state (the [`crate::MemorySink`] pattern): hand one
/// clone to the recorder and read [`Attributor::attribution`] from the
/// other. A `SessionStart` starts over, so the verdict is always the
/// latest session's. A frame is judged at its `FrameEnd`, so its drop and
/// deadline-miss instants must arrive before it (the session step records
/// them there); of the instants that arrive after it, only a ladder
/// downgrade still acts on the misses already judged, and a fault change
/// applies from the next frame on.
#[derive(Debug, Clone)]
pub struct Attributor {
    budget_ms: f64,
    state: Arc<Mutex<AttributionState>>,
}

impl Attributor {
    /// An attributor judging frames against `budget_ms`.
    pub fn new(budget_ms: f64) -> Self {
        Attributor {
            budget_ms,
            state: Arc::default(),
        }
    }

    /// The verdict over every frame closed so far.
    pub fn attribution(&self) -> SessionAttribution {
        let state = self.state.lock().expect("attributor poisoned");
        // tallied from the records in frame order, after any relabelling,
        // so the float sums are those of a single pass over the misses
        let mut hists: Vec<Histogram> = (0..MissCause::COUNT)
            .map(|_| Histogram::latency_ms())
            .collect();
        let mut tallies: Vec<(u64, f64, u64, f64)> = vec![(0, 0.0, 0, 0.0); MissCause::COUNT];
        for r in &state.records {
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
            .filter(|c| state.stall_frames[c.index()] > 0)
            .map(|&cause| StallEntry {
                cause,
                frames: state.stall_frames[cause.index()],
                longest_run: state.stall_longest[cause.index()],
            })
            .collect();
        SessionAttribution {
            label: state.label.clone(),
            frames: state.frames,
            misses: state.records.len() as u64,
            blame,
            stalls,
            records: state.records.clone(),
        }
    }
}

impl Sink for Attributor {
    fn emit(&mut self, event: &Event) {
        let mut state = self.state.lock().expect("attributor poisoned");
        match event {
            Event::SessionStart { label, .. } => {
                *state = AttributionState {
                    label: label.clone(),
                    ..AttributionState::default()
                };
            }
            Event::FrameStart { frame } => {
                // a dangling open frame (no FrameEnd) closes as a miss
                state.close(false, self.budget_ms);
                state.open_frame(*frame);
            }
            Event::Span {
                frame,
                stage,
                start_ms,
                end_ms,
            } => state.open_frame(*frame).span(*stage, *start_ms, *end_ms),
            Event::Instant {
                frame,
                kind,
                ts_ms,
                detail,
            } => state.instant(*frame, *kind, *ts_ms, detail),
            Event::FrameEnd { deadline_met, .. } => state.close(*deadline_met, self.budget_ms),
            Event::SessionEnd { .. } => state.close(false, self.budget_ms),
            Event::Count { .. } | Event::Gauge { .. } | Event::Log { .. } => {}
        }
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

    type Spans<'a> = &'a [(Stage, f64, f64)];

    /// An attributor that has seen the session start.
    fn attributor() -> Attributor {
        let mut att = Attributor::new(crate::REALTIME_BUDGET_MS);
        att.emit(&Event::SessionStart {
            label: "test".to_owned(),
            budget_ms: crate::REALTIME_BUDGET_MS,
        });
        att
    }

    fn instant(att: &mut Attributor, frame: u64, kind: InstantKind, ts_ms: f64, detail: &str) {
        att.emit(&Event::Instant {
            frame,
            kind,
            ts_ms,
            detail: detail.to_owned(),
        });
    }

    /// Streams one frame: its spans, then its instants, then the verdict.
    fn frame(
        att: &mut Attributor,
        i: u64,
        deadline_met: bool,
        spans: Spans<'_>,
        instants: &[(InstantKind, f64, &str)],
    ) {
        att.emit(&Event::FrameStart { frame: i });
        for &(stage, start_ms, end_ms) in spans {
            att.emit(&Event::Span {
                frame: i,
                stage,
                start_ms,
                end_ms,
            });
        }
        for &(kind, ts_ms, detail) in instants {
            instant(att, i, kind, ts_ms, detail);
        }
        att.emit(&Event::FrameEnd {
            frame: i,
            mtp_ms: 0.0,
            bytes: 0,
            deadline_met,
        });
    }

    /// A healthy frame: 4 ms NPU leg, 2 ms GPU leg, 1 ms merge.
    fn good_frame(att: &mut Attributor, i: u64, t0: f64) {
        let spans = [
            (Stage::Decode, t0, t0 + 3.0),
            (Stage::NpuSr, t0 + 3.0, t0 + 7.0),
            (Stage::GpuInterp, t0 + 3.0, t0 + 5.0),
            (Stage::Merge, t0 + 7.0, t0 + 8.0),
        ];
        frame(att, i, true, &spans, &[]);
    }

    /// A missed frame whose NPU leg ran `npu_ms` (baseline is 4 ms), plus
    /// `faults` as its fault instant when non-empty.
    fn miss_frame(att: &mut Attributor, i: u64, t0: f64, npu_ms: f64, faults: &str) {
        let spans = [
            (Stage::Decode, t0, t0 + 3.0),
            (Stage::NpuSr, t0 + 3.0, t0 + 3.0 + npu_ms),
            (Stage::GpuInterp, t0 + 3.0, t0 + 5.0),
            (Stage::Merge, t0 + 3.0 + npu_ms, t0 + 4.0 + npu_ms),
        ];
        let miss = (
            InstantKind::DeadlineMiss,
            t0 + 4.0 + npu_ms,
            "critical path over budget",
        );
        let fault = (InstantKind::Fault, t0, faults);
        let instants = if faults.is_empty() {
            vec![miss]
        } else {
            vec![miss, fault]
        };
        frame(att, i, false, &spans, &instants);
    }

    #[test]
    fn throttled_miss_is_blamed_on_the_npu() {
        let mut att = attributor();
        for i in 0..20 {
            good_frame(&mut att, i, i as f64 * 16.67);
        }
        miss_frame(
            &mut att,
            20,
            20.0 * 16.67,
            20.0,
            "faults active: npu-throttle",
        );
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
        miss_frame(
            &mut att,
            20,
            20.0 * 16.67,
            20.0,
            "faults active: npu-throttle",
        );
        good_frame(&mut att, 22, 22.0 * 16.67);
        assert_eq!(att.attribution().records[0].cause, MissCause::NpuThrottle);
        // the controller decides after frame 22 closes
        instant(
            &mut att,
            22,
            InstantKind::LadderShift,
            22.0 * 16.67,
            "ladder down: rung 0 -> 1 (fp16, roi 416 px, rate x0.85)",
        );
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
        miss_frame(&mut att, 5, 5.0 * 16.67, 18.0, "");
        let miss = (
            InstantKind::DeadlineMiss,
            6.0 * 16.67 + 22.0,
            "critical path over budget",
        );
        frame(&mut att, 6, false, &[], &[miss]);
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
        for i in 1..4u64 {
            let t0 = i as f64 * 16.67;
            let drop = [(InstantKind::Drop, t0, "frame dropped: queue-overflow")];
            let instants: &[_] = if i == 1 { &drop } else { &[] };
            frame(&mut att, i, true, &[], instants);
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
            miss_frame(&mut att, 10, 10.0 * 16.67, 19.0, "");
            att.attribution().to_json()
        };
        let a = run();
        assert_eq!(a, run());
        let parsed = crate::json::parse(&a).expect("attribution json parses");
        assert_eq!(parsed.get("misses").and_then(|v| v.as_f64()), Some(1.0));
    }
}
