//! Deterministic tail-based trace sampling with a hard retention budget.
//!
//! A full [`crate::TraceSink`] keeps every frame's span tree, so a merged
//! fleet trace grows O(sessions × ticks) — fine for a handful of sessions,
//! fatal for always-on fleet observability. [`SamplingTraceSink`] consumes
//! the *same* recorder event stream but decides per frame, after the frame
//! has fully settled, whether its causal trace is worth keeping:
//!
//! - **Anomaly frames are always retained.** A frame is anomalous when it
//!   missed its deadline or carries any instant event (drop, ladder shift,
//!   NACK, fault activation, SLO breach, recovery transition, …).
//! - **±K context frames around every anomaly are retained.** The K frames
//!   *before* an anomaly come from a provisional ring that holds the most
//!   recent unretained frames; the K frames *after* are kept as they close.
//! - **A deterministic 1-in-M head-sampled baseline** (`frame % M == 0`)
//!   is retained so healthy steady-state behaviour stays visible.
//! - Everything else is evicted, and every eviction is counted — the
//!   ledger invariant `frames == retained + evicted` holds after a session
//!   ends, so nothing ever vanishes silently.
//!
//! Classification is **deferred by one frame**: the controller runs *after*
//! `end_frame`, so ladder-shift (and similar) instants attach to the frame
//! that just closed. The frame assembler the sampler shares with
//! [`crate::TraceSink`] therefore parks each closed frame in a one-slot
//! buffer and only hands it over when the next `FrameStart` (or
//! `SessionEnd`) proves no more instants can arrive. This is what makes
//! anomaly coverage exact rather than racy, and a retained frame
//! structurally identical to its full-trace counterpart.
//!
//! A [`TraceBudget`] bounds memory: a per-session cap plus a fleet-wide cap
//! (enforced serially via [`enforce_fleet_cap`]). Eviction under budget
//! pressure removes the *oldest baseline* frames first and **never** touches
//! anomaly or context frames; when an anomaly is promoted, any retained
//! baseline inside its backward context window is upgraded to context so
//! budget pressure cannot punch holes into an anomaly's neighbourhood. An
//! all-anomaly storm can therefore exceed the budget — the budget is hard
//! for baseline mass and intentionally soft for evidence.
//!
//! Everything here is frame-counted and driven by modeled timestamps —
//! never wall-clock — so retained traces, counter tracks and the exported
//! Chrome JSON are byte-identical at any `GSS_THREADS`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::hist::{Exemplar, Histogram};
use crate::json::json_f64;
use crate::sink::{Event, Sink};
use crate::trace::{chrome_trace_json_ext, Assembler, CounterTrack, TraceFrame, TraceSession};
use crate::Stage;

/// Per-session sampling counter-track names, in emission order:
/// currently-retained frames, cumulative evictions, cumulative anomalies
/// kept. Rendered as Chrome `C` counter tracks next to the session's lanes.
pub const SAMPLING_TRACKS: [&str; 3] = [
    "sampling-retained",
    "sampling-evicted",
    "sampling-anomaly-kept",
];

/// Retention caps for sampled traces.
///
/// Both caps count *frames*, not bytes: frame span trees have near-constant
/// size, and frame counts are deterministic where byte counts would couple
/// the policy to formatting. Caps apply to baseline frames only — see the
/// module docs for why anomaly/context frames are never evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceBudget {
    /// Maximum retained frames per session.
    pub per_session: usize,
    /// Maximum retained frames across every sink passed to
    /// [`enforce_fleet_cap`].
    pub fleet: usize,
}

impl Default for TraceBudget {
    fn default() -> Self {
        TraceBudget {
            per_session: 256,
            fleet: 4096,
        }
    }
}

/// The tail-sampling keep policy. All knobs are frame-counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPolicy {
    /// Keep every M-th frame (`frame % M == 0`) as a healthy baseline.
    /// `0` disables baseline sampling entirely.
    pub baseline_period: u64,
    /// Context frames retained on each side of an anomaly (the ±K window).
    pub context_frames: u64,
    /// Retention caps.
    pub budget: TraceBudget,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            baseline_period: 16,
            context_frames: 2,
            budget: TraceBudget::default(),
        }
    }
}

/// Why a retained frame was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// The frame itself carried an anomaly (deadline miss or any instant).
    Anomaly,
    /// The frame sits inside the ±K window of a retained anomaly.
    Context,
    /// Deterministic 1-in-M head sample of healthy frames.
    Baseline,
}

impl KeepReason {
    /// Stable kebab-case label, used in exports and tests.
    pub fn label(self) -> &'static str {
        match self {
            KeepReason::Anomaly => "anomaly",
            KeepReason::Context => "context",
            KeepReason::Baseline => "baseline",
        }
    }
}

/// Snapshot of one sink's sampling ledger (aggregated over its sessions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplingStats {
    /// Frames fully classified so far.
    pub frames: u64,
    /// Frames currently retained.
    pub retained: u64,
    /// Cumulative evictions (ring overflow, budget and fleet-cap pressure,
    /// end-of-session ring drain).
    pub evicted: u64,
    /// Anomalous frames observed.
    pub anomaly_frames: u64,
    /// Anomalous frames retained (invariant: equals `anomaly_frames`).
    pub anomaly_kept: u64,
    /// Currently retained baseline frames.
    pub baseline_kept: u64,
    /// Currently retained context frames.
    pub context_kept: u64,
    /// Frames parked in provisional rings, still awaiting a keep/evict
    /// verdict (zero once a session has ended).
    pub pending: u64,
}

#[derive(Debug)]
struct RetainedFrame {
    reason: KeepReason,
    frame: TraceFrame,
}

/// One session's sampling state, fed its frames as they settle.
#[derive(Debug, Default)]
struct SampledSession {
    /// Provisional ring of recent unretained frames (backward context).
    ring: VecDeque<TraceFrame>,
    retained: Vec<RetainedFrame>,
    /// Highest frame number still owed forward context, if any.
    retain_until: Option<u64>,
    frames: u64,
    evicted: u64,
    anomaly_frames: u64,
    anomaly_kept: u64,
    /// Latest modeled timestamp seen, used to stamp counter samples for
    /// out-of-band (fleet-cap) evictions.
    last_ts: f64,
    /// Change-only `(ts, value)` samples per [`SAMPLING_TRACKS`] entry.
    tracks: [Vec<(f64, f64)>; 3],
}

impl SampledSession {
    fn frame_ts(&mut self, frame: &TraceFrame) -> f64 {
        let ts = frame.spans[0].end_ms;
        if ts > self.last_ts {
            self.last_ts = ts;
        }
        self.last_ts
    }

    fn track_values(&self) -> [f64; 3] {
        [
            self.retained.len() as f64,
            self.evicted as f64,
            self.anomaly_kept as f64,
        ]
    }

    /// Appends change-only samples for every track whose value moved.
    fn sample_tracks(&mut self, ts: f64) {
        let values = self.track_values();
        for (track, value) in self.tracks.iter_mut().zip(values) {
            if track.last().map(|(_, v)| *v) != Some(value) {
                track.push((ts, value));
            }
        }
    }

    /// Drops ring frames too old to serve as backward context for any
    /// anomaly at `now` or later: a frame `p` can only sit in a window
    /// `[a - K, a - 1]` with `a >= now`, so `p + K < now` disqualifies it
    /// (strict, so `now`'s own window `[now - K, now - 1]` is preserved).
    fn prune_ring(&mut self, now: u64, k: u64) {
        while let Some(front) = self.ring.front() {
            if front.frame.saturating_add(k) < now {
                self.ring.pop_front();
                self.evicted += 1;
            } else {
                break;
            }
        }
    }

    fn enforce_session_budget(&mut self, cap: usize) {
        while self.retained.len() > cap {
            let Some(pos) = self
                .retained
                .iter()
                .position(|r| r.reason == KeepReason::Baseline)
            else {
                break; // only anomaly/context mass left: budget goes soft
            };
            self.retained.remove(pos);
            self.evicted += 1;
        }
    }

    /// Classifies one settled frame. The heart of the tail sampler.
    fn classify(&mut self, frame: TraceFrame, policy: &SamplingPolicy) {
        self.frames += 1;
        let ts = self.frame_ts(&frame);
        let fno = frame.frame;
        let k = policy.context_frames;
        self.prune_ring(fno, k);
        let anomaly = !frame.deadline_met || !frame.instants.is_empty();
        if anomaly {
            self.anomaly_frames += 1;
            // Backward context: everything still in the ring is, after the
            // prune above, inside the window.
            for ctx in self.ring.drain(..) {
                self.retained.push(RetainedFrame {
                    reason: KeepReason::Context,
                    frame: ctx,
                });
            }
            // Upgrade retained baselines inside the backward window so
            // budget pressure cannot evict the anomaly's context later.
            for kept in self.retained.iter_mut().rev() {
                if kept.frame.frame.saturating_add(k) < fno {
                    break;
                }
                if kept.reason == KeepReason::Baseline {
                    kept.reason = KeepReason::Context;
                }
            }
            self.retained.push(RetainedFrame {
                reason: KeepReason::Anomaly,
                frame,
            });
            self.anomaly_kept += 1;
            self.retain_until = Some(fno.saturating_add(k));
        } else if self.retain_until.is_some_and(|until| fno <= until) {
            self.retained.push(RetainedFrame {
                reason: KeepReason::Context,
                frame,
            });
        } else if policy.baseline_period > 0 && fno.is_multiple_of(policy.baseline_period) {
            self.retained.push(RetainedFrame {
                reason: KeepReason::Baseline,
                frame,
            });
        } else if k > 0 {
            self.ring.push_back(frame);
        } else {
            self.evicted += 1;
        }
        self.enforce_session_budget(policy.budget.per_session);
        self.sample_tracks(ts);
    }

    /// End of session: every frame has settled, so ring frames that never
    /// became context are now definitively evicted.
    fn finish(&mut self) {
        let drained = self.ring.len() as u64;
        self.ring.clear();
        self.evicted += drained;
        self.sample_tracks(self.last_ts);
    }

    fn stats(&self) -> SamplingStats {
        let mut baseline_kept = 0;
        let mut context_kept = 0;
        for r in &self.retained {
            match r.reason {
                KeepReason::Baseline => baseline_kept += 1,
                KeepReason::Context => context_kept += 1,
                KeepReason::Anomaly => {}
            }
        }
        SamplingStats {
            frames: self.frames,
            retained: self.retained.len() as u64,
            evicted: self.evicted,
            anomaly_frames: self.anomaly_frames,
            anomaly_kept: self.anomaly_kept,
            baseline_kept,
            context_kept,
            pending: self.ring.len() as u64,
        }
    }
}

#[derive(Debug)]
struct SampleState {
    policy: SamplingPolicy,
    assembler: Assembler<SampledSession>,
}

/// A [`Sink`] that tail-samples the recorder event stream into a bounded
/// set of retained frame traces. Cloning shares the underlying state (the
/// [`crate::MemorySink`] pattern): hand one clone to the recorder and keep
/// the other to export after the session finishes.
#[derive(Debug, Clone)]
pub struct SamplingTraceSink {
    state: Arc<Mutex<SampleState>>,
}

impl Default for SamplingTraceSink {
    fn default() -> Self {
        SamplingTraceSink::new(SamplingPolicy::default())
    }
}

impl SamplingTraceSink {
    /// An empty sampling sink with the given keep policy.
    pub fn new(policy: SamplingPolicy) -> Self {
        SamplingTraceSink {
            state: Arc::new(Mutex::new(SampleState {
                policy,
                assembler: Assembler::default(),
            })),
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut SampleState) -> R) -> R {
        let mut state = self.state.lock().expect("sampling sink poisoned");
        f(&mut state)
    }

    /// The configured keep policy.
    pub fn policy(&self) -> SamplingPolicy {
        self.with_state(|s| s.policy)
    }

    /// Snapshot of every session's *retained* frames, with pids and trace
    /// ids assigned exactly like [`crate::TraceSink::sessions`], so a
    /// retained frame's `trace_id` matches its full-trace counterpart.
    pub fn sessions(&self) -> Vec<TraceSession> {
        self.with_state(|state| {
            state
                .assembler
                .sessions()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let frames = s.store.retained.iter().map(|r| r.frame.clone()).collect();
                    TraceSession::new(s.label.clone(), (i + 1) as u64, frames)
                })
                .collect()
        })
    }

    /// `(frame, reason)` pairs per session, in retention order — the raw
    /// ledger, for tests and triage.
    pub fn keep_reasons(&self) -> Vec<Vec<(u64, KeepReason)>> {
        self.with_state(|state| {
            state
                .assembler
                .sessions()
                .iter()
                .map(|s| {
                    s.store
                        .retained
                        .iter()
                        .map(|r| (r.frame.frame, r.reason))
                        .collect()
                })
                .collect()
        })
    }

    /// Aggregated sampling ledger across this sink's sessions.
    pub fn stats(&self) -> SamplingStats {
        self.with_state(|state| {
            let mut total = SamplingStats::default();
            for s in state.assembler.sessions() {
                let st = s.store.stats();
                total.frames += st.frames;
                total.retained += st.retained;
                total.evicted += st.evicted;
                total.anomaly_frames += st.anomaly_frames;
                total.anomaly_kept += st.anomaly_kept;
                total.baseline_kept += st.baseline_kept;
                total.context_kept += st.context_kept;
                total.pending += st.pending;
            }
            total
        })
    }

    /// Total frames currently retained across sessions.
    pub fn retained_count(&self) -> usize {
        self.with_state(|state| {
            state
                .assembler
                .sessions()
                .iter()
                .map(|s| s.store.retained.len())
                .sum()
        })
    }

    /// Frames the fleet cap may still evict (retained baselines).
    pub fn evictable_count(&self) -> usize {
        self.with_state(|state| {
            state
                .assembler
                .sessions()
                .iter()
                .flat_map(|s| &s.store.retained)
                .filter(|r| r.reason == KeepReason::Baseline)
                .count()
        })
    }

    /// Evicts the oldest retained baseline frame (first session that has
    /// one), stamping the eviction on the counter tracks at `ts_ms`.
    /// Returns `false` when nothing is evictable.
    pub fn evict_oldest_baseline(&self, ts_ms: f64) -> bool {
        self.with_state(|state| {
            for session in state.assembler.sessions_mut() {
                let session = &mut session.store;
                let Some(pos) = session
                    .retained
                    .iter()
                    .position(|r| r.reason == KeepReason::Baseline)
                else {
                    continue;
                };
                session.retained.remove(pos);
                session.evicted += 1;
                if ts_ms > session.last_ts {
                    session.last_ts = ts_ms;
                }
                let ts = session.last_ts;
                session.sample_tracks(ts);
                return true;
            }
            false
        })
    }

    /// Per-session [`SAMPLING_TRACKS`] counter tracks with pids matching
    /// [`SamplingTraceSink::sessions`]. Callers merging several sinks remap
    /// `pid` on the returned tracks. Empty tracks are omitted.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        self.with_state(|state| {
            let mut out = Vec::new();
            for (i, s) in state.assembler.sessions().iter().enumerate() {
                let pid = (i + 1) as u64;
                for (name, samples) in SAMPLING_TRACKS.iter().zip(&s.store.tracks) {
                    if !samples.is_empty() {
                        out.push(CounterTrack {
                            pid,
                            name: (*name).to_owned(),
                            samples: samples.clone(),
                        });
                    }
                }
            }
            out
        })
    }

    /// Renders the retained trace (plus sampling counter tracks) as a
    /// Chrome trace-event JSON document. Same determinism contract as
    /// [`crate::TraceSink::to_chrome_json`]: byte-identical output for
    /// identical event streams, at any worker count.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json_ext(&self.sessions(), &[], &self.counter_tracks(), &[])
    }
}

impl Sink for SamplingTraceSink {
    fn emit(&mut self, event: &Event) {
        self.with_state(|state| {
            let Some((session, settled)) = state.assembler.feed(event) else {
                return;
            };
            for frame in settled.into_iter().flatten() {
                session.store.classify(frame, &state.policy);
            }
            if matches!(event, Event::SessionEnd { .. }) {
                session.store.finish();
            }
        });
    }
}

/// Serially enforces the fleet-wide retention cap across a set of sampling
/// sinks: while the total retained frame count exceeds `cap`, evict one
/// baseline frame from the sink currently holding the *most* evictable
/// baselines (ties break to the lowest index — fair and deterministic).
/// Anomaly and context frames are never evicted, so the loop stops early
/// when only evidence remains. Returns the number of frames evicted;
/// evictions are stamped on the counter tracks at `ts_ms`.
pub fn enforce_fleet_cap(sinks: &[SamplingTraceSink], cap: usize, ts_ms: f64) -> u64 {
    let mut evicted = 0;
    loop {
        let total: usize = sinks.iter().map(|s| s.retained_count()).sum();
        if total <= cap {
            return evicted;
        }
        let mut best: Option<(usize, usize)> = None; // (evictable, index)
        for (i, sink) in sinks.iter().enumerate() {
            let e = sink.evictable_count();
            if e > 0 && best.is_none_or(|(be, _)| e > be) {
                best = Some((e, i));
            }
        }
        let Some((_, idx)) = best else {
            return evicted; // only anomaly/context mass left everywhere
        };
        if !sinks[idx].evict_oldest_baseline(ts_ms) {
            return evicted;
        }
        evicted += 1;
    }
}

/// Per-session trace-linked exemplars: for each pipeline stage (and for the
/// whole-frame envelope) the trace id of the worst *retained* frame, so a
/// p99 line in `figures triage` or a Prometheus snapshot links straight
/// into the sampled Chrome trace. See [`Exemplar`] for why the worst sample
/// is exactly the p99-bucket exemplar.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionExemplars {
    /// Session label (matches the traced session).
    pub label: String,
    /// Chrome pid of the traced session.
    pub pid: u64,
    /// Exemplar of the worst whole-frame envelope (root span duration).
    pub worst_frame: Option<Exemplar>,
    /// Per-stage exemplars, in [`Stage::ALL`] order; stages with no
    /// retained spans are omitted.
    pub stages: Vec<(Stage, Exemplar)>,
}

impl SessionExemplars {
    /// The exemplar for `stage`, if any retained frame exercised it.
    pub fn stage(&self, stage: Stage) -> Option<Exemplar> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, e)| *e)
    }

    /// Total exemplars carried (stages + worst-frame).
    pub fn count(&self) -> usize {
        self.stages.len() + usize::from(self.worst_frame.is_some())
    }
}

/// Builds per-(session, stage) latency-histogram exemplars from retained
/// traces: each stage's histogram is replayed from the retained span
/// durations via [`Histogram::record_with_exemplar`], so the exemplar is
/// *consistent by construction* — its trace id always names a retained
/// frame and its value is exactly that frame's span duration.
pub fn compute_exemplars(sessions: &[TraceSession]) -> Vec<SessionExemplars> {
    sessions
        .iter()
        .map(|session| {
            let mut root = Histogram::latency_ms();
            let mut stage_hists: Vec<Histogram> =
                Stage::ALL.iter().map(|_| Histogram::latency_ms()).collect();
            for frame in &session.frames {
                let envelope = &frame.spans[0];
                root.record_with_exemplar(envelope.end_ms - envelope.start_ms, frame.trace_id);
                for (i, stage) in Stage::ALL.iter().enumerate() {
                    for span in frame.stage_spans(*stage) {
                        stage_hists[i]
                            .record_with_exemplar(span.end_ms - span.start_ms, frame.trace_id);
                    }
                }
            }
            SessionExemplars {
                label: session.label.clone(),
                pid: session.pid,
                worst_frame: root.exemplar(),
                stages: Stage::ALL
                    .iter()
                    .zip(&stage_hists)
                    .filter_map(|(stage, hist)| hist.exemplar().map(|e| (*stage, e)))
                    .collect(),
            }
        })
        .collect()
}

/// Fleet-level roll-up of the sampling ledger across many sinks, plus the
/// exemplar count over the merged retained trace. Serialized separately
/// from `FleetReport` so a sampled run's report stays byte-identical to a
/// full-trace run of the same configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingSummary {
    /// Sampled sessions contributing to the ledger.
    pub sessions: u64,
    /// Frames classified.
    pub frames: u64,
    /// Frames currently retained.
    pub retained: u64,
    /// Cumulative evictions.
    pub evicted: u64,
    /// Anomalous frames observed.
    pub anomaly_frames: u64,
    /// Anomalous frames retained.
    pub anomaly_kept: u64,
    /// Retained baseline frames.
    pub baseline_kept: u64,
    /// Retained context frames.
    pub context_kept: u64,
    /// Exemplars over the retained trace (per-stage + worst-frame).
    pub exemplars: u64,
}

impl SamplingSummary {
    /// Rolls up the ledger across `sinks`, computing exemplars per sink
    /// over its retained sessions.
    pub fn collect(sinks: &[SamplingTraceSink]) -> SamplingSummary {
        let mut out = SamplingSummary {
            sessions: 0,
            frames: 0,
            retained: 0,
            evicted: 0,
            anomaly_frames: 0,
            anomaly_kept: 0,
            baseline_kept: 0,
            context_kept: 0,
            exemplars: 0,
        };
        for sink in sinks {
            let sessions = sink.sessions();
            out.sessions += sessions.len() as u64;
            for ex in compute_exemplars(&sessions) {
                out.exemplars += ex.count() as u64;
            }
            let st = sink.stats();
            out.frames += st.frames;
            out.retained += st.retained;
            out.evicted += st.evicted;
            out.anomaly_frames += st.anomaly_frames;
            out.anomaly_kept += st.anomaly_kept;
            out.baseline_kept += st.baseline_kept;
            out.context_kept += st.context_kept;
        }
        out
    }

    /// Retained fraction of classified frames (0 when no frames).
    pub fn retention_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.retained as f64 / self.frames as f64
        }
    }

    /// Fraction of observed anomalies retained — 1.0 by construction, and
    /// 1.0 when no anomaly occurred (full coverage of an empty set).
    pub fn anomaly_coverage(&self) -> f64 {
        if self.anomaly_frames == 0 {
            1.0
        } else {
            self.anomaly_kept as f64 / self.anomaly_frames as f64
        }
    }

    /// Deterministic single-line JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sessions\":{},\"frames\":{},\"retained\":{},\"evicted\":{},\
             \"anomaly_frames\":{},\"anomaly_kept\":{},\"baseline_kept\":{},\
             \"context_kept\":{},\"exemplars\":{},\"retention_ratio\":{},\
             \"anomaly_coverage\":{}}}",
            self.sessions,
            self.frames,
            self.retained,
            self.evicted,
            self.anomaly_frames,
            self.anomaly_kept,
            self.baseline_kept,
            self.context_kept,
            self.exemplars,
            json_f64(self.retention_ratio()),
            json_f64(self.anomaly_coverage()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::InstantKind;
    use crate::{Recorder, SinkHandle};

    fn policy(m: u64, k: u64, per_session: usize) -> SamplingPolicy {
        SamplingPolicy {
            baseline_period: m,
            context_frames: k,
            budget: TraceBudget {
                per_session,
                fleet: usize::MAX,
            },
        }
    }

    fn sampler(p: SamplingPolicy) -> (SamplingTraceSink, Recorder) {
        let sink = SamplingTraceSink::new(p);
        let rec = Recorder::new("sampling-unit", 16.67).with_sink(SinkHandle::new(sink.clone()));
        (sink, rec)
    }

    /// One frame with a realistic span tree; `critical_ms` > 16.67 misses.
    fn record_frame(rec: &mut Recorder, frame: u64, critical_ms: f64, kind: Option<InstantKind>) {
        rec.begin_frame(frame);
        rec.record_span(Stage::Render, 0.0, 4.0);
        rec.record_span(Stage::Encode, 4.0, 2.0);
        rec.record_span(Stage::LinkTransfer, 6.0, 3.0);
        rec.record_span(Stage::Decode, 9.0, 1.5);
        if let Some(kind) = kind {
            rec.instant(kind, 10.0, "injected");
        }
        rec.end_frame(critical_ms + 5.0, critical_ms, 1000);
    }

    fn reasons(sink: &SamplingTraceSink) -> Vec<(u64, KeepReason)> {
        sink.keep_reasons().remove(0)
    }

    #[test]
    fn baseline_is_head_sampled_one_in_m_and_the_ledger_balances() {
        let (sink, mut rec) = sampler(policy(4, 1, usize::MAX));
        for f in 0..12 {
            record_frame(&mut rec, f, 10.0, None);
        }
        rec.finish();
        assert_eq!(
            reasons(&sink),
            vec![
                (0, KeepReason::Baseline),
                (4, KeepReason::Baseline),
                (8, KeepReason::Baseline)
            ]
        );
        let st = sink.stats();
        assert_eq!(st.frames, 12);
        assert_eq!(st.retained, 3);
        assert_eq!(st.evicted, 9, "every unretained frame is counted out");
        assert_eq!(st.pending, 0, "ring drains at session end");
        assert_eq!(st.frames, st.retained + st.evicted);
    }

    #[test]
    fn anomaly_keeps_plus_minus_k_context() {
        let (sink, mut rec) = sampler(policy(0, 2, usize::MAX));
        for f in 0..10 {
            let kind = (f == 5).then_some(InstantKind::Nack);
            record_frame(&mut rec, f, 10.0, kind);
        }
        rec.finish();
        assert_eq!(
            reasons(&sink),
            vec![
                (3, KeepReason::Context),
                (4, KeepReason::Context),
                (5, KeepReason::Anomaly),
                (6, KeepReason::Context),
                (7, KeepReason::Context),
            ]
        );
        assert_eq!(sink.stats().anomaly_kept, 1);
    }

    #[test]
    fn an_unbounded_context_window_keeps_every_frame() {
        let (sink, mut rec) = sampler(policy(0, u64::MAX, usize::MAX));
        for f in 0..5 {
            let kind = (f == 2).then_some(InstantKind::Nack);
            record_frame(&mut rec, f, 10.0, kind);
        }
        rec.finish();
        assert_eq!(
            reasons(&sink),
            vec![
                (0, KeepReason::Context),
                (1, KeepReason::Context),
                (2, KeepReason::Anomaly),
                (3, KeepReason::Context),
                (4, KeepReason::Context),
            ]
        );
        let st = sink.stats();
        assert_eq!(st.frames, st.retained + st.evicted);
        assert_eq!(st.evicted, 0);
    }

    #[test]
    fn deadline_miss_alone_is_an_anomaly() {
        let (sink, mut rec) = sampler(policy(0, 0, usize::MAX));
        record_frame(&mut rec, 0, 10.0, None);
        record_frame(&mut rec, 1, 30.0, None); // missed deadline
        record_frame(&mut rec, 2, 10.0, None);
        rec.finish();
        assert_eq!(reasons(&sink), vec![(1, KeepReason::Anomaly)]);
    }

    #[test]
    fn post_frame_instant_still_flips_the_closed_frame_to_anomaly() {
        // Ladder shifts are decided by the controller *after* end_frame and
        // attach to the frame that just closed; deferred classification
        // must catch them.
        let (sink, mut rec) = sampler(policy(0, 0, usize::MAX));
        record_frame(&mut rec, 0, 10.0, None);
        rec.instant(InstantKind::LadderShift, 20.0, "rung 0 -> 1");
        record_frame(&mut rec, 1, 10.0, None);
        rec.finish();
        assert_eq!(reasons(&sink), vec![(0, KeepReason::Anomaly)]);
    }

    #[test]
    fn budget_evicts_oldest_baselines_but_never_anomaly_or_context() {
        // Baselines at 0,2,4; anomaly at 5 with K=2 upgrades baseline 4 and
        // ring frame 3 to context. A budget of 3 then evicts baselines 0
        // and 2 — the anomaly window survives intact.
        let (sink, mut rec) = sampler(policy(2, 2, 3));
        for f in 0..8 {
            let kind = (f == 5).then_some(InstantKind::Drop);
            record_frame(&mut rec, f, 10.0, kind);
        }
        rec.finish();
        let kept = reasons(&sink);
        assert!(
            kept.iter().all(|(f, _)| [3, 4, 5, 6, 7].contains(f)),
            "anomaly window intact, old baselines gone: {kept:?}"
        );
        assert_eq!(
            kept.iter()
                .filter(|(_, r)| *r == KeepReason::Anomaly)
                .count(),
            1
        );
        let st = sink.stats();
        assert_eq!(st.anomaly_kept, st.anomaly_frames);
        assert_eq!(st.frames, st.retained + st.evicted);
    }

    #[test]
    fn all_anomaly_storm_overrides_the_budget() {
        // Every frame misses: the budget is soft for evidence — nothing is
        // evicted even with per_session = 2.
        let (sink, mut rec) = sampler(policy(0, 1, 2));
        for f in 0..20 {
            record_frame(&mut rec, f, 40.0, None);
        }
        rec.finish();
        let st = sink.stats();
        assert_eq!(st.anomaly_frames, 20);
        assert_eq!(st.retained, 20);
        assert_eq!(st.evicted, 0);
        assert_eq!(st.anomaly_kept, st.anomaly_frames);
    }

    #[test]
    fn budget_zero_still_keeps_anomalies_only() {
        let (sink, mut rec) = sampler(policy(1, 0, 0));
        for f in 0..6 {
            let kind = (f == 3).then_some(InstantKind::Fault);
            record_frame(&mut rec, f, 10.0, kind);
        }
        rec.finish();
        assert_eq!(reasons(&sink), vec![(3, KeepReason::Anomaly)]);
        assert_eq!(sink.stats().evicted, 5);
    }

    #[test]
    fn budget_smaller_than_one_anomaly_window_keeps_the_whole_window() {
        let (sink, mut rec) = sampler(policy(0, 3, 2));
        for f in 0..12 {
            let kind = (f == 6).then_some(InstantKind::SloBreach);
            record_frame(&mut rec, f, 10.0, kind);
        }
        rec.finish();
        // ±3 around frame 6 → 7 frames, all kept despite per_session = 2.
        assert_eq!(sink.retained_count(), 7);
        let kept = reasons(&sink);
        for f in 3..=9 {
            assert!(kept.iter().any(|(kf, _)| *kf == f), "frame {f} missing");
        }
    }

    #[test]
    fn fleet_cap_evicts_from_the_largest_sink_first_ties_to_lowest_index() {
        let mk = |frames: u64| {
            let (sink, mut rec) = sampler(policy(1, 0, usize::MAX));
            for f in 0..frames {
                record_frame(&mut rec, f, 10.0, None);
            }
            rec.finish();
            sink
        };
        let sinks = vec![mk(2), mk(5), mk(5)];
        assert_eq!(enforce_fleet_cap(&sinks, 9, 100.0), 3);
        let counts: Vec<usize> = sinks.iter().map(|s| s.retained_count()).collect();
        // 5,5 → largest; after one eviction each the tie breaks to index 1.
        assert_eq!(counts, vec![2, 3, 4]);
        assert_eq!(enforce_fleet_cap(&sinks, 9, 100.0), 0, "already under cap");
    }

    #[test]
    fn fleet_cap_never_evicts_anomaly_mass() {
        let (sink, mut rec) = sampler(policy(0, 0, usize::MAX));
        for f in 0..10 {
            record_frame(&mut rec, f, 40.0, None); // all anomalies
        }
        rec.finish();
        let sinks = vec![sink];
        assert_eq!(enforce_fleet_cap(&sinks, 2, 100.0), 0);
        assert_eq!(sinks[0].retained_count(), 10);
    }

    #[test]
    fn retained_frames_match_their_full_trace_counterparts() {
        let run_both = || {
            let full = crate::TraceSink::new();
            let sampled = SamplingTraceSink::new(policy(4, 1, usize::MAX));
            let fan = SinkHandle::fanout(vec![
                SinkHandle::new(full.clone()),
                SinkHandle::new(sampled.clone()),
            ]);
            let mut rec = Recorder::new("dual", 16.67).with_sink(fan);
            for f in 0..16 {
                let kind = (f == 9).then_some(InstantKind::Nack);
                record_frame(&mut rec, f, 10.0, kind);
            }
            rec.finish();
            (full, sampled)
        };
        let (full, sampled) = run_both();
        let full_frames = &full.sessions()[0].frames;
        for frame in &sampled.sessions()[0].frames {
            let twin = full_frames
                .iter()
                .find(|f| f.frame == frame.frame)
                .expect("retained frame exists in the full trace");
            assert_eq!(twin, frame, "retained frame {} diverged", frame.frame);
        }
    }

    #[test]
    fn export_is_byte_deterministic_and_carries_sampling_tracks() {
        let run = || {
            let (sink, mut rec) = sampler(policy(4, 1, 4));
            for f in 0..24 {
                let kind = (f % 7 == 5).then_some(InstantKind::Drop);
                record_frame(&mut rec, f, if f == 11 { 30.0 } else { 10.0 }, kind);
            }
            rec.finish();
            sink.to_chrome_json()
        };
        let a = run();
        assert_eq!(a, run(), "same inputs must export byte-identical JSON");
        let doc = crate::json::parse(&a).expect("export parses as JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        for name in SAMPLING_TRACKS {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("C")
                        && e.get("name").and_then(|n| n.as_str()) == Some(name)
                }),
                "missing counter track {name}"
            );
        }
    }

    #[test]
    fn exemplars_are_consistent_with_retained_frames() {
        let (sink, mut rec) = sampler(policy(4, 1, usize::MAX));
        for f in 0..20 {
            let kind = (f == 13).then_some(InstantKind::Recovery);
            record_frame(&mut rec, f, if f == 13 { 30.0 } else { 10.0 }, kind);
        }
        rec.finish();
        let sessions = sink.sessions();
        let exemplars = compute_exemplars(&sessions);
        assert_eq!(exemplars.len(), 1);
        let ex = &exemplars[0];
        assert!(ex.count() > 0);
        for (stage, e) in &ex.stages {
            let frame = sessions[0]
                .frames
                .iter()
                .find(|f| f.trace_id == e.trace_id)
                .expect("exemplar names a retained frame");
            assert!(
                frame
                    .stage_spans(*stage)
                    .iter()
                    .any(|s| (s.end_ms - s.start_ms) == e.value),
                "exemplar value is an exact retained span duration"
            );
        }
        let worst = ex.worst_frame.expect("worst-frame exemplar");
        let frame = sessions[0]
            .frames
            .iter()
            .find(|f| f.trace_id == worst.trace_id)
            .unwrap();
        let root = &frame.spans[0];
        assert_eq!(worst.value, root.end_ms - root.start_ms);
    }

    #[test]
    fn summary_rolls_up_and_serializes_deterministically() {
        let (sink, mut rec) = sampler(policy(4, 1, usize::MAX));
        for f in 0..16 {
            let kind = (f == 6).then_some(InstantKind::Drop);
            record_frame(&mut rec, f, 10.0, kind);
        }
        rec.finish();
        let summary = SamplingSummary::collect(std::slice::from_ref(&sink));
        assert_eq!(summary.sessions, 1);
        assert_eq!(summary.frames, 16);
        assert_eq!(summary.anomaly_coverage(), 1.0);
        assert!(summary.retention_ratio() > 0.0 && summary.retention_ratio() < 1.0);
        let json = summary.to_json();
        assert_eq!(json, SamplingSummary::collect(&[sink]).to_json());
        assert!(crate::json::parse(&json).is_ok(), "summary is valid JSON");
        assert!(json.contains("\"anomaly_coverage\":1"));
    }
}
