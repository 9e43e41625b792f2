//! Causal per-frame tracing and Chrome trace-event export.
//!
//! [`TraceSink`] is a [`Sink`] that reconstructs a *causal trace* from the
//! recorder's event stream: every frame becomes a tree of spans (a `frame`
//! root, one child per pipeline stage, and a synthesized `upscale` umbrella
//! over the parallel NPU ∥ GPU ∥ merge leg), annotated with instant events
//! for deadline misses, drops, ladder-rung shifts, NACKs, and fault
//! activations. [`TraceSink::to_chrome_json`] renders the whole trace in
//! the Chrome trace-event format, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Frames are built by one crate-private assembler that the tail sampler
//! ([`crate::SamplingTraceSink`]) feeds too, so a retained frame is
//! structurally identical to its full-trace counterpart. Instants that
//! arrive after `FrameEnd` (ladder shifts decided by the post-frame
//! controller) join the frame that just closed.
//!
//! Two structural properties are maintained by construction and asserted
//! by the workspace property tests:
//!
//! - **Well-formed span trees** — every span's interval is contained in its
//!   parent's interval (the root and umbrella are envelopes of their
//!   children), and every `parent` id refers to a span in the same frame.
//! - **Determinism** — all timestamps are *modeled* milliseconds from the
//!   platform timing models, never wall-clock reads, so two same-seed runs
//!   emit byte-identical trace JSON at any worker count. This is also why
//!   the trace's parallel lanes are the modeled NPU/GPU/merge lanes rather
//!   than the thread pool's measured per-worker accounting: the pool's
//!   nanosecond measurements are real time and vary run to run, so they
//!   feed the scaling table and the benchmark harness instead.
//!
//! Lane model (Chrome `tid` per session `pid`):
//!
//! | tid | lane            | spans                        |
//! |-----|-----------------|------------------------------|
//! | 0   | `frames`        | frame roots (async), instants|
//! | 1   | `server`        | render, encode               |
//! | 2   | `server-roi`    | depth-capture, roi-detect    |
//! | 3   | `network`       | link-transfer                |
//! | 4   | `client-decode` | decode, display              |
//! | 5   | `client-npu`    | npu-sr                       |
//! | 6   | `client-gpu`    | gpu-interp, merge            |
//! | 7   | `client-upscale`| upscale umbrella             |

use std::sync::{Arc, Mutex};

use crate::json::{json_escape, json_f64};
use crate::sink::{Event, InstantKind, Sink};
use crate::Stage;

/// Human-readable lane names, indexed by Chrome `tid`.
pub const LANES: [&str; 8] = [
    "frames",
    "server",
    "server-roi",
    "network",
    "client-decode",
    "client-npu",
    "client-gpu",
    "client-upscale",
];

/// The synthesized umbrella span over the parallel client upscale leg.
pub const UPSCALE_SPAN: &str = "upscale";

/// The per-frame root span name.
pub const FRAME_SPAN: &str = "frame";

fn stage_lane(stage: Stage) -> u32 {
    match stage {
        Stage::Render | Stage::Encode => 1,
        Stage::DepthCapture | Stage::RoiDetect => 2,
        Stage::LinkTransfer => 3,
        Stage::Decode | Stage::Display => 4,
        Stage::NpuSr => 5,
        Stage::GpuInterp | Stage::Merge => 6,
    }
}

pub(crate) fn is_upscale_leg(stage: Stage) -> bool {
    matches!(stage, Stage::NpuSr | Stage::GpuInterp | Stage::Merge)
}

/// One span in a frame's causal tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span id, unique within the frame. The frame root is always id 0.
    pub id: u32,
    /// Parent span id; `None` only for the frame root.
    pub parent: Option<u32>,
    /// Span name (a stage label, [`FRAME_SPAN`], or [`UPSCALE_SPAN`]).
    pub name: String,
    /// Rendering lane, an index into [`LANES`].
    pub lane: u32,
    /// Start time in modeled milliseconds.
    pub start_ms: f64,
    /// End time in modeled milliseconds (`>= start_ms`).
    pub end_ms: f64,
}

/// One instant event attached to a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInstant {
    /// What happened.
    pub kind: InstantKind,
    /// When, in modeled milliseconds.
    pub ts_ms: f64,
    /// Free-form detail (cause, rung transition, block id, …).
    pub detail: String,
}

/// One frame's causal trace: a well-formed span tree plus instants.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFrame {
    /// Frame number within the session.
    pub frame: u64,
    /// Globally unique trace id (`pid * 1_000_000 + frame`).
    pub trace_id: u64,
    /// Whether the frame met its deadline (`false` until `FrameEnd`).
    pub deadline_met: bool,
    /// Spans; index 0 is the frame root, whose interval is the envelope of
    /// every child.
    pub spans: Vec<TraceSpan>,
    /// Instant events, in arrival order. Instants that arrive between
    /// `FrameEnd` and the next `FrameStart` (e.g. ladder shifts decided by
    /// the post-frame controller) attach to the frame that just closed.
    pub instants: Vec<TraceInstant>,
}

impl TraceFrame {
    /// Looks up a span by id.
    pub fn span(&self, id: u32) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The spans named after `stage`, in arrival order.
    pub fn stage_spans(&self, stage: Stage) -> Vec<&TraceSpan> {
        self.spans
            .iter()
            .filter(|s| s.name == stage.label())
            .collect()
    }
}

/// One traced session: a Chrome "process".
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSession {
    /// Session label, rendered as the Chrome process name.
    pub label: String,
    /// Chrome pid (1-based session index).
    pub pid: u64,
    /// Completed frames, in order.
    pub frames: Vec<TraceFrame>,
}

impl TraceSession {
    /// Chrome process `pid` holding `frames`, their trace ids keyed to it.
    pub fn new(label: String, pid: u64, frames: Vec<TraceFrame>) -> Self {
        let mut session = TraceSession { label, pid, frames };
        session.rekey(pid);
        session
    }

    /// Moves the session to Chrome process `pid`, re-keying every frame's
    /// trace id (`pid * 1_000_000 + frame`) to match.
    pub fn rekey(&mut self, pid: u64) {
        self.pid = pid;
        for f in &mut self.frames {
            f.trace_id = pid * 1_000_000 + f.frame;
        }
    }
}

/// An in-flight frame before `FrameEnd` settles its deadline verdict.
#[derive(Debug, Default)]
struct OpenFrame {
    frame: u64,
    spans: Vec<(Stage, f64, f64)>,
    instants: Vec<TraceInstant>,
}

/// One session's frames as the [`Assembler`] builds them, beside the
/// owning sink's per-session state.
#[derive(Debug, Default)]
pub(crate) struct AssembledSession<S> {
    pub(crate) label: String,
    open: Option<OpenFrame>,
    /// Closed but not settled: instants that arrive before the next
    /// `FrameStart` (the controller decides after `end_frame`) still join
    /// it.
    closed: Option<TraceFrame>,
    /// The owning sink's state, fed the settled frames.
    pub(crate) store: S,
}

impl<S> AssembledSession<S> {
    /// The closed frame still accepting post-frame instants, if any.
    pub(crate) fn unsettled(&self) -> Option<&TraceFrame> {
        self.closed.as_ref()
    }

    fn open_frame(&mut self, frame: u64) -> &mut OpenFrame {
        self.open.get_or_insert_with(|| OpenFrame {
            frame,
            ..OpenFrame::default()
        })
    }

    /// Settles the closed frame, and closes a dangling open frame (no
    /// `FrameEnd`) as a miss so its data is not silently lost.
    fn settle(&mut self) -> [Option<TraceFrame>; 2] {
        [
            self.closed.take(),
            self.open.take().map(|open| build_frame(open, false)),
        ]
    }
}

/// The event → frame state machine both trace sinks feed: per session, the
/// frame in flight and one closed frame that still accepts post-frame
/// instants. A frame *settles* once no more instants can join it: when the
/// next frame starts or closes, or the session ends. `S` is the sink's own
/// per-session state.
#[derive(Debug, Default)]
pub(crate) struct Assembler<S> {
    sessions: Vec<AssembledSession<S>>,
}

impl<S: Default> Assembler<S> {
    pub(crate) fn sessions(&self) -> &[AssembledSession<S>] {
        &self.sessions
    }

    pub(crate) fn sessions_mut(&mut self) -> &mut [AssembledSession<S>] {
        &mut self.sessions
    }

    /// Feeds one event. A frame event lands in the current session (an
    /// implicit unlabelled one when no `SessionStart` came first) and
    /// returns it with the frames the event settled, oldest first.
    /// Counters, gauges and logs carry no frame data: they return `None`
    /// and never create a session.
    pub(crate) fn feed(
        &mut self,
        event: &Event,
    ) -> Option<(&mut AssembledSession<S>, [Option<TraceFrame>; 2])> {
        match event {
            Event::Count { .. } | Event::Gauge { .. } | Event::Log { .. } => return None,
            Event::SessionStart { label, .. } => self.sessions.push(AssembledSession {
                label: label.clone(),
                ..AssembledSession::default()
            }),
            _ if self.sessions.is_empty() => self.sessions.push(AssembledSession::default()),
            _ => {}
        }
        let session = self.sessions.last_mut().expect("session exists");
        let mut settled = [None, None];
        match event {
            Event::FrameStart { frame } => {
                settled = session.settle();
                session.open_frame(*frame);
            }
            Event::Span {
                frame,
                stage,
                start_ms,
                end_ms,
            } => session
                .open_frame(*frame)
                .spans
                .push((*stage, *start_ms, *end_ms)),
            Event::Instant {
                frame,
                kind,
                ts_ms,
                detail,
            } => {
                let instant = TraceInstant {
                    kind: *kind,
                    ts_ms: *ts_ms,
                    detail: detail.clone(),
                };
                match (&mut session.open, &mut session.closed) {
                    (Some(open), _) => open.instants.push(instant),
                    (None, Some(closed)) => closed.instants.push(instant),
                    (None, None) => session.open_frame(*frame).instants.push(instant),
                }
            }
            Event::FrameEnd { deadline_met, .. } => {
                if let Some(open) = session.open.take() {
                    settled[0] = session.closed.replace(build_frame(open, *deadline_met));
                }
            }
            Event::SessionEnd { .. } => settled = session.settle(),
            Event::SessionStart { .. }
            | Event::Count { .. }
            | Event::Gauge { .. }
            | Event::Log { .. } => {}
        }
        Some((session, settled))
    }
}

fn build_frame(open: OpenFrame, deadline_met: bool) -> TraceFrame {
    let mut spans = Vec::with_capacity(open.spans.len() + 2);
    // Reserve id 0 for the root; fill its envelope afterwards.
    spans.push(TraceSpan {
        id: 0,
        parent: None,
        name: FRAME_SPAN.to_owned(),
        lane: 0,
        start_ms: 0.0,
        end_ms: 0.0,
    });
    let has_upscale = open.spans.iter().any(|(s, _, _)| is_upscale_leg(*s));
    let umbrella_id = (open.spans.len() + 1) as u32;
    for (i, (stage, start, end)) in open.spans.iter().enumerate() {
        let parent = if has_upscale && is_upscale_leg(*stage) {
            Some(umbrella_id)
        } else {
            Some(0)
        };
        spans.push(TraceSpan {
            id: (i + 1) as u32,
            parent,
            name: stage.label().to_owned(),
            lane: stage_lane(*stage),
            start_ms: *start,
            end_ms: (*end).max(*start),
        });
    }
    if has_upscale {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &spans[1..] {
            if s.parent == Some(umbrella_id) {
                lo = lo.min(s.start_ms);
                hi = hi.max(s.end_ms);
            }
        }
        spans.push(TraceSpan {
            id: umbrella_id,
            parent: Some(0),
            name: UPSCALE_SPAN.to_owned(),
            lane: 7,
            start_ms: lo,
            end_ms: hi,
        });
    }
    // Root envelope: cover every child; an empty (frozen) frame collapses
    // to the earliest instant, or zero width at 0.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in &spans[1..] {
        lo = lo.min(s.start_ms);
        hi = hi.max(s.end_ms);
    }
    if spans.len() == 1 {
        let anchor = open.instants.first().map(|i| i.ts_ms).unwrap_or(0.0);
        lo = anchor;
        hi = anchor;
    }
    spans[0].start_ms = lo;
    spans[0].end_ms = hi;
    TraceFrame {
        frame: open.frame,
        trace_id: 0, // patched once the owning session's pid is known
        deadline_met,
        spans,
        instants: open.instants,
    }
}

/// A sink that reconstructs causal frame traces from the event stream.
///
/// Cloning shares the underlying trace (the [`crate::MemorySink`] pattern):
/// hand one clone to the recorder via [`crate::SinkHandle`] and keep the
/// other to export after the session finishes.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    state: Arc<Mutex<Assembler<Vec<TraceFrame>>>>,
}

impl TraceSink {
    /// An empty trace sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut Assembler<Vec<TraceFrame>>) -> R) -> R {
        let mut state = self.state.lock().expect("trace sink poisoned");
        f(&mut state)
    }

    /// Snapshot of every traced session, with pids and trace ids assigned.
    /// A closed frame still waiting for post-frame instants is included.
    pub fn sessions(&self) -> Vec<TraceSession> {
        self.with_state(|state| {
            state
                .sessions()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let frames = s.store.iter().chain(s.unsettled()).cloned().collect();
                    TraceSession::new(s.label.clone(), (i + 1) as u64, frames)
                })
                .collect()
        })
    }

    /// Total closed frames across all sessions.
    pub fn frame_count(&self) -> usize {
        self.with_state(|state| {
            state
                .sessions()
                .iter()
                .map(|s| s.store.len() + usize::from(s.unsettled().is_some()))
                .sum()
        })
    }

    /// Renders the trace as a Chrome trace-event JSON document (the
    /// `{"displayTimeUnit":…,"traceEvents":[…]}` object form), loadable in
    /// Perfetto or `chrome://tracing`.
    ///
    /// Frame roots become async nestable `b`/`e` pairs on lane 0 (frames
    /// overlap in a pipelined stream, so they cannot be complete events on
    /// one thread); stage spans become `X` complete events on their lanes;
    /// instants become process-scoped `i` events. All timestamps are
    /// shifted so the earliest is 0 and converted to microseconds. Output
    /// is byte-deterministic for identical event streams.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.sessions())
    }
}

/// One Chrome counter track: a named per-process series of `(ts_ms, value)`
/// samples rendered as `C` (counter) events. Perfetto draws one counter
/// track per `(pid, name)` pair, so fleet-wide series live on a dedicated
/// "fleet" process while per-session series share the session's pid and sit
/// directly under its span lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Chrome process the track belongs to.
    pub pid: u64,
    /// Track (and counter-event) name.
    pub name: String,
    /// `(modeled ms, value)` samples in time order.
    pub samples: Vec<(f64, f64)>,
}

/// Renders a set of traced sessions — possibly collected from *several*
/// sinks, e.g. one per fleet session — as one Chrome trace-event JSON
/// document (see [`TraceSink::to_chrome_json`] for the event mapping).
/// Each [`TraceSession`] becomes one Chrome process; callers merging
/// sinks must assign unique `pid`s (and matching `trace_id`s) first.
/// Output is byte-deterministic for identical inputs.
pub fn chrome_trace_json(sessions: &[TraceSession]) -> String {
    chrome_trace_json_ext(sessions, &[], &[], &[])
}

/// [`chrome_trace_json`] extended with synthetic processes, counter tracks
/// and process-scoped markers — the fleet-trace form.
///
/// - `extra_processes` — `(pid, name)` pairs that get `process_name`
///   metadata without any span lanes (e.g. pid 0 `"fleet"` for
///   fleet-aggregate tracks).
/// - `counters` — [`CounterTrack`]s rendered as `C` events in input order.
/// - `markers` — `(pid, instant)` pairs rendered as process-scoped `i`
///   events in input order (e.g. fleet-level anomaly markers).
///
/// Counter samples and markers participate in the global minimum-timestamp
/// shift, and with all three extensions empty the output is byte-identical
/// to [`chrome_trace_json`]. Determinism contract unchanged: identical
/// inputs render byte-identical JSON at any worker count.
pub fn chrome_trace_json_ext(
    sessions: &[TraceSession],
    extra_processes: &[(u64, &str)],
    counters: &[CounterTrack],
    markers: &[(u64, TraceInstant)],
) -> String {
    {
        // Global shift: Chrome viewers dislike negative timestamps, and
        // frame 0's root starts before t=0 (the server-side pipeline leads
        // the send timestamp the session clock is anchored on).
        let mut min_ms = f64::INFINITY;
        for s in sessions {
            for f in &s.frames {
                for sp in &f.spans {
                    min_ms = min_ms.min(sp.start_ms);
                }
                for i in &f.instants {
                    min_ms = min_ms.min(i.ts_ms);
                }
            }
        }
        for c in counters {
            for (ts, _) in &c.samples {
                min_ms = min_ms.min(*ts);
            }
        }
        for (_, m) in markers {
            min_ms = min_ms.min(m.ts_ms);
        }
        if !min_ms.is_finite() {
            min_ms = 0.0;
        }
        let us = |ms: f64| json_f64((ms - min_ms) * 1000.0);

        let mut events: Vec<String> = Vec::new();
        for s in sessions {
            let name = if s.label.is_empty() {
                "(unlabelled)".to_owned()
            } else {
                s.label.clone()
            };
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                s.pid,
                json_escape(&name)
            ));
            for (tid, lane) in LANES.iter().enumerate() {
                events.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    s.pid, tid, lane
                ));
                events.push(format!(
                    "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"sort_index\":{}}}}}",
                    s.pid, tid, tid
                ));
            }
        }
        for (pid, name) in extra_processes {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                json_escape(name)
            ));
        }
        for c in counters {
            for (ts, value) in &c.samples {
                events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"value\":{}}}}}",
                    json_escape(&c.name),
                    us(*ts),
                    c.pid,
                    json_f64(*value)
                ));
            }
        }
        for s in sessions {
            for f in &s.frames {
                let root = &f.spans[0];
                let id_hex = format!("0x{:x}", f.trace_id);
                events.push(format!(
                    "{{\"name\":\"{} {}\",\"cat\":\"frame\",\"ph\":\"b\",\"id\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"trace_id\":{},\"deadline_met\":{}}}}}",
                    FRAME_SPAN, f.frame, id_hex, us(root.start_ms), s.pid, f.trace_id, f.deadline_met
                ));
                for sp in &f.spans[1..] {
                    let dur = json_f64(((sp.end_ms - sp.start_ms) * 1000.0).max(0.0));
                    events.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"frame\":{},\"trace_id\":{},\"span_id\":{},\"parent_id\":{}}}}}",
                        json_escape(&sp.name),
                        us(sp.start_ms),
                        dur,
                        s.pid,
                        sp.lane,
                        f.frame,
                        f.trace_id,
                        sp.id,
                        sp.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                    ));
                }
                for i in &f.instants {
                    events.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"frame\":{},\"trace_id\":{},\"detail\":\"{}\"}}}}",
                        i.kind.label(),
                        us(i.ts_ms),
                        s.pid,
                        f.frame,
                        f.trace_id,
                        json_escape(&i.detail)
                    ));
                }
                events.push(format!(
                    "{{\"name\":\"{} {}\",\"cat\":\"frame\",\"ph\":\"e\",\"id\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{}}}}",
                    FRAME_SPAN, f.frame, id_hex, us(root.end_ms), s.pid
                ));
            }
        }
        for (pid, m) in markers {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"detail\":\"{}\"}}}}",
                m.kind.label(),
                us(m.ts_ms),
                pid,
                json_escape(&m.detail)
            ));
        }

        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Sink for TraceSink {
    fn emit(&mut self, event: &Event) {
        self.with_state(|state| {
            if let Some((session, settled)) = state.feed(event) {
                session.store.extend(settled.into_iter().flatten());
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, SinkHandle};

    fn traced_recorder(trace: &TraceSink) -> Recorder {
        Recorder::new("trace-unit", 16.67).with_sink(SinkHandle::new(trace.clone()))
    }

    fn record_one_frame(rec: &mut Recorder, frame: u64) {
        rec.begin_frame(frame);
        rec.record_span(Stage::Render, -10.0, 4.0);
        rec.record_span(Stage::Encode, -6.0, 2.0);
        rec.record_span(Stage::LinkTransfer, 0.0, 5.0);
        rec.record_span(Stage::Decode, 5.0, 1.5);
        rec.record_span(Stage::NpuSr, 6.5, 6.0);
        rec.record_span(Stage::GpuInterp, 6.5, 3.0);
        rec.record_span(Stage::Merge, 12.5, 0.5);
        rec.instant(InstantKind::Nack, 2.0, "block 1");
        rec.end_frame(23.0, 13.0, 1000);
    }

    #[test]
    fn builds_a_well_formed_span_tree() {
        let trace = TraceSink::new();
        let mut rec = traced_recorder(&trace);
        record_one_frame(&mut rec, 0);
        rec.finish();

        let sessions = trace.sessions();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].pid, 1);
        let f = &sessions[0].frames[0];
        assert_eq!(f.trace_id, 1_000_000);
        // Root envelope covers everything.
        let root = &f.spans[0];
        assert_eq!(root.parent, None);
        assert_eq!(root.start_ms, -10.0);
        assert_eq!(root.end_ms, 13.0);
        // Every non-root parent exists and contains its child.
        for s in &f.spans[1..] {
            let p = f.span(s.parent.expect("non-root has parent")).unwrap();
            assert!(
                p.start_ms <= s.start_ms && s.end_ms <= p.end_ms,
                "{s:?} in {p:?}"
            );
        }
        // The upscale umbrella wraps exactly the parallel leg.
        let umbrella = f.spans.iter().find(|s| s.name == UPSCALE_SPAN).unwrap();
        assert_eq!(umbrella.start_ms, 6.5);
        assert_eq!(umbrella.end_ms, 13.0);
        assert_eq!(umbrella.parent, Some(0));
        for stage in [Stage::NpuSr, Stage::GpuInterp, Stage::Merge] {
            assert_eq!(f.stage_spans(stage)[0].parent, Some(umbrella.id));
        }
        assert_eq!(f.instants.len(), 1);
    }

    #[test]
    fn post_frame_instants_attach_to_last_closed_frame() {
        let trace = TraceSink::new();
        let mut rec = traced_recorder(&trace);
        record_one_frame(&mut rec, 0);
        rec.instant(InstantKind::LadderShift, 20.0, "rung 0 -> 1");
        record_one_frame(&mut rec, 1);
        rec.finish();

        let sessions = trace.sessions();
        let frames = &sessions[0].frames;
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].instants.len(), 2, "ladder shift joins frame 0");
        assert_eq!(frames[1].instants.len(), 1);
        assert_eq!(frames[0].instants[1].kind, InstantKind::LadderShift);
    }

    #[test]
    fn interp_only_path_still_gets_an_umbrella() {
        let trace = TraceSink::new();
        let mut rec = traced_recorder(&trace);
        rec.begin_frame(0);
        rec.record_span(Stage::GpuInterp, 1.0, 2.0);
        rec.end_frame(3.0, 3.0, 0);
        rec.finish();
        let f = trace.sessions()[0].frames[0].clone();
        let umbrella = f.spans.iter().find(|s| s.name == UPSCALE_SPAN).unwrap();
        assert_eq!((umbrella.start_ms, umbrella.end_ms), (1.0, 3.0));
    }

    #[test]
    fn chrome_export_is_valid_and_deterministic() {
        let run = || {
            let trace = TraceSink::new();
            let mut rec = traced_recorder(&trace);
            for frame in 0..3 {
                record_one_frame(&mut rec, frame);
            }
            rec.finish();
            trace.to_chrome_json()
        };
        let a = run();
        assert_eq!(a, run(), "same inputs must export byte-identical JSON");
        let doc = crate::json::parse(&a).expect("export parses as JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        // All timestamps are shifted to be non-negative.
        for e in events {
            if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
                assert!(ts >= 0.0, "negative ts in {e:?}");
            }
        }
        // Async frame roots come in balanced b/e pairs.
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(
            phases.iter().filter(|p| **p == "b").count(),
            phases.iter().filter(|p| **p == "e").count()
        );
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"M"));
    }

    #[test]
    fn ext_with_empty_extensions_matches_the_plain_export() {
        let trace = TraceSink::new();
        let mut rec = traced_recorder(&trace);
        record_one_frame(&mut rec, 0);
        rec.finish();
        let sessions = trace.sessions();
        assert_eq!(
            chrome_trace_json(&sessions),
            chrome_trace_json_ext(&sessions, &[], &[], &[]),
            "empty extensions must not perturb a single byte"
        );
    }

    #[test]
    fn counter_tracks_and_markers_render_and_shift_the_origin() {
        let counters = [CounterTrack {
            pid: 0,
            name: "active-sessions".to_owned(),
            samples: vec![(-5.0, 1.0), (11.0, 2.0)],
        }];
        let markers = [(
            0u64,
            TraceInstant {
                kind: InstantKind::Anomaly,
                ts_ms: 11.0,
                detail: "admission storm: 5 join requests within 10 ticks".to_owned(),
            },
        )];
        let json = chrome_trace_json_ext(&[], &[(0, "fleet")], &counters, &markers);
        let doc = crate::json::parse(&json).expect("export parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // process metadata + 2 counter samples + 1 marker
        assert_eq!(events.len(), 4);
        // the earliest counter sample (-5 ms) defines the trace origin
        let ts: Vec<f64> = events
            .iter()
            .filter_map(|e| e.get("ts").and_then(|t| t.as_f64()))
            .collect();
        assert_eq!(ts, [0.0, 16000.0, 16000.0]);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases, ["M", "C", "C", "i"]);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }

    /// Satellite: `C` counter events survive an emit → parse → re-emit
    /// cycle byte-identically. The re-emit rebuilds each event *from the
    /// parsed values only*, so this pins both the emitter's field order and
    /// the JSON parser's exact number round-tripping.
    #[test]
    fn counter_events_round_trip_byte_identically_through_the_parser() {
        let counters = [
            CounterTrack {
                pid: 0,
                name: "fairness-jain".to_owned(),
                samples: vec![(0.0, 1.0), (16.666666666666668, 0.8731), (33.5, 0.25)],
            },
            CounterTrack {
                pid: 3,
                name: "alloc \"fair\" mbps".to_owned(),
                samples: vec![(1.25, 18.0)],
            },
        ];
        let emitted = chrome_trace_json_ext(&[], &[(0, "fleet")], &counters, &[]);
        let doc = crate::json::parse(&emitted).expect("emitted trace parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();

        // Original event texts, recovered from the document layout
        // (one event per line, comma-separated inside the array).
        let originals: Vec<&str> = emitted
            .lines()
            .filter(|l| l.starts_with('{') && l.contains("\"ph\":\"C\""))
            .map(|l| l.strip_suffix(',').unwrap_or(l))
            .collect();
        assert_eq!(originals.len(), 4);

        let reemitted: Vec<String> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .map(|e| {
                let name = e.get("name").and_then(|v| v.as_str()).unwrap();
                let ts = e.get("ts").and_then(|v| v.as_f64()).unwrap();
                let pid = e.get("pid").and_then(|v| v.as_f64()).unwrap() as u64;
                let value = e
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(|v| v.as_f64())
                    .unwrap();
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"value\":{}}}}}",
                    json_escape(name),
                    json_f64(ts),
                    pid,
                    json_f64(value)
                )
            })
            .collect();
        assert_eq!(
            originals, reemitted,
            "C events must re-emit byte-identically"
        );
    }

    #[test]
    fn non_frame_events_before_any_session_create_none() {
        // `figures` logs through the sink before its first session starts
        let early = [
            Event::Log {
                level: crate::Level::Info,
                message: "experiment starting".to_owned(),
            },
            Event::Count {
                frame: 0,
                counter: crate::Counter::FramesEncoded,
                delta: 1,
            },
            Event::Gauge {
                frame: 0,
                gauge: crate::Gauge::RoiAreaPx,
                value: 1.0,
            },
        ];
        let full = TraceSink::new();
        let sampled = crate::SamplingTraceSink::default();
        let fan = crate::SinkHandle::fanout(vec![
            SinkHandle::new(full.clone()),
            SinkHandle::new(sampled.clone()),
        ]);
        for event in &early {
            fan.emit(event);
        }
        assert!(full.sessions().is_empty());
        assert!(sampled.sessions().is_empty());
        let mut rec = Recorder::new("labelled", 16.67).with_sink(fan);
        record_one_frame(&mut rec, 0);
        rec.finish();
        for sessions in [full.sessions(), sampled.sessions()] {
            assert_eq!(sessions.len(), 1);
            assert_eq!(sessions[0].label, "labelled");
        }
    }

    #[test]
    fn a_closed_frame_is_exported_before_it_settles() {
        let trace = TraceSink::new();
        let mut rec = traced_recorder(&trace);
        record_one_frame(&mut rec, 0);
        // no FrameStart or SessionEnd yet: post-frame instants may still
        // join frame 0, and a mid-session export must already show it
        assert_eq!(trace.frame_count(), 1);
        assert_eq!(trace.sessions()[0].frames.len(), 1);
        rec.instant(InstantKind::LadderShift, 20.0, "rung 0 -> 1");
        assert_eq!(trace.sessions()[0].frames[0].instants.len(), 2);
    }

    #[test]
    fn frozen_frames_produce_an_empty_but_valid_root() {
        let trace = TraceSink::new();
        let mut rec = traced_recorder(&trace);
        rec.begin_frame(0);
        rec.instant(InstantKind::Drop, 4.0, "outage");
        rec.end_frame(0.0, 0.0, 0);
        rec.finish();
        let f = trace.sessions()[0].frames[0].clone();
        assert_eq!(f.spans.len(), 1);
        assert_eq!(f.spans[0].start_ms, 4.0);
        assert_eq!(f.spans[0].end_ms, 4.0);
        assert!(crate::json::parse(&trace.to_chrome_json()).is_ok());
    }
}
