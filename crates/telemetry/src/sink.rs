//! Telemetry events and pluggable sinks.
//!
//! A [`Recorder`](crate::Recorder) always maintains its in-memory aggregates
//! (histograms, counters, gauges); attaching a sink additionally streams
//! every fine-grained [`Event`] somewhere — into a buffer for tests
//! ([`MemorySink`]) or onto disk as JSON Lines ([`JsonlSink`]). Sinks are
//! behind a [`SinkHandle`] (`Arc<Mutex<…>>`) so one sink can serve several
//! recorders, e.g. the paired ours/SOTA sessions of a comparison run
//! writing interleaved into one JSONL file.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::json::{json_escape, json_f64};
use crate::{Counter, Gauge, Stage};

/// Severity of a [`Event::Log`] message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Level {
    /// Routine progress information.
    Info,
    /// Something degraded but the run continues.
    Warn,
    /// A hard failure worth surfacing in any downstream tooling.
    Error,
}

impl Level {
    /// Lower-case label used in serialized events.
    pub fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// What a point-in-time [`Event::Instant`] marks on the frame timeline.
///
/// Instants are the causal annotations of a trace: they pin *why* a frame
/// went wrong (or changed configuration) to the exact simulated instant it
/// happened, so a timeline viewer can correlate them with the stage spans
/// around them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum InstantKind {
    /// The frame's critical path exceeded the real-time budget.
    DeadlineMiss,
    /// The link dropped the frame (detail carries the [`DropCause`] label).
    ///
    /// [`DropCause`]: https://docs.rs/gss-net
    Drop,
    /// The degradation ladder moved to a different rung.
    LadderShift,
    /// The client requested a keyframe (NACK), fresh or re-issued.
    Nack,
    /// The set of active scripted faults changed.
    Fault,
    /// A service-level objective entered or left breach (detail carries
    /// the objective name and its burn rates).
    SloBreach,
    /// The decoder-crash recovery state machine changed state (detail
    /// carries the transition: crash detected, reconfigure attempt,
    /// keyframe resync, safe-profile fallback).
    Recovery,
    /// A streaming anomaly detector fired (detail carries the detector's
    /// description: rung flap, starvation, or admission storm).
    Anomaly,
}

impl InstantKind {
    /// Kebab-case label used in serialized events and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            InstantKind::DeadlineMiss => "deadline-miss",
            InstantKind::Drop => "drop",
            InstantKind::LadderShift => "ladder-shift",
            InstantKind::Nack => "nack",
            InstantKind::Fault => "fault",
            InstantKind::SloBreach => "slo-breach",
            InstantKind::Recovery => "recovery",
            InstantKind::Anomaly => "anomaly",
        }
    }
}

/// One telemetry event, in session order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A recorder came online.
    SessionStart {
        /// Human-readable session label (e.g. `"ours @ S8 Tab (wifi)"`).
        label: String,
        /// Frame deadline the session is judged against, in milliseconds.
        budget_ms: f64,
    },
    /// A new frame began.
    FrameStart {
        /// Zero-based frame index.
        frame: u64,
    },
    /// A pipeline stage ran over `[start_ms, end_ms]` on the frame timeline.
    Span {
        /// Frame the span belongs to.
        frame: u64,
        /// Which pipeline stage ran.
        stage: Stage,
        /// Stage start on the session clock, in milliseconds.
        start_ms: f64,
        /// Stage end on the session clock, in milliseconds.
        end_ms: f64,
    },
    /// A counter was bumped.
    Count {
        /// Frame during which the increment happened.
        frame: u64,
        /// Which counter.
        counter: Counter,
        /// Increment amount (1 for plain events, byte counts for traffic).
        delta: u64,
    },
    /// A gauge observed a new value.
    Gauge {
        /// Frame during which the observation happened.
        frame: u64,
        /// Which gauge.
        gauge: Gauge,
        /// Observed value.
        value: f64,
    },
    /// A point event on the frame timeline: a deadline miss, a drop with
    /// its cause, a ladder-rung shift, a NACK, or a fault-set change.
    Instant {
        /// Frame the instant belongs to.
        frame: u64,
        /// What the instant marks.
        kind: InstantKind,
        /// When it happened on the session clock, in milliseconds.
        ts_ms: f64,
        /// Human-readable detail (e.g. the drop cause or the new rung).
        detail: String,
    },
    /// A frame completed.
    FrameEnd {
        /// Zero-based frame index.
        frame: u64,
        /// Motion-to-photon latency of this frame, in milliseconds.
        mtp_ms: f64,
        /// Bytes this frame put on the wire.
        bytes: u64,
        /// Whether `mtp_ms` met the session deadline budget.
        deadline_met: bool,
    },
    /// A structured log line (replaces ad-hoc `eprintln!` in the tools).
    Log {
        /// Severity.
        level: Level,
        /// Message text.
        message: String,
    },
    /// A recorder finished.
    SessionEnd {
        /// Session label, matching the `SessionStart`.
        label: String,
        /// Frames completed.
        frames: u64,
        /// Frames whose motion-to-photon latency exceeded the budget.
        deadline_misses: u64,
    },
}

impl Event {
    /// Renders the event as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Event::SessionStart { label, budget_ms } => format!(
                "{{\"event\":\"session_start\",\"label\":\"{}\",\"budget_ms\":{}}}",
                json_escape(label),
                json_f64(*budget_ms)
            ),
            Event::FrameStart { frame } => {
                format!("{{\"event\":\"frame_start\",\"frame\":{frame}}}")
            }
            Event::Span { frame, stage, start_ms, end_ms } => format!(
                "{{\"event\":\"span\",\"frame\":{},\"stage\":\"{}\",\"start_ms\":{},\"end_ms\":{}}}",
                frame,
                stage.label(),
                json_f64(*start_ms),
                json_f64(*end_ms)
            ),
            Event::Count { frame, counter, delta } => format!(
                "{{\"event\":\"count\",\"frame\":{},\"counter\":\"{}\",\"delta\":{}}}",
                frame,
                counter.label(),
                delta
            ),
            Event::Gauge { frame, gauge, value } => format!(
                "{{\"event\":\"gauge\",\"frame\":{},\"gauge\":\"{}\",\"value\":{}}}",
                frame,
                gauge.label(),
                json_f64(*value)
            ),
            Event::Instant { frame, kind, ts_ms, detail } => format!(
                "{{\"event\":\"instant\",\"frame\":{},\"kind\":\"{}\",\"ts_ms\":{},\"detail\":\"{}\"}}",
                frame,
                kind.label(),
                json_f64(*ts_ms),
                json_escape(detail)
            ),
            Event::FrameEnd { frame, mtp_ms, bytes, deadline_met } => format!(
                "{{\"event\":\"frame_end\",\"frame\":{},\"mtp_ms\":{},\"bytes\":{},\"deadline_met\":{}}}",
                frame,
                json_f64(*mtp_ms),
                bytes,
                deadline_met
            ),
            Event::Log { level, message } => format!(
                "{{\"event\":\"log\",\"level\":\"{}\",\"message\":\"{}\"}}",
                level.label(),
                json_escape(message)
            ),
            Event::SessionEnd { label, frames, deadline_misses } => format!(
                "{{\"event\":\"session_end\",\"label\":\"{}\",\"frames\":{},\"deadline_misses\":{}}}",
                json_escape(label),
                frames,
                deadline_misses
            ),
        }
    }
}

/// Receives the event stream of one or more recorders.
pub trait Sink: Send {
    /// Handles one event. Implementations should be cheap; the recorder
    /// calls this synchronously on the simulated hot path.
    fn emit(&mut self, event: &Event);

    /// Flushes any buffered output. Called at session end.
    fn flush(&mut self) {}
}

/// A sink that appends every event to a shared in-memory buffer. Cloning
/// shares the buffer, so tests can keep one clone and hand the other to a
/// [`SinkHandle`].
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A sink with an empty buffer.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A snapshot of all events captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no events were captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// A sink that writes each event as one JSON object per line (JSON Lines).
///
/// Events accumulate in a [`BufWriter`], so a long resilience soak pays one
/// syscall per buffer, not one per event. Whole lines enter the buffer
/// atomically and the sink flushes on [`Drop`], so a run that ends without
/// an explicit [`Sink::flush`] (early return, panic unwinding) still leaves
/// a valid JSONL file of complete lines on disk.
///
/// Every line carries a leading monotonic `"seq"` field, so several
/// sessions' JSONL streams can be merged (and a merge re-split) by sorting
/// on `(file, seq)` without any trace post-processing.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    seq: u64,
}

impl JsonlSink {
    /// Creates (or truncates) `path` and writes events to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: BufWriter::new(file),
            seq: 0,
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, event: &Event) {
        // Every Event::to_json() starts with `{"event":…`, so the sequence
        // number splices in as the first field without re-serializing.
        // Serialization is infallible; a full disk surfaces via flush.
        let json = event.to_json();
        debug_assert!(json.starts_with('{'));
        let _ = writeln!(self.writer, "{{\"seq\":{},{}", self.seq, &json[1..]);
        self.seq += 1;
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Last-chance flush so truncated runs keep every completed line;
        // errors are unreportable here (the happy path flushed already).
        let _ = self.writer.flush();
    }
}

/// A sink that fans every event out to several downstream sinks — e.g. a
/// JSONL file *and* a trace collector fed by the same session. Built only
/// through [`SinkHandle::fanout`].
struct MultiSink {
    sinks: Vec<SinkHandle>,
}

impl MultiSink {
    /// A fan-out over `sinks`, in emission order.
    fn new(sinks: Vec<SinkHandle>) -> Self {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn emit(&mut self, event: &Event) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn flush(&mut self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// Shared, cloneable handle to a sink. This is what flows through
/// configuration structs (`SessionConfig`, `RunOptions`): cloning the handle
/// shares the underlying sink.
#[derive(Clone)]
pub struct SinkHandle {
    inner: Arc<Mutex<dyn Sink>>,
}

impl SinkHandle {
    /// Wraps a sink in a shareable handle.
    pub fn new(sink: impl Sink + 'static) -> Self {
        SinkHandle {
            inner: Arc::new(Mutex::new(sink)),
        }
    }

    /// A handle fanning every event out to `sinks`, in emission order —
    /// the "file *and* trace collector off the same session" wiring.
    pub fn fanout(sinks: Vec<SinkHandle>) -> Self {
        SinkHandle::new(MultiSink::new(sinks))
    }

    /// Forwards one event to the sink.
    pub fn emit(&self, event: &Event) {
        self.inner
            .lock()
            .expect("telemetry sink poisoned")
            .emit(event);
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        self.inner.lock().expect("telemetry sink poisoned").flush();
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_clones_share_the_buffer() {
        let mem = MemorySink::new();
        let handle = SinkHandle::new(mem.clone());
        handle.emit(&Event::FrameStart { frame: 3 });
        handle.emit(&Event::FrameEnd {
            frame: 3,
            mtp_ms: 12.5,
            bytes: 900,
            deadline_met: true,
        });
        assert_eq!(mem.len(), 2);
        assert_eq!(mem.events()[0], Event::FrameStart { frame: 3 });
    }

    #[test]
    fn events_serialize_to_single_json_lines() {
        let e = Event::Span {
            frame: 7,
            stage: Stage::NpuSr,
            start_ms: 1.5,
            end_ms: 4.25,
        };
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"event\":\"span\",\"frame\":7,\"stage\":\"npu-sr\",\"start_ms\":1.5,\"end_ms\":4.25}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn log_messages_are_escaped() {
        let e = Event::Log {
            level: Level::Error,
            message: "bad \"id\"\nline2\ttab \\ slash".to_owned(),
        };
        let json = e.to_json();
        assert!(
            json.contains("bad \\\"id\\\"\\nline2\\ttab \\\\ slash"),
            "{json}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::Gauge {
            frame: 0,
            gauge: Gauge::RoiAreaPx,
            value: f64::NAN,
        };
        assert!(e.to_json().contains("\"value\":null"));
    }

    #[test]
    fn instants_serialize_with_kind_and_detail() {
        let e = Event::Instant {
            frame: 12,
            kind: InstantKind::LadderShift,
            ts_ms: 200.5,
            detail: "rung 0 -> 2".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"instant\",\"frame\":12,\"kind\":\"ladder-shift\",\"ts_ms\":200.5,\"detail\":\"rung 0 -> 2\"}"
        );
        let labels: std::collections::HashSet<&str> = [
            InstantKind::DeadlineMiss,
            InstantKind::Drop,
            InstantKind::LadderShift,
            InstantKind::Nack,
            InstantKind::Fault,
            InstantKind::SloBreach,
            InstantKind::Recovery,
            InstantKind::Anomaly,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 8, "instant labels must be unique");
    }

    #[test]
    fn fanout_handle_is_equivalent_to_an_explicit_multi_sink() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        let fan = SinkHandle::fanout(vec![SinkHandle::new(a.clone()), SinkHandle::new(b.clone())]);
        fan.emit(&Event::FrameStart { frame: 7 });
        fan.flush();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn multi_sink_fans_out_to_every_branch() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        let multi = SinkHandle::new(MultiSink::new(vec![
            SinkHandle::new(a.clone()),
            SinkHandle::new(b.clone()),
        ]));
        multi.emit(&Event::FrameStart { frame: 1 });
        multi.flush();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop_without_explicit_flush() {
        let path = std::env::temp_dir().join("gss_telemetry_sink_drop_test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).expect("create jsonl");
            for frame in 0..100 {
                sink.emit(&Event::FrameStart { frame });
            }
            // no flush: Drop must push the buffered lines out
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 100);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("gss_telemetry_sink_test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).expect("create jsonl");
            sink.emit(&Event::SessionStart {
                label: "test".into(),
                budget_ms: 16.67,
            });
            sink.emit(&Event::FrameStart { frame: 0 });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"event\":\"session_start\""));
        assert!(lines[1].starts_with("{\"seq\":1,\"event\":\"frame_start\""));
        let _ = std::fs::remove_file(&path);
    }
}
