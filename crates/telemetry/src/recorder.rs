//! The frame-scoped recorder: the single object threaded through the
//! pipeline.
//!
//! A [`Recorder`] owns fixed-size aggregate state (one histogram per stage,
//! counter and gauge arrays), so the per-frame hot path performs no heap
//! allocation. When a [`SinkHandle`] is attached it additionally streams
//! fine-grained [`Event`]s; without one, recording is pure array
//! arithmetic.
//!
//! Spans are one-shot `(stage, start, duration)` records
//! ([`Recorder::record_span`]): the simulated pipeline has genuinely
//! *overlapping* stages (RoI search overlaps encode on the server; NPU
//! super-resolution runs in parallel with GPU interpolation on the
//! client), which a strict open/close stack cannot express.

use crate::hist::Histogram;
use crate::sink::{Event, InstantKind, Level, SinkHandle};
use crate::summary::{CounterSummary, GaugeSummary, StageSummary, TelemetrySummary};
use crate::{Counter, Gauge, GaugeStat, Stage};

/// Frame-scoped telemetry recorder. See the module docs for the design.
#[derive(Debug)]
pub struct Recorder {
    label: String,
    budget_ms: f64,
    sink: Option<SinkHandle>,
    frame: u64,
    frames: u64,
    deadline_misses: u64,
    stage_hists: [Histogram; Stage::COUNT],
    mtp_hist: Histogram,
    bytes_hist: Histogram,
    counters: [u64; Counter::COUNT],
    gauges: [GaugeStat; Gauge::COUNT],
}

impl Recorder {
    /// A recorder for a session judged against `budget_ms` per frame.
    pub fn new(label: impl Into<String>, budget_ms: f64) -> Self {
        Recorder {
            label: label.into(),
            budget_ms,
            sink: None,
            frame: 0,
            frames: 0,
            deadline_misses: 0,
            stage_hists: std::array::from_fn(|_| Histogram::latency_ms()),
            mtp_hist: Histogram::latency_ms(),
            bytes_hist: Histogram::bytes(),
            counters: [0; Counter::COUNT],
            gauges: [GaugeStat::default(); Gauge::COUNT],
        }
    }

    /// Attaches a sink and announces the session on it.
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        sink.emit(&Event::SessionStart {
            label: self.label.clone(),
            budget_ms: self.budget_ms,
        });
        self.sink = Some(sink);
        self
    }

    /// The session label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The per-frame deadline budget in milliseconds.
    pub fn budget_ms(&self) -> f64 {
        self.budget_ms
    }

    /// Frames completed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Exemplar of the worst motion-to-photon frame so far: its frame
    /// number (as the exemplar id) and exact MTP milliseconds. `None`
    /// until the first [`Recorder::end_frame`].
    pub fn worst_frame(&self) -> Option<crate::hist::Exemplar> {
        self.mtp_hist.exemplar()
    }

    fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Marks the start of frame `frame`.
    pub fn begin_frame(&mut self, frame: u64) {
        self.frame = frame;
        if self.sink.is_some() {
            self.emit(Event::FrameStart { frame });
        }
    }

    /// Records a completed stage span in one shot. This is the form the
    /// pipeline uses: overlapping stages (NPU ∥ GPU) are recorded as two
    /// spans with overlapping `[start, start+duration]` intervals.
    pub fn record_span(&mut self, stage: Stage, start_ms: f64, duration_ms: f64) {
        self.stage_hists[stage.index()].record(duration_ms);
        if self.sink.is_some() {
            self.emit(Event::Span {
                frame: self.frame,
                stage,
                start_ms,
                end_ms: start_ms + duration_ms,
            });
        }
    }

    /// Increments `counter` by one.
    pub fn incr(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `delta`.
    pub fn add(&mut self, counter: Counter, delta: u64) {
        self.counters[counter.index()] += delta;
        if self.sink.is_some() {
            self.emit(Event::Count {
                frame: self.frame,
                counter,
                delta,
            });
        }
    }

    /// Records a gauge observation.
    pub fn gauge(&mut self, gauge: Gauge, value: f64) {
        self.gauges[gauge.index()].observe(value);
        if self.sink.is_some() {
            self.emit(Event::Gauge {
                frame: self.frame,
                gauge,
                value,
            });
        }
    }

    /// Emits a structured log line on the sink (aggregates are unaffected).
    pub fn log(&mut self, level: Level, message: impl Into<String>) {
        if self.sink.is_some() {
            self.emit(Event::Log {
                level,
                message: message.into(),
            });
        }
    }

    /// Emits a causal instant event at modeled time `ts_ms` on the sink,
    /// attributed to the current frame (aggregates are unaffected). The
    /// trace exporter renders these as Perfetto instant markers.
    pub fn instant(&mut self, kind: InstantKind, ts_ms: f64, detail: impl Into<String>) {
        if self.sink.is_some() {
            self.emit(Event::Instant {
                frame: self.frame,
                kind,
                ts_ms,
                detail: detail.into(),
            });
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Closes the current frame: records whole-frame motion-to-photon time
    /// and wire bytes, checks the deadline, and returns whether the frame
    /// met it.
    ///
    /// `mtp_ms` is the end-to-end motion-to-photon latency (histogrammed);
    /// `critical_ms` is the per-frame critical path of the pipelined stage
    /// that must keep up with the frame rate, and is what the deadline
    /// budget judges: a 60 FPS pipeline must *finish a frame* every
    /// 16.66 ms even though each frame's end-to-end latency is longer.
    /// Callers without that distinction can pass the same value for both.
    pub fn end_frame(&mut self, mtp_ms: f64, critical_ms: f64, bytes: u64) -> bool {
        // Tag the MTP sample with the frame number so the worst frame is
        // recoverable as an exemplar (the exporter upgrades it to a full
        // trace id once the session's pid is known).
        self.mtp_hist.record_with_exemplar(mtp_ms, self.frame);
        self.bytes_hist.record(bytes as f64);
        // Matches the session simulator's real-time test: a frame is on time
        // when it fits the budget up to float noise.
        let deadline_met = crate::deadline_met(critical_ms, self.budget_ms);
        if !deadline_met {
            self.deadline_misses += 1;
            self.counters[Counter::DeadlineMisses.index()] += 1;
        }
        self.frames += 1;
        if self.sink.is_some() {
            self.emit(Event::FrameEnd {
                frame: self.frame,
                mtp_ms,
                bytes,
                deadline_met,
            });
        }
        deadline_met
    }

    /// Builds the aggregate summary without consuming the recorder.
    pub fn summary(&self) -> TelemetrySummary {
        let mut stages = Vec::new();
        for stage in Stage::ALL {
            if let Some(dist) = self.stage_hists[stage.index()].summary() {
                stages.push(StageSummary { stage, dist });
            }
        }
        let mut counters = Vec::new();
        for counter in Counter::ALL {
            let value = self.counters[counter.index()];
            if value != 0 {
                counters.push(CounterSummary { counter, value });
            }
        }
        let mut gauges = Vec::new();
        for gauge in Gauge::ALL {
            let stats = self.gauges[gauge.index()];
            if stats.count != 0 {
                gauges.push(GaugeSummary { gauge, stats });
            }
        }
        TelemetrySummary {
            label: self.label.clone(),
            frames: self.frames,
            budget_ms: self.budget_ms,
            deadline_misses: self.deadline_misses,
            stages,
            mtp_ms: self.mtp_hist.summary(),
            frame_bytes: self.bytes_hist.summary(),
            counters,
            gauges,
        }
    }

    /// Announces session end on the sink, flushes it, and returns the
    /// summary.
    pub fn finish(&mut self) -> TelemetrySummary {
        if let Some(sink) = &self.sink {
            sink.emit(&Event::SessionEnd {
                label: self.label.clone(),
                frames: self.frames,
                deadline_misses: self.deadline_misses,
            });
            sink.flush();
        }
        self.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn spans_counters_and_deadlines_aggregate() {
        let mut rec = Recorder::new("unit", 16.0);
        for frame in 0..10u64 {
            rec.begin_frame(frame);
            rec.record_span(Stage::Render, 0.0, 4.0);
            rec.record_span(Stage::Encode, 4.0, 2.0);
            rec.incr(Counter::FramesEncoded);
            rec.add(Counter::BytesOnWire, 1000);
            rec.gauge(Gauge::RoiAreaPx, 128.0 * 128.0);
            let mtp = if frame == 9 { 20.0 } else { 10.0 };
            let met = rec.end_frame(mtp, mtp, 1000);
            assert_eq!(met, frame != 9);
        }
        let s = rec.summary();
        assert_eq!(s.frames, 10);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(rec.counter(Counter::FramesEncoded), 10);
        assert_eq!(rec.counter(Counter::BytesOnWire), 10_000);
        assert_eq!(rec.counter(Counter::DeadlineMisses), 1);
        let render = s.stage(Stage::Render).expect("render stage recorded");
        assert_eq!(render.dist.p50, 4.0);
        assert_eq!(render.dist.p99, 4.0);
        assert_eq!(s.mtp_ms.unwrap().count, 10);
        assert_eq!(s.frame_bytes.unwrap().p50, 1000.0);
    }

    #[test]
    fn worst_frame_exemplar_follows_the_mtp_maximum() {
        let mut rec = Recorder::new("unit", 16.0);
        assert_eq!(rec.worst_frame(), None);
        for (frame, mtp) in [(0u64, 14.0), (1, 31.5), (2, 12.0)] {
            rec.begin_frame(frame);
            rec.end_frame(mtp, mtp, 100);
        }
        let worst = rec.worst_frame().unwrap();
        assert_eq!(worst.trace_id, 1);
        assert_eq!(worst.value, 31.5);
    }

    #[test]
    fn sink_receives_the_event_stream() {
        let mem = MemorySink::new();
        let mut rec = Recorder::new("sinky", 16.0).with_sink(SinkHandle::new(mem.clone()));
        rec.begin_frame(0);
        rec.record_span(Stage::Render, 0.0, 4.0);
        rec.incr(Counter::FramesEncoded);
        rec.end_frame(10.0, 10.0, 500);
        rec.finish();
        let events = mem.events();
        assert!(matches!(events[0], Event::SessionStart { .. }));
        assert!(matches!(events[1], Event::FrameStart { frame: 0 }));
        assert!(matches!(
            events[2],
            Event::Span {
                stage: Stage::Render,
                ..
            }
        ));
        assert!(matches!(
            events[3],
            Event::Count {
                counter: Counter::FramesEncoded,
                ..
            }
        ));
        assert!(matches!(
            events[4],
            Event::FrameEnd {
                deadline_met: true,
                ..
            }
        ));
        assert!(matches!(
            events.last(),
            Some(Event::SessionEnd { frames: 1, .. })
        ));
    }

    #[test]
    fn instants_carry_the_current_frame() {
        let mem = MemorySink::new();
        let mut rec = Recorder::new("inst", 16.0).with_sink(SinkHandle::new(mem.clone()));
        rec.begin_frame(7);
        rec.instant(InstantKind::Nack, 120.25, "block 3");
        rec.end_frame(1.0, 1.0, 0);
        let events = mem.events();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Instant {
                frame: 7,
                kind: InstantKind::Nack,
                ..
            }
        )));
    }

    #[test]
    fn no_sink_means_no_events_but_full_aggregates() {
        let mut rec = Recorder::new("quiet", 16.0);
        rec.begin_frame(0);
        rec.record_span(Stage::Render, 0.0, 4.0);
        rec.end_frame(4.0, 4.0, 100);
        let s = rec.finish();
        assert_eq!(s.frames, 1);
        assert!(s.stage(Stage::Render).is_some());
    }

    #[test]
    fn identical_inputs_yield_identical_summaries() {
        let run = || {
            let mut rec = Recorder::new("det", 16.67);
            for frame in 0..50u64 {
                rec.begin_frame(frame);
                let wobble = (frame % 7) as f64 * 0.31;
                rec.record_span(Stage::Render, 0.0, 4.2 + wobble);
                rec.record_span(Stage::NpuSr, 8.0, 6.1 + wobble);
                rec.gauge(Gauge::RoiAreaPx, 96.0 * 96.0 + wobble);
                rec.add(Counter::BytesOnWire, 900 + frame);
                rec.end_frame(14.0 + wobble, 14.0 + wobble, 900 + frame);
            }
            rec.finish().to_json()
        };
        assert_eq!(run(), run());
    }
}
