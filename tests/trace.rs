//! Integration tests for the causal tracing layer: a faulted session
//! driven through a [`TraceSink`] must yield well-formed span trees and a
//! schema-valid Chrome trace-event export that is byte-identical across
//! reruns at any worker count; synthetic event streams (property test)
//! must never produce an orphan parent or an interval escaping its
//! parent.

use gss::codec::RateControlConfig;
use gss::core::degrade::DegradationConfig;
use gss::core::session::{run_session, Pipeline, SessionConfig};
use gss::net::FaultPlan;
use gss::platform::{pool, DeviceProfile};
use gss::render::GameId;
use gss::telemetry::json::{self, Json};
use gss::telemetry::{
    Event, InstantKind, Recorder, Sink, SinkHandle, Stage, TraceFrame, TraceSink,
};
use proptest::prelude::*;

const FRAME_MS: f64 = 1000.0 / 60.0;

/// A compressed replay of the canonical fault storm: bandwidth collapse,
/// NPU throttle and an outage inside ~1000 frames, with the degradation
/// ladder and NACK recovery on — every instant kind fires.
fn stormy_cfg() -> SessionConfig {
    let time_scale = 0.2;
    SessionConfig {
        frames: (FaultPlan::canonical_duration_ms(time_scale) / FRAME_MS).round() as usize,
        gop_size: 60,
        lr_size: (128, 72),
        rate_control: Some(RateControlConfig {
            min_quality: 10,
            ..RateControlConfig::for_bitrate_mbps(12.0)
        }),
        ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
    }
    .without_quality()
    .with_faults(FaultPlan::canonical_scaled(time_scale))
    .with_degradation(DegradationConfig::default())
}

fn traced_run() -> (TraceSink, String) {
    let trace = TraceSink::new();
    let cfg = stormy_cfg().with_telemetry(SinkHandle::new(trace.clone()));
    run_session(&cfg, Pipeline::GameStreamSr).expect("session");
    let chrome = trace.to_chrome_json();
    (trace, chrome)
}

fn assert_well_formed(frame: &TraceFrame) {
    assert!(!frame.spans.is_empty(), "frame without a root span");
    assert_eq!(frame.spans[0].parent, None, "root must be parentless");
    for s in &frame.spans {
        assert!(
            s.start_ms <= s.end_ms,
            "span {} runs backwards: {s:?}",
            s.name
        );
        if let Some(pid) = s.parent {
            let p = frame
                .span(pid)
                .unwrap_or_else(|| panic!("orphan parent {pid} of {}", s.name));
            assert!(
                p.start_ms <= s.start_ms && s.end_ms <= p.end_ms,
                "span {} [{}, {}] escapes parent {} [{}, {}]",
                s.name,
                s.start_ms,
                s.end_ms,
                p.name,
                p.start_ms,
                p.end_ms
            );
        } else {
            assert_eq!(s.id, 0, "only the root may be parentless");
        }
    }
}

#[test]
fn session_trace_covers_the_whole_pipeline_with_instants() {
    let (trace, _) = traced_run();
    let sessions = trace.sessions();
    assert_eq!(sessions.len(), 1);
    let frames = &sessions[0].frames;
    assert!(!frames.is_empty());

    for f in frames {
        assert_well_formed(f);
    }
    // all eight pipeline stages appear somewhere in the trace
    for stage in [
        Stage::Render,
        Stage::RoiDetect,
        Stage::Encode,
        Stage::LinkTransfer,
        Stage::Decode,
        Stage::NpuSr,
        Stage::GpuInterp,
        Stage::Merge,
    ] {
        assert!(
            frames.iter().any(|f| !f.stage_spans(stage).is_empty()),
            "{} never traced",
            stage.label()
        );
    }
    // the storm trips every causal marker at least once
    for kind in [
        InstantKind::DeadlineMiss,
        InstantKind::Drop,
        InstantKind::LadderShift,
        InstantKind::Nack,
        InstantKind::Fault,
    ] {
        assert!(
            frames
                .iter()
                .any(|f| f.instants.iter().any(|i| i.kind == kind)),
            "no {} instant in the storm",
            kind.label()
        );
    }
    // trace ids are unique and derived from pid + frame number
    let mut ids: Vec<u64> = frames.iter().map(|f| f.trace_id).collect();
    ids.dedup();
    assert_eq!(ids.len(), frames.len());
    assert_eq!(frames[0].trace_id, sessions[0].pid * 1_000_000);
}

#[test]
fn chrome_export_passes_the_schema_check() {
    let (_, chrome) = traced_run();
    let doc = json::parse(&chrome).expect("chrome trace parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert!(!events.is_empty());
    let mut open_async = 0i64;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(e.get("pid").and_then(Json::as_f64).is_some(), "pid missing");
        match ph {
            "M" => {
                assert!(e.get("name").and_then(Json::as_str).is_some());
                assert!(e.get("args").is_some());
            }
            "X" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                assert!(e.get("tid").and_then(Json::as_f64).is_some());
            }
            "b" | "e" => {
                assert_eq!(e.get("cat").and_then(Json::as_str), Some("frame"));
                assert!(e.get("id").and_then(Json::as_str).is_some());
                assert!(e.get("ts").and_then(Json::as_f64).expect("ts") >= 0.0);
                open_async += if ph == "b" { 1 } else { -1 };
                assert!(open_async >= 0, "async end before begin");
            }
            "i" => {
                assert_eq!(e.get("s").and_then(Json::as_str), Some("p"));
                assert!(e.get("ts").and_then(Json::as_f64).expect("ts") >= 0.0);
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(open_async, 0, "unbalanced async frame events");
}

#[test]
fn trace_json_is_byte_identical_across_reruns_and_worker_counts() {
    let prev = pool::workers();
    let mut exports = Vec::new();
    for workers in [1usize, 8] {
        pool::set_workers(workers);
        exports.push(traced_run().1);
        exports.push(traced_run().1);
    }
    pool::set_workers(prev);
    for e in &exports[1..] {
        assert_eq!(
            e.len(),
            exports[0].len(),
            "trace length diverged across runs"
        );
        assert!(
            e == &exports[0],
            "trace bytes diverged across reruns / worker counts"
        );
    }
}

#[test]
fn slo_breach_instants_fire_without_the_controller_and_stay_quiet_with_it() {
    // the managed storm absorbs the faults inside its SLO error budgets:
    // no breach markers may appear in its trace (the CI triage gate
    // enforces the same contract on the canonical storm)
    let (trace, _) = traced_run();
    assert!(
        !trace.sessions()[0]
            .frames
            .iter()
            .any(|f| f.instants.iter().any(|i| i.kind == InstantKind::SloBreach)),
        "the controller-managed storm must not breach an SLO"
    );

    // the same storm without the degradation ladder burns through the
    // error budget and the breach surfaces as a causal marker
    let trace = TraceSink::new();
    let cfg = SessionConfig {
        degradation: None,
        ..stormy_cfg()
    }
    .with_telemetry(SinkHandle::new(trace.clone()));
    run_session(&cfg, Pipeline::GameStreamSr).expect("session");
    let breaches: Vec<String> = trace.sessions()[0]
        .frames
        .iter()
        .flat_map(|f| &f.instants)
        .filter(|i| i.kind == InstantKind::SloBreach)
        .map(|i| i.detail.clone())
        .collect();
    assert!(
        !breaches.is_empty(),
        "the unmanaged storm should trip at least one SLO breach marker"
    );
    assert!(
        breaches.iter().any(|d| d.contains("breach")),
        "breach details should say what happened: {breaches:?}"
    );
}

// ---- property test: synthetic event streams -----------------------------

fn stage_of(idx: usize) -> Stage {
    Stage::ALL[idx % Stage::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever spans a frame records — any stages, any overlap, any
    /// order — the reconstructed tree has no orphan parents and every
    /// interval nests inside its parent's.
    #[test]
    fn synthetic_span_streams_build_well_formed_trees(
        frames in proptest::collection::vec(
            proptest::collection::vec((0usize..10, -50.0f64..50.0, 0.0f64..20.0), 0..12),
            1..6,
        ),
    ) {
        let trace = TraceSink::new();
        let mut rec = Recorder::new("prop", 16.67).with_sink(SinkHandle::new(trace.clone()));
        for (i, spans) in frames.iter().enumerate() {
            rec.begin_frame(i as u64);
            for (stage_idx, start, dur) in spans {
                rec.record_span(stage_of(*stage_idx), *start, *dur);
            }
            rec.end_frame(1.0, 1.0, 0);
        }
        rec.finish();

        let sessions = trace.sessions();
        prop_assert_eq!(sessions[0].frames.len(), frames.len());
        for f in &sessions[0].frames {
            assert_well_formed(f);
        }
        // and the export of an arbitrary stream still parses
        prop_assert!(json::parse(&trace.to_chrome_json()).is_ok());
    }

    /// Replaying the identical event stream into two sinks exports
    /// byte-identical JSON (determinism is a property of the stream, not
    /// of any hidden sink state).
    #[test]
    fn identical_event_streams_export_identically(
        spans in proptest::collection::vec((0usize..10, -20.0f64..20.0, 0.0f64..10.0), 1..20),
    ) {
        let export = |spans: &[(usize, f64, f64)]| {
            let mut sink = TraceSink::new();
            sink.emit(&Event::FrameStart { frame: 0 });
            for (stage_idx, start, dur) in spans {
                sink.emit(&Event::Span {
                    frame: 0,
                    stage: stage_of(*stage_idx),
                    start_ms: *start,
                    end_ms: start + dur,
                });
            }
            sink.emit(&Event::FrameEnd {
                frame: 0,
                mtp_ms: 1.0,
                bytes: 0,
                deadline_met: true,
            });
            sink.to_chrome_json()
        };
        prop_assert_eq!(export(&spans), export(&spans));
    }
}
