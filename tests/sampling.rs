//! Integration tests for tail-based trace sampling: a faulted session
//! driven through the full trace collector *and* the sampler at once
//! must retain exactly the anomaly/context/baseline frames (each
//! byte-equal to its full-trace twin), every exemplar must link to a
//! retained frame, and a sampled fleet must export byte-identical
//! traces and reports at any worker count while staying strictly
//! smaller than its full-trace twin.

use gss::codec::RateControlConfig;
use gss::core::fleet::{FleetConfig, FleetSessionSpec, FleetSim};
use gss::core::session::{run_session, Pipeline, SessionConfig};
use gss::net::{FaultEvent, FaultKind, FaultPlan, LinkProfile};
use gss::platform::pool::PoolHandle;
use gss::platform::DeviceProfile;
use gss::render::GameId;
use gss::telemetry::{
    compute_exemplars, SamplingPolicy, SamplingTraceSink, SinkHandle, TraceBudget, TraceFrame,
    TraceSink,
};

const FRAME_MS: f64 = 1000.0 / 60.0;

/// A compressed replay of the canonical fault storm (see `tests/trace.rs`):
/// bandwidth collapse, NPU throttle and an outage inside ~1000 frames, so
/// deadline misses, drops, NACKs, ladder shifts and faults all fire.
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
    .with_degradation()
}

/// An uncapped keep policy: 1-in-16 baseline, ±2 context, budget far
/// above anything the storm produces — so the keep policy alone decides.
fn uncapped_policy() -> SamplingPolicy {
    SamplingPolicy {
        baseline_period: 16,
        context_frames: 2,
        budget: TraceBudget {
            per_session: usize::MAX,
            fleet: usize::MAX,
        },
    }
}

/// Runs the storm once with both collectors fanned out off one session.
fn dual_run(policy: SamplingPolicy) -> (TraceSink, SamplingTraceSink) {
    let full = TraceSink::new();
    let sampler = SamplingTraceSink::new(policy);
    let cfg = stormy_cfg().with_telemetry(SinkHandle::fanout(vec![
        SinkHandle::new(full.clone()),
        SinkHandle::new(sampler.clone()),
    ]));
    run_session(&cfg, Pipeline::GameStreamSr).expect("session");
    (full, sampler)
}

fn is_anomalous(frame: &TraceFrame) -> bool {
    !frame.deadline_met || !frame.instants.is_empty()
}

#[test]
fn retained_frames_twin_the_full_trace_and_cover_every_anomaly() {
    let (full, sampler) = dual_run(uncapped_policy());
    let full_frames = &full.sessions()[0].frames;
    let retained = &sampler.sessions()[0].frames;
    assert!(!retained.is_empty(), "storm retained nothing");
    assert!(
        retained.len() < full_frames.len(),
        "sampler kept everything ({} frames) — no storm should be 100% anomalous",
        retained.len()
    );

    // every retained frame is byte-for-byte its full-trace twin
    for frame in retained {
        let twin = full_frames
            .iter()
            .find(|f| f.frame == frame.frame)
            .unwrap_or_else(|| panic!("retained frame {} not in the full trace", frame.frame));
        assert_eq!(frame, twin, "retained frame {} diverged", frame.frame);
    }

    // every anomalous frame is retained, with ±K context around it
    let k = uncapped_policy().context_frames;
    let last = full_frames.last().expect("frames").frame;
    let kept: Vec<u64> = retained.iter().map(|f| f.frame).collect();
    let mut anomalies = 0;
    for f in full_frames.iter().filter(|f| is_anomalous(f)) {
        anomalies += 1;
        for n in f.frame.saturating_sub(k)..=(f.frame + k).min(last) {
            assert!(
                kept.binary_search(&n).is_ok(),
                "frame {n} (context of anomaly {}) was not retained",
                f.frame
            );
        }
    }
    assert!(anomalies > 0, "the storm produced no anomalies to cover");

    // the deterministic 1-in-M baseline rides along
    let m = uncapped_policy().baseline_period;
    for f in full_frames.iter().filter(|f| f.frame % m == 0) {
        assert!(
            kept.binary_search(&f.frame).is_ok(),
            "baseline frame {} was not retained",
            f.frame
        );
    }
}

#[test]
fn exemplars_always_link_to_retained_frames_with_matching_durations() {
    let (_, sampler) = dual_run(uncapped_policy());
    let sessions = sampler.sessions();
    let exemplars = compute_exemplars(&sessions);
    assert_eq!(exemplars.len(), 1);
    let e = &exemplars[0];
    assert!(e.count() > 0, "storm produced no exemplars");

    let frames = &sessions[0].frames;
    let worst = e.worst_frame.expect("worst-frame exemplar");
    let frame = frames
        .iter()
        .find(|f| f.trace_id == worst.trace_id)
        .expect("worst-frame exemplar links to a retained frame");
    let root = &frame.spans[0];
    assert_eq!(root.end_ms - root.start_ms, worst.value);

    for (stage, ex) in &e.stages {
        let frame = frames
            .iter()
            .find(|f| f.trace_id == ex.trace_id)
            .unwrap_or_else(|| panic!("{stage:?} exemplar links to no retained frame"));
        assert!(
            frame
                .stage_spans(*stage)
                .iter()
                .any(|s| s.end_ms - s.start_ms == ex.value),
            "{stage:?} exemplar value {} matches no retained span",
            ex.value
        );
    }
}

/// A small sampled fleet with churn and a decoder-crash victim — the
/// worker-identity and size contracts at fleet scope.
fn sampled_fleet(ticks: usize, pool: PoolHandle, sampled: bool) -> FleetConfig {
    let mut config = FleetConfig::new(LinkProfile::fiber(), 0xf1ee7).with_ticks(ticks);
    config.session_rate_mbps = 18.0;
    config.pool = pool;
    if sampled {
        config = config.with_sampling(SamplingPolicy::default());
    }
    config
        .with_session(FleetSessionSpec::new(GameId::G1, DeviceProfile::s8_tab()))
        .with_session(
            FleetSessionSpec::new(GameId::G2, DeviceProfile::pixel7_pro())
                .joining_at(3)
                .leaving_at(ticks * 2 / 3),
        )
        .with_session(
            FleetSessionSpec::new(GameId::G3, DeviceProfile::s8_tab())
                .joining_at(6)
                .with_faults(FaultPlan::new(vec![FaultEvent {
                    start_ms: 150.0,
                    end_ms: 400.0,
                    kind: FaultKind::DecoderCrash,
                }])),
        )
}

#[test]
fn sampled_fleet_trace_and_report_are_bit_identical_at_1_and_8_workers() {
    let mut serial = FleetSim::new(sampled_fleet(90, PoolHandle::with_workers(1), true));
    let serial_report = serial.run_until_idle().expect("serial run");
    let mut wide = FleetSim::new(sampled_fleet(90, PoolHandle::with_workers(8), true));
    let wide_report = wide.run_until_idle().expect("wide run");

    assert_eq!(serial_report.to_json(), wide_report.to_json());
    assert_eq!(serial.to_chrome_json(), wide.to_chrome_json());
    assert_eq!(
        serial.sampling_summary().expect("sampling on").to_json(),
        wide.sampling_summary().expect("sampling on").to_json()
    );
}

#[test]
fn sampled_fleet_reports_identically_to_full_but_exports_fewer_bytes() {
    let mut full = FleetSim::new(sampled_fleet(90, PoolHandle::with_workers(2), false));
    let full_report = full.run_until_idle().expect("full run");
    let mut sampled = FleetSim::new(sampled_fleet(90, PoolHandle::with_workers(2), true));
    let sampled_report = sampled.run_until_idle().expect("sampled run");

    // the sampler must be observationally free: same report bytes
    assert_eq!(full_report.to_json(), sampled_report.to_json());
    assert!(full.sampling_summary().is_none());

    let full_bytes = full.to_chrome_json().len();
    let sampled_bytes = sampled.to_chrome_json().len();
    assert!(
        sampled_bytes < full_bytes,
        "sampled trace ({sampled_bytes} B) not smaller than full ({full_bytes} B)"
    );
}
