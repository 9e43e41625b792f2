//! Golden digests of the modeled outputs. Each constant is an FNV-1a hash
//! (the scheme `perfbench` records its workload digests with) over every
//! byte a session or fleet reports: the per-frame records, the telemetry,
//! SLO and attribution documents, the recovery summary, the raw telemetry
//! event stream, and for fleets the report and merged Chrome trace JSON.
//! A refactor that keeps these constants has preserved behaviour; a change
//! that is meant to alter modeled output must re-record them deliberately.
//!
//! Every scenario runs on the 128x72 canvas so the suite stays cheap in a
//! debug build.

use gss::codec::RateControlConfig;
use gss::core::fleet::{FleetConfig, FleetSessionSpec, FleetSim};
use gss::core::session::{run_session, Pipeline, SessionConfig};
use gss::net::{FaultEvent, FaultKind, FaultPlan, LinkProfile};
use gss::platform::DeviceProfile;
use gss::render::GameId;
use gss::telemetry::{MemorySink, SamplingPolicy, SinkHandle, TraceBudget};

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest<S: AsRef<str>>(parts: impl IntoIterator<Item = S>) -> u64 {
    parts
        .into_iter()
        .fold(FNV_START, |h, p| fnv(h, p.as_ref().as_bytes()))
}

/// Runs one session with a memory sink attached and digests everything it
/// reports.
fn session_digest(config: SessionConfig, pipeline: Pipeline) -> u64 {
    let mem = MemorySink::new();
    let config = config.with_telemetry(SinkHandle::new(mem.clone()));
    let report = run_session(&config, pipeline).expect("session");
    let mut parts = vec![
        format!("{:?}", report.frames),
        report.telemetry.to_json(),
        report.slo.to_json(),
        report.attribution.to_json(),
        format!("{:?}", report.recovery),
    ];
    parts.extend(mem.events().iter().map(|e| format!("{e:?}")));
    digest(parts)
}

fn frames_for(duration_ms: f64) -> usize {
    (duration_ms * 60.0 / 1000.0).ceil() as usize
}

fn canvas_session(game: GameId, device: DeviceProfile) -> SessionConfig {
    SessionConfig {
        lr_size: (128, 72),
        ..SessionConfig::new(game, device)
    }
}

#[test]
fn crash_storm_session_matches_its_golden_digest() {
    let scale = 0.2;
    let config = SessionConfig {
        frames: frames_for(FaultPlan::crash_storm_duration_ms(scale)),
        rate_control: Some(RateControlConfig::for_bitrate_mbps(12.0)),
        ..canvas_session(GameId::G3, DeviceProfile::s8_tab())
    }
    .without_quality()
    .with_faults(FaultPlan::crash_storm_scaled(scale))
    .with_degradation();
    let d = session_digest(config, Pipeline::GameStreamSr);
    assert_eq!(
        d, 0x84cc_e640_f9d5_85b1,
        "crash-storm session digest {d:016x}"
    );
}

#[test]
fn nemo_canonical_faults_session_matches_its_golden_digest() {
    let scale = 0.1;
    let config = SessionConfig {
        frames: frames_for(FaultPlan::canonical_duration_ms(scale)),
        gop_size: 30,
        loss_recovery: true,
        ..canvas_session(GameId::G5, DeviceProfile::pixel7_pro())
    }
    .without_quality()
    .with_faults(FaultPlan::canonical_scaled(scale));
    let d = session_digest(config, Pipeline::Nemo);
    assert_eq!(
        d, 0xf875_bef1_92d4_47e0,
        "NEMO canonical-faults session digest {d:016x}"
    );
}

#[test]
fn pixel_path_session_matches_its_golden_digest() {
    // the weak tier negotiates a cheaper SR rung, so the pixel path runs
    // through a model-tier swap as well as the full decode/upscale/metrics
    let config = SessionConfig {
        frames: 8,
        gop_size: 4,
        ..canvas_session(GameId::G1, DeviceProfile::tier_low())
    }
    .with_degradation();
    let d = session_digest(config, Pipeline::GameStreamSr);
    assert_eq!(
        d, 0x6739_3eef_1d20_495e,
        "pixel-path session digest {d:016x}"
    );
}

#[test]
fn nemo_pixel_path_session_matches_its_golden_digest() {
    // NEMO's own pixel path: software decode, full-frame SR on every
    // keyframe and the MV+residual rebuild in between, with loss recovery
    let config = SessionConfig {
        frames: 8,
        gop_size: 4,
        loss_recovery: true,
        ..canvas_session(GameId::G5, DeviceProfile::pixel7_pro())
    };
    let d = session_digest(config, Pipeline::Nemo);
    assert_eq!(
        d, 0xec65_46b0_a58d_3974,
        "NEMO pixel-path session digest {d:016x}"
    );
}

#[test]
fn canonical_storm_session_matches_its_golden_digest() {
    // the canonical storm's NPU throttle outruns the ladder's first steps:
    // the misses it answers with a downgrade must stay ladder-lag, not
    // npu-throttle
    let scale = 0.2;
    let config = SessionConfig {
        frames: frames_for(FaultPlan::canonical_duration_ms(scale)),
        gop_size: 60,
        rate_control: Some(RateControlConfig {
            min_quality: 10,
            ..RateControlConfig::for_bitrate_mbps(12.0)
        }),
        ..canvas_session(GameId::G3, DeviceProfile::s8_tab())
    }
    .without_quality()
    .with_faults(FaultPlan::canonical_scaled(scale))
    .with_degradation();
    let d = session_digest(config, Pipeline::GameStreamSr);
    assert_eq!(
        d, 0xa633_6ea8_c034_c28b,
        "canonical-storm session digest {d:016x}"
    );
}

/// Four sessions: a steady one, a mid-run leaver, a decoder-crash victim
/// and a weak-tier client under a bandwidth fade.
fn mixed_fleet(sampled: bool) -> FleetConfig {
    let ticks = 60;
    let mut config = FleetConfig::new(LinkProfile::fiber(), 0x901d).with_ticks(ticks);
    config.session_rate_mbps = 18.0;
    if sampled {
        config = config.with_sampling(SamplingPolicy {
            budget: TraceBudget {
                per_session: 24,
                fleet: 64,
            },
            ..SamplingPolicy::default()
        });
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
        .with_session(
            FleetSessionSpec::new(GameId::G4, DeviceProfile::tier_low())
                .joining_at(9)
                .with_faults(FaultPlan::new(vec![FaultEvent {
                    start_ms: 300.0,
                    end_ms: 700.0,
                    kind: FaultKind::BandwidthCollapse { factor: 0.4 },
                }])),
        )
}

fn fleet_digests(sampled: bool) -> (u64, u64) {
    let mut sim = FleetSim::new(mixed_fleet(sampled));
    let report = sim.run_until_idle().expect("fleet run");
    let sampling = sim.sampling_summary().map(|s| s.to_json());
    (
        digest([report.to_json()]),
        digest([Some(sim.to_chrome_json()), sampling].into_iter().flatten()),
    )
}

#[test]
fn full_trace_fleet_matches_its_golden_digests() {
    let (report, trace) = fleet_digests(false);
    assert_eq!(
        report, 0x26a0_1a93_fa25_7330,
        "full fleet report digest {report:016x}"
    );
    assert_eq!(
        trace, 0x17f9_7824_4537_e17f,
        "full fleet trace digest {trace:016x}"
    );
}

#[test]
fn sampled_fleet_matches_its_golden_digests() {
    let (report, trace) = fleet_digests(true);
    assert_eq!(
        report, 0x26a0_1a93_fa25_7330,
        "sampled fleet report digest {report:016x}"
    );
    assert_eq!(
        trace, 0xc22b_6fcb_002a_7f60,
        "sampled fleet trace digest {trace:016x}"
    );
}
