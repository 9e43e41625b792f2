//! Fleet-simulator contract tests: bit-determinism at any worker count,
//! join/leave churn soaks, one-session decoder-crash isolation, the
//! deadline-miss attribution floor, zero-budget fleets, and the
//! one-session differential against `run_session`.

use gamestreamsr::fleet::{
    AdmissionPolicy, FleetConfig, FleetReport, FleetSessionReport, FleetSessionSpec, FleetSim,
};
use gamestreamsr::session::{run_session, FrameRecord, Pipeline, SessionConfig};
use gss_codec::RateControlConfig;
use gss_net::{DropCause, FaultEvent, FaultKind, FaultPlan, LinkProfile};
use gss_platform::pool::PoolHandle;
use gss_platform::DeviceProfile;
use gss_render::GameId;
use gss_telemetry::{Counter, Gauge};

fn device(i: usize) -> DeviceProfile {
    if i.is_multiple_of(2) {
        DeviceProfile::s8_tab()
    } else {
        DeviceProfile::pixel7_pro()
    }
}

/// A four-session fleet with staggered joins, one mid-run leaver, one
/// decoder-crash storm and one bandwidth-fade timeline — every code path
/// the determinism contract must cover.
fn mixed_fleet(ticks: usize, pool: PoolHandle) -> FleetConfig {
    let mut config = FleetConfig::new(LinkProfile::fiber(), 0xf1ee7).with_ticks(ticks);
    config.session_rate_mbps = 18.0;
    config.pool = pool;
    config = config
        .with_session(FleetSessionSpec::new(GameId::G1, device(0)))
        .with_session(
            FleetSessionSpec::new(GameId::G2, device(1))
                .joining_at(3)
                .leaving_at(ticks * 2 / 3),
        )
        .with_session(
            FleetSessionSpec::new(GameId::G3, device(2))
                .joining_at(6)
                .with_faults(FaultPlan::new(vec![FaultEvent {
                    start_ms: 150.0,
                    end_ms: 400.0,
                    kind: FaultKind::DecoderCrash,
                }])),
        )
        .with_session(
            FleetSessionSpec::new(GameId::G4, device(3))
                .joining_at(9)
                .with_faults(FaultPlan::new(vec![FaultEvent {
                    start_ms: 300.0,
                    end_ms: 700.0,
                    kind: FaultKind::BandwidthCollapse { factor: 0.4 },
                }])),
        );
    config
}

/// A fleet session's drop counters agree with its shared-link ledger: the
/// link's drops by cause, plus the decoder-down drops the link never sees.
fn assert_drops_match_the_ledger(s: &FleetSessionReport) {
    let t = &s.telemetry;
    let ledger = [
        (Counter::DropsQueueOverflow, s.flow.drops_queue_overflow),
        (Counter::DropsOutage, s.flow.drops_outage),
        (Counter::DropsDecoderDown, s.drops_decoder_down),
        (
            Counter::FramesDropped,
            s.flow.dropped + s.drops_decoder_down,
        ),
    ];
    for (counter, expected) in ledger {
        assert_eq!(
            t.counter(counter),
            expected,
            "session {}: {counter:?}",
            s.spec
        );
    }
}

/// Per-session digests that must replay bit-identically: the telemetry,
/// SLO and attribution JSON documents of every session.
fn session_digests(report: &FleetReport) -> Vec<String> {
    report
        .sessions
        .iter()
        .map(|s| {
            format!(
                "{}|{}|{}|{}",
                s.label,
                s.telemetry.to_json(),
                s.slo.to_json(),
                s.attribution.to_json()
            )
        })
        .collect()
}

#[test]
fn fleet_report_is_bit_identical_at_1_and_8_workers() {
    let serial = FleetSim::new(mixed_fleet(90, PoolHandle::with_workers(1)))
        .run_until_idle()
        .expect("serial fleet");
    let wide = FleetSim::new(mixed_fleet(90, PoolHandle::with_workers(8)))
        .run_until_idle()
        .expect("wide fleet");
    assert_eq!(
        serial.to_json(),
        wide.to_json(),
        "fleet report must not depend on the worker count"
    );
    assert_eq!(
        session_digests(&serial),
        session_digests(&wide),
        "per-session telemetry/SLO/attribution digests must not depend on the worker count"
    );
}

#[test]
fn fleet_trace_is_bit_identical_at_1_and_8_workers() {
    let mut serial = FleetSim::new(mixed_fleet(60, PoolHandle::with_workers(1)));
    serial.run_until_idle().expect("serial fleet");
    let mut wide = FleetSim::new(mixed_fleet(60, PoolHandle::with_workers(8)));
    wide.run_until_idle().expect("wide fleet");
    assert_eq!(serial.to_chrome_json(), wide.to_chrome_json());
}

/// Join/leave churn every 12 ticks across a 2-slot server: the compressed
/// always-on variant of the CI soak below.
fn churn_fleet(ticks: usize, period: usize, capacity: usize) -> FleetConfig {
    let mut config = FleetConfig::new(LinkProfile::fiber(), 0xc0ffee).with_ticks(ticks);
    config.session_rate_mbps = 18.0;
    config.admission = AdmissionPolicy {
        capacity,
        queue_limit: 3,
    };
    let mut i = 0;
    let mut join = 0;
    while join < ticks {
        let spec = FleetSessionSpec::new(GameId::ALL[i % GameId::ALL.len()], device(i))
            .joining_at(join)
            .leaving_at((join + period * 5).min(ticks));
        config = config.with_session(spec);
        i += 1;
        join += period;
    }
    config
}

#[test]
fn churn_soak_compressed_stays_consistent() {
    let report = FleetSim::new(churn_fleet(120, 12, 2))
        .run_until_idle()
        .expect("churn fleet");
    assert!(report.admission.admitted >= 2, "churn admitted nobody");
    assert!(report.flows_consistent());
    for s in &report.sessions {
        assert_drops_match_the_ledger(s);
        assert!(
            s.left_tick > s.joined_tick,
            "session {} left before it joined",
            s.spec
        );
        assert_eq!(
            s.frames as usize,
            s.left_tick - s.joined_tick,
            "session {} frame ledger does not match its tenancy",
            s.spec
        );
    }
    assert!(
        report.attributed_fraction() >= 0.95,
        "churn attribution below the 95% floor: {:.3}",
        report.attributed_fraction()
    );
}

/// The full CI soak: one minute of logical time, a join every 2 s, each
/// tenancy 10 s, an 8-slot server. Heavy — run with `--release -- --ignored`.
#[test]
#[ignore = "heavy soak; CI runs it with --release -- --ignored"]
fn churn_soak_full_minute() {
    let report = FleetSim::new(churn_fleet(3600, 120, 8))
        .run_until_idle()
        .expect("churn fleet");
    assert!(report.admission.admitted >= 20);
    assert!(report.flows_consistent());
    assert!(
        report.attributed_fraction() >= 0.95,
        "soak attribution below the 95% floor: {:.3}",
        report.attributed_fraction()
    );
    let identical = FleetSim::new(churn_fleet(3600, 120, 8))
        .run_until_idle()
        .expect("churn fleet replay");
    assert_eq!(report.to_json(), identical.to_json());
}

#[test]
fn decoder_crash_storm_stays_inside_its_session() {
    let mut config = FleetConfig::new(LinkProfile::fiber(), 7).with_ticks(120);
    config.session_rate_mbps = 18.0;
    config = config
        .with_session(FleetSessionSpec::new(GameId::G1, device(0)))
        .with_session(
            FleetSessionSpec::new(GameId::G2, device(1))
                .joining_at(1)
                .with_faults(FaultPlan::crash_storm_scaled(0.2)),
        )
        .with_session(FleetSessionSpec::new(GameId::G3, device(2)).joining_at(2));
    let report = FleetSim::new(config).run_until_idle().expect("crash fleet");
    report
        .sessions
        .iter()
        .for_each(assert_drops_match_the_ledger);
    let victim = &report.sessions[1];
    assert!(
        victim.drops_decoder_down > 0,
        "the storm session never lost a frame to its dead decoder"
    );
    assert!(
        victim.recovery.is_some(),
        "the storm session must carry a recovery summary"
    );
    for s in [&report.sessions[0], &report.sessions[2]] {
        assert_eq!(
            s.drops_decoder_down, 0,
            "decoder crash leaked into session {}",
            s.spec
        );
        assert_eq!(
            s.frames,
            120 - s.joined_tick as u64,
            "bystander session {} lost frames",
            s.spec
        );
    }
    assert!(
        report.attributed_fraction() >= 0.95,
        "crash-storm attribution below the 95% floor: {:.3}",
        report.attributed_fraction()
    );
}

/// A two-session fleet whose allocator grants nothing. A zero grant must
/// not panic: every session streams its whole tenancy with its rate
/// controller pinned at the quantizer floor.
fn zero_budget_fleet(configure: impl FnOnce(&mut FleetConfig)) -> FleetReport {
    let ticks = 30;
    let mut config = FleetConfig::new(LinkProfile::fiber(), 0x2e60).with_ticks(ticks);
    config.session_rate_mbps = 18.0;
    configure(&mut config);
    let config = config
        .with_session(FleetSessionSpec::new(GameId::G1, device(0)))
        .with_session(FleetSessionSpec::new(GameId::G2, device(1)).joining_at(2));
    let report = FleetSim::new(config)
        .run_until_idle()
        .expect("zero-budget fleet");
    let alloc = report.watch.series.get("alloc-mbps").expect("alloc series");
    assert_eq!(alloc.max(), Some(0.0), "the allocator granted a rate");
    assert!(report.flows_consistent());
    for s in &report.sessions {
        assert_eq!(
            s.frames as usize,
            ticks - s.joined_tick,
            "session {} lost frames",
            s.spec
        );
        assert_drops_match_the_ledger(s);
        let quality = s
            .telemetry
            .gauge(Gauge::EncodeQuality)
            .expect("rate control gauges its quality");
        assert_eq!(
            quality.last, 10.0,
            "session {} is not at the quality floor",
            s.spec
        );
    }
    report
}

#[test]
fn zero_uplink_utilization_streams_at_the_rate_floor() {
    let report = zero_budget_fleet(|c| c.uplink_utilization = 0.0);
    assert_eq!(report.budget_mbps, 0.0);
    // the fiber itself is healthy, so floor-rate frames get through
    for s in &report.sessions {
        assert_eq!(s.flow.dropped, 0, "session {} dropped frames", s.spec);
    }
}

#[test]
fn zero_bandwidth_link_streams_at_the_rate_floor() {
    let report = zero_budget_fleet(|c| c.link.bandwidth_mbps = 0.0);
    assert_eq!(report.budget_mbps, 0.0);
    // a link with no bandwidth delivers nothing: every frame overflows
    for s in &report.sessions {
        assert_eq!(
            s.flow.drops_queue_overflow, s.frames,
            "session {} got a frame through a dead link",
            s.spec
        );
    }
}

#[test]
fn zero_session_rate_streams_at_the_rate_floor() {
    // the budget is healthy, but a zero nominal rate grants nothing
    let report = zero_budget_fleet(|c| c.session_rate_mbps = 0.0);
    assert!(report.budget_mbps > 0.0);
    for s in &report.sessions {
        assert_eq!(s.flow.dropped, 0, "session {} dropped frames", s.spec);
    }
}

/// `FleetSim::step` may run past the configured horizon; the report must
/// then cover the ticks actually run, so each session's frames still
/// equal `left_tick - joined_tick`.
#[test]
fn a_fleet_stepped_past_its_horizon_reports_the_ticks_it_ran() {
    let config = FleetConfig::new(LinkProfile::fiber(), 0x5e7)
        .with_ticks(5)
        .with_session(FleetSessionSpec::new(GameId::G1, device(0)));
    let mut sim = FleetSim::new(config);
    for _ in 0..8 {
        sim.step().expect("fleet tick");
    }
    let report = sim.run_until_idle().expect("fleet run");
    assert_eq!(report.ticks, 8);
    let s = &report.sessions[0];
    assert_eq!(s.frames, 8);
    assert_eq!(s.left_tick, 8);
    assert_eq!(s.frames, (s.left_tick - s.joined_tick) as u64);
}

/// Drops the `"label":"…",` member: the two drivers name their recorders
/// differently, and that is the only field allowed to differ.
fn without_label(json: &str) -> String {
    let Some(start) = json.find("\"label\":\"") else {
        return json.to_owned();
    };
    let value = start + "\"label\":\"".len();
    let end = value + json[value..].find('"').expect("label string closes");
    let cut = if json[end + 1..].starts_with(',') {
        end + 2
    } else {
        end + 1
    };
    format!("{}{}", &json[..start], &json[cut..])
}

/// A fleet of one session on an uncontended fiber link reproduces
/// `run_session` configured the same way: the allocator never caps the
/// rate, the server slot is never shared, and both drivers run the same
/// per-frame step.
#[test]
fn one_session_fleet_reproduces_run_session() {
    let ticks = 60;
    let seed = 0x51de;
    let crash = FaultPlan::new(vec![FaultEvent {
        start_ms: 300.0,
        end_ms: 450.0,
        kind: FaultKind::DecoderCrash,
    }]);
    let cases = [
        (GameId::G3, DeviceProfile::s8_tab(), FaultPlan::default()),
        (
            GameId::G1,
            DeviceProfile::pixel7_pro(),
            FaultPlan::default(),
        ),
        (GameId::G2, DeviceProfile::s8_tab(), crash),
    ];
    for (game, device, faults) in cases {
        let crashes = faults.has_decoder_crashes();
        let mut fleet = FleetConfig::new(LinkProfile::fiber(), seed).with_ticks(ticks);
        fleet.session_rate_mbps = 18.0;
        let fleet = fleet
            .with_session(FleetSessionSpec::new(game, device.clone()).with_faults(faults.clone()));
        let session = SessionConfig {
            link: LinkProfile::fiber(),
            link_seed: seed,
            frames: ticks,
            gop_size: fleet.gop_size,
            lr_size: fleet.lr_size,
            rate_control: Some(RateControlConfig {
                min_quality: 10,
                ..RateControlConfig::for_bitrate_mbps(18.0)
            }),
            ..SessionConfig::new(game, device)
        }
        .without_quality()
        .with_faults(faults)
        .with_degradation();

        let report = FleetSim::new(fleet).run_until_idle().expect("fleet");
        let fs = &report.sessions[0];
        let rs = run_session(&session, Pipeline::GameStreamSr).expect("session");
        let case = format!("{game:?} @ {}", fs.label);
        assert_eq!(
            without_label(&fs.telemetry.to_json()),
            without_label(&rs.telemetry.to_json()),
            "{case}: telemetry"
        );
        assert_eq!(fs.slo.to_json(), rs.slo.to_json(), "{case}: SLO");
        assert_eq!(
            without_label(&fs.attribution.to_json()),
            without_label(&rs.attribution.to_json()),
            "{case}: attribution"
        );
        assert_eq!(fs.recovery, rs.recovery, "{case}: recovery");
        // the fleet derives `frames_ok` as frames − misses − frozen, which
        // holds because a frozen frame upscales nothing and never misses
        assert!(
            rs.frames.iter().all(|f| !f.frozen || f.deadline_met),
            "{case}: a frozen frame missed its deadline"
        );
        let count = |keep: fn(&FrameRecord) -> bool| rs.frames.iter().filter(|f| keep(f)).count();
        let frozen = count(|f| f.frozen) as u64;
        let misses = count(|f| !f.deadline_met) as u64;
        let ok = count(|f| f.deadline_met && !f.frozen) as u64;
        let decoder_down = count(|f| f.drop_cause == Some(DropCause::DecoderDown)) as u64;
        assert_eq!(
            (fs.frames_frozen, fs.deadline_misses, fs.max_rung),
            (frozen, misses, rs.max_rung()),
            "{case}: frozen / miss / max-rung tallies"
        );
        assert_eq!(
            (fs.frames, fs.frames_ok, fs.drops_decoder_down),
            (rs.frames.len() as u64, ok, decoder_down),
            "{case}: frame / ok / decoder-down tallies"
        );
        assert!(
            !crashes || frozen > 0,
            "{case}: the crash window froze nothing"
        );
    }
}
