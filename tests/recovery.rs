//! Decoder-crash recovery integration tests: the crash-storm fault
//! timeline (canonical storm plus five scripted decoder crashes) must be
//! survivable on every device tier of the capability matrix — the
//! recovery state machine drains, reconfigures and resyncs each crash,
//! backs off under rapid-fire crashes, and ultimately pins the session to
//! the safe bilinear profile instead of freezing forever.
//!
//! The observability layer is part of the contract: recovery-era deadline
//! misses must attribute to `decoder-crash`, the frozen-stall ledger must
//! carry a decoder-crash entry, and the whole scenario must replay
//! byte-identically across worker counts.

use gss::codec::RateControlConfig;
use gss::core::degrade::LADDER;
use gss::core::session::{run_session, Pipeline, SessionConfig, SessionReport};
use gss::net::{DropCause, FaultEvent, FaultKind, FaultPlan};
use gss::platform::{pool, DeviceProfile};
use gss::render::GameId;
use gss::telemetry::{Counter, MissCause};

/// Milliseconds per frame at the 60 FPS source rate.
const FRAME_MS: f64 = 1000.0 / 60.0;
/// Time compression of the crash-storm timeline for the deterministic
/// tests (all five 100 ms crash windows stay wider than a frame period).
const TIME_SCALE: f64 = 0.2;

/// The shared scenario: the scaled crash storm — canonical bandwidth
/// collapse, NPU throttle and outage, plus one clean decoder crash and a
/// rapid-fire burst of four more — rate-controlled at 12 Mbps with the
/// adaptive ladder enabled.
fn storm_cfg(device: DeviceProfile) -> SessionConfig {
    SessionConfig {
        frames: (FaultPlan::crash_storm_duration_ms(TIME_SCALE) / FRAME_MS).round() as usize,
        gop_size: 60,
        lr_size: (128, 72),
        rate_control: Some(RateControlConfig {
            min_quality: 10,
            ..RateControlConfig::for_bitrate_mbps(12.0)
        }),
        ..SessionConfig::new(GameId::G3, device)
    }
    .without_quality()
    .with_faults(FaultPlan::crash_storm_scaled(TIME_SCALE))
    .with_degradation()
}

fn assert_storm_recovered(name: &str, r: &SessionReport) {
    let rec = r.recovery.as_ref().expect("crash storm arms the machine");
    // every scripted crash was sampled, every reconfigure attempted, and
    // the rapid-fire burst drove the machine into the permanent fallback
    assert_eq!(rec.crashes, 5, "{name}: crashes");
    assert!(
        rec.reconfigures >= 5,
        "{name}: reconfigures {}",
        rec.reconfigures
    );
    assert!(
        !rec.recovery_frames.is_empty(),
        "{name}: no completed episode"
    );
    assert!(rec.safe_profile_fallback, "{name}: fallback never engaged");
    assert_eq!(
        r.telemetry.counter(Counter::DecoderCrashes),
        5,
        "{name}: crash counter"
    );
    // no permanent freeze: the tail streams again, on the bilinear floor
    let last = r.frames.last().unwrap();
    assert!(!last.frozen, "{name}: session ended frozen");
    assert_eq!(
        last.rung,
        LADDER.len() - 1,
        "{name}: fallback must pin the ladder floor"
    );
    assert!(
        r.longest_frozen_run() < r.frames.len() / 2,
        "{name}: frozen {} of {} frames",
        r.longest_frozen_run(),
        r.frames.len()
    );
    // decoder-down frames are dropped with their own cause, and the
    // counter agrees with the per-frame records
    let decoder_drops = r.drops_with_cause(DropCause::DecoderDown);
    assert!(decoder_drops > 0, "{name}: no decoder-down drops");
    assert_eq!(
        decoder_drops as u64,
        r.telemetry.counter(Counter::DropsDecoderDown),
        "{name}: drop counter"
    );
    let by_cause: u64 = [
        Counter::DropsQueueOverflow,
        Counter::DropsOutage,
        Counter::DropsDecoderDown,
    ]
    .into_iter()
    .map(|c| r.telemetry.counter(c))
    .sum();
    assert_eq!(
        r.telemetry.counter(Counter::FramesDropped),
        by_cause,
        "{name}: drop total"
    );
    // the frozen-stall ledger blames the decoder crash for the freezes
    let stall = r
        .attribution
        .stalls
        .iter()
        .find(|s| s.cause == MissCause::DecoderCrash)
        .unwrap_or_else(|| panic!("{name}: no decoder-crash stall entry"));
    assert!(stall.frames > 0, "{name}: empty decoder-crash stall entry");
}

#[test]
fn every_device_tier_recovers_from_the_crash_storm() {
    let matrix = DeviceProfile::matrix();
    assert_eq!(matrix.len(), 5, "the fault matrix covers five devices");
    for device in matrix {
        let name = device.name;
        let r = run_session(&storm_cfg(device), Pipeline::GameStreamSr).expect("session");
        assert_storm_recovered(name, &r);
    }
}

#[test]
fn negotiation_clamps_the_weak_tier_ladder_through_the_storm() {
    let r = run_session(
        &storm_cfg(DeviceProfile::tier_low()),
        Pipeline::GameStreamSr,
    )
    .expect("session");
    // tier-low negotiates away the EDSR-64 rungs (top rung 2), so even at
    // its best the session never climbs above the negotiated ceiling
    assert!(
        r.frames.iter().all(|f| f.rung >= 2),
        "min rung {} below the negotiated ceiling",
        r.frames.iter().map(|f| f.rung).min().unwrap()
    );
}

#[test]
fn recovery_era_impact_attributes_to_the_decoder_crash() {
    // crashes only — no competing network faults — so everything the
    // viewer suffers inside a crash-plus-recovery era must carry the
    // decoder-crash verdict
    let crashes = [(500.0, 600.0), (1500.0, 1600.0), (1900.0, 2000.0)];
    let plan = FaultPlan::new(
        crashes
            .iter()
            .map(|&(start_ms, end_ms)| FaultEvent {
                start_ms,
                end_ms,
                kind: FaultKind::DecoderCrash,
            })
            .collect(),
    );
    let cfg = SessionConfig {
        frames: 240,
        ..storm_cfg(DeviceProfile::s8_tab())
    }
    .with_faults(plan);
    let r = run_session(&cfg, Pipeline::GameStreamSr).expect("session");
    let rec = r.recovery.as_ref().expect("machine armed");
    assert_eq!(rec.crashes, 3);
    assert!(rec.frozen_frames > 0, "the crashes froze no frames");

    // decoder-down slots repeat the previous frame with a zero critical
    // path, so the crash's viewer impact lands in the frozen-stall ledger
    // — and every frozen recovery slot must be blamed on the crash there
    let stall = r
        .attribution
        .stalls
        .iter()
        .find(|s| s.cause == MissCause::DecoderCrash)
        .expect("no decoder-crash stall entry");
    assert!(
        stall.frames >= rec.frozen_frames,
        "stall ledger blames {} frames on the crash, recovery froze {}",
        stall.frames,
        rec.frozen_frames
    );
    assert!(stall.longest_run > 0);

    // deadline misses inside a crash-plus-recovery era (crash start until
    // well after the worst-case drain + backoff + reconfigure + resync)
    // must attribute to the crash at >= 95% — no other cause may claim
    // them, and none may be left unknown
    let in_era = |ts: f64| {
        crashes
            .iter()
            .any(|&(start, end)| ts >= start && ts <= end + 1000.0)
    };
    let era: Vec<_> = r
        .attribution
        .records
        .iter()
        .filter(|m| in_era(m.ts_ms))
        .collect();
    let blamed = era
        .iter()
        .filter(|m| m.cause == MissCause::DecoderCrash)
        .count();
    assert!(
        blamed as f64 >= 0.95 * era.len() as f64,
        "only {blamed} of {} recovery-era misses attributed to the crash",
        era.len()
    );
    // and the session-wide health contract still holds under the storm
    assert!(
        r.attribution.attributed_fraction() >= 0.95,
        "only {:.1}% of misses attributed",
        r.attribution.attributed_fraction() * 100.0
    );
}

/// Worker count is a process-wide knob, so the whole sweep lives in one
/// `#[test]` (same pattern as the scalar ↔ parallel identity suite).
#[test]
fn crash_recovery_replays_byte_identically_across_worker_counts() {
    let prev = pool::workers();
    let fingerprint = || {
        let r = run_session(&storm_cfg(DeviceProfile::s8_tab()), Pipeline::GameStreamSr)
            .expect("session");
        (
            format!("{:?}", r.frames),
            format!("{:?}", r.recovery),
            r.telemetry.to_json(),
            r.attribution.clone(),
        )
    };
    pool::set_workers(1);
    let base = fingerprint();
    pool::set_workers(8);
    let wide = fingerprint();
    pool::set_workers(prev);
    assert_eq!(
        base.0, wide.0,
        "frame records diverged across worker counts"
    );
    assert_eq!(
        base.1, wide.1,
        "recovery summaries diverged across worker counts"
    );
    assert_eq!(base.2, wide.2, "telemetry diverged across worker counts");
    assert_eq!(base.3, wide.3, "attribution diverged across worker counts");
}
