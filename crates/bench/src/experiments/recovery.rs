//! Decoder-crash recovery study (extension): the crash-storm fault
//! timeline — the canonical storm plus five scripted decoder crashes, one
//! clean and four rapid-fire — swept across the device capability matrix
//! ([`DeviceProfile::matrix`]): both calibrated reference phones and the
//! three synthetic low/mid/high NPU tiers.
//!
//! Per device the table reports what the recovery state machine delivered:
//! crash/reconfigure/failed-resync counts, whether the permanent
//! safe-profile fallback engaged, time-to-recover (p99 and worst episode),
//! frames frozen while the decoder was down, the worst freeze the viewer
//! sat through, and post-clearance effective FPS. The same numbers gate in
//! `BENCH_ci.json` — a crash that turns into a permanent freeze on any
//! tier fails the benchmark check.

use crate::experiments::common::FAST_CANVAS;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::{run_session, Pipeline, SessionConfig, SessionReport};
use gss_codec::RateControlConfig;
use gss_net::{DropCause, FaultPlan};
use gss_platform::DeviceProfile;
use gss_render::GameId;

const FRAME_MS: f64 = 1000.0 / 60.0;

/// Short stable metric tags, one per [`DeviceProfile::matrix`] entry (in
/// matrix order). Baseline metric names are built from these, so they must
/// never be reordered without re-emitting the baselines.
pub const DEVICE_TAGS: [&str; 5] = ["s8-tab", "pixel7-pro", "tier-low", "tier-mid", "tier-high"];

fn storm_cfg(device: DeviceProfile, time_scale: f64, options: &RunOptions) -> SessionConfig {
    SessionConfig {
        frames: (FaultPlan::crash_storm_duration_ms(time_scale) / FRAME_MS).round() as usize,
        gop_size: 60,
        lr_size: FAST_CANVAS,
        rate_control: Some(RateControlConfig {
            min_quality: 10,
            ..RateControlConfig::for_bitrate_mbps(12.0)
        }),
        telemetry: options.telemetry.clone(),
        ..SessionConfig::new(GameId::G3, device)
    }
    .without_quality()
    .with_faults(FaultPlan::crash_storm_scaled(time_scale))
    .with_degradation()
}

/// One device's run through the crash storm.
#[derive(Debug)]
pub struct DeviceRun {
    /// Stable metric tag (see [`DEVICE_TAGS`]).
    pub tag: &'static str,
    /// Human-readable device name.
    pub device: String,
    /// The completed session.
    pub report: SessionReport,
}

/// The crash storm swept across the device matrix. Produced by
/// [`measure`]; consumed by [`run`] (the printed table) and by the
/// benchmark-regression harness.
#[derive(Debug)]
pub struct RecoveryRuns {
    /// Timeline compression factor (1.0 = the full storm).
    pub time_scale: f64,
    /// First frame index after every scripted fault has cleared.
    pub clearance_frame: usize,
    /// One run per device, in [`DeviceProfile::matrix`] order.
    pub runs: Vec<DeviceRun>,
}

/// Effective FPS over the post-clearance era — the frames after every
/// scripted fault (crashes included) has cleared, i.e. the quality the
/// viewer gets back once the storm is over.
pub fn post_recovery_fps(r: &SessionReport, clearance_frame: usize) -> f64 {
    let start = clearance_frame.min(r.frames.len());
    let tail = &r.frames[start..];
    if tail.is_empty() {
        return 0.0;
    }
    60.0 * tail.iter().filter(|fr| fr.deadline_met).count() as f64 / tail.len() as f64
}

/// Streams the crash storm through every device of the matrix.
pub fn measure(options: &RunOptions) -> RecoveryRuns {
    // quick mode compresses the timeline 5x; the full run replays it 1:1
    let time_scale = if options.quick { 0.2 } else { 1.0 };
    let clearance_frame = (17_000.0 * time_scale / FRAME_MS).ceil() as usize;
    let runs = DeviceProfile::matrix()
        .into_iter()
        .zip(DEVICE_TAGS)
        .map(|(device, tag)| {
            let name = device.name.to_owned();
            let report = run_session(
                &storm_cfg(device, time_scale, options),
                Pipeline::GameStreamSr,
            )
            .expect("session");
            DeviceRun {
                tag,
                device: name,
                report,
            }
        })
        .collect();
    RecoveryRuns {
        time_scale,
        clearance_frame,
        runs,
    }
}

/// Runs the crash storm across the device matrix and prints the
/// per-device recovery table.
pub fn run(options: &RunOptions) {
    let m = measure(options);
    let mut t = Table::new(
        format!(
            "Decoder crash recovery across the device matrix ({} frames, {}x time scale)",
            m.runs[0].report.frames.len(),
            f(m.time_scale, 1)
        ),
        &[
            "device",
            "crashes",
            "reconfigs",
            "failed",
            "fallback",
            "TTR p99",
            "worst episode",
            "frozen (recovery)",
            "frozen run (max)",
            "post-clear FPS",
        ],
    );
    for run in &m.runs {
        let r = &run.report;
        let rec = r
            .recovery
            .as_ref()
            .expect("the crash storm arms the machine");
        t.row(&[
            run.device.clone(),
            rec.crashes.to_string(),
            rec.reconfigures.to_string(),
            rec.failed_attempts.to_string(),
            if rec.safe_profile_fallback {
                "yes"
            } else {
                "-"
            }
            .to_string(),
            format!("{} ms", f(rec.time_to_recover_p99_ms(FRAME_MS), 0)),
            format!(
                "{} frames ({} ms)",
                rec.worst_recovery_frames(),
                f(rec.worst_recovery_frames() as f64 * FRAME_MS, 0)
            ),
            rec.frozen_frames.to_string(),
            format!(
                "{} ({} ms)",
                r.longest_frozen_run(),
                f(r.longest_frozen_run() as f64 * FRAME_MS, 0)
            ),
            f(post_recovery_fps(r, m.clearance_frame), 1),
        ]);
    }
    t.print();
    let decoder_drops: u64 = m
        .runs
        .iter()
        .map(|run| run.report.drops_with_cause(DropCause::DecoderDown) as u64)
        .sum();
    outln!(
        "decoder-down drops across the matrix: {decoder_drops}; all faults clear at frame {}\n",
        m.clearance_frame
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tier_recovers_from_the_quick_storm() {
        let options = RunOptions {
            quick: true,
            ..Default::default()
        };
        run(&options); // smoke the printed table too
        let m = measure(&options);
        assert_eq!(m.runs.len(), DEVICE_TAGS.len());
        for run in &m.runs {
            let r = &run.report;
            let rec = r.recovery.as_ref().expect("machine armed");
            // every scripted crash was sampled and every episode completed
            assert_eq!(rec.crashes, 5, "{}", run.device);
            assert!(!rec.recovery_frames.is_empty(), "{}", run.device);
            assert!(rec.safe_profile_fallback, "{}", run.device);
            // no permanent freeze: the storm's tail streams again
            assert!(
                !r.frames.last().unwrap().frozen,
                "{} ended frozen",
                run.device
            );
            assert!(
                r.longest_frozen_run() < r.frames.len() / 2,
                "{}: frozen {} of {} frames",
                run.device,
                r.longest_frozen_run(),
                r.frames.len()
            );
            assert!(
                r.drops_with_cause(DropCause::DecoderDown) > 0,
                "{}",
                run.device
            );
        }
    }
}
