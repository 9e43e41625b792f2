//! Resilience study (extension): GameStreamSR with and without the adaptive
//! degradation controller, and the NEMO baseline, all driven through the
//! same canonical fault timeline — a 10 s mid-session bandwidth collapse
//! overlapping an NPU thermal-throttle ramp, then a short full outage.
//!
//! The table compares what each configuration delivers through the storm:
//! effective FPS, the worst frozen-frame run the viewer sat through, how
//! deep the degradation ladder went, how long after fault clearance full
//! quality returned, and the drop/NACK ledgers.

use crate::experiments::common::FAST_CANVAS;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::{run_session, Pipeline, SessionConfig, SessionReport};
use gss_codec::RateControlConfig;
use gss_net::{DropCause, FaultPlan};
use gss_platform::DeviceProfile;
use gss_render::GameId;
use gss_telemetry::{Counter, Gauge};

const FRAME_MS: f64 = 1000.0 / 60.0;

fn faulted_cfg(time_scale: f64, options: &RunOptions) -> SessionConfig {
    SessionConfig {
        frames: (FaultPlan::canonical_duration_ms(time_scale) / FRAME_MS).round() as usize,
        gop_size: 60,
        lr_size: FAST_CANVAS,
        rate_control: Some(RateControlConfig {
            min_quality: 10,
            ..RateControlConfig::for_bitrate_mbps(12.0)
        }),
        telemetry: options.telemetry.clone(),
        ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
    }
    .without_quality()
    .with_faults(FaultPlan::canonical_scaled(time_scale))
}

fn recovery_label(r: &SessionReport, clearance_frame: usize) -> String {
    if r.max_rung() == 0 {
        return "-".into();
    }
    match r.frames[clearance_frame.min(r.frames.len() - 1)..]
        .iter()
        .find(|rec| rec.rung == 0)
    {
        Some(rec) => format!(
            "{} ({} ms)",
            rec.index - clearance_frame,
            f((rec.index - clearance_frame) as f64 * FRAME_MS, 0)
        ),
        None => "never".into(),
    }
}

/// The three resilience sessions driven through the canonical storm, plus
/// the timeline parameters they shared. Produced by [`measure`]; consumed
/// by [`run`] (the printed table) and by the benchmark-regression harness.
#[derive(Debug)]
pub struct ResilienceRuns {
    /// Timeline compression factor (1.0 = the paper's full storm).
    pub time_scale: f64,
    /// First frame index after every fault has cleared.
    pub clearance_frame: usize,
    /// GameStreamSR with the adaptive degradation controller.
    pub controller: SessionReport,
    /// GameStreamSR with NACK recovery but no ladder.
    pub no_controller: SessionReport,
    /// The NEMO baseline on the same channel.
    pub nemo: SessionReport,
}

/// Streams the canonical fault timeline through the three configurations.
pub fn measure(options: &RunOptions) -> ResilienceRuns {
    // quick mode compresses the timeline 5x; the full run replays it 1:1
    let time_scale = if options.quick { 0.2 } else { 1.0 };
    let clearance_frame = (17_000.0 * time_scale / FRAME_MS).ceil() as usize;

    let on_cfg = faulted_cfg(time_scale, options).with_degradation();
    let mut off_cfg = faulted_cfg(time_scale, options);
    off_cfg.loss_recovery = true; // same NACK recovery, no ladder

    ResilienceRuns {
        time_scale,
        clearance_frame,
        controller: run_session(&on_cfg, Pipeline::GameStreamSr).expect("session"),
        no_controller: run_session(&off_cfg, Pipeline::GameStreamSr).expect("session"),
        nemo: run_session(&off_cfg, Pipeline::Nemo).expect("session"),
    }
}

/// Streams the canonical fault timeline through three configurations and
/// prints the recovery-time / quality-floor comparison.
pub fn run(options: &RunOptions) {
    let m = measure(options);
    let (time_scale, clearance_frame) = (m.time_scale, m.clearance_frame);
    let runs = [
        ("GameStreamSR + controller", &m.controller),
        ("GameStreamSR, no controller", &m.no_controller),
        ("NEMO (SOTA)", &m.nemo),
    ];

    let mut t = Table::new(
        format!(
            "Resilience under the canonical fault timeline ({} frames, {}x time scale)",
            runs[0].1.frames.len(),
            f(time_scale, 1)
        ),
        &[
            "configuration",
            "eff. FPS",
            "frozen run (max)",
            "max rung",
            "recovery after clear",
            "drops (queue/outage)",
            "NACKs (retries)",
            "quality (min)",
        ],
    );
    for (name, r) in &runs {
        let tl = &r.telemetry;
        t.row(&[
            (*name).to_string(),
            f(r.fps_effective(), 1),
            format!(
                "{} ({} ms)",
                r.longest_frozen_run(),
                f(r.longest_frozen_run() as f64 * FRAME_MS, 0)
            ),
            r.max_rung().to_string(),
            recovery_label(r, clearance_frame),
            format!(
                "{}/{}",
                r.drops_with_cause(DropCause::QueueOverflow),
                r.drops_with_cause(DropCause::Outage)
            ),
            format!(
                "{} ({})",
                tl.counter(Counter::Nacks),
                tl.counter(Counter::NackRetries)
            ),
            tl.gauge(Gauge::EncodeQuality)
                .map_or_else(|| "-".into(), |g| f(g.min, 0)),
        ]);
    }
    t.print();

    // compact rung trajectory of the controller run: where the ladder
    // moved, and the fault phases that drove it
    let (_, controlled) = &runs[0];
    let mut trajectory = String::new();
    let mut last = usize::MAX;
    for rec in &controlled.frames {
        if rec.rung != last {
            if !trajectory.is_empty() {
                trajectory.push_str(" -> ");
            }
            trajectory.push_str(&format!("r{}@{}", rec.rung, rec.index));
            last = rec.rung;
        }
    }
    outln!("controller rung trajectory (rung@frame): {trajectory}");
    outln!(
        "ladder transitions: {} down, {} up; all faults clear at frame {clearance_frame}\n",
        controlled.telemetry.counter(Counter::LadderDowngrades),
        controlled.telemetry.counter(Counter::LadderUpgrades),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_completes_and_controller_beats_frozen_runs() {
        // smoke-runs the whole experiment, then pins the headline claim on
        // the compressed timeline: the controller shortens the worst freeze
        let options = RunOptions {
            quick: true,
            ..Default::default()
        };
        run(&options);
        let on_cfg = faulted_cfg(0.2, &options).with_degradation();
        let mut off_cfg = faulted_cfg(0.2, &options);
        off_cfg.loss_recovery = true;
        let on = run_session(&on_cfg, Pipeline::GameStreamSr).unwrap();
        let off = run_session(&off_cfg, Pipeline::GameStreamSr).unwrap();
        assert!(on.fps_effective() >= 30.0);
        assert!(on.max_rung() > 0, "ladder never engaged");
        assert!(
            on.longest_frozen_run() <= off.longest_frozen_run(),
            "controller {} vs {} without",
            on.longest_frozen_run(),
            off.longest_frozen_run()
        );
    }
}
