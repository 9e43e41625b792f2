//! Packet-loss recovery study (extension): what the player sees when the
//! channel fades — frozen frames, a NACK-forced keyframe, and quality
//! snapping back.

use crate::experiments::common::quality_canvas;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::{run_session, Pipeline, SessionConfig};
use gss_platform::DeviceProfile;
use gss_render::GameId;

/// Streams G3 over a fading link with loss recovery on and prints the
/// per-frame outcome trace.
pub fn run(options: &RunOptions) {
    let frames = options.frames(48, 16);
    let mut cfg = SessionConfig {
        frames,
        gop_size: frames,
        lr_size: quality_canvas(options),
        loss_recovery: true,
        telemetry: options.telemetry.clone(),
        ..SessionConfig::new(GameId::G3, DeviceProfile::pixel7_pro())
    };
    // a fading channel tight against the stream's bitrate
    cfg.link.bandwidth_mbps = 30.0;
    cfg.link.bandwidth_cv = 0.55;
    cfg.link_seed = 0x10;
    let report = run_session(&cfg, Pipeline::GameStreamSr).expect("session");

    let mut t = Table::new(
        "Loss recovery: per-frame outcomes over a fading link (G3)",
        &["frame", "type", "outcome", "PSNR dB"],
    );
    let mut shown = 0;
    for rec in &report.frames {
        let outcome = if rec.dropped {
            "DROPPED"
        } else if rec.frozen {
            "frozen (awaiting keyframe)"
        } else {
            "displayed"
        };
        // print drops, freezes, and their neighbourhood
        let interesting = rec.dropped
            || rec.frozen
            || report
                .frames
                .iter()
                .any(|o| (o.dropped || o.frozen) && rec.index.abs_diff(o.index) <= 1);
        if interesting && shown < 24 {
            shown += 1;
            t.row(&[
                rec.index.to_string(),
                format!("{:?}", rec.frame_type),
                outcome.to_string(),
                rec.psnr_db.map(|v| f(v, 2)).unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    t.print();
    let frozen = report.frames.iter().filter(|f| f.frozen).count();
    let dropped = report.frames.iter().filter(|f| f.dropped).count();
    outln!(
        "{dropped} of {frames} frames dropped by the channel; {frozen} frames frozen; \
         decoding resumed at NACK-forced keyframes\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_completes() {
        run(&RunOptions {
            quick: true,
            ..Default::default()
        });
    }
}
