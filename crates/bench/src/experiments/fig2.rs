//! Fig. 2 — the SOTA's super-resolution execution timeline over three
//! consecutive GOPs on the S8 Tab, showing the reference-frame latency
//! peaks and the non-reference frames' deadline violations.

use crate::experiments::common::fast_cfg;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::{run_session, Pipeline};
use gss_codec::FrameType;
use gss_platform::{DeviceProfile, REALTIME_BUDGET_MS};
use gss_render::GameId;

/// Prints the SOTA per-frame upscaling timeline for 3 GOPs.
pub fn run(options: &RunOptions) {
    let frames = options.frames(180, 12);
    let cfg = fast_cfg(GameId::G3, DeviceProfile::s8_tab(), frames, options);
    let report = run_session(&cfg, Pipeline::Nemo).expect("session");

    let mut t = Table::new(
        format!(
            "Fig. 2: SOTA SR execution timeline ({} frames, GOP 60, S8 Tab, budget {:.2} ms)",
            frames, REALTIME_BUDGET_MS
        ),
        &["frame", "type", "upscale ms", "meets 60 FPS"],
    );
    // print the first frames of each GOP plus GOP summaries
    for rec in &report.frames {
        let in_gop = rec.index % 60;
        if in_gop < 3 || in_gop == 59 {
            t.row(&[
                rec.index.to_string(),
                match rec.frame_type {
                    FrameType::Intra => "reference".into(),
                    FrameType::Inter => "non-ref".into(),
                },
                f(rec.upscale_ms, 1),
                if rec.upscale_ms <= REALTIME_BUDGET_MS {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    t.print();
    let ref_ms = report.mean_upscale_ms(FrameType::Intra);
    let nonref_ms = report.mean_upscale_ms(FrameType::Inter);
    outln!(
        "reference peaks: {:.0} ms ({}x the 16.66 ms budget); non-reference: {:.1} ms (also over budget)\n",
        ref_ms,
        (ref_ms / REALTIME_BUDGET_MS).round() as i64,
        nonref_ms
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
