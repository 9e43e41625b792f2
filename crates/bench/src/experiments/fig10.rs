//! Fig. 10 — performance results: (a) upscaling speedups and output frame
//! rates, (b) MTP latency improvement for reference frames, (c) the MTP
//! breakdown for G3 on the Pixel 7 Pro.

use crate::experiments::common::fast_cfg;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::{run_comparison, run_session, Pipeline};
use gss_codec::FrameType;
use gss_platform::DeviceProfile;
use gss_render::GameId;

/// Fig. 10a: upscaling speedup for reference frames, non-reference frames
/// and the whole GOP, per device, with the implied output FPS.
pub fn run_a(options: &RunOptions) {
    let frames = options.frames(120, 12);
    let mut t = Table::new(
        "Fig. 10a: upscaling speedup over SOTA and output frame rate",
        &[
            "device",
            "ref speedup",
            "non-ref speedup",
            "GOP speedup",
            "SOTA ref FPS",
            "ours ref FPS",
        ],
    );
    for device in DeviceProfile::all() {
        let cmp = run_comparison(&fast_cfg(GameId::G3, device.clone(), frames, options))
            .expect("session");
        t.row(&[
            device.name.to_string(),
            format!("{:.1}x", cmp.ref_upscale_speedup()),
            format!("{:.2}x", cmp.nonref_upscale_speedup()),
            format!("{:.2}x", cmp.gop_upscale_speedup()),
            f(cmp.sota.upscale_fps(FrameType::Intra), 1),
            f(cmp.ours.upscale_fps(FrameType::Intra), 1),
        ]);
    }
    t.print();
    outln!(
        "(speedups are content-independent; the paper likewise reports no per-game variation)\n"
    );
}

/// Fig. 10b: end-to-end MTP latency improvement for reference frames.
pub fn run_b(options: &RunOptions) {
    let frames = options.frames(120, 12);
    let mut t = Table::new(
        "Fig. 10b: reference-frame MTP latency improvement over SOTA",
        &[
            "device",
            "SOTA ref MTP ms",
            "ours ref MTP ms",
            "improvement",
        ],
    );
    for device in DeviceProfile::all() {
        let cmp = run_comparison(&fast_cfg(GameId::G3, device.clone(), frames, options))
            .expect("session");
        t.row(&[
            device.name.to_string(),
            f(cmp.sota.mean_mtp_ms(FrameType::Intra), 1),
            f(cmp.ours.mean_mtp_ms(FrameType::Intra), 1),
            format!("{:.1}x", cmp.ref_mtp_improvement()),
        ]);
    }
    t.print();
}

/// Fig. 10c: the per-stage MTP breakdown for G3 on the Pixel 7 Pro,
/// reference frames, both pipelines.
pub fn run_c(options: &RunOptions) {
    let frames = options.frames(61, 2);
    let cfg = fast_cfg(GameId::G3, DeviceProfile::pixel7_pro(), frames, options);
    let ours = run_session(&cfg, Pipeline::GameStreamSr).expect("session");
    let sota = run_session(&cfg, Pipeline::Nemo).expect("session");
    let pick = |r: &gamestreamsr::session::SessionReport| {
        r.frames
            .iter()
            .find(|f| f.frame_type == FrameType::Intra)
            .expect("a reference frame")
            .mtp
    };
    let m_ours = pick(&ours);
    let m_sota = pick(&sota);
    let mut t = Table::new(
        "Fig. 10c: MTP breakdown, reference frame, G3 on Pixel 7 Pro (ms)",
        &["stage", "ours", "SOTA"],
    );
    for ((label, ours_v), (_, sota_v)) in m_ours.stages().iter().zip(m_sota.stages().iter()) {
        t.row(&[label.to_string(), f(*ours_v, 1), f(*sota_v, 1)]);
    }
    t.row(&[
        "TOTAL".into(),
        f(m_ours.total_ms(), 1),
        f(m_sota.total_ms(), 1),
    ]);
    t.print();
    outln!(
        "ours stays under the 100 ms fast-genre MTP bar; SOTA's upscaling stage alone exceeds it\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_complete() {
        let q = RunOptions {
            quick: true,
            ..Default::default()
        };
        run_a(&q);
        run_b(&q);
        run_c(&q);
    }
}
