//! Fig. 15 / §VI — the RoI-guided SR-integrated decoder prototype: energy
//! projection and quality sanity check.

use crate::experiments::common::quality_canvas;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::decoder_ext::{gop_energy_projection, SrIntegratedDecoder};
use gamestreamsr::roi::plan_roi_window;
use gamestreamsr::{GameStreamServer, NemoClient, ServerConfig};
use gss_metrics::psnr;
use gss_platform::DeviceProfile;
use gss_render::GameId;

/// Prints the prototype's projected per-GOP energy versus this work's
/// client, plus a quality comparison against NEMO over one GOP.
pub fn run(options: &RunOptions) {
    let mut t = Table::new(
        "Fig. 15: SR-integrated decoder prototype - projected energy per GOP (60 frames)",
        &[
            "device",
            "this work mJ",
            "prototype mJ",
            "additional saving",
        ],
    );
    for device in DeviceProfile::all() {
        let plan = plan_roi_window(&device, 2, 1280, 720);
        let proj = gop_energy_projection(&device, 60, plan.chosen_side, 62_000);
        t.row(&[
            device.name.to_string(),
            f(proj.ours_gop_mj, 0),
            f(proj.ext_gop_mj, 0),
            format!("{:.1}%", proj.savings() * 100.0),
        ]);
    }
    t.print();

    // quality: the prototype's RoI-guided (bicubic-in-RoI) residual
    // interpolation versus NEMO's uniform bilinear, same stream
    let frames = options.frames(30, 6);
    let canvas = quality_canvas(options);
    let roi_side = canvas.0 * 75 / 320;
    let mut server_cfg = ServerConfig::new(GameId::G3, canvas, (roi_side, roi_side));
    server_cfg.encoder.gop_size = frames;
    server_cfg.time_stride = 1280 / canvas.0;
    let mut server = GameStreamServer::new(server_cfg);
    let mut ext = SrIntegratedDecoder::new(2);
    let mut nemo = NemoClient::new(2);
    let mut ext_psnr = 0.0;
    let mut nemo_psnr = 0.0;
    for _ in 0..frames {
        let p = server.next_frame().expect("packet");
        let e = ext.process(&p.encoded, p.roi).expect("ext decode");
        let n = nemo.process(&p.encoded).expect("nemo decode");
        ext_psnr += psnr(&p.ground_truth_hr, &e.frame).expect("psnr");
        nemo_psnr += psnr(&p.ground_truth_hr, &n.frame).expect("psnr");
    }
    outln!(
        "quality over one GOP (G3): prototype {:.2} dB vs NEMO {:.2} dB (RoI-guided residual interpolation)\n",
        ext_psnr / frames as f64,
        nemo_psnr / frames as f64
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
