//! Ablation studies of the design choices DESIGN.md calls out: Gaussian
//! spatial weighting, depth layering, two-phase search, RoI window size,
//! and the eye-tracking-versus-depth energy argument (§III-A).

use crate::experiments::common::quality_canvas;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::roi::{preprocess, search_roi, PreprocessConfig, SearchConfig};
use gamestreamsr::{GameStreamClient, GameStreamServer, RoiDetectorConfig, ServerConfig};
use gss_metrics::psnr;
use gss_platform::{DeviceProfile, REALTIME_BUDGET_MS};
use gss_render::{GameId, GameWorkload};
use gss_sr::edsr::EdsrConfig;
use gss_sr::fsrcnn::FsrcnnConfig;

/// Runs all ablations.
pub fn run(options: &RunOptions) {
    roi_detector_variants(options);
    roi_size_sweep(options);
    model_choice(options);
    search_phase_cost(options);
    eyetracking_energy();
}

/// The model-choice rows: each architecture and its MACs for a 300×300
/// input.
fn model_macs() -> [(&'static str, u64); 3] {
    [
        (
            "EDSR-16/64 (paper)",
            EdsrConfig::default().macs_for_input(300, 300),
        ),
        (
            "EDSR-8/32",
            EdsrConfig {
                channels: 32,
                blocks: 8,
                scale: 2,
            }
            .macs_for_input(300, 300),
        ),
        (
            "FSRCNN-56/12/4",
            FsrcnnConfig::default().macs_for_input(300, 300),
        ),
    ]
}

/// Model-agnostic calibration (§IV-B1): benchmarking a cheaper SR model at
/// step-0 buys a larger real-time RoI window on the same NPU.
fn model_choice(_options: &RunOptions) {
    let models = model_macs();
    let reference = models[0].1 as f64;
    let device = DeviceProfile::s8_tab();
    let mut t = Table::new(
        "Ablation: SR model choice vs real-time RoI window (S8 Tab)",
        &[
            "model",
            "GMACs @300x300",
            "cost vs EDSR",
            "max real-time RoI",
        ],
    );
    for (name, macs) in models {
        let ratio = macs as f64 / reference;
        let side = device.max_realtime_roi_side_for_model(REALTIME_BUDGET_MS, ratio);
        t.row(&[
            name.to_string(),
            f(macs as f64 / 1e9, 1),
            format!("{ratio:.3}x"),
            format!("{side}x{side}"),
        ]);
    }
    t.print();
}

/// RoI detector variants: how each preprocessing stage affects where the
/// RoI lands (measured as mean depth inside the RoI — lower = nearer =
/// better foreground capture — and distance from frame center).
fn roi_detector_variants(options: &RunOptions) {
    let games: &[GameId] = if options.quick {
        &[GameId::G3]
    } else {
        &GameId::ALL
    };
    let variants: [(&str, PreprocessConfig); 4] = [
        ("full pipeline", PreprocessConfig::default()),
        (
            "no gaussian weighting",
            PreprocessConfig {
                gaussian_weight: 0.0,
                ..PreprocessConfig::default()
            },
        ),
        (
            "single layer (no layering)",
            PreprocessConfig {
                layers: 1,
                ..PreprocessConfig::default()
            },
        ),
        (
            "8 layers",
            PreprocessConfig {
                layers: 8,
                ..PreprocessConfig::default()
            },
        ),
    ];
    let mut t = Table::new(
        "Ablation: RoI preprocessing variants (mean over games, frame 0)",
        &["variant", "RoI mean depth", "center offset (frac of width)"],
    );
    for (name, pre) in variants {
        let mut depth_sum = 0.0;
        let mut offset_sum = 0.0;
        for &game in games {
            let w = GameWorkload::new(game);
            let out = w.render_frame(0, 256, 144);
            let depth = out.depth.downsample_box(2);
            let stages = preprocess(&depth, &pre);
            let roi = search_roi(&stages.processed, (48, 40), &SearchConfig::default());
            depth_sum += depth.mean_in(roi);
            let (cx, _) = roi.center();
            offset_sum += (cx as f64 - 64.0).abs() / 128.0;
        }
        t.row(&[
            name.to_string(),
            f(depth_sum / games.len() as f64, 3),
            f(offset_sum / games.len() as f64, 3),
        ]);
    }
    t.print();
}

/// RoI window-size sweep: latency versus delivered quality (the trade-off
/// behind §IV-B1's sizing rule).
fn roi_size_sweep(options: &RunOptions) {
    let device = DeviceProfile::s8_tab();
    let frames = options.frames(6, 2);
    let canvas = quality_canvas(options);
    let mut t = Table::new(
        "Ablation: RoI window size vs NPU latency and quality (S8 Tab, G3)",
        &[
            "side (720p scale)",
            "NPU ms",
            "real-time",
            "frame PSNR dB",
            "central-region PSNR dB",
        ],
    );
    for side_full in [128usize, 200, 300, 400, 520] {
        let npu_ms = device.npu_sr_ms(side_full * side_full);
        // quality at canvas scale
        let side_canvas = (side_full * canvas.0 / 1280).max(8);
        let mut server_cfg = ServerConfig::new(GameId::G3, canvas, (side_canvas, side_canvas));
        server_cfg.time_stride = 1280 / canvas.0;
        server_cfg.detector = RoiDetectorConfig::default();
        let mut server = GameStreamServer::new(server_cfg);
        let mut client = GameStreamClient::new(2);
        let mut total = 0.0;
        let mut central = 0.0;
        // fixed foveal-sized probe at the HR frame center: quality here is
        // what the player actually perceives (§IV-B1)
        let (hw, hh) = (canvas.0 * 2, canvas.1 * 2);
        let probe_side = (86 * canvas.0 / 320).max(16);
        let probe = gss_frame::Rect::new(
            hw / 2 - probe_side / 2,
            hh / 2 - probe_side / 2,
            probe_side,
            probe_side,
        );
        for _ in 0..frames {
            let p = server.next_frame().expect("packet");
            let out = client.process(&p.encoded, p.roi).expect("client");
            total += psnr(&p.ground_truth_hr, &out.frame).expect("psnr");
            central += gss_metrics::psnr_planes(
                &p.ground_truth_hr.y().crop(probe).expect("probe fits"),
                &out.frame.y().crop(probe).expect("probe fits"),
            )
            .expect("psnr");
        }
        t.row(&[
            side_full.to_string(),
            f(npu_ms, 1),
            if npu_ms <= REALTIME_BUDGET_MS {
                "yes".into()
            } else {
                "no".into()
            },
            f(total / frames as f64, 2),
            f(central / frames as f64, 2),
        ]);
    }
    t.print();
}

/// Cost of Algorithm 1's phases: probe counts of coarse-only versus the
/// two-phase scheme versus an exhaustive scan.
fn search_phase_cost(_options: &RunOptions) {
    let mut t = Table::new(
        "Ablation: Algorithm 1 probe counts (720p map, 300x300 window)",
        &["scheme", "window probes"],
    );
    let (map_w, map_h) = (1280usize, 720usize);
    let (win, stride_coarse, stride_fine) = (300usize, 150usize, 4usize);
    let coarse = ((map_w - win) / stride_coarse + 1) * ((map_h - win) / stride_coarse + 1);
    let fine = (2 * stride_coarse / stride_fine + 1).pow(2);
    let exhaustive = (map_w - win + 1) * (map_h - win + 1);
    t.row(&["coarse only".into(), coarse.to_string()]);
    t.row(&["coarse + fine (Alg. 1)".into(), (coarse + fine).to_string()]);
    t.row(&["exhaustive".into(), exhaustive.to_string()]);
    t.print();
}

/// §III-A: the energy argument for depth-guided RoI detection over
/// camera-based eye tracking.
fn eyetracking_energy() {
    let device = DeviceProfile::pixel7_pro();
    let camera_mj_per_s = device.camera_w * 1000.0;
    outln!(
        "eye-tracking ablation: on-device camera eye tracking draws +{:.1} W \
         ({:.0} mJ per second of gameplay); the depth buffer is produced by \
         rendering anyway, so depth-guided RoI detection adds 0 mJ at the client\n",
        device.camera_w,
        camera_mj_per_s
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_choice_rows_are_the_architectures_mac_counts() {
        assert_eq!(
            model_macs(),
            [
                ("EDSR-16/64 (paper)", 123_534_720_000),
                ("EDSR-8/32", 17_807_040_000),
                ("FSRCNN-56/12/4", 1_509_840_000),
            ]
        );
    }

    #[test]
    fn quick_run_completes() {
        run(&RunOptions {
            quick: true,
            ..Default::default()
        });
    }
}
