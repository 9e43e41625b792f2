//! Fig. 3 — SR characterization: (a) latency and quality versus upscale
//! factor at a fixed 1440p target; (b) latency versus input resolution at
//! the fixed ×2 factor.

use crate::{table::f, RunOptions, Table};
use gss_frame::Resolution;
use gss_metrics::psnr_planes;
use gss_platform::{DeviceProfile, REALTIME_BUDGET_MS};
use gss_render::{GameId, GameWorkload};
use gss_sr::{NeuralSr, NeuralSrConfig, Upscaler};

/// Fig. 3a: larger upscale factors hit the 1440p target from smaller
/// inputs — latency falls but quality falls too (paper: "the quality drops
/// significantly" beyond ×2).
pub fn run_a(options: &RunOptions) {
    let device = DeviceProfile::s8_tab();
    // quality measured on a G3 frame rendered at a canvas divisible by all
    // factors: ground truth 576x324, inputs 1/f of it
    let workload = GameWorkload::new(GameId::G3);
    let frames = options.frames(4, 1);

    let mut t = Table::new(
        "Fig. 3a: SR latency and quality vs upscale factor (target 1440p, S8 Tab)",
        &["factor", "input", "NPU latency ms", "PSNR dB"],
    );
    for factor in [2usize, 3, 4, 6] {
        // deployment-scale input pixels for the latency model
        let input_px = Resolution::P1440.pixels() / (factor * factor);
        let latency = device.npu_sr_ms(input_px);
        // quality on the evaluation canvas
        let mut total = 0.0;
        for i in 0..frames {
            let native = workload.render_frame(i * 8, 576, 324);
            let lr = native.frame.downsample_box(factor);
            let sr = NeuralSr::new(NeuralSrConfig {
                scale: factor,
                ..NeuralSrConfig::default()
            });
            let up = sr.upscale(&lr);
            total += psnr_planes(native.frame.y(), up.y()).expect("same size");
        }
        let input_h = 1440 / factor;
        t.row(&[
            format!("x{factor}"),
            format!("{input_h}p"),
            f(latency, 1),
            f(total / frames as f64, 2),
        ]);
    }
    t.print();
}

/// Fig. 3b: SR latency for each named input resolution at ×2 on both
/// devices; only small inputs fit the 16.66 ms budget.
pub fn run_b(_options: &RunOptions) {
    let mut t = Table::new(
        "Fig. 3b: SR latency vs input resolution (x2 factor)",
        &[
            "input",
            "pixels",
            "S8 Tab ms",
            "Pixel 7 Pro ms",
            "real-time?",
        ],
    );
    let s8 = DeviceProfile::s8_tab();
    let pixel = DeviceProfile::pixel7_pro();
    for res in Resolution::ALL.iter().rev() {
        let a = s8.npu_sr_ms(res.pixels());
        let b = pixel.npu_sr_ms(res.pixels());
        t.row(&[
            res.to_string(),
            res.pixels().to_string(),
            f(a, 1),
            f(b, 1),
            if a <= REALTIME_BUDGET_MS {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    t.print();
    let side = s8.max_realtime_roi_side(REALTIME_BUDGET_MS);
    outln!(
        "largest real-time square RoI on S8 Tab: {side}x{side} px ({:.1} ms)\n",
        s8.npu_sr_ms(side * side)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_complete() {
        run_a(&RunOptions {
            quick: true,
            ..Default::default()
        });
        run_b(&RunOptions {
            quick: true,
            ..Default::default()
        });
    }
}
