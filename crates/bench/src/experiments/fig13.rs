//! Fig. 13 — transient PSNR across consecutive GOPs for G3: SOTA's quality
//! decays within each GOP (bilinear error accumulation) and snaps back at
//! keyframes; ours stays flat.

use crate::experiments::common::quality_cfg;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::run_comparison;
use gss_platform::DeviceProfile;
use gss_render::GameId;

/// Prints the per-frame PSNR series for both pipelines over several GOPs.
pub fn run(options: &RunOptions) {
    let (gops, gop_size) = if options.quick { (1, 12) } else { (3, 60) };
    let mut cfg = quality_cfg(
        GameId::G3,
        DeviceProfile::pixel7_pro(),
        gops * gop_size,
        options,
    );
    cfg.gop_size = gop_size;
    let cmp = run_comparison(&cfg).expect("session");
    let ours = cmp.ours.psnr_series();
    let sota = cmp.sota.psnr_series();

    let mut t = Table::new(
        format!("Fig. 13: transient PSNR over {gops} GOPs, G3 (dB)"),
        &["frame", "in-GOP pos", "ours", "SOTA"],
    );
    for (i, (a, b)) in ours.iter().zip(sota.iter()).enumerate() {
        let pos = i % gop_size;
        // sample the series: GOP start, quartiles, GOP end
        if pos == 0
            || pos == gop_size / 4
            || pos == gop_size / 2
            || pos == 3 * gop_size / 4
            || pos == gop_size - 1
        {
            t.row(&[i.to_string(), pos.to_string(), f(*a, 2), f(*b, 2)]);
        }
    }
    t.print();

    let ours_min = ours.iter().cloned().fold(f64::INFINITY, f64::min);
    let sota_end: f64 = sota
        .iter()
        .enumerate()
        .filter(|(i, _)| i % gop_size == gop_size - 1)
        .map(|(_, v)| *v)
        .sum::<f64>()
        / gops as f64;
    outln!(
        "ours minimum: {ours_min:.2} dB (consistently {} the 30 dB bar); SOTA end-of-GOP mean: {sota_end:.2} dB\n",
        if ours_min >= 30.0 { "above" } else { "BELOW" }
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
