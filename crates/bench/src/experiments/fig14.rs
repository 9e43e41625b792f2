//! Fig. 14 — per-game quality versus SOTA: (a) PSNR gain, (b) perceptual
//! (LPIPS-proxy) improvement.

use crate::experiments::common::quality_cfg;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::{run_comparison, ComparisonReport};
use gss_platform::DeviceProfile;
use gss_render::GameId;

fn comparisons(options: &RunOptions) -> Vec<(GameId, ComparisonReport)> {
    let frames = options.frames(60, 10);
    let games: &[GameId] = if options.quick {
        &[GameId::G3, GameId::G10]
    } else {
        &GameId::ALL
    };
    games
        .iter()
        .map(|&game| {
            let mut cfg = quality_cfg(game, DeviceProfile::pixel7_pro(), frames, options);
            cfg.gop_size = frames;
            (game, run_comparison(&cfg).expect("session"))
        })
        .collect()
}

/// Fig. 14a: PSNR gain w.r.t. SOTA per game (one GOP).
pub fn run_psnr(options: &RunOptions) {
    let mut t = Table::new(
        "Fig. 14a: PSNR gain w.r.t. SOTA (one GOP, dB; foveated = RoI weighted 4x)",
        &["game", "ours dB", "SOTA dB", "gain dB", "foveated gain dB"],
    );
    let mut gain_sum = 0.0;
    let mut fov_sum = 0.0;
    let results = comparisons(options);
    for (game, cmp) in &results {
        let gain = cmp.psnr_gain_db().expect("quality on");
        let fov = cmp.foveated_psnr_gain_db().expect("quality on");
        gain_sum += gain;
        fov_sum += fov;
        t.row(&[
            game.label().to_string(),
            f(cmp.ours.mean_psnr_db().unwrap_or(f64::NAN), 2),
            f(cmp.sota.mean_psnr_db().unwrap_or(f64::NAN), 2),
            f(gain, 2),
            f(fov, 2),
        ]);
    }
    t.row(&[
        "MEAN".into(),
        String::new(),
        String::new(),
        f(gain_sum / results.len() as f64, 2),
        f(fov_sum / results.len() as f64, 2),
    ]);
    t.print();
}

/// Fig. 14b: perceptual-distance improvement w.r.t. SOTA per game (lower
/// distance is better; positive improvement means ours is perceptually
/// closer to the native render).
pub fn run_perceptual(options: &RunOptions) {
    let mut t = Table::new(
        "Fig. 14b: perceptual (LPIPS-proxy) improvement w.r.t. SOTA (one GOP)",
        &["game", "ours", "SOTA", "improvement"],
    );
    let mut imp_sum = 0.0;
    let results = comparisons(options);
    for (game, cmp) in &results {
        let imp = cmp.perceptual_improvement().expect("quality on");
        imp_sum += imp;
        t.row(&[
            game.label().to_string(),
            f(cmp.ours.mean_perceptual().unwrap_or(f64::NAN), 4),
            f(cmp.sota.mean_perceptual().unwrap_or(f64::NAN), 4),
            f(imp, 4),
        ]);
    }
    t.row(&[
        "MEAN".into(),
        String::new(),
        String::new(),
        f(imp_sum / results.len() as f64, 4),
    ]);
    t.print();
    outln!(
        "note: the untrained proxy metric compresses absolute distances relative to LPIPS;\n\
         the ordering (ours better on every game) and the within-GOP growth reproduce. See EXPERIMENTS.md.\n"
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
        run_psnr(&q);
    }
}
