//! Fig. 11 — overall energy savings per game and device; Fig. 12 — the
//! energy breakdown for G3 on the Pixel 7 Pro.

use crate::experiments::common::fast_cfg;
use crate::{table::f, RunOptions, Table};
use gamestreamsr::session::{run_comparison, run_session, Pipeline};
use gss_platform::{DeviceProfile, Stage};
use gss_render::GameId;

/// Fig. 11: per-game energy savings of GameStreamSR over SOTA.
pub fn run_savings(options: &RunOptions) {
    let frames = options.frames(60, 30);
    let games: &[GameId] = if options.quick {
        &[GameId::G3]
    } else {
        &GameId::ALL
    };
    let mut t = Table::new(
        "Fig. 11: overall energy savings w.r.t. SOTA (one GOP)",
        &["game", "S8 Tab", "Pixel 7 Pro"],
    );
    let mut sums = [0.0f64; 2];
    for &game in games {
        let mut cells = vec![game.label().to_string()];
        for (i, device) in DeviceProfile::all().into_iter().enumerate() {
            let cmp = run_comparison(&fast_cfg(game, device, frames, options)).expect("session");
            let savings = cmp.energy_savings();
            sums[i] += savings;
            cells.push(format!("{:.1}%", savings * 100.0));
        }
        t.row(&cells);
    }
    t.row(&[
        "MEAN".into(),
        format!("{:.1}%", sums[0] / games.len() as f64 * 100.0),
        format!("{:.1}%", sums[1] / games.len() as f64 * 100.0),
    ]);
    t.print();
}

/// Fig. 12: energy-consumption breakdown, G3 on the Pixel 7 Pro.
pub fn run_breakdown(options: &RunOptions) {
    let frames = options.frames(60, 30);
    let cfg = fast_cfg(GameId::G3, DeviceProfile::pixel7_pro(), frames, options);
    let ours = run_session(&cfg, Pipeline::GameStreamSr).expect("session");
    let sota = run_session(&cfg, Pipeline::Nemo).expect("session");
    let mut t = Table::new(
        "Fig. 12: energy breakdown, G3 on Pixel 7 Pro (one GOP)",
        &["stage", "ours mJ", "ours %", "SOTA mJ", "SOTA %"],
    );
    for stage in Stage::ALL {
        if stage == Stage::Other {
            continue;
        }
        t.row(&[
            stage.label().to_string(),
            f(ours.energy.stage_mj(stage), 0),
            format!("{:.1}%", ours.energy.fraction(stage) * 100.0),
            f(sota.energy.stage_mj(stage), 0),
            format!("{:.1}%", sota.energy.fraction(stage) * 100.0),
        ]);
    }
    t.row(&[
        "TOTAL".into(),
        f(ours.energy.total_mj, 0),
        "100%".into(),
        f(sota.energy.total_mj, 0),
        "100%".into(),
    ]);
    t.print();
    outln!(
        "decode: {:.0}% of SOTA energy (software decoder) vs {:.0}% of ours (hardware decoder)\n",
        sota.energy.fraction(Stage::Decode) * 100.0,
        ours.energy.fraction(Stage::Decode) * 100.0
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
        run_savings(&q);
        run_breakdown(&q);
    }
}
