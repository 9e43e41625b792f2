//! §IV-B2 server-side numbers: GPU utilization headroom at 720p versus
//! 1440p, and the bandwidth reduction from streaming low-resolution frames
//! plus RoI coordinates instead of 2K frames.

use crate::{table::f, RunOptions, Table};
use gamestreamsr::{GameStreamServer, ServerConfig};
use gss_frame::Resolution;
use gss_net::{stream_drop_rate, LinkProfile};
use gss_platform::ServerModel;
use gss_render::GameId;

/// Prints GPU utilization, measured bandwidth at both resolutions, and the
/// frame-drop motivation experiment.
pub fn run(options: &RunOptions) {
    let server = ServerModel::default();
    let mut t = Table::new(
        "Server GPU utilization at 60 FPS (paper: 79% at 1440p vs 52% at 720p)",
        &["stream", "RoI detection", "utilization"],
    );
    for (res, roi) in [
        (Resolution::P1440, false),
        (Resolution::P720, false),
        (Resolution::P720, true),
    ] {
        t.row(&[
            res.to_string(),
            if roi { "on".into() } else { "off".into() },
            format!("{:.0}%", server.gpu_utilization(res, roi) * 100.0),
        ]);
    }
    t.print();

    // bandwidth: encode the same content at a 720p-equivalent canvas and a
    // 1440p-equivalent canvas and compare coded sizes per frame
    let frames = options.frames(8, 3);
    let measure = |canvas: (usize, usize)| -> f64 {
        let roi_w = (canvas.0 / 4, canvas.1 / 4);
        let mut s = GameStreamServer::new(ServerConfig::new(GameId::G3, canvas, roi_w));
        let mut total = 0usize;
        for _ in 0..frames {
            total += s.next_frame().expect("packet").encoded.size_bytes();
        }
        total as f64 / frames as f64
    };
    let low = measure((640, 360)); // stands in for the 720p stream
    let high = measure((1280, 720)); // stands in for the 2K stream
    let reduction = 1.0 - low / high;
    let mut t = Table::new(
        "Bandwidth: low-resolution stream + RoI coordinates vs high-resolution stream",
        &["stream", "bytes/frame", "Mbps @60FPS"],
    );
    t.row(&[
        "high-res (2K-equivalent)".into(),
        f(high, 0),
        f(high * 8.0 * 60.0 / 1e6, 1),
    ]);
    t.row(&[
        "low-res + RoI coords".into(),
        f(low + 16.0, 0), // 16 bytes of RoI coordinates per frame
        f((low + 16.0) * 8.0 * 60.0 / 1e6, 1),
    ]);
    t.print();
    outln!(
        "bandwidth reduction: {:.0}% (paper reports 66%)\n",
        reduction * 100.0
    );

    // frame-drop motivation (§II-A): the 2K stream over WiFi vs the low
    // stream — scale measured bytes to deployment sizes
    let frames_net = options.frames(1200, 200);
    let hi_bytes = (high * 3.2) as usize; // 2K deployment-scale estimate
    let lo_bytes = low as usize * 2; // 720p deployment-scale estimate
    let hi_drop = stream_drop_rate(&LinkProfile::wifi(), 7, hi_bytes, 60.0, frames_net);
    let lo_drop = stream_drop_rate(&LinkProfile::wifi(), 7, lo_bytes, 60.0, frames_net);
    outln!(
        "WiFi frame drops @60FPS: 2K stream {:.0}% vs low-res stream {:.1}% (paper's motivation: heavy drops at high resolution)\n",
        hi_drop * 100.0,
        lo_drop * 100.0
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
