//! The paper's §II-A motivation, reproduced as a study: stream each named
//! resolution over simulated WiFi and 5G mmWave links and measure frame
//! drops — high-resolution streams collapse, the 720p stream (what
//! GameStreamSR ships plus RoI coordinates) fits.
//!
//! ```text
//! cargo run --release --example network_study
//! ```

use gss::frame::Resolution;
use gss::net::{stream_drop_rate, FaultPlan, LinkProfile, SharedLink};

/// Rough coded bytes per frame at 60 FPS for each resolution, scaled from
/// the codec's measured 720p output (sublinear in pixels, exponent 0.835 —
/// see `gamestreamsr::session`).
fn bytes_per_frame(res: Resolution) -> usize {
    const BYTES_720P: f64 = 62_000.0;
    let ratio = res.pixels() as f64 / Resolution::P720.pixels() as f64;
    (BYTES_720P * ratio.powf(0.835)) as usize
}

fn main() {
    println!("frame-drop study: 60 FPS game streams over simulated wireless links\n");
    println!(
        "{:<8} {:>12} {:>10} {:>12} {:>12}",
        "stream", "bytes/frame", "Mbps", "WiFi drops", "5G drops"
    );
    for res in [
        Resolution::P2160,
        Resolution::P1440,
        Resolution::P1080,
        Resolution::P720,
        Resolution::P480,
    ] {
        let bytes = bytes_per_frame(res);
        let mbps = bytes as f64 * 8.0 * 60.0 / 1e6;
        let wifi = stream_drop_rate(&LinkProfile::wifi(), 42, bytes, 60.0, 1800);
        let mm = stream_drop_rate(&LinkProfile::mmwave_5g(), 42, bytes, 60.0, 1800);
        println!(
            "{:<8} {:>12} {:>10.1} {:>11.1}% {:>11.1}%",
            res.to_string(),
            bytes,
            mbps,
            wifi * 100.0,
            mm * 100.0
        );
    }

    // latency distribution of the stream GameStreamSR actually ships
    println!("\ndownlink transit latency for the 720p stream over WiFi:");
    let mut link = SharedLink::new(LinkProfile::wifi(), 7);
    let flow = link.add_flow(FaultPlan::default());
    let mut transits: Vec<f64> = (0..1800)
        .filter_map(|i| {
            let t = link.send(flow, bytes_per_frame(Resolution::P720), i as f64 * 16.66);
            t.delivered().then_some(t.transit_ms)
        })
        .collect();
    transits.sort_by(f64::total_cmp);
    let pct = |p: f64| transits[((transits.len() - 1) as f64 * p) as usize];
    println!(
        "  p50 {:.1} ms | p90 {:.1} ms | p99 {:.1} ms | delivered {}/{}",
        pct(0.5),
        pct(0.9),
        pct(0.99),
        transits.len(),
        1800
    );
    println!(
        "\nconclusion: the {:.0} Mbps 2K stream is undeliverable; GameStreamSR's 720p
stream + client-side RoI super-resolution restores 2K-class output without the loss.",
        bytes_per_frame(Resolution::P1440) as f64 * 8.0 * 60.0 / 1e6
    );
}
