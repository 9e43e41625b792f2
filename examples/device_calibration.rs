//! Step-0 of a GameStreamSR session (paper Fig. 6): calibrate the client
//! device's RoI window — the foveal minimum from human visual physiology
//! and the compute maximum from benchmarking the SR model on the NPU —
//! then report the latency curve the choice comes from.
//!
//! ```text
//! cargo run --release --example device_calibration
//! ```

use gss::core::roi::plan_roi_window;
use gss::platform::{DeviceProfile, REALTIME_BUDGET_MS};
use gss::sr::edsr::EdsrConfig;

fn main() {
    println!("EDSR-16/64 x2 (the paper's SR model):");
    let model = EdsrConfig::default();
    for side in [100usize, 200, 300, 720] {
        let macs = model.macs_for_input(side, side);
        println!(
            "  {side:>4}x{side:<4} input: {:.1} GMACs",
            macs as f64 / 1e9
        );
    }
    println!();

    for device in DeviceProfile::all() {
        println!("=== {} ===", device.name);
        println!("  NPU latency curve (x2 SR):");
        for side in [150usize, 200, 250, 300, 350, 400] {
            let ms = device.npu_sr_ms(side * side);
            println!(
                "    {side:>3}x{side:<3}: {ms:6.1} ms {}",
                if ms <= REALTIME_BUDGET_MS {
                    "(real-time)"
                } else {
                    ""
                }
            );
        }
        let plan = plan_roi_window(&device, 2, 1280, 720);
        println!(
            "  foveal minimum:  {0}x{0} px on the 720p frame",
            plan.foveal_side
        );
        println!(
            "  compute maximum: {0}x{0} px within the 16.66 ms budget",
            plan.max_side
        );
        println!("  chosen window:   {0}x{0} px", plan.chosen_side);
        if plan.foveal_compromised {
            println!(
                "  note: the display is dense enough that the foveal window \
                 exceeds the NPU budget; quality is compute-bound"
            );
        }
        println!();
    }
}
