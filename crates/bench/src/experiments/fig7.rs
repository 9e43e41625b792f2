//! Fig. 7 / §IV-B1 — RoI window sizing: the foveal minimum from human
//! visual physiology and the compute maximum from device calibration.

use crate::{RunOptions, Table};
use gamestreamsr::roi::plan_roi_window;
use gss_platform::{DeviceProfile, FOVEAL_DIAMETER_INCHES};

/// Prints the per-device window plan (step-0 of the session).
pub fn run(_options: &RunOptions) {
    outln!(
        "foveal visual diameter at 30 cm: {FOVEAL_DIAMETER_INCHES:.2} in (2 * 30cm * tan(3 deg))\n"
    );
    let mut t = Table::new(
        "Fig. 7: RoI window sizing per device (720p stream, x2 factor)",
        &[
            "device",
            "ppi",
            "foveal px on display",
            "foveal min on 720p",
            "compute max (16.66 ms)",
            "chosen",
            "foveal compromised",
        ],
    );
    for device in DeviceProfile::all() {
        let plan = plan_roi_window(&device, 2, 1280, 720);
        t.row(&[
            device.name.to_string(),
            format!("{:.0}", device.ppi),
            device.foveal_roi_side(1).to_string(),
            plan.foveal_side.to_string(),
            plan.max_side.to_string(),
            plan.chosen_side.to_string(),
            plan.foveal_compromised.to_string(),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_completes() {
        run(&RunOptions::default());
    }
}
