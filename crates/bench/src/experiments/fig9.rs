//! Fig. 9 / §IV-C — the client upscaling path: NPU (RoI) and GPU (non-RoI)
//! run in parallel, then merge. Reproduces the paper's worked example
//! (300×300 RoI: ≈16.2 ms NPU ∥ ≈1.4 ms GPU on the S8 Tab).

use crate::{table::f, RunOptions, Table};
use gamestreamsr::mtp::ours_upscale;
use gamestreamsr::roi::plan_roi_window;
use gss_platform::DeviceProfile;

/// Prints the per-device parallel upscaling timing.
pub fn run(_options: &RunOptions) {
    let mut t = Table::new(
        "Fig. 9: client upscaling path (720p -> 1440p)",
        &[
            "device",
            "RoI window",
            "NPU (RoI) ms",
            "GPU (non-RoI) ms",
            "merge ms",
            "critical path ms",
        ],
    );
    for device in DeviceProfile::all() {
        let plan = plan_roi_window(&device, 2, 1280, 720);
        let timing = ours_upscale(&device, plan.chosen_side);
        t.row(&[
            device.name.to_string(),
            format!("{0}x{0}", plan.chosen_side),
            f(timing.npu_ms, 1),
            f(timing.gpu_ms, 2),
            f(timing.merge_ms, 2),
            f(timing.critical_ms, 1),
        ]);
    }
    t.print();
    outln!("the NPU and GPU paths run concurrently; the critical path is max(NPU, GPU) + merge\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_completes() {
        run(&RunOptions::default());
    }
}
