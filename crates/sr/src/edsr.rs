//! The EDSR architecture (Lim et al., CVPRW'17), the SR model the paper
//! deploys on the client NPU (16 residual blocks, 64 channels, ×2
//! pixel-shuffle upsampling), kept as its layer shapes.
//!
//! No network runs in this reproduction (see `DESIGN.md` §2): the platform
//! model scales NPU latency by the model's multiply-accumulate count, and
//! quality measurements use [`crate::NeuralSr`]. So the hyper-parameters
//! and the MAC count they imply are what this module provides.
//!
//! ```
//! use gss_sr::edsr::EdsrConfig;
//!
//! let paper = EdsrConfig::default();
//! assert_eq!(paper.macs_for_input(300, 300), 123_534_720_000);
//! ```

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdsrConfig {
    /// Feature channels (paper: 64).
    pub channels: usize,
    /// Residual blocks (paper: 16).
    pub blocks: usize,
    /// Upscale factor (paper: 2).
    pub scale: usize,
}

impl Default for EdsrConfig {
    fn default() -> Self {
        EdsrConfig {
            channels: 64,
            blocks: 16,
            scale: 2,
        }
    }
}

impl EdsrConfig {
    /// Total multiply-accumulate count for a `width x height` input — the
    /// quantity the platform model scales NPU latency by.
    ///
    /// Every layer is a 3×3 convolution. At the input resolution: the head
    /// (3 → c), two per residual block (c → c), the body tail (c → c) and
    /// the upsampling conv (c → c·s², before the pixel shuffle); at the
    /// output resolution, the tail (c → 3).
    pub fn macs_for_input(&self, width: usize, height: usize) -> u64 {
        let c = self.channels as u64;
        let s2 = (self.scale * self.scale) as u64;
        let per_pixel = 3 * c * 9
            + self.blocks as u64 * 2 * c * c * 9
            + c * c * 9
            + c * c * s2 * 9
            + 3 * c * 9 * s2;
        per_pixel * (width * height) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macs_scale_linearly_with_pixels() {
        let m = EdsrConfig {
            channels: 4,
            blocks: 2,
            scale: 2,
        };
        assert_eq!(m.macs_for_input(20, 20), m.macs_for_input(10, 10) * 4);
    }

    #[test]
    fn paper_scale_model_macs_are_heavy() {
        // EDSR-16/64 at 720p should be on the order of 10^11 MACs —
        // the reason full-frame NPU SR misses 16.66 ms (Fig. 2/3).
        let macs = EdsrConfig::default().macs_for_input(1280, 720);
        assert!(macs > 50_000_000_000, "macs = {macs}");
    }
}
