//! FSRCNN (Dong et al., ECCV'16), a lightweight SR architecture roughly an
//! order of magnitude cheaper than EDSR-16/64, kept as its layer shapes.
//!
//! The paper's design is model-agnostic: the client benchmarks "the
//! DNN-based SR model of the user's choice" at session start (step-0) and
//! the server sizes the RoI window accordingly (§IV-B1). FSRCNN is the
//! second model in this reproduction's registry, demonstrating how a
//! cheaper network buys a larger real-time RoI window on the same NPU —
//! see the model-choice ablation (`figures ablation`).
//!
//! Structure: 5×5 feature extraction → 1×1 shrink → `m` 3×3 mapping layers
//! → 1×1 expand → sub-pixel upsampling (the deconvolution of the original
//! paper expressed as a 3×3 conv + pixel shuffle).
//!
//! ```
//! use gss_sr::fsrcnn::FsrcnnConfig;
//!
//! assert_eq!(FsrcnnConfig::default().macs_for_input(300, 300), 1_509_840_000);
//! ```

/// FSRCNN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsrcnnConfig {
    /// Feature-extraction channels `d` (original paper: 56).
    pub features: usize,
    /// Shrunken mapping channels `s` (original paper: 12).
    pub shrink: usize,
    /// Number of 3×3 mapping layers `m` (original paper: 4).
    pub mapping: usize,
    /// Upscale factor.
    pub scale: usize,
}

impl Default for FsrcnnConfig {
    fn default() -> Self {
        FsrcnnConfig {
            features: 56,
            shrink: 12,
            mapping: 4,
            scale: 2,
        }
    }
}

impl FsrcnnConfig {
    /// Total multiply-accumulate count for a `width x height` input. Every
    /// layer runs at the input resolution: extraction (3 → d, 5×5), shrink
    /// (d → s), `m` mapping layers (s → s, 3×3), expand (s → d) and the
    /// upsampling conv (d → 3·r², 3×3, before the pixel shuffle).
    pub fn macs_for_input(&self, width: usize, height: usize) -> u64 {
        let d = self.features as u64;
        let s = self.shrink as u64;
        let r2 = (self.scale * self.scale) as u64;
        let per_pixel =
            3 * d * 25 + d * s + self.mapping as u64 * s * s * 9 + s * d + 3 * d * r2 * 9;
        per_pixel * (width * height) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edsr::EdsrConfig;

    #[test]
    fn fsrcnn_is_an_order_of_magnitude_cheaper_than_edsr() {
        let edsr = EdsrConfig::default().macs_for_input(300, 300) as f64;
        let fsrcnn = FsrcnnConfig::default().macs_for_input(300, 300) as f64;
        let ratio = edsr / fsrcnn;
        assert!(ratio > 10.0, "EDSR/FSRCNN MAC ratio {ratio:.1}");
    }

    #[test]
    fn macs_scale_linearly_with_pixels() {
        let m = FsrcnnConfig {
            features: 8,
            shrink: 4,
            mapping: 2,
            scale: 2,
        };
        assert_eq!(m.macs_for_input(20, 20), m.macs_for_input(10, 10) * 4);
    }
}
