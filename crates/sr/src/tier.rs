//! The degradation ladder's SR model tiers.
//!
//! GameStreamSR's step-0 calibration benchmarks "the SR model of the
//! user's choice" — the platform timing model is parameterized on a MAC
//! cost *relative to* the calibrated EDSR (channels 64, blocks 16). The
//! resilience controller walks these tiers when the NPU thermal-throttles
//! or the link collapses: each tier trades reconstruction quality for a
//! proportionally cheaper NPU pass.

use crate::edsr::EdsrConfig;
use crate::fsrcnn::FsrcnnConfig;
use crate::neural::NeuralSrConfig;
use serde::{Deserialize, Serialize};

/// An SR model tier, ordered from most expensive/highest quality down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelTier {
    /// The paper's calibrated EDSR: 64 channels, 16 residual blocks.
    Edsr64,
    /// A slimmed EDSR with 16 channels (same depth) — ≈16× fewer MACs.
    Edsr16,
    /// FSRCNN (56/12/4) — two orders of magnitude cheaper than EDSR-64.
    Fsrcnn,
}

impl ModelTier {
    /// All tiers, most expensive first.
    pub const ALL: [ModelTier; 3] = [ModelTier::Edsr64, ModelTier::Edsr16, ModelTier::Fsrcnn];

    /// Kebab-case label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            ModelTier::Edsr64 => "edsr-64",
            ModelTier::Edsr16 => "edsr-16",
            ModelTier::Fsrcnn => "fsrcnn",
        }
    }

    /// Per-pixel MAC cost relative to the calibrated EDSR-64 — the ratio
    /// the platform timing model scales NPU latency by, worked out from
    /// the architectures' layer shapes.
    pub fn cost_ratio(self) -> f64 {
        self.macs_per_pixel() as f64 / ModelTier::Edsr64.macs_per_pixel() as f64
    }

    /// Multiply-accumulates per input pixel of this tier's architecture.
    fn macs_per_pixel(self) -> u64 {
        match self {
            ModelTier::Edsr64 => EdsrConfig::default().macs_for_input(1, 1),
            ModelTier::Edsr16 => EdsrConfig {
                channels: 16,
                ..EdsrConfig::default()
            }
            .macs_for_input(1, 1),
            ModelTier::Fsrcnn => FsrcnnConfig::default().macs_for_input(1, 1),
        }
    }

    /// The functional proxy configuration for this tier at `scale`.
    ///
    /// The pixel pipeline models quality tiers by the depth of the
    /// iterative back-projection refinement: the calibrated EDSR proxy
    /// keeps the crate default (so tier [`ModelTier::Edsr64`] is
    /// byte-identical to [`NeuralSrConfig::default`] output), the slim
    /// EDSR refines once, and FSRCNN is interpolation-initialized only.
    pub fn proxy_config(self, scale: usize) -> NeuralSrConfig {
        let iterations = match self {
            ModelTier::Edsr64 => NeuralSrConfig::default().iterations,
            ModelTier::Edsr16 => 1,
            ModelTier::Fsrcnn => 0,
        };
        NeuralSrConfig {
            scale,
            iterations,
            ..NeuralSrConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ratios_are_the_architectures_mac_ratios() {
        assert_eq!(ModelTier::Edsr64.cost_ratio(), 1.0);
        assert_eq!(ModelTier::Edsr16.cost_ratio(), 87_408.0 / 1_372_608.0);
        assert_eq!(ModelTier::Fsrcnn.cost_ratio(), 16_776.0 / 1_372_608.0);
    }

    #[test]
    fn tiers_are_strictly_cheaper_down_the_ladder() {
        let ratios: Vec<f64> = ModelTier::ALL.iter().map(|t| t.cost_ratio()).collect();
        assert!(ratios.windows(2).all(|w| w[1] < w[0]), "{ratios:?}");
        assert_eq!(ModelTier::Edsr64.cost_ratio(), 1.0);
    }

    #[test]
    fn top_tier_proxy_is_the_crate_default() {
        assert_eq!(ModelTier::Edsr64.proxy_config(2), NeuralSrConfig::default());
        assert_eq!(ModelTier::Edsr16.proxy_config(2).iterations, 1);
        assert_eq!(ModelTier::Fsrcnn.proxy_config(2).iterations, 0);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            ModelTier::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), ModelTier::ALL.len());
    }
}
