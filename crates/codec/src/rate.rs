//! Closed-loop bitrate control.
//!
//! Streaming deployments do not run at a fixed quantizer: the encoder
//! adapts quality so the stream fits the channel (the paper's motivation —
//! §II-A's frame drops — is exactly what happens when it does not). This
//! proportional controller steers the intra quality and the inter residual
//! step toward a target bytes-per-frame, with an integral term on the
//! accumulated debt so persistent overshoot is paid back.

use crate::EncoderConfig;
use serde::{Deserialize, Serialize};

/// Rate-controller tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateControlConfig {
    /// Budget per frame in bytes (bitrate / (8 · fps)).
    pub target_bytes_per_frame: usize,
    /// Proportional gain on the per-frame error (quality steps per 100%
    /// overshoot).
    pub gain: f64,
    /// Intra quality bounds.
    pub min_quality: u8,
    /// Upper intra quality bound.
    pub max_quality: u8,
    /// Inter residual-step bounds.
    pub min_residual_step: u16,
    /// Upper residual-step bound (coarser = fewer bits).
    pub max_residual_step: u16,
}

impl RateControlConfig {
    /// A config targeting `mbps` megabits per second at 60 FPS.
    pub fn for_bitrate_mbps(mbps: f64) -> Self {
        RateControlConfig {
            target_bytes_per_frame: (mbps * 1e6 / 8.0 / 60.0) as usize,
            gain: 18.0,
            min_quality: 25,
            max_quality: 92,
            min_residual_step: 6,
            max_residual_step: 40,
        }
    }
}

/// The controller state: call [`RateController::observe`] after each encoded
/// frame and apply [`RateController::quantizers`] before the next.
#[derive(Debug, Clone)]
pub struct RateController {
    config: RateControlConfig,
    base_target_bytes: usize,
    quality: f64,
    residual_step: f64,
    debt_bytes: f64,
}

impl RateController {
    /// Creates a controller starting from the encoder's current settings.
    ///
    /// # Panics
    ///
    /// Panics when the target is zero or the bounds are inverted.
    pub fn new(config: RateControlConfig, start: &EncoderConfig) -> Self {
        assert!(config.target_bytes_per_frame > 0, "target must be nonzero");
        assert!(
            config.min_quality <= config.max_quality,
            "quality bounds inverted"
        );
        assert!(
            config.min_residual_step <= config.max_residual_step,
            "residual bounds inverted"
        );
        RateController {
            base_target_bytes: config.target_bytes_per_frame,
            config,
            quality: start.quality as f64,
            residual_step: start.residual_step as f64,
            debt_bytes: 0.0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> RateControlConfig {
        self.config
    }

    /// Rescales the per-frame byte budget to `scale` times the budget the
    /// controller was constructed with. The degradation controller uses
    /// this to cut the stream's bitrate while the channel is collapsed and
    /// to restore it afterwards (`scale = 1.0`); the controller's integral
    /// state is preserved so the quantizers glide rather than jump. A zero
    /// scale (a fleet share of nothing) pins the budget at its one-byte
    /// floor.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is negative or NaN.
    pub fn set_target_scale(&mut self, scale: f64) {
        assert!(scale >= 0.0, "target scale must be non-negative");
        self.config.target_bytes_per_frame =
            ((self.base_target_bytes as f64 * scale) as usize).max(1);
    }

    /// Records the size of the frame just encoded and updates the
    /// quantizer trajectory. Intra frames are allowed 4x the per-frame
    /// budget (they are rare and pay for the whole GOP).
    pub fn observe(&mut self, bytes: usize, was_intra: bool) {
        let budget = self.config.target_bytes_per_frame as f64 * if was_intra { 4.0 } else { 1.0 };
        let err = (bytes as f64 - budget) / budget; // +1 = 100% overshoot
        self.debt_bytes += bytes as f64 - self.config.target_bytes_per_frame as f64;
        self.debt_bytes = self.debt_bytes.clamp(-16.0 * budget, 16.0 * budget);
        let integral = self.debt_bytes / (8.0 * self.config.target_bytes_per_frame as f64);
        let step = self.config.gain * err + 2.0 * integral;
        self.quality = (self.quality - step).clamp(
            self.config.min_quality as f64,
            self.config.max_quality as f64,
        );
        // residual step moves opposite to quality (coarser when over budget)
        self.residual_step = (self.residual_step + step * 0.45).clamp(
            self.config.min_residual_step as f64,
            self.config.max_residual_step as f64,
        );
    }

    /// The `(intra quality, inter residual step)` to use for the next frame.
    pub fn quantizers(&self) -> (u8, u16) {
        (
            self.quality.round() as u8,
            self.residual_step.round() as u16,
        )
    }

    /// Applies the current quantizers to an encoder configuration.
    pub fn apply(&self, config: &mut EncoderConfig) {
        let (q, r) = self.quantizers();
        config.quality = q;
        config.residual_step = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoder, FrameType};
    use gss_frame::{Frame, Plane};

    fn textured_frame(w: usize, h: usize, t: f32) -> Frame {
        Frame::from_planes(
            Plane::from_fn(w, h, |x, y| {
                let fx = x as f32 + t;
                (128.0
                    + 70.0 * ((fx * 0.4).sin() * (y as f32 * 0.3).cos())
                    + 30.0 * ((fx * 1.1 + y as f32 * 0.9).sin()))
                .clamp(0.0, 255.0)
            }),
            Plane::filled(w, h, 120.0),
            Plane::filled(w, h, 135.0),
        )
        .unwrap()
    }

    /// Streams frames through an encoder governed by the controller and
    /// returns the mean non-intra bytes per frame.
    fn govern(target_bytes: usize, frames: usize) -> f64 {
        let mut enc_cfg = EncoderConfig {
            gop_size: 1000,
            ..EncoderConfig::default()
        };
        let mut rc = RateController::new(
            RateControlConfig {
                target_bytes_per_frame: target_bytes,
                ..RateControlConfig::for_bitrate_mbps(10.0)
            },
            &enc_cfg,
        );
        let mut total = 0usize;
        let mut counted = 0usize;
        let mut encoder = Encoder::new(enc_cfg);
        for t in 0..frames {
            rc.apply(&mut enc_cfg);
            // rebuild the encoder's quantizers in place: the encoder reads
            // its config at construction, so emulate by a fresh instance
            // carrying over the reference via re-encoding order
            // (simpler: Encoder exposes config at new(); we re-create per
            // GOP in real use — here quality changes apply to residuals via
            // a new encoder every frame would break the reference chain, so
            // we accept stepwise application per observation window)
            let packet = encoder
                .encode(&textured_frame(160, 96, t as f32 * 2.0))
                .unwrap();
            rc.observe(packet.size_bytes(), packet.frame_type == FrameType::Intra);
            if packet.frame_type == FrameType::Inter && t > frames / 2 {
                total += packet.size_bytes();
                counted += 1;
            }
            // apply the new quantizers to the running encoder
            encoder.set_quantizers(rc.quantizers().0, rc.quantizers().1);
        }
        total as f64 / counted.max(1) as f64
    }

    #[test]
    fn converges_near_target_from_above() {
        // default quality overshoots a tight budget; controller reins it in
        let target = 1200usize;
        let steady = govern(target, 60);
        assert!(
            steady < target as f64 * 1.6,
            "steady {steady:.0} vs target {target}"
        );
    }

    #[test]
    fn loose_budget_raises_quality() {
        let tight = govern(900, 60);
        let loose = govern(6000, 60);
        assert!(loose > tight, "loose {loose:.0} vs tight {tight:.0}");
    }

    #[test]
    fn quantizers_stay_in_bounds() {
        let cfg = RateControlConfig::for_bitrate_mbps(0.5); // brutally tight
        let mut rc = RateController::new(cfg, &EncoderConfig::default());
        for _ in 0..200 {
            rc.observe(100_000, false); // constant massive overshoot
        }
        let (q, r) = rc.quantizers();
        assert_eq!(q, cfg.min_quality);
        assert_eq!(r, cfg.max_residual_step);
        for _ in 0..400 {
            rc.observe(10, false); // constant undershoot
        }
        let (q, r) = rc.quantizers();
        assert_eq!(q, cfg.max_quality);
        assert_eq!(r, cfg.min_residual_step);
    }

    #[test]
    fn intra_frames_get_headroom() {
        let cfg = RateControlConfig::for_bitrate_mbps(5.0);
        let mut a = RateController::new(cfg, &EncoderConfig::default());
        let mut b = RateController::new(cfg, &EncoderConfig::default());
        let bytes = cfg.target_bytes_per_frame * 3;
        a.observe(bytes, true); // within the 4x intra allowance
        b.observe(bytes, false); // 3x overshoot for an inter frame
        assert!(a.quantizers().0 > b.quantizers().0);
    }

    #[test]
    fn target_scale_cuts_and_restores_the_budget() {
        let cfg = RateControlConfig::for_bitrate_mbps(25.0);
        let mut rc = RateController::new(cfg, &EncoderConfig::default());
        let base = rc.config().target_bytes_per_frame;
        rc.set_target_scale(0.3);
        assert_eq!(
            rc.config().target_bytes_per_frame,
            (base as f64 * 0.3) as usize
        );
        // a scaled-down controller drives quality lower for the same stream
        let mut full = RateController::new(cfg, &EncoderConfig::default());
        for _ in 0..30 {
            rc.observe(base, false);
            full.observe(base, false);
        }
        assert!(rc.quantizers().0 < full.quantizers().0);
        // a zero scale floors the budget at one byte
        rc.set_target_scale(0.0);
        assert_eq!(rc.config().target_bytes_per_frame, 1);
        // restoring the scale restores the original budget exactly
        rc.set_target_scale(1.0);
        assert_eq!(rc.config().target_bytes_per_frame, base);
    }

    #[test]
    #[should_panic(expected = "target")]
    fn zero_target_rejected() {
        let _ = RateController::new(
            RateControlConfig {
                target_bytes_per_frame: 0,
                ..RateControlConfig::for_bitrate_mbps(1.0)
            },
            &EncoderConfig::default(),
        );
    }
}
