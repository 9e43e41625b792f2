//! The GameStreamSR mobile client (paper §IV-C, Fig. 9).
//!
//! Data path per frame: hardware decode of the 720p packet → extract the
//! RoI patch → **in parallel**, DNN-SR the RoI (NPU) and bilinear-upscale
//! the rest of the frame (GPU) → merge into the high-resolution
//! framebuffer. The parallelism is real (a scoped thread for the NPU leg),
//! exactly mirroring the NPU ∥ GPU concurrency of the paper's client.

use crate::GssError;
use gss_codec::{Decoder, EncodedFrame};
use gss_frame::{Frame, Rect};
use gss_platform::pool::spawn_or_run;
use gss_sr::{InterpKernel, InterpUpscaler, ModelTier, NeuralSr, Upscaler};

/// One upscaled frame produced by the client.
#[derive(Debug, Clone)]
pub struct ClientOutput {
    /// The merged high-resolution frame.
    pub frame: Frame,
    /// The RoI in high-resolution coordinates.
    pub roi_hr: Rect,
}

/// The RoI-assisted upscaling client.
///
/// ```
/// use gamestreamsr::GameStreamClient;
/// use gss_frame::{Frame, Rect};
///
/// let client = GameStreamClient::new(2);
/// let lr = Frame::filled(64, 36, [120.0, 128.0, 128.0]);
/// let out = client.upscale(&lr, Rect::new(16, 8, 24, 24));
/// assert_eq!(out.frame.size(), (128, 72));
/// assert_eq!(out.roi_hr, Rect::new(32, 16, 48, 48));
/// ```
#[derive(Debug)]
pub struct GameStreamClient {
    decoder: Decoder,
    neural: Option<NeuralSr>,
    tier: Option<ModelTier>,
    bilinear: InterpUpscaler,
    scale: usize,
}

impl GameStreamClient {
    /// Creates a client for the given upscale factor (2 in the paper's
    /// deployment), running the calibrated top-tier SR model.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is zero.
    pub fn new(scale: usize) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        GameStreamClient {
            decoder: Decoder::new(),
            neural: Some(NeuralSr::new(ModelTier::Edsr64.proxy_config(scale))),
            tier: Some(ModelTier::Edsr64),
            bilinear: InterpUpscaler::new(InterpKernel::Bilinear, scale),
            scale,
        }
    }

    /// The upscale factor.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// The SR model tier currently loaded on the NPU; `None` means the
    /// bilinear-only degradation floor.
    pub fn model_tier(&self) -> Option<ModelTier> {
        self.tier
    }

    /// Swaps the NPU's SR model for a (usually cheaper) tier, or unloads it
    /// entirely (`None` — the degradation ladder's bilinear floor, where
    /// the whole frame takes the GPU path). Only the neural model is
    /// rebuilt: the decoder's reference chain is untouched, so switching
    /// tiers mid-stream is safe.
    pub fn set_model_tier(&mut self, tier: Option<ModelTier>) {
        if tier == self.tier {
            return;
        }
        self.neural = tier.map(|t| NeuralSr::new(t.proxy_config(self.scale)));
        self.tier = tier;
    }

    /// Decodes a packet (hardware-decoder path: the codec is a black box
    /// here) and runs the RoI-assisted upscale.
    ///
    /// # Errors
    ///
    /// Propagates codec errors (missing reference, corrupt stream, …).
    pub fn process(&mut self, packet: &EncodedFrame, roi: Rect) -> Result<ClientOutput, GssError> {
        let decoded = self.decoder.decode(packet)?;
        Ok(self.upscale(&decoded.frame, roi))
    }

    /// The RoI-assisted upscale on an already-decoded frame: DNN SR inside
    /// `roi`, bilinear everywhere else, merged. The two paths run on
    /// separate threads like the paper's NPU ∥ GPU split (both on the
    /// caller when the OS refuses the NPU thread). On the bilinear-only
    /// floor (no model tier) the NPU path and the merge are skipped and the
    /// whole frame is GPU-interpolated.
    ///
    /// `roi` is clamped into the frame if it protrudes.
    pub fn upscale(&self, lr: &Frame, roi: Rect) -> ClientOutput {
        let (w, h) = lr.size();
        let roi = roi.clamp_to(w, h);
        let roi_hr = roi.scaled(self.scale);
        let Some(neural) = &self.neural else {
            return ClientOutput {
                frame: self.bilinear.upscale(lr),
                roi_hr,
            };
        };
        let mut neural_patch = None;
        let mut hr = std::thread::scope(|s| {
            // NPU path: DNN SR of the RoI patch
            spawn_or_run(s, std::thread::Builder::new(), || {
                neural_patch = Some(neural.upscale(&lr.crop(roi)));
            });
            // GPU path: bilinear of the (whole) frame; only the non-RoI
            // part of this output survives the merge
            self.bilinear.upscale(lr)
        });
        let neural_patch = neural_patch.expect("the NPU leg ran inside the scope");
        hr.paste(&neural_patch, roi_hr.x, roi_hr.y);
        ClientOutput { frame: hr, roi_hr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_codec::{Encoder, EncoderConfig};
    use gss_frame::Plane;
    use gss_metrics::psnr_planes;

    fn scene_frame(w: usize, h: usize) -> Frame {
        Frame::from_planes(
            Plane::from_fn(w, h, |x, y| {
                let stripes = if (x / 5 + y / 4) % 2 == 0 {
                    70.0
                } else {
                    180.0
                };
                let tex = 20.0 * ((x as f32 * 0.7).sin() * (y as f32 * 0.5).cos());
                (stripes + tex).clamp(0.0, 255.0)
            }),
            Plane::filled(w, h, 120.0),
            Plane::filled(w, h, 136.0),
        )
        .unwrap()
    }

    #[test]
    fn output_dimensions_are_scaled() {
        let client = GameStreamClient::new(2);
        let lr = scene_frame(64, 36);
        let out = client.upscale(&lr, Rect::new(10, 10, 20, 20));
        assert_eq!(out.frame.size(), (128, 72));
    }

    #[test]
    fn roi_region_gets_higher_quality_than_bilinear() {
        // ground truth: a detailed HR scene; stream its downsample
        let hr = scene_frame(128, 96);
        let lr = hr.downsample_box(2);
        let roi = Rect::new(16, 12, 32, 32);
        let client = GameStreamClient::new(2);
        let ours = client.upscale(&lr, roi);
        let plain = InterpUpscaler::new(InterpKernel::Bilinear, 2).upscale(&lr);
        let roi_hr = roi.scaled(2);
        let gt_patch = hr.y().crop(roi_hr).unwrap();
        let ours_patch = ours.frame.y().crop(roi_hr).unwrap();
        let plain_patch = plain.y().crop(roi_hr).unwrap();
        let p_ours = psnr_planes(&gt_patch, &ours_patch).unwrap();
        let p_plain = psnr_planes(&gt_patch, &plain_patch).unwrap();
        assert!(
            p_ours > p_plain,
            "roi psnr {p_ours:.2} vs bilinear {p_plain:.2}"
        );
    }

    #[test]
    fn non_roi_region_matches_pure_bilinear() {
        let lr = scene_frame(64, 48);
        let roi = Rect::new(8, 8, 16, 16);
        let client = GameStreamClient::new(2);
        let ours = client.upscale(&lr, roi);
        let plain = InterpUpscaler::new(InterpKernel::Bilinear, 2).upscale(&lr);
        // a probe far from the RoI must be bit-identical to plain bilinear
        for (x, y) in [(100, 80), (2, 2), (120, 10)] {
            assert_eq!(ours.frame.y().get(x, y), plain.y().get(x, y), "({x},{y})");
        }
    }

    #[test]
    fn protruding_roi_is_clamped() {
        let lr = scene_frame(64, 36);
        let client = GameStreamClient::new(2);
        let out = client.upscale(&lr, Rect::new(50, 20, 30, 30));
        assert!(out.roi_hr.right() <= 128 && out.roi_hr.bottom() <= 72);
        assert_eq!(out.roi_hr.width, 60);
    }

    #[test]
    fn end_to_end_with_codec() {
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: 4,
            ..EncoderConfig::default()
        });
        let mut client = GameStreamClient::new(2);
        for t in 0..6 {
            let lr = scene_frame(64, 48);
            let packet = enc.encode(&lr).unwrap();
            let out = client.process(&packet, Rect::new(16, 12, 24, 24)).unwrap();
            assert_eq!(out.frame.size(), (128, 96), "frame {t}");
        }
    }

    #[test]
    fn tier_fallback_degrades_quality_and_floor_matches_bilinear() {
        let hr = scene_frame(128, 96);
        let lr = hr.downsample_box(2);
        let roi = Rect::new(16, 12, 32, 32);
        let roi_hr = roi.scaled(2);
        let gt_patch = hr.y().crop(roi_hr).unwrap();
        let mut client = GameStreamClient::new(2);
        assert_eq!(client.model_tier(), Some(ModelTier::Edsr64));
        let mut patch_psnr = Vec::new();
        for tier in ModelTier::ALL {
            client.set_model_tier(Some(tier));
            let out = client.upscale(&lr, roi);
            let patch = out.frame.y().crop(roi_hr).unwrap();
            patch_psnr.push(psnr_planes(&gt_patch, &patch).unwrap());
        }
        // the proxy's refinement gains are content-dependent, so adjacent
        // tiers may tie to within a tenth of a dB — but no step down the
        // ladder improves the RoI beyond that noise, and the top tier
        // beats the cheapest
        assert!(
            patch_psnr.windows(2).all(|w| w[1] <= w[0] + 0.1),
            "{patch_psnr:?}"
        );
        assert!(patch_psnr[0] >= patch_psnr[2] - 1e-9, "{patch_psnr:?}");
        // the floor is byte-identical to pure bilinear, with no panic on a
        // skipped NPU path
        client.set_model_tier(None);
        assert_eq!(client.model_tier(), None);
        let floor = client.upscale(&lr, roi);
        let plain = InterpUpscaler::new(InterpKernel::Bilinear, 2).upscale(&lr);
        assert_eq!(floor.frame, plain);
        // and the decoder survives tier swaps mid-stream
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: 100,
            ..EncoderConfig::default()
        });
        let mut streaming = GameStreamClient::new(2);
        for t in 0..4 {
            let packet = enc.encode(&scene_frame(64, 48)).unwrap();
            if t == 2 {
                streaming.set_model_tier(Some(ModelTier::Fsrcnn));
            }
            streaming.process(&packet, roi).unwrap();
        }
    }

    #[test]
    fn upscale_is_deterministic() {
        let lr = scene_frame(48, 32);
        let client = GameStreamClient::new(2);
        let a = client.upscale(&lr, Rect::new(8, 8, 16, 16));
        let b = client.upscale(&lr, Rect::new(8, 8, 16, 16));
        assert_eq!(a.frame, b.frame);
    }
}
