//! The NEMO baseline (Yeo et al., MobiCom'20) — the paper's SOTA
//! comparison point.
//!
//! NEMO amortizes DNN super-resolution over a GOP: the reference (key)
//! frame is upscaled through the full DNN, and each non-reference frame is
//! *reconstructed in high-resolution space* from the previously upscaled
//! frame plus bilinearly-upscaled motion vectors and residuals. Doing so
//! requires the codec's internals ([`gss_codec::DecodeDetail`]), which is
//! why NEMO runs a software decoder on the CPU rather than the phone's
//! hardware decoder — the root of its energy disadvantage (paper Fig. 12).
//!
//! The quality consequence reproduced here (paper Fig. 13): bilinear
//! residual upscaling cannot express high-frequency corrections, so
//! reconstruction error accumulates frame over frame within a GOP.

use crate::GssError;
use gss_codec::{DecodeDetail, Decoder, EncodedFrame, FrameType, MotionField, MB_SIZE};
use gss_frame::{Frame, Plane};
use gss_sr::{InterpKernel, InterpUpscaler, NeuralSr, NeuralSrConfig, Upscaler};

/// One frame produced by the NEMO pipeline.
#[derive(Debug, Clone)]
pub struct NemoOutput {
    /// The high-resolution frame shown to the player.
    pub frame: Frame,
    /// Whether the DNN ran (reference) or reconstruction ran
    /// (non-reference).
    pub frame_type: FrameType,
}

/// The NEMO client pipeline.
///
/// ```
/// use gamestreamsr::NemoClient;
/// use gss_codec::{Encoder, EncoderConfig};
/// use gss_frame::Frame;
///
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut nemo = NemoClient::new(2);
/// let packet = enc.encode(&Frame::filled(64, 32, [90.0, 128.0, 128.0])).unwrap();
/// let out = nemo.process(&packet).unwrap();
/// assert_eq!(out.frame.size(), (128, 64));
/// ```
#[derive(Debug)]
pub struct NemoClient {
    decoder: Decoder,
    neural: NeuralSr,
    bilinear: InterpUpscaler,
    scale: usize,
    reference_hr: Option<Frame>,
}

impl NemoClient {
    /// Creates the baseline client for an upscale factor.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is zero.
    pub fn new(scale: usize) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        NemoClient {
            decoder: Decoder::new(),
            neural: NeuralSr::new(NeuralSrConfig {
                scale,
                ..NeuralSrConfig::default()
            }),
            bilinear: InterpUpscaler::new(InterpKernel::Bilinear, scale),
            scale,
            reference_hr: None,
        }
    }

    /// The upscale factor.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Processes the next packet of the stream.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; an inter packet without a prior reference
    /// frame yields [`gss_codec::CodecError::MissingReference`].
    pub fn process(&mut self, packet: &EncodedFrame) -> Result<NemoOutput, GssError> {
        let decoded = self.decoder.decode(packet)?;
        match decoded.detail {
            DecodeDetail::Intra => {
                // reference frame: full-frame DNN SR on the NPU
                let hr = self.neural.upscale(&decoded.frame);
                self.reference_hr = Some(hr.clone());
                Ok(NemoOutput {
                    frame: hr,
                    frame_type: FrameType::Intra,
                })
            }
            DecodeDetail::Inter { motion, residual } => {
                let reference = self
                    .reference_hr
                    .as_ref()
                    .ok_or(gss_codec::CodecError::MissingReference)?;
                let hr = self.reconstruct(reference, &motion, &residual);
                self.reference_hr = Some(hr.clone());
                Ok(NemoOutput {
                    frame: hr,
                    frame_type: FrameType::Inter,
                })
            }
        }
    }

    /// NEMO's non-reference reconstruction: upscale the motion vectors by
    /// the scale factor, motion-compensate the previous *high-resolution*
    /// frame, and add the bilinearly-upscaled residual.
    fn reconstruct(
        &self,
        reference_hr: &Frame,
        motion: &MotionField,
        residual_lr: &Frame,
    ) -> Frame {
        let motion_hr = motion.scaled(self.scale);
        let block_hr = MB_SIZE * self.scale;
        let residual_hr = self.bilinear.upscale(residual_lr);
        let compensate_plane = |reference: &Plane<f32>, residual: &Plane<f32>| {
            let pred = gss_codec::compensate(reference, &motion_hr, block_hr);
            pred.zip_map(residual, |p, r| (p + r).clamp(0.0, 255.0))
                .expect("prediction and residual share HR dimensions")
        };
        let y = compensate_plane(reference_hr.y(), residual_hr.y());
        let cb = compensate_plane(reference_hr.cb(), residual_hr.cb());
        let cr = compensate_plane(reference_hr.cr(), residual_hr.cr());
        Frame::from_planes(y, cb, cr).expect("planes share dimensions")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_codec::{Encoder, EncoderConfig};
    use gss_metrics::psnr;

    fn moving_scene(w: usize, h: usize, t: f32) -> Frame {
        Frame::from_planes(
            Plane::from_fn(w, h, |x, y| {
                let fx = x as f32 + t * 1.5;
                let stripes = if ((fx / 14.0).floor() as i32 + (y / 12) as i32) % 2 == 0 {
                    70.0
                } else {
                    185.0
                };
                let tex = 18.0 * ((fx * 0.25).sin() * (y as f32 * 0.2).cos());
                (stripes + tex).clamp(0.0, 255.0)
            }),
            Plane::filled(w, h, 118.0),
            Plane::filled(w, h, 134.0),
        )
        .unwrap()
    }

    #[test]
    fn reference_frames_use_dnn_and_reset_drift() {
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: 4,
            ..EncoderConfig::default()
        });
        let mut nemo = NemoClient::new(2);
        let mut types = Vec::new();
        for t in 0..8 {
            let lr = moving_scene(64, 48, t as f32);
            let out = nemo.process(&enc.encode(&lr).unwrap()).unwrap();
            types.push(out.frame_type);
        }
        use FrameType::*;
        assert_eq!(
            types,
            vec![Intra, Inter, Inter, Inter, Intra, Inter, Inter, Inter]
        );
    }

    #[test]
    fn quality_decays_within_a_gop_and_recovers_at_keyframe() {
        // rendered game content (deployment pixel velocity): NEMO drifts
        // within the GOP and a keyframe resets it. The window starts 12
        // streamed frames into the flythrough, where content difficulty has
        // plateaued — on the opening segment the camera dollies into busier
        // geometry and the difficulty slope swamps the drift/recovery signal
        // this test isolates.
        const GOP: usize = 12;
        const OFFSET: usize = 12;
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: GOP,
            ..EncoderConfig::default()
        });
        let workload = gss_render::GameWorkload::new(gss_render::GameId::G3);
        let mut nemo = NemoClient::new(2);
        let mut series = Vec::new();
        for t in 0..GOP + 1 {
            let hr = workload.render_frame((t + OFFSET) * 8, 192, 108).frame;
            let lr = hr.downsample_box(2);
            let out = nemo.process(&enc.encode(&lr).unwrap()).unwrap();
            series.push(psnr(&hr, &out.frame).unwrap());
        }
        // error accumulates: the last quarter of the GOP is worse than the
        // first non-reference frames
        let early = (series[1] + series[2]) / 2.0;
        let late = (series[GOP - 2] + series[GOP - 1]) / 2.0;
        assert!(late < early - 0.4, "early {early:.2} late {late:.2}");
        // the next keyframe restores quality above the late-GOP level
        // (recovery is bounded by the codec's own intra quality)
        assert!(
            series[GOP] > late + 0.15,
            "key {:.2} late {late:.2}",
            series[GOP]
        );
    }

    #[test]
    fn inter_before_intra_errors() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let lr = moving_scene(64, 48, 0.0);
        enc.encode(&lr).unwrap();
        let inter = enc.encode(&moving_scene(64, 48, 1.0)).unwrap();
        let mut nemo = NemoClient::new(2);
        assert!(nemo.process(&inter).is_err());
    }

    #[test]
    fn output_is_always_hr_sized() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut nemo = NemoClient::new(2);
        for t in 0..3 {
            let lr = moving_scene(64, 48, t as f32);
            let out = nemo.process(&enc.encode(&lr).unwrap()).unwrap();
            assert_eq!(out.frame.size(), (128, 96));
        }
    }
}
