//! The decoder, including the codec-internal view (motion vectors and
//! residuals) that the NEMO baseline depends on.

use crate::bits::BitReader;
use crate::encoder::{halved, upsample2_bilinear, EncodedFrame, FrameType};
use crate::entropy::decode_plane;
use crate::intra::decode_plane_intra;
use crate::motion::{compensate, MotionField, MotionVector, MB_SIZE};
use crate::quant::QuantMatrix;
use crate::CodecError;
use gss_frame::Frame;
#[cfg(test)]
use gss_frame::Plane;
use gss_platform::plane_ops;

/// Codec internals exposed per decoded frame.
///
/// GameStreamSR treats the decoder as a black box (so it can run on the
/// hardware decoder); NEMO needs the [`DecodeDetail::Inter`] contents, which
/// is why it is stuck with a software decode path.
#[derive(Debug, Clone)]
pub enum DecodeDetail {
    /// The frame was self-contained.
    Intra,
    /// The frame was predicted; carries the transmitted motion field and
    /// the decoded residual (luma at coded size, chroma upsampled).
    Inter {
        /// Per-macroblock motion vectors.
        motion: MotionField,
        /// Decoded residual as a full-resolution frame (chroma upsampled
        /// from the 4:2:0 grid; `Y` plane residual is exact).
        residual: Frame,
    },
}

/// A decoded frame plus its codec-internal detail.
#[derive(Debug, Clone)]
pub struct DecodedFrame {
    /// The reconstructed picture.
    pub frame: Frame,
    /// Intra/inter internals.
    pub detail: DecodeDetail,
}

/// The streaming decoder; holds the reference frame between packets.
#[derive(Debug, Default)]
pub struct Decoder {
    reference: Option<Frame>,
}

impl Decoder {
    /// Creates a decoder with no reference state.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Decodes the next packet of the stream.
    ///
    /// # Errors
    ///
    /// * [`CodecError::MissingReference`] — an inter packet arrived first.
    /// * [`CodecError::ReferenceMismatch`] — packet size differs from the
    ///   held reference.
    /// * [`CodecError::CorruptStream`] — malformed payload.
    pub fn decode(&mut self, packet: &EncodedFrame) -> Result<DecodedFrame, CodecError> {
        match packet.frame_type {
            FrameType::Intra => {
                let frame = decode_intra_payload(packet)?;
                self.reference = Some(frame.clone());
                Ok(DecodedFrame {
                    frame,
                    detail: DecodeDetail::Intra,
                })
            }
            FrameType::Inter => {
                let reference = self
                    .reference
                    .as_ref()
                    .ok_or(CodecError::MissingReference)?;
                if reference.size() != (packet.width, packet.height) {
                    return Err(CodecError::ReferenceMismatch {
                        reference: reference.size(),
                        packet: (packet.width, packet.height),
                    });
                }
                let (frame, motion, residual) = decode_inter_payload(packet, reference)?;
                self.reference = Some(frame.clone());
                Ok(DecodedFrame {
                    frame,
                    detail: DecodeDetail::Inter { motion, residual },
                })
            }
        }
    }

    /// The decoder's current reference frame, if any.
    pub fn reference(&self) -> Option<&Frame> {
        self.reference.as_ref()
    }
}

/// Decodes an intra payload into a frame (shared with the encoder's closed
/// loop).
pub(crate) fn decode_intra_payload(packet: &EncodedFrame) -> Result<Frame, CodecError> {
    let (w, h) = (packet.width, packet.height);
    let q = QuantMatrix::from_quality(packet.quant.quality);
    let mut r = BitReader::new(&packet.payload);
    let unshift = |v: f32| (v + 128.0).clamp(0.0, 255.0);
    let y = plane_ops::map(&decode_plane_intra(w, h, &q, &mut r)?, unshift);
    let cb_half = plane_ops::map(&decode_plane_intra(w / 2, h / 2, &q, &mut r)?, unshift);
    let cr_half = plane_ops::map(&decode_plane_intra(w / 2, h / 2, &q, &mut r)?, unshift);
    Frame::from_planes(
        y,
        upsample2_bilinear(&cb_half),
        upsample2_bilinear(&cr_half),
    )
    .map_err(|_| CodecError::CorruptStream {
        context: "plane sizes diverged",
    })
}

/// Decodes an inter payload against `reference`, returning the
/// reconstruction, the motion field and the residual frame.
pub(crate) fn decode_inter_payload(
    packet: &EncodedFrame,
    reference: &Frame,
) -> Result<(Frame, MotionField, Frame), CodecError> {
    let (w, h) = (packet.width, packet.height);
    let mb_cols = w.div_ceil(MB_SIZE);
    let mb_rows = h.div_ceil(MB_SIZE);
    let mut r = BitReader::new(&packet.payload);
    let mut vectors = Vec::with_capacity(mb_cols * mb_rows);
    for _ in 0..mb_cols * mb_rows {
        let dx = r.get_se()?;
        let dy = r.get_se()?;
        // the encoder's search range is u8, so coded vectors fit i16 with
        // a wide margin; anything outside is stream corruption
        let range = i16::MIN as i32..=i16::MAX as i32;
        if !range.contains(&dx) || !range.contains(&dy) {
            return Err(CodecError::CorruptStream {
                context: "motion vector out of range",
            });
        }
        vectors.push(MotionVector {
            dx: dx as i16,
            dy: dy as i16,
        });
    }
    let motion = MotionField::from_vectors(mb_cols, mb_rows, vectors);

    let rq = QuantMatrix::flat(packet.quant.residual_step);
    let res_y = decode_plane(w, h, &rq, &mut r)?;
    let res_cb = decode_plane(w / 2, h / 2, &rq, &mut r)?;
    let res_cr = decode_plane(w / 2, h / 2, &rq, &mut r)?;

    let pred_y = compensate(reference.y(), &motion, MB_SIZE);
    let chroma_motion = halved(&motion);
    let pred_cb = compensate(
        &plane_ops::downsample_box(reference.cb(), 2),
        &chroma_motion,
        MB_SIZE / 2,
    );
    let pred_cr = compensate(
        &plane_ops::downsample_box(reference.cr(), 2),
        &chroma_motion,
        MB_SIZE / 2,
    );

    let add = |p: f32, d: f32| (p + d).clamp(0.0, 255.0);
    let y = plane_ops::zip_map(&pred_y, &res_y, add);
    let cb_half = plane_ops::zip_map(&pred_cb, &res_cb, add);
    let cr_half = plane_ops::zip_map(&pred_cr, &res_cr, add);

    let frame = Frame::from_planes(
        y,
        upsample2_bilinear(&cb_half),
        upsample2_bilinear(&cr_half),
    )
    .expect("plane sizes agree");
    let residual = Frame::from_planes(
        res_y,
        upsample2_bilinear(&res_cb),
        upsample2_bilinear(&res_cr),
    )
    .expect("plane sizes agree");
    Ok((frame, motion, residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use gss_metrics::psnr;

    fn moving_frame(w: usize, h: usize, t: f32) -> Frame {
        Frame::from_planes(
            Plane::from_fn(w, h, |x, y| {
                let fx = x as f32 - t * 2.0;
                (128.0 + 70.0 * ((fx * 0.25).sin() * (y as f32 * 0.2).cos())).clamp(0.0, 255.0)
            }),
            Plane::from_fn(w, h, |x, _| 110.0 + (x % 16) as f32),
            Plane::filled(w, h, 140.0),
        )
        .unwrap()
    }

    #[test]
    fn intra_roundtrip_psnr_is_high() {
        let mut enc = Encoder::new(EncoderConfig {
            quality: 90,
            ..EncoderConfig::default()
        });
        let mut dec = Decoder::new();
        let f = moving_frame(64, 48, 0.0);
        let d = dec.decode(&enc.encode(&f).unwrap()).unwrap();
        let p = psnr(&f, &d.frame).unwrap();
        assert!(p > 35.0, "psnr {p:.2}");
        assert!(matches!(d.detail, DecodeDetail::Intra));
    }

    #[test]
    fn gop_decodes_with_stable_quality() {
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: 10,
            ..EncoderConfig::default()
        });
        let mut dec = Decoder::new();
        let mut min_psnr = f64::INFINITY;
        for t in 0..10 {
            let f = moving_frame(64, 48, t as f32);
            let d = dec.decode(&enc.encode(&f).unwrap()).unwrap();
            min_psnr = min_psnr.min(psnr(&f, &d.frame).unwrap());
        }
        assert!(min_psnr > 30.0, "min psnr {min_psnr:.2}");
    }

    #[test]
    fn encoder_and_decoder_references_agree() {
        // the closed loop means the encoder's internal reference equals the
        // decoder's output exactly
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new();
        for t in 0..3 {
            let f = moving_frame(48, 32, t as f32);
            let d = dec.decode(&enc.encode(&f).unwrap()).unwrap();
            let _ = d;
        }
        // encode one more and check prediction consistency via quality
        let f = moving_frame(48, 32, 3.0);
        let d = dec.decode(&enc.encode(&f).unwrap()).unwrap();
        assert!(psnr(&f, &d.frame).unwrap() > 28.0);
    }

    #[test]
    fn inter_detail_exposes_motion_and_residual() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new();
        dec.decode(&enc.encode(&moving_frame(64, 48, 0.0)).unwrap())
            .unwrap();
        let d = dec
            .decode(&enc.encode(&moving_frame(64, 48, 1.0)).unwrap())
            .unwrap();
        match d.detail {
            DecodeDetail::Inter { motion, residual } => {
                assert_eq!(motion.grid(), (4, 3));
                assert_eq!(residual.size(), (64, 48));
                // content moves left 2 px/frame, so motion should be nonzero
                assert!(motion.mean_magnitude() > 0.5, "{}", motion.mean_magnitude());
            }
            DecodeDetail::Intra => panic!("expected inter"),
        }
    }

    #[test]
    fn inter_before_intra_errors() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let f = moving_frame(32, 32, 0.0);
        enc.encode(&f).unwrap();
        let inter = enc.encode(&f).unwrap();
        let mut fresh = Decoder::new();
        assert!(matches!(
            fresh.decode(&inter),
            Err(CodecError::MissingReference)
        ));
    }

    #[test]
    fn reference_mismatch_errors() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new();
        dec.decode(&enc.encode(&moving_frame(32, 32, 0.0)).unwrap())
            .unwrap();
        // craft a decoder with a different-size reference
        let mut enc2 = Encoder::new(EncoderConfig::default());
        let mut dec2 = Decoder::new();
        dec2.decode(&enc2.encode(&moving_frame(64, 32, 0.0)).unwrap())
            .unwrap();
        enc2.encode(&moving_frame(64, 32, 1.0)).unwrap();
        // feed an inter packet for 32x32 into dec2 (reference is 64x32)
        let inter32 = enc.encode(&moving_frame(32, 32, 1.0)).unwrap();
        assert!(matches!(
            dec2.decode(&inter32),
            Err(CodecError::ReferenceMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new();
        let mut packet = enc.encode(&moving_frame(32, 32, 0.0)).unwrap();
        packet.payload = packet.payload.slice(0..packet.payload.len() / 3);
        assert!(dec.decode(&packet).is_err());
    }
}
