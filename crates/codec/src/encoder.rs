//! The hybrid encoder: intra keyframes + motion-compensated inter frames in
//! a fixed GOP structure, with closed-loop reconstruction (the encoder
//! predicts from the frames the decoder will actually see).

use crate::bits::BitWriter;
use crate::entropy::encode_plane;
use crate::intra::encode_plane_intra;
use crate::motion::{compensate, estimate_motion, MotionField, MB_SIZE};
use crate::quant::QuantMatrix;
use crate::{decoder, CodecError};
use bytes::Bytes;
use gss_frame::{Frame, Plane};
use gss_platform::plane_ops;
use serde::{Deserialize, Serialize};

/// Whether a frame is a reference (key/intra) frame or depends on one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameType {
    /// A self-contained reference frame (keyframe).
    Intra,
    /// A motion-compensated non-reference frame.
    Inter,
}

/// Encoder tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Intra quantization quality, `1..=100` (higher = finer).
    pub quality: u8,
    /// Flat quantizer step for inter residuals.
    pub residual_step: u16,
    /// GOP length: one intra frame every `gop_size` frames. The paper's
    /// game streams use 60 (a keyframe every second at 60 FPS).
    pub gop_size: usize,
    /// Motion search range in pixels.
    pub search_range: u8,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            quality: 75,
            residual_step: 10,
            gop_size: 60,
            search_range: 7,
        }
    }
}

/// One coded frame: a real decodable bitstream plus stream metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// Intra or inter.
    pub frame_type: FrameType,
    /// Coded width in pixels.
    pub width: usize,
    /// Coded height in pixels.
    pub height: usize,
    /// Frame index within the stream.
    pub sequence: u64,
    /// Entropy-coded payload (motion vectors + coefficient planes).
    pub payload: Bytes,
    /// Intra quality / residual step the payload was coded with.
    pub quant: QuantSelection,
}

/// The quantizer parameters a packet was coded with (needed to decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantSelection {
    /// Intra quality (`1..=100`).
    pub quality: u8,
    /// Residual flat step.
    pub residual_step: u16,
}

impl EncodedFrame {
    /// Total transmitted size in bytes, including a nominal 16-byte packet
    /// header (type, dims, sequence, quant).
    pub fn size_bytes(&self) -> usize {
        self.payload.len() + 16
    }
}

/// The streaming encoder.
///
/// ```
/// use gss_codec::{Encoder, EncoderConfig, FrameType};
/// use gss_frame::Frame;
///
/// let mut enc = Encoder::new(EncoderConfig { gop_size: 4, ..EncoderConfig::default() });
/// let f = Frame::filled(32, 32, [128.0, 128.0, 128.0]);
/// assert_eq!(enc.encode(&f).unwrap().frame_type, FrameType::Intra);
/// assert_eq!(enc.encode(&f).unwrap().frame_type, FrameType::Inter);
/// ```
#[derive(Debug)]
pub struct Encoder {
    config: EncoderConfig,
    reference: Option<Frame>,
    frame_count: u64,
}

impl Encoder {
    /// Creates an encoder; the first frame will be intra.
    ///
    /// # Panics
    ///
    /// Panics when `gop_size` is zero or `quality`/`residual_step` are out
    /// of range.
    pub fn new(config: EncoderConfig) -> Self {
        assert!(config.gop_size > 0, "gop_size must be nonzero");
        assert!(
            (1..=100).contains(&config.quality),
            "quality must be 1..=100"
        );
        assert!(config.residual_step > 0, "residual_step must be nonzero");
        assert!(config.search_range > 0, "search_range must be nonzero");
        Encoder {
            config,
            reference: None,
            frame_count: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> EncoderConfig {
        self.config
    }

    /// `true` when the next [`Encoder::encode`] call will emit a keyframe.
    pub fn next_is_keyframe(&self) -> bool {
        self.reference.is_none() || self.frame_count.is_multiple_of(self.config.gop_size as u64)
    }

    /// Forces the next frame to be coded intra (e.g. after a scene cut or
    /// packet loss).
    pub fn request_keyframe(&mut self) {
        self.reference = None;
    }

    /// Adjusts the quantizers mid-stream (rate control); takes effect from
    /// the next encoded frame. The reference chain is unaffected — decoders
    /// read the quantizer selection from each packet.
    ///
    /// # Panics
    ///
    /// Panics when `quality` is outside `1..=100` or `residual_step` is
    /// zero.
    pub fn set_quantizers(&mut self, quality: u8, residual_step: u16) {
        assert!((1..=100).contains(&quality), "quality must be 1..=100");
        assert!(residual_step > 0, "residual_step must be nonzero");
        self.config.quality = quality;
        self.config.residual_step = residual_step;
    }

    /// Encodes the next frame of the stream, choosing intra/inter from the
    /// GOP position.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadFrameSize`] for odd or zero dimensions (the
    /// 4:2:0 chroma path needs even sizes).
    pub fn encode(&mut self, frame: &Frame) -> Result<EncodedFrame, CodecError> {
        let (w, h) = frame.size();
        if w == 0 || h == 0 || w % 2 != 0 || h % 2 != 0 {
            return Err(CodecError::BadFrameSize {
                width: w,
                height: h,
            });
        }
        if let Some(reference) = &self.reference {
            if reference.size() != frame.size() {
                // resolution change forces a new keyframe
                self.reference = None;
            }
        }
        let sequence = self.frame_count;
        let intra = self.next_is_keyframe();
        self.frame_count += 1;
        if intra {
            self.encode_intra(frame, sequence)
        } else {
            self.encode_inter(frame, sequence)
        }
    }

    fn quant(&self) -> QuantSelection {
        QuantSelection {
            quality: self.config.quality,
            residual_step: self.config.residual_step,
        }
    }

    fn encode_intra(&mut self, frame: &Frame, sequence: u64) -> Result<EncodedFrame, CodecError> {
        let (w, h) = frame.size();
        let q = QuantMatrix::from_quality(self.config.quality);
        let mut writer = BitWriter::new();
        encode_plane_intra(&plane_ops::map(frame.y(), |v| v - 128.0), &q, &mut writer);
        encode_plane_intra(
            &plane_ops::map(&plane_ops::downsample_box(frame.cb(), 2), |v| v - 128.0),
            &q,
            &mut writer,
        );
        encode_plane_intra(
            &plane_ops::map(&plane_ops::downsample_box(frame.cr(), 2), |v| v - 128.0),
            &q,
            &mut writer,
        );
        let packet = EncodedFrame {
            frame_type: FrameType::Intra,
            width: w,
            height: h,
            sequence,
            payload: writer.finish(),
            quant: self.quant(),
        };
        // closed loop: the encoder's reference is the decoder's output
        let recon = decoder::decode_intra_payload(&packet)?;
        self.reference = Some(recon);
        Ok(packet)
    }

    fn encode_inter(&mut self, frame: &Frame, sequence: u64) -> Result<EncodedFrame, CodecError> {
        let (w, h) = frame.size();
        let reference = self
            .reference
            .as_ref()
            .ok_or(CodecError::MissingReference)?;
        let motion = estimate_motion(frame.y(), reference.y(), self.config.search_range);

        // predictions: luma at full size, chroma on the subsampled grid
        let pred_y = compensate(reference.y(), &motion, MB_SIZE);
        let ref_cb = plane_ops::downsample_box(reference.cb(), 2);
        let ref_cr = plane_ops::downsample_box(reference.cr(), 2);
        let chroma_motion = halved(&motion);
        let pred_cb = compensate(&ref_cb, &chroma_motion, MB_SIZE / 2);
        let pred_cr = compensate(&ref_cr, &chroma_motion, MB_SIZE / 2);

        let res_y = plane_ops::zip_map(frame.y(), &pred_y, |c, p| c - p);
        let res_cb = plane_ops::zip_map(
            &plane_ops::downsample_box(frame.cb(), 2),
            &pred_cb,
            |c, p| c - p,
        );
        let res_cr = plane_ops::zip_map(
            &plane_ops::downsample_box(frame.cr(), 2),
            &pred_cr,
            |c, p| c - p,
        );

        let rq = QuantMatrix::flat(self.config.residual_step);
        let mut writer = BitWriter::new();
        for v in motion.vectors() {
            writer.put_se(v.dx as i32);
            writer.put_se(v.dy as i32);
        }
        encode_plane(&res_y, &rq, &mut writer);
        encode_plane(&res_cb, &rq, &mut writer);
        encode_plane(&res_cr, &rq, &mut writer);

        let packet = EncodedFrame {
            frame_type: FrameType::Inter,
            width: w,
            height: h,
            sequence,
            payload: writer.finish(),
            quant: self.quant(),
        };
        let recon = decoder::decode_inter_payload(&packet, reference)?.0;
        self.reference = Some(recon);
        Ok(packet)
    }
}

/// Halves a motion field's vectors for the 4:2:0 chroma grid.
pub(crate) fn halved(motion: &MotionField) -> MotionField {
    let (cols, rows) = motion.grid();
    MotionField::from_vectors(
        cols,
        rows,
        motion
            .vectors()
            .iter()
            .map(|v| crate::motion::MotionVector {
                dx: v.dx / 2,
                dy: v.dy / 2,
            })
            .collect(),
    )
}

/// Bilinear 2x upsampling used to restore 4:2:0 chroma to full resolution.
/// Row-parallel; every output pixel is an independent 4-tap blend, so the
/// result is bit-identical at any worker count.
pub(crate) fn upsample2_bilinear(p: &Plane<f32>) -> Plane<f32> {
    let (w, h) = p.size();
    let (ow, oh) = (w * 2, h * 2);
    let data = gss_platform::pool::build_rows(ow, oh, 0.0f32, |y, row| {
        let sy = (y as f32 + 0.5) * 0.5 - 0.5;
        let y0 = sy.floor();
        let fy = sy - y0;
        let yi = y0 as isize;
        for (x, v) in row.iter_mut().enumerate() {
            let sx = (x as f32 + 0.5) * 0.5 - 0.5;
            let x0 = sx.floor();
            let fx = sx - x0;
            let xi = x0 as isize;
            let a = p.get_clamped(xi, yi);
            let b = p.get_clamped(xi + 1, yi);
            let c = p.get_clamped(xi, yi + 1);
            let d = p.get_clamped(xi + 1, yi + 1);
            *v = a * (1.0 - fx) * (1.0 - fy)
                + b * fx * (1.0 - fy)
                + c * (1.0 - fx) * fy
                + d * fx * fy;
        }
    });
    Plane::from_vec(ow, oh, data).expect("rows cover the output plane")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured_frame(w: usize, h: usize, phase: f32) -> Frame {
        Frame::from_planes(
            Plane::from_fn(w, h, |x, y| {
                128.0 + 70.0 * ((x as f32 * 0.3 + phase).sin() * (y as f32 * 0.22).cos())
            }),
            Plane::filled(w, h, 120.0),
            Plane::filled(w, h, 135.0),
        )
        .unwrap()
    }

    #[test]
    fn gop_structure_is_respected() {
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: 3,
            ..EncoderConfig::default()
        });
        let f = textured_frame(32, 32, 0.0);
        let types: Vec<FrameType> = (0..7).map(|_| enc.encode(&f).unwrap().frame_type).collect();
        use FrameType::*;
        assert_eq!(types, vec![Intra, Inter, Inter, Intra, Inter, Inter, Intra]);
    }

    #[test]
    fn odd_dimensions_rejected() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let f = Frame::new(31, 32);
        assert!(matches!(
            enc.encode(&f),
            Err(CodecError::BadFrameSize { .. })
        ));
    }

    #[test]
    fn request_keyframe_forces_intra() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let f = textured_frame(32, 32, 0.0);
        enc.encode(&f).unwrap();
        assert_eq!(enc.encode(&f).unwrap().frame_type, FrameType::Inter);
        enc.request_keyframe();
        assert_eq!(enc.encode(&f).unwrap().frame_type, FrameType::Intra);
    }

    #[test]
    fn resolution_change_forces_intra() {
        let mut enc = Encoder::new(EncoderConfig::default());
        enc.encode(&textured_frame(32, 32, 0.0)).unwrap();
        let p = enc.encode(&textured_frame(64, 32, 0.0)).unwrap();
        assert_eq!(p.frame_type, FrameType::Intra);
    }

    #[test]
    fn inter_frames_are_smaller_than_intra_for_similar_content() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let a = textured_frame(64, 64, 0.0);
        let b = textured_frame(64, 64, 0.05);
        let intra = enc.encode(&a).unwrap();
        let inter = enc.encode(&b).unwrap();
        assert!(
            inter.size_bytes() * 2 < intra.size_bytes(),
            "inter {} vs intra {}",
            inter.size_bytes(),
            intra.size_bytes()
        );
    }

    #[test]
    fn upsample2_preserves_constant() {
        let p = Plane::filled(5, 4, 42.0f32);
        let up = upsample2_bilinear(&p);
        assert_eq!(up.size(), (10, 8));
        assert!(up.iter().all(|&v| (v - 42.0).abs() < 1e-4));
    }
}
