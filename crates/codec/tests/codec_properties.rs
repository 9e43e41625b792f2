//! Property-based robustness tests for the codec: roundtrip error bounds,
//! decoder behaviour on hostile bitstreams, and bitstream-layer fuzzing.
//!
//! Each frame property's body is a plain function, so a case recorded in
//! `codec_properties.proptest-regressions` (which the vendored proptest
//! stand-in does not read) runs as its own named test.

use gss_codec::{BitReader, BitWriter, Decoder, EncodedFrame, Encoder, EncoderConfig, FrameType};
use gss_frame::{Frame, Plane};
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = Frame> {
    // even dimensions (4:2:0), textured with seeded pseudo-random content
    (2usize..20, 2usize..14, 0u64..10_000).prop_map(|(hw, hh, seed)| {
        let (w, h) = (hw * 2, hh * 2);
        let lum = Plane::from_fn(w, h, |x, y| {
            let v = (x as u64)
                .wrapping_mul(seed.wrapping_add(7))
                .wrapping_add((y as u64).wrapping_mul(13))
                .wrapping_mul(2654435761);
            (v % 256) as f32
        });
        Frame::from_planes(lum, Plane::filled(w, h, 120.0), Plane::filled(w, h, 136.0))
            .expect("planes share size")
    })
}

/// An intra frame at `quality` decodes to the input size within a loose
/// per-pixel error bound.
fn intra_roundtrip(frame: &Frame, quality: u8) -> Result<(), TestCaseError> {
    let mut enc = Encoder::new(EncoderConfig {
        quality,
        ..EncoderConfig::default()
    });
    let mut dec = Decoder::new();
    let packet = enc.encode(frame).unwrap();
    prop_assert_eq!(packet.frame_type, FrameType::Intra);
    let out = dec.decode(&packet).unwrap();
    prop_assert_eq!(out.frame.size(), frame.size());
    // worst-case per-pixel error is bounded by quantizer coarseness;
    // white-noise content is the adversarial case, so the bound is loose
    let max_err = frame
        .y()
        .zip_map(out.frame.y(), |a, b| (a - b).abs())
        .unwrap()
        .min_max()
        .1;
    prop_assert!(max_err < 230.0, "max err {max_err}");
    Ok(())
}

/// `gop + 2` frames round-trip through a GOP of `gop`.
fn gop_roundtrip(frame: &Frame, gop: usize) -> Result<(), TestCaseError> {
    let mut enc = Encoder::new(EncoderConfig {
        gop_size: gop,
        ..EncoderConfig::default()
    });
    let mut dec = Decoder::new();
    for _ in 0..(gop + 2) {
        let packet = enc.encode(frame).unwrap();
        let out = dec.decode(&packet).unwrap();
        prop_assert_eq!(out.frame.size(), frame.size());
    }
    Ok(())
}

/// A real packet truncated to `cut` of its length and bit-flipped at
/// `flip_byte` decodes to `Ok` or `Err`, never a panic.
fn corrupt_payload_decodes(frame: &Frame, cut: f64, flip_byte: usize, flip_mask: u8) {
    let mut enc = Encoder::new(EncoderConfig::default());
    let packet = enc.encode(frame).unwrap();
    let mut bytes = packet.payload.to_vec();
    let keep = ((bytes.len() as f64) * cut) as usize;
    bytes.truncate(keep);
    if !bytes.is_empty() {
        let i = flip_byte % bytes.len();
        bytes[i] ^= flip_mask;
    }
    let hostile = EncodedFrame {
        payload: bytes::Bytes::from(bytes),
        ..packet
    };
    let mut dec = Decoder::new();
    // must return Ok (lucky decode) or Err — never panic
    let _ = dec.decode(&hostile);
}

/// Two encoders code the same frame to the same bytes.
fn encoding_is_deterministic_on(frame: &Frame) -> Result<(), TestCaseError> {
    let mk = || {
        let mut enc = Encoder::new(EncoderConfig::default());
        enc.encode(frame).unwrap().payload
    };
    prop_assert_eq!(mk(), mk());
    Ok(())
}

/// Closed loop: decoding the stream reproduces exactly what the encoder
/// predicted from (verified indirectly by a second inter frame decoding
/// without drift explosions).
fn inter_frames_do_not_drift(frame: &Frame) -> Result<(), TestCaseError> {
    let mut enc = Encoder::new(EncoderConfig::default());
    let mut dec = Decoder::new();
    dec.decode(&enc.encode(frame).unwrap()).unwrap();
    let first = dec.decode(&enc.encode(frame).unwrap()).unwrap();
    let second = dec.decode(&enc.encode(frame).unwrap()).unwrap();
    // a static scene: successive inter frames must not diverge
    let drift = first
        .frame
        .y()
        .zip_map(second.frame.y(), |a, b| (a - b).abs())
        .unwrap()
        .mean();
    prop_assert!(drift < 4.0, "drift {drift}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn intra_roundtrip_error_is_bounded(frame in arb_frame(), quality in 30u8..=95) {
        intra_roundtrip(&frame, quality)?;
    }

    #[test]
    fn gop_roundtrip_never_fails(frame in arb_frame(), gop in 1usize..5) {
        gop_roundtrip(&frame, gop)?;
    }

    #[test]
    fn decoder_never_panics_on_corrupt_payloads(
        frame in arb_frame(),
        cut in 0.0f64..1.0,
        flip_byte in 0usize..4096,
        flip_mask in 1u8..=255,
    ) {
        // produce a real packet, then mutilate it: truncate and bit-flip
        corrupt_payload_decodes(&frame, cut, flip_byte, flip_mask);
    }

    #[test]
    fn exp_golomb_stream_roundtrips(values in proptest::collection::vec(-50_000i32..50_000, 0..200)) {
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_se(v);
        }
        let data = w.finish();
        let mut r = BitReader::new(&data);
        for &v in &values {
            prop_assert_eq!(r.get_se().unwrap(), v);
        }
    }

    #[test]
    fn encoding_is_deterministic(frame in arb_frame()) {
        encoding_is_deterministic_on(&frame)?;
    }

    #[test]
    fn inter_frames_decode_to_encoder_reference(frame in arb_frame()) {
        inter_frames_do_not_drift(&frame)?;
    }
}

/// The one case `codec_properties.proptest-regressions` records (its
/// `cc 5759…` line): a 4×4 frame with a luma ramp, Cb 120 and Cr 136. The
/// file does not name the property that failed, so every frame property
/// runs on it.
#[test]
fn recorded_regression_4x4_ramp_passes_every_frame_property() {
    let luma = [
        0.0, 195.0, 134.0, 73.0, //
        253.0, 192.0, 131.0, 70.0, //
        250.0, 189.0, 128.0, 67.0, //
        247.0, 186.0, 125.0, 64.0,
    ];
    let frame = Frame::from_planes(
        Plane::from_fn(4, 4, |x, y| luma[y * 4 + x]),
        Plane::filled(4, 4, 120.0),
        Plane::filled(4, 4, 136.0),
    )
    .expect("planes share size");
    for quality in [30, 95] {
        intra_roundtrip(&frame, quality).expect("intra round trip");
    }
    for gop in 1..=4 {
        gop_roundtrip(&frame, gop).expect("GOP round trip");
    }
    for cut in [0.0, 0.25, 0.5, 0.75, 0.999] {
        for (flip_byte, flip_mask) in [(0, 0x01), (1, 0x80), (7, 0xff)] {
            corrupt_payload_decodes(&frame, cut, flip_byte, flip_mask);
        }
    }
    encoding_is_deterministic_on(&frame).expect("deterministic encode");
    inter_frames_do_not_drift(&frame).expect("no inter drift");
}
