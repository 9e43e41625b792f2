//! The traced replay of a paper session: `run_session`'s per-frame data
//! path re-driven through each layer's public functions, one span per
//! call, then checked bit-for-bit against the untraced session's
//! `FrameRecord`s.

use gamestreamsr::mtp::FULL_LR;
use gamestreamsr::{
    GameStreamClient, NemoClient, Pipeline, RoiDetector, SessionConfig, SessionReport,
};
use gss_codec::{estimate_motion, DecodeDetail, Decoder, Encoder, FrameType};
use gss_frame::{DepthMap, Frame, Rect};
use gss_metrics::{perceptual_distance, psnr, region_weighted_psnr};
use gss_platform::plane_ops::downsample_box;
use gss_render::GameWorkload;
use gss_sr::{InterpKernel, InterpUpscaler, ModelTier, NeuralSr, NeuralSrConfig, Upscaler};

use crate::spans::Spans;
use crate::workload::server_config;

/// The server's low-resolution stream frame and depth buffer: every plane
/// box-downsampled by `scale`, as `GameStreamServer` derives them.
fn downsample(native: &gss_render::RenderOutput, scale: usize) -> (Frame, DepthMap) {
    let [y, cb, cr] = native.frame.planes();
    let lr = Frame::from_planes(
        downsample_box(y, scale),
        downsample_box(cb, scale),
        downsample_box(cr, scale),
    )
    .expect("downsampled planes share one size");
    (
        lr,
        DepthMap::from_plane(downsample_box(native.depth.plane(), scale)),
    )
}

/// Replays `config` under `pipeline` and compares every frame with
/// `expected`, the untraced run of the same config. Returns the failed
/// checks (empty when the replay reproduced the session exactly).
///
/// Frame-path spans (children of the frame span) are, in order: `render`,
/// `platform.downsample`, `roi.detect`, `codec.encode`, then
/// `codec.decode` + `client.upscale` (GameStreamSR) or `nemo.ref` /
/// `nemo.nonref` (NEMO, whose client decodes internally), then
/// `metrics`. After the frame span closes, kernels and the other
/// pipeline's client run as replays on the same inputs: `codec.motion`
/// (inter frames), `sr.patch`, `sr.full` (intra frames), `sr.interp`,
/// and `codec.decode` + `client.upscale` or `nemo.*`.
pub fn replay_session(
    config: &SessionConfig,
    pipeline: Pipeline,
    expected: &SessionReport,
    spans: &mut Spans,
    next_frame: &mut u64,
) -> Vec<String> {
    let _pool = config.pool.bind();
    let server = server_config(config);
    let (lw, lh) = config.lr_size;
    let scale = config.scale;
    let window = (
        server.roi_window.0.next_multiple_of(2),
        server.roi_window.1.next_multiple_of(2),
    );
    let workload = GameWorkload::new(server.game);
    let detector = RoiDetector::new(server.detector);
    let mut encoder = Encoder::new(server.encoder);
    let mut decoder = Decoder::new();
    let client = GameStreamClient::new(scale);
    let mut nemo = NemoClient::new(scale);
    let patch_sr = NeuralSr::new(ModelTier::Edsr64.proxy_config(scale));
    let full_sr = NeuralSr::new(NeuralSrConfig {
        scale,
        ..NeuralSrConfig::default()
    });
    let interp = InterpUpscaler::new(InterpKernel::Bilinear, scale);
    let byte_scale = (FULL_LR.pixels() as f64 / (lw * lh) as f64).powf(0.835);
    let ours = pipeline == Pipeline::GameStreamSr;
    let label = format!("{:?} {}", config.game, pipeline.label());
    let mut failures = Vec::new();
    let mut previous: Option<Frame> = None;

    for i in 0..config.frames {
        let id = *next_frame;
        *next_frame += 1;
        let frame = spans.open("frame", id);
        let p = Some(frame);
        let native = spans.time(
            "render",
            id,
            p,
            false,
            || workload.render_frame(i * server.time_stride, lw * scale, lh * scale),
            |o| o.stats.pixels_shaded as u64,
        );
        let (lr, depth_lr) = spans.time(
            "platform.downsample",
            id,
            p,
            false,
            || downsample(&native, scale),
            |_| (lw * lh) as u64,
        );
        let roi = spans.time(
            "roi.detect",
            id,
            p,
            false,
            || {
                let r = detector.detect(&depth_lr, window).roi;
                Rect::new(r.x & !1, r.y & !1, r.width, r.height)
            },
            |r| (r.width * r.height) as u64,
        );
        let encoded = spans.time(
            "codec.encode",
            id,
            p,
            false,
            || encoder.encode(&lr),
            |e| e.as_ref().map_or(0, |e| e.size_bytes() as u64),
        );
        let encoded = match encoded {
            Ok(e) => e,
            Err(e) => {
                spans.finish(frame);
                failures.push(format!("{label} frame {i}: encode failed: {e}"));
                break;
            }
        };
        let intra = encoded.frame_type == FrameType::Intra;
        let nemo_name = if intra { "nemo.ref" } else { "nemo.nonref" };
        let hr_px = |f: &Frame| f.pixel_count() as u64;
        let (decoded, shown) = if ours {
            let decoded = spans.time(
                "codec.decode",
                id,
                p,
                false,
                || decoder.decode(&encoded),
                |_| 0,
            );
            let Ok(decoded) = decoded else {
                spans.finish(frame);
                failures.push(format!("{label} frame {i}: decode failed"));
                break;
            };
            let out = spans.time(
                "client.upscale",
                id,
                p,
                false,
                || client.upscale(&decoded.frame, roi),
                |o| hr_px(&o.frame),
            );
            (Some(decoded), out.frame)
        } else {
            let out = spans.time(nemo_name, id, p, false, || nemo.process(&encoded), |_| 0);
            let Ok(out) = out else {
                spans.finish(frame);
                failures.push(format!("{label} frame {i}: NEMO client failed"));
                break;
            };
            (None, out.frame)
        };
        let gt = &native.frame;
        let (hw, hh) = gt.size();
        let roi_hr = roi.scaled(scale).aligned_even().clamp_to(hw, hh);
        let quality = spans.time(
            "metrics",
            id,
            p,
            false,
            || {
                Some((
                    psnr(gt, &shown).ok()?,
                    region_weighted_psnr(gt, &shown, roi_hr, 4.0).ok()?,
                    perceptual_distance(gt, &shown).ok()?,
                ))
            },
            |_| 0,
        );
        spans.finish(frame);

        // ---- replays on the same inputs, outside the frame's sum --------
        let decoded = match decoded {
            Some(d) => d,
            None => {
                let d = spans.time(
                    "codec.decode",
                    id,
                    p,
                    true,
                    || decoder.decode(&encoded),
                    |_| 0,
                );
                let Ok(d) = d else {
                    failures.push(format!("{label} frame {i}: decode failed"));
                    break;
                };
                d
            }
        };
        if let (false, Some(reference)) = (intra, &previous) {
            let motion = spans.time(
                "codec.motion",
                id,
                p,
                true,
                || estimate_motion(lr.y(), reference.y(), server.encoder.search_range),
                |m| {
                    let (cols, rows) = m.grid();
                    (cols * rows) as u64
                },
            );
            if let DecodeDetail::Inter { motion: coded, .. } = &decoded.detail {
                if coded.vectors() != motion.vectors() {
                    failures.push(format!("{label} frame {i}: replayed motion search differs"));
                }
            }
        }
        let patch = decoded.frame.crop(roi.clamp_to(lw, lh));
        spans.time("sr.patch", id, p, true, || patch_sr.upscale(&patch), hr_px);
        if intra {
            spans.time(
                "sr.full",
                id,
                p,
                true,
                || full_sr.upscale(&decoded.frame),
                hr_px,
            );
        }
        spans.time(
            "sr.interp",
            id,
            p,
            true,
            || interp.upscale(&decoded.frame),
            hr_px,
        );
        if ours {
            let replayed = spans.time(nemo_name, id, p, true, || nemo.process(&encoded), |_| 0);
            if replayed.is_err() {
                failures.push(format!("{label} frame {i}: NEMO replay failed"));
            }
        } else {
            spans.time(
                "client.upscale",
                id,
                p,
                true,
                || client.upscale(&decoded.frame, roi),
                |o| hr_px(&o.frame),
            );
        }

        // ---- fidelity: the replay must reproduce the untraced session ---
        let Some(want) = expected.frames.get(i) else {
            failures.push(format!("{label} frame {i}: missing from the untraced run"));
            break;
        };
        let bytes = (encoded.size_bytes() as f64 * byte_scale) as usize;
        let same = |a: Option<f64>, b: Option<f64>| a.map(f64::to_bits) == b.map(f64::to_bits);
        let (p_db, f_db, perc) = match quality {
            Some((a, b, c)) => (Some(a), Some(b), Some(c)),
            None => (None, None, None),
        };
        if want.frame_type != encoded.frame_type
            || want.bytes != bytes
            || !same(want.psnr_db, p_db)
            || !same(want.foveated_psnr_db, f_db)
            || !same(want.perceptual, perc)
        {
            failures.push(format!(
                "{label} frame {i}: replay differs from run_session \
                 (bytes {bytes} vs {}, psnr {p_db:?} vs {:?}, foveated {f_db:?} vs {:?})",
                want.bytes, want.psnr_db, want.foveated_psnr_db
            ));
        }
        previous = Some(decoded.frame);
    }
    failures
}
