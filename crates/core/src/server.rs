//! The GameStreamSR streaming server (paper Fig. 6, phase 1).
//!
//! Per frame: advance the game (scripted camera), render color + depth at
//! native high resolution, derive the low-resolution stream frame, run
//! depth-guided RoI detection on the low-resolution depth buffer, encode,
//! and emit the packet together with the RoI coordinates. The native render
//! is kept alongside as evaluation ground truth.

use crate::roi::{RoiDetector, RoiDetectorConfig, RoiTracker, TrackerConfig};
use crate::GssError;
use gss_codec::{
    EncodedFrame, Encoder, EncoderConfig, FrameType, RateControlConfig, RateController,
};
use gss_frame::{DepthMap, Frame, Rect};
use gss_platform::plane_ops;
use gss_render::{GameId, GameWorkload};

/// Server-side configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The game workload to stream.
    pub game: GameId,
    /// Low-resolution (streamed) frame size; the native render is
    /// `scale`-times larger.
    pub lr_size: (usize, usize),
    /// Upscale factor of the deployment (2 in the paper).
    pub scale: usize,
    /// Codec settings (GOP length, quality).
    pub encoder: EncoderConfig,
    /// RoI detector settings.
    pub detector: RoiDetectorConfig,
    /// RoI window in low-resolution pixels, conveyed by the client at
    /// session start (step-0).
    pub roi_window: (usize, usize),
    /// Camera-script frames advanced per streamed frame. On a reduced
    /// evaluation canvas, pixel-space motion shrinks with the canvas; a
    /// stride of `deployment_width / canvas_width` restores deployment
    /// pixel velocity so codec/NEMO drift dynamics match the full scale.
    pub time_stride: usize,
    /// Optional temporal RoI stabilization (an extension beyond the paper;
    /// see [`crate::roi::RoiTracker`]). `None` ships raw detections.
    pub tracker: Option<TrackerConfig>,
    /// Optional closed-loop bitrate control steering the quantizers toward
    /// a byte budget (see [`gss_codec::RateController`]). `None` keeps the
    /// fixed quantizers of [`ServerConfig::encoder`].
    pub rate_control: Option<RateControlConfig>,
}

impl ServerConfig {
    /// A configuration for `game` on a reduced evaluation canvas with the
    /// default codec and detector.
    pub fn new(game: GameId, lr_size: (usize, usize), roi_window: (usize, usize)) -> Self {
        ServerConfig {
            game,
            lr_size,
            scale: 2,
            encoder: EncoderConfig::default(),
            detector: RoiDetectorConfig::default(),
            roi_window,
            time_stride: 1,
            tracker: None,
            rate_control: None,
        }
    }
}

/// Rounds a requested RoI window up to even extents. The codec halves RoI
/// coordinates on the 4:2:0 chroma grid, so an odd window side would shear
/// chroma against luma at the patch edge. The low-resolution frame is
/// asserted even-sized, so for any window that fits, rounding up still
/// fits.
const fn even_window(window: (usize, usize)) -> (usize, usize) {
    (window.0.next_multiple_of(2), window.1.next_multiple_of(2))
}

/// Row-parallel [`gss_platform::plane_ops::downsample_box`] over a frame's
/// three planes — bit-identical to the serial `Frame::downsample_box` at
/// any worker count.
fn downsample_frame(frame: &Frame, factor: usize) -> Frame {
    let [y, cb, cr] = frame.planes();
    Frame::from_planes(
        plane_ops::downsample_box(y, factor),
        plane_ops::downsample_box(cb, factor),
        plane_ops::downsample_box(cr, factor),
    )
    .expect("downsampled planes share one size")
}

/// One streamed frame: the coded payload, the RoI coordinates, and the
/// evaluation ground truth.
#[derive(Debug, Clone)]
pub struct ServerPacket {
    /// The coded low-resolution frame.
    pub encoded: EncodedFrame,
    /// Detected RoI in low-resolution coordinates.
    pub roi: Rect,
    /// Intra (reference) or inter (non-reference).
    pub frame_type: FrameType,
    /// Frame index in the session.
    pub index: usize,
    /// The native high-resolution render — evaluation ground truth, never
    /// transmitted.
    pub ground_truth_hr: Frame,
    /// The low-resolution depth buffer the RoI was detected on.
    pub depth_lr: DepthMap,
}

/// The streaming server.
///
/// ```
/// use gamestreamsr::{GameStreamServer, ServerConfig};
/// use gss_render::GameId;
///
/// let mut server = GameStreamServer::new(ServerConfig::new(GameId::G3, (128, 72), (40, 40)));
/// let packet = server.next_frame().unwrap();
/// assert_eq!(packet.ground_truth_hr.size(), (256, 144));
/// assert_eq!(packet.roi.width, 40);
/// ```
#[derive(Debug)]
pub struct GameStreamServer {
    config: ServerConfig,
    workload: GameWorkload,
    encoder: Encoder,
    detector: RoiDetector,
    tracker: Option<RoiTracker>,
    rate_controller: Option<RateController>,
    frame_index: usize,
}

impl GameStreamServer {
    /// Builds the server for a configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero scale, an empty frame, an odd low-resolution
    /// dimension (codec 4:2:0 needs even sizes) or an RoI window that
    /// does not fit the low-resolution frame.
    pub fn new(config: ServerConfig) -> Self {
        assert!(config.scale > 0, "scale must be nonzero");
        let (w, h) = config.lr_size;
        assert!(
            w > 0 && h > 0 && w % 2 == 0 && h % 2 == 0,
            "lr size must be even"
        );
        assert!(
            config.roi_window.0 <= w && config.roi_window.1 <= h,
            "roi window must fit the lr frame"
        );
        let config = ServerConfig {
            roi_window: even_window(config.roi_window),
            ..config
        };
        GameStreamServer {
            workload: GameWorkload::new(config.game),
            encoder: Encoder::new(config.encoder),
            detector: RoiDetector::new(config.detector),
            tracker: config.tracker.map(RoiTracker::new),
            rate_controller: config
                .rate_control
                .map(|rc| RateController::new(rc, &config.encoder)),
            config,
            frame_index: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The stream the server proposes at session start — the input to
    /// [`crate::negotiate::negotiate`]. Decode pixels are quoted at
    /// deployment scale (the canvas is an evaluation artifact) and the
    /// server always offers its strongest codec profile.
    pub fn offer(&self) -> crate::negotiate::StreamOffer {
        crate::negotiate::StreamOffer {
            lr_size: self.config.lr_size,
            scale_factor: self.config.scale,
            decode_pixels: crate::mtp::FULL_LR.pixels(),
            codec_profile: gss_platform::CodecProfile::High,
        }
    }

    /// `true` when the next frame will be a keyframe.
    pub fn next_is_keyframe(&self) -> bool {
        self.encoder.next_is_keyframe()
    }

    /// Forces the next frame to be coded intra — the server's reaction to
    /// a client NACK after packet loss (fast keyframe recovery, §II-B).
    pub fn request_keyframe(&mut self) {
        self.encoder.request_keyframe();
    }

    /// Renegotiates the RoI window mid-session — the client's degradation
    /// controller shrinks it when the NPU budget no longer fits and grows
    /// it back on recovery. Takes effect from the next frame.
    ///
    /// # Panics
    ///
    /// Panics when the window does not fit the low-resolution frame.
    pub fn set_roi_window(&mut self, window: (usize, usize)) {
        let (w, h) = self.config.lr_size;
        assert!(
            window.0 <= w && window.1 <= h,
            "roi window must fit the lr frame"
        );
        self.config.roi_window = even_window(window);
    }

    /// Rescales the rate controller's byte budget (see
    /// [`gss_codec::RateController::set_target_scale`]); a no-op without
    /// rate control.
    pub fn set_rate_target_scale(&mut self, scale: f64) {
        if let Some(rc) = &mut self.rate_controller {
            rc.set_target_scale(scale);
        }
    }

    /// The rate controller's `(intra quality, residual step)` for the next
    /// frame; `None` without rate control.
    pub(crate) fn rate_quantizers(&self) -> Option<(u8, u16)> {
        self.rate_controller
            .as_ref()
            .map(RateController::quantizers)
    }

    /// Renders, detects, encodes and returns the next frame of the
    /// session.
    ///
    /// # Errors
    ///
    /// Propagates codec errors.
    pub fn next_frame(&mut self) -> Result<ServerPacket, GssError> {
        let index = self.frame_index;
        self.frame_index += 1;
        let (lw, lh) = self.config.lr_size;
        let scale = self.config.scale;

        // native render (ground truth) + depth buffer
        let native = self.workload.render_frame(
            index * self.config.time_stride.max(1),
            lw * scale,
            lh * scale,
        );
        // the streamed low-resolution frame and its depth
        let lr = downsample_frame(&native.frame, scale);
        let depth_lr = DepthMap::from_plane(plane_ops::downsample_box(native.depth.plane(), scale));

        let detected = self.detector.detect(&depth_lr, self.config.roi_window).roi;
        let roi = match &mut self.tracker {
            Some(tracker) => tracker.track(detected, (lw, lh)),
            None => detected,
        };
        // The negotiated window extent is even (see `even_window`), but the
        // detector/tracker can still centre it on an odd origin. The codec
        // halves RoI coordinates on the 4:2:0 chroma grid, so an odd origin
        // would shear chroma against luma when the patch is cropped and
        // merged — snap the origin down to even luma coordinates, which
        // keeps the rect inside the frame and preserves its extent.
        let roi = Rect::new(roi.x & !1, roi.y & !1, roi.width, roi.height);
        let encoded = self.encoder.encode(&lr)?;
        let frame_type = encoded.frame_type;
        if let Some(rc) = &mut self.rate_controller {
            rc.observe(encoded.size_bytes(), frame_type == FrameType::Intra);
            let (quality, residual_step) = rc.quantizers();
            self.encoder.set_quantizers(quality, residual_step);
        }
        Ok(ServerPacket {
            encoded,
            roi,
            frame_type,
            index,
            ground_truth_hr: native.frame,
            depth_lr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_follow_gop_structure() {
        let mut cfg = ServerConfig::new(GameId::G1, (96, 54), (32, 32));
        cfg.encoder.gop_size = 3;
        let mut server = GameStreamServer::new(cfg);
        let types: Vec<FrameType> = (0..6)
            .map(|_| server.next_frame().unwrap().frame_type)
            .collect();
        use FrameType::*;
        assert_eq!(types, vec![Intra, Inter, Inter, Intra, Inter, Inter]);
    }

    #[test]
    fn roi_stays_inside_lr_frame() {
        let mut server = GameStreamServer::new(ServerConfig::new(GameId::G5, (128, 72), (48, 48)));
        for _ in 0..5 {
            let p = server.next_frame().unwrap();
            assert!(p.roi.right() <= 128 && p.roi.bottom() <= 72);
            assert_eq!(p.roi.width, 48);
        }
    }

    #[test]
    fn roi_lands_on_near_content() {
        // per game, the detected RoI must not be farther than the frame
        // at large (small tolerance: some scenes are uniformly near), and
        // across the suite it must be clearly nearer on average
        let mut roi_sum = 0.0;
        let mut frame_sum = 0.0;
        for game in GameId::ALL {
            let mut server = GameStreamServer::new(ServerConfig::new(game, (128, 72), (48, 40)));
            let p = server.next_frame().unwrap();
            let roi_depth = p.depth_lr.mean_in(p.roi);
            let frame_depth = p.depth_lr.plane().mean();
            assert!(
                roi_depth < frame_depth * 1.3 + 0.02,
                "{game}: roi depth {roi_depth:.3} vs frame {frame_depth:.3}"
            );
            roi_sum += roi_depth;
            frame_sum += frame_depth;
        }
        assert!(
            roi_sum < frame_sum * 0.8,
            "suite-wide: roi {roi_sum:.3} vs frame {frame_sum:.3}"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mk = || GameStreamServer::new(ServerConfig::new(GameId::G3, (96, 54), (32, 32)));
        let mut a = mk();
        let mut b = mk();
        for _ in 0..3 {
            let pa = a.next_frame().unwrap();
            let pb = b.next_frame().unwrap();
            assert_eq!(pa.roi, pb.roi);
            assert_eq!(pa.encoded.payload, pb.encoded.payload);
        }
    }

    #[test]
    fn tracker_damps_roi_jitter() {
        let game = GameId::G10; // fastest camera, most detection churn
        let measure = |tracker: Option<TrackerConfig>| {
            let mut cfg = ServerConfig::new(game, (128, 72), (48, 40));
            cfg.tracker = tracker;
            cfg.time_stride = 10;
            let mut server = GameStreamServer::new(cfg);
            let mut centers = Vec::new();
            for _ in 0..8 {
                let p = server.next_frame().unwrap();
                let (cx, cy) = p.roi.center();
                centers.push((cx as f64, cy as f64));
            }
            centers
                .windows(2)
                .map(|w| ((w[1].0 - w[0].0).powi(2) + (w[1].1 - w[0].1).powi(2)).sqrt())
                .sum::<f64>()
        };
        let raw = measure(None);
        let tracked = measure(Some(TrackerConfig::default()));
        assert!(
            tracked <= raw + 1e-9,
            "tracked path length {tracked:.1} vs raw {raw:.1}"
        );
    }

    #[test]
    fn rate_control_reins_in_the_bitrate() {
        let measure = |rc: Option<RateControlConfig>| {
            let mut cfg = ServerConfig::new(GameId::G5, (128, 72), (48, 40));
            cfg.time_stride = 10; // heavy motion: the adversarial case
            cfg.rate_control = rc;
            let mut server = GameStreamServer::new(cfg);
            let mut bytes = 0usize;
            for _ in 0..10 {
                bytes += server.next_frame().unwrap().encoded.size_bytes();
            }
            bytes
        };
        let free = measure(None);
        let governed = measure(Some(RateControlConfig {
            target_bytes_per_frame: 600,
            ..RateControlConfig::for_bitrate_mbps(1.0)
        }));
        assert!(
            governed < free * 3 / 4,
            "governed {governed} vs free {free}"
        );
    }

    #[test]
    fn roi_window_renegotiation_applies_next_frame() {
        let mut server = GameStreamServer::new(ServerConfig::new(GameId::G3, (128, 72), (48, 48)));
        assert_eq!(server.next_frame().unwrap().roi.width, 48);
        server.set_roi_window((24, 24));
        let p = server.next_frame().unwrap();
        assert_eq!((p.roi.width, p.roi.height), (24, 24));
        server.set_roi_window((48, 48));
        assert_eq!(server.next_frame().unwrap().roi.width, 48);
    }

    #[test]
    fn odd_ladder_windows_ship_even_roi_coordinates() {
        // DegradationController rung scaling truncates `(side * lr) /
        // full_lr`, so every rung can request an odd window side. The
        // shipped RoI must still sit on even luma coordinates (and even
        // extents) or the 4:2:0 chroma crop shears against luma.
        use crate::degrade::LADDER;
        use gss_platform::DeviceProfile;
        let device = DeviceProfile::s8_tab();
        let mut server = GameStreamServer::new(ServerConfig::new(GameId::G2, (128, 72), (48, 48)));
        for (i, rung) in LADDER.iter().enumerate() {
            // an odd base side makes the rung scaling land on odd values
            let side = rung.roi_side(&device, 47).clamp(9, 71) | 1;
            assert_eq!(
                side % 2,
                1,
                "rung {i} side {side} must be odd for this test"
            );
            server.set_roi_window((side, side));
            let p = server.next_frame().unwrap();
            assert_eq!(p.roi.x % 2, 0, "rung {i}: odd x {}", p.roi);
            assert_eq!(p.roi.y % 2, 0, "rung {i}: odd y {}", p.roi);
            assert_eq!(p.roi.width % 2, 0, "rung {i}: odd width {}", p.roi);
            assert_eq!(p.roi.height % 2, 0, "rung {i}: odd height {}", p.roi);
            // the even window covers the requested one and still fits
            assert!(p.roi.width >= side && p.roi.height >= side, "{}", p.roi);
            assert!(p.roi.right() <= 128 && p.roi.bottom() <= 72, "{}", p.roi);
        }
    }

    #[test]
    #[should_panic(expected = "fit")]
    fn oversized_roi_window_renegotiation_rejected() {
        let mut server = GameStreamServer::new(ServerConfig::new(GameId::G3, (96, 54), (32, 32)));
        server.set_roi_window((200, 32));
    }

    #[test]
    fn rate_target_rescale_tightens_the_stream() {
        let measure = |scale: f64| {
            let mut cfg = ServerConfig::new(GameId::G5, (128, 72), (48, 40));
            cfg.time_stride = 10;
            cfg.rate_control = Some(RateControlConfig {
                target_bytes_per_frame: 4000,
                ..RateControlConfig::for_bitrate_mbps(1.0)
            });
            let mut server = GameStreamServer::new(cfg);
            server.set_rate_target_scale(scale);
            let mut bytes = 0usize;
            for _ in 0..12 {
                bytes += server.next_frame().unwrap().encoded.size_bytes();
            }
            bytes
        };
        let full = measure(1.0);
        let cut = measure(0.25);
        assert!(cut < full, "cut {cut} vs full {full}");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_lr_size_rejected() {
        GameStreamServer::new(ServerConfig::new(GameId::G1, (97, 54), (32, 32)));
    }
}
