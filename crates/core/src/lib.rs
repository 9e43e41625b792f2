//! **GameStreamSR** — depth-guided RoI detection and RoI-assisted
//! super-resolution for real-time game streaming on mobile platforms.
//!
//! A full reproduction of the ISCA 2024 paper's system on top of the
//! workspace's simulated substrates (renderer, codec, platform and network
//! models — see `DESIGN.md` for the substitutions):
//!
//! * [`roi`] — the server-side RoI machinery: foveal/compute window sizing
//!   (§IV-B1), depth-map preprocessing (foreground extraction → Gaussian
//!   spatial weighting → depth layering → layer selection, Fig. 8) and the
//!   two-phase coarse/fine window search (Algorithm 1).
//! * [`server`] — the streaming server: renders a game frame, captures the
//!   depth buffer, detects the RoI, encodes the low-resolution frame and
//!   ships packet + RoI coordinates.
//! * [`client`] — the mobile client: hardware decode, then *parallel*
//!   DNN-SR of the RoI on the NPU and bilinear upscaling of the remaining
//!   region on the GPU, merged into the high-resolution framebuffer
//!   (Fig. 9).
//! * [`nemo`] — the NEMO baseline (SOTA): full-frame DNN SR on reference
//!   frames, reconstruction of non-reference frames from upscaled motion
//!   vectors + residuals, software decode.
//! * [`session`] — the end-to-end session simulator producing every number
//!   in the paper's evaluation: per-frame upscaling latency, MTP breakdown,
//!   energy breakdown, PSNR and perceptual-quality series.
//! * [`decoder_ext`] — the paper's §VI future-work prototype: an
//!   SR-integrated decoder with RoI-guided residual interpolation and a
//!   reference-frame bypass dispatcher.
//!
//! # Quickstart
//!
//! ```
//! use gamestreamsr::roi::{RoiDetector, RoiDetectorConfig};
//! use gss_frame::DepthMap;
//!
//! // a depth map with a near object right of center
//! let depth = DepthMap::from_fn(320, 180, |x, y| {
//!     let dx = x as f32 - 200.0;
//!     let dy = y as f32 - 90.0;
//!     if (dx * dx + dy * dy).sqrt() < 40.0 { 0.1 } else { 0.8 }
//! });
//! let detector = RoiDetector::new(RoiDetectorConfig::default());
//! let result = detector.detect(&depth, (80, 80));
//! let (cx, _) = result.roi.center();
//! assert!(cx > 140, "RoI should land on the near object, got {:?}", result.roi);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod decoder_ext;
pub mod degrade;
mod error;
pub mod fleet;
pub mod mtp;
pub mod negotiate;
pub mod nemo;
pub mod recovery;
pub mod roi;
pub mod server;
pub mod session;
mod step;

pub use client::{ClientOutput, GameStreamClient};
pub use degrade::{DegradationController, LadderRung, LadderStep, NackManager, NackSignal, LADDER};
pub use error::GssError;
pub use fleet::{
    run_fleet, AdmissionPolicy, AdmissionSummary, FleetConfig, FleetReport, FleetSessionReport,
    FleetSessionSpec, FleetSim,
};
pub use mtp::MtpBreakdown;
pub use negotiate::{negotiate, NegotiatedStream, StreamOffer};
pub use nemo::{NemoClient, NemoOutput};
pub use recovery::{RecoveryEvent, RecoveryMachine, RecoveryState, RecoverySummary};
pub use roi::{RoiDetector, RoiDetectorConfig, RoiResult, RoiWindowPlan};
pub use server::{GameStreamServer, ServerConfig, ServerPacket};
pub use session::{
    run_comparison, ComparisonReport, FrameRecord, Pipeline, SessionConfig, SessionReport,
};
