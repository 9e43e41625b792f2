//! Quality metrics for the GameStreamSR reproduction.
//!
//! The paper reports PSNR and LPIPS; this crate computes both, plus SSIM as
//! a cross-check, all full-reference:
//!
//! * [`psnr`] — peak signal-to-noise ratio over the luma plane (the paper's
//!   objective metric, Fig. 13/14a). Values ≥ 30 dB are conventionally
//!   acceptable for video frames. [`region_weighted_psnr`] weights the
//!   error inside the RoI more heavily.
//! * [`ssim`] — block structural similarity, checked against PSNR and the
//!   perceptual distance on gross quality differences.
//! * [`perceptual_distance`] — a deterministic stand-in for LPIPS
//!   (Fig. 14b): multi-scale gradient/structure dissimilarity in `[0, 1]`,
//!   lower is better. The substitution is documented in `DESIGN.md`; like
//!   LPIPS it is far more sensitive to the blur introduced by repeated
//!   bilinear interpolation than PSNR is.
//!
//! ```
//! use gss_frame::Frame;
//! use gss_metrics::psnr;
//!
//! let a = Frame::filled(16, 16, [100.0, 128.0, 128.0]);
//! let b = Frame::filled(16, 16, [102.0, 128.0, 128.0]);
//! let db = psnr(&a, &b).unwrap();
//! assert!(db > 40.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod foveated;
mod perceptual;
mod psnr;
mod ssim;

pub use error::MetricError;
pub use foveated::region_weighted_psnr;
pub use perceptual::{perceptual_distance, perceptual_distance_planes, PerceptualConfig};
pub use psnr::{mse, psnr, psnr_planes};
pub use ssim::{ssim, ssim_planes};
