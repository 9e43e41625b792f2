//! Super-resolution upscalers for the GameStreamSR reproduction.
//!
//! Two families of upscalers, mirroring the systems in the paper, and the
//! layer shapes of the SR models the paper runs:
//!
//! * **Interpolation** ([`InterpKernel`], [`InterpUpscaler`],
//!   [`resize_plane`]) — nearest, bilinear, bicubic (Keys a = −0.5) and
//!   Lanczos-3 resamplers. Bilinear is what the paper runs on the mobile GPU
//!   (`GL_LINEAR`) for the non-RoI region and what NEMO applies to motion
//!   vectors and residuals; bicubic/lanczos appear in the paper's future-work
//!   decoder extension (§VI).
//! * **SR model shapes** ([`edsr::EdsrConfig`], [`fsrcnn::FsrcnnConfig`],
//!   [`ModelTier`]) — the layer shapes of the EDSR-16/64 network the paper
//!   deploys and of the lighter FSRCNN (the paper's design is
//!   model-agnostic: the client benchmarks "the SR model of the user's
//!   choice"), and the multiply-accumulate counts they imply. The platform
//!   model scales NPU latency by those counts ([`ModelTier::cost_ratio`]).
//!   No network runs here, which is why quality measurements use the proxy
//!   below. See `DESIGN.md` § substitutions.
//! * **Neural-quality proxy** ([`NeuralSr`]) — bicubic initialization
//!   followed by iterative back-projection against the degradation operator,
//!   plus a light detail-restoration pass. A classical SR algorithm that
//!   consistently out-performs bilinear/bicubic in PSNR, preserving the
//!   paper's quality ordering (DNN > bicubic > bilinear).
//!
//! ```
//! use gss_frame::Frame;
//! use gss_sr::{InterpKernel, InterpUpscaler, Upscaler};
//!
//! let lr = Frame::filled(16, 9, [120.0, 128.0, 128.0]);
//! let up = InterpUpscaler::new(InterpKernel::Bilinear, 2);
//! let hr = up.upscale(&lr);
//! assert_eq!(hr.size(), (32, 18));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edsr;
pub mod fsrcnn;
mod interp;
mod neural;
mod tier;

pub use interp::{resize_frame, resize_plane, InterpKernel, InterpUpscaler};
pub use neural::{NeuralSr, NeuralSrConfig};
pub use tier::ModelTier;

use gss_frame::{Frame, Plane};

/// A frame upscaler with a fixed integer scale factor.
///
/// Implementations treat the three YCbCr planes independently.
pub trait Upscaler {
    /// Human-readable method name for reports ("bilinear", "edsr-proxy", …).
    fn name(&self) -> &'static str;

    /// Integer scale factor (2 in the paper's deployment).
    fn scale(&self) -> usize;

    /// Upscales a single plane by [`Upscaler::scale`].
    fn upscale_plane(&self, plane: &Plane<f32>) -> Plane<f32>;

    /// Upscales all three planes of a frame.
    fn upscale(&self, frame: &Frame) -> Frame {
        frame.map_planes(|p| self.upscale_plane(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_are_usable() {
        let ups: Vec<Box<dyn Upscaler>> = vec![
            Box::new(InterpUpscaler::new(InterpKernel::Nearest, 2)),
            Box::new(InterpUpscaler::new(InterpKernel::Bilinear, 2)),
            Box::new(NeuralSr::new(NeuralSrConfig::default())),
        ];
        let f = Frame::filled(16, 16, [42.0, 128.0, 128.0]);
        for u in &ups {
            let hr = u.upscale(&f);
            assert_eq!(hr.size(), (32, 32), "{}", u.name());
        }
    }
}
