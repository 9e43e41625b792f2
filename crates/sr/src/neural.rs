use crate::{resize_plane, InterpKernel, Upscaler};
use gss_frame::Plane;

/// Configuration of the neural-quality proxy upscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralSrConfig {
    /// Integer scale factor (paper deployment: 2).
    pub scale: usize,
    /// Back-projection iterations; each enforces consistency with the
    /// low-resolution observation under the box degradation operator.
    pub iterations: usize,
    /// Step size of the back-projection correction.
    pub damping: f32,
    /// Strength of the final detail-restoration (unsharp) pass; `0.0`
    /// disables it.
    pub sharpen: f32,
}

impl Default for NeuralSrConfig {
    fn default() -> Self {
        NeuralSrConfig {
            scale: 2,
            iterations: 2,
            damping: 0.5,
            sharpen: 0.0,
        }
    }
}

/// Quality proxy for a *trained* DNN super-resolution model.
///
/// We cannot ship trained EDSR weights (see `DESIGN.md`), so quality-bearing
/// paths use this classical pipeline instead: bicubic initialization,
/// iterative back-projection (Irani & Peleg) against the box downsampling
/// operator the simulated server applies, and a light unsharp detail pass.
/// Its PSNR consistently dominates bilinear and bicubic interpolation —
/// preserving the quality *ordering* the paper's results rest on — while
/// [`crate::edsr::EdsrConfig`] supplies the model's cost (its MAC count).
///
/// ```
/// use gss_frame::Frame;
/// use gss_sr::{NeuralSr, NeuralSrConfig, Upscaler};
///
/// let sr = NeuralSr::new(NeuralSrConfig::default());
/// let lr = Frame::filled(12, 12, [64.0, 128.0, 128.0]);
/// assert_eq!(sr.upscale(&lr).size(), (24, 24));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralSr {
    config: NeuralSrConfig,
}

impl NeuralSr {
    /// Creates the proxy with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is zero.
    pub fn new(config: NeuralSrConfig) -> Self {
        assert!(config.scale > 0, "scale must be nonzero");
        NeuralSr { config }
    }

    /// The active configuration.
    pub fn config(&self) -> NeuralSrConfig {
        self.config
    }
}

impl Default for NeuralSr {
    fn default() -> Self {
        NeuralSr::new(NeuralSrConfig::default())
    }
}

impl Upscaler for NeuralSr {
    fn name(&self) -> &'static str {
        "edsr-proxy"
    }

    fn scale(&self) -> usize {
        self.config.scale
    }

    fn upscale_plane(&self, plane: &Plane<f32>) -> Plane<f32> {
        let s = self.config.scale;
        let (lw, lh) = plane.size();
        let (hw, hh) = (lw * s, lh * s);

        // 1. bicubic initialization
        let mut estimate = resize_plane(plane, hw, hh, InterpKernel::Bicubic);

        // 2. iterative back-projection against the box degradation operator
        for _ in 0..self.config.iterations {
            let simulated_lr = estimate.downsample_box(s);
            let residual = plane
                .zip_map(&simulated_lr, |obs, sim| obs - sim)
                .expect("downsample restores LR size");
            let residual_hr = resize_plane(&residual, hw, hh, InterpKernel::Bicubic);
            estimate = estimate
                .zip_map(&residual_hr, |e, r| e + self.config.damping * r)
                .expect("sizes match");
        }

        // 3. detail restoration: mild unsharp mask approximating the
        //    high-frequency hallucination of a trained network
        if self.config.sharpen > 0.0 {
            let k = self.config.sharpen;
            let blurred = box3(&estimate);
            estimate = estimate
                .zip_map(&blurred, |e, b| e + k * (e - b))
                .expect("sizes match");
        }
        estimate.clamp_in_place(0.0, 255.0);
        estimate
    }
}

fn box3(p: &Plane<f32>) -> Plane<f32> {
    let (w, h) = p.size();
    let data = gss_platform::pool::build_rows(w, h, 0.0f32, |y, row| {
        for (x, out) in row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    acc += p.get_clamped(x as isize + dx, y as isize + dy);
                }
            }
            *out = acc / 9.0;
        }
    });
    Plane::from_vec(w, h, data).expect("row buffer matches plane size")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InterpUpscaler;
    use gss_frame::Frame;
    use gss_metrics::psnr_planes;

    /// A detailed synthetic scene: edges, texture and smooth shading, the
    /// mix a rendered game frame contains.
    fn scene(w: usize, h: usize) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| {
            let fx = x as f32;
            let fy = y as f32;
            let stripes = if ((fx / 7.0).floor() as i32 + (fy / 5.0).floor() as i32) % 2 == 0 {
                60.0
            } else {
                190.0
            };
            let texture = 25.0 * ((fx * 0.8).sin() * (fy * 0.6).cos());
            let shading = 0.2 * fx + 0.1 * fy;
            (stripes + texture + shading).clamp(0.0, 255.0)
        })
    }

    #[test]
    fn beats_bilinear_and_bicubic_on_downsampled_content() {
        let hr = scene(96, 96);
        let lr = hr.downsample_box(2);
        let neural = NeuralSr::default().upscale_plane(&lr);
        let bilinear = InterpUpscaler::new(InterpKernel::Bilinear, 2).upscale_plane(&lr);
        let bicubic = InterpUpscaler::new(InterpKernel::Bicubic, 2).upscale_plane(&lr);
        let p_n = psnr_planes(&hr, &neural).unwrap();
        let p_bl = psnr_planes(&hr, &bilinear).unwrap();
        let p_bc = psnr_planes(&hr, &bicubic).unwrap();
        assert!(p_n > p_bc, "neural {p_n:.2} <= bicubic {p_bc:.2}");
        assert!(p_bc > p_bl, "bicubic {p_bc:.2} <= bilinear {p_bl:.2}");
        assert!(
            p_n - p_bl > 0.8,
            "gain over bilinear only {:.2} dB",
            p_n - p_bl
        );
    }

    #[test]
    fn back_projection_improves_lr_consistency() {
        let hr = scene(64, 64);
        let lr = hr.downsample_box(2);
        let no_ibp = NeuralSr::new(NeuralSrConfig {
            iterations: 0,
            sharpen: 0.0,
            ..NeuralSrConfig::default()
        });
        let with_ibp = NeuralSr::new(NeuralSrConfig {
            iterations: 6,
            damping: 0.9,
            sharpen: 0.0,
            ..NeuralSrConfig::default()
        });
        let consistency = |up: &Plane<f32>| {
            let sim = up.downsample_box(2);
            lr.zip_map(&sim, |a, b| (a - b).abs()).unwrap().mean()
        };
        let e0 = consistency(&no_ibp.upscale_plane(&lr));
        let e1 = consistency(&with_ibp.upscale_plane(&lr));
        assert!(e1 < e0 * 0.2, "IBP residual {e1} vs init {e0}");
    }

    #[test]
    fn output_stays_in_valid_range() {
        let lr = Plane::from_fn(16, 16, |x, y| if (x + y) % 2 == 0 { 0.0 } else { 255.0 });
        let up = NeuralSr::default().upscale_plane(&lr);
        let (lo, hi) = up.min_max();
        assert!(lo >= 0.0 && hi <= 255.0);
    }

    #[test]
    fn constant_input_remains_constant() {
        let lr = Plane::filled(12, 12, 99.0f32);
        let up = NeuralSr::default().upscale_plane(&lr);
        for &v in up.iter() {
            assert!((v - 99.0).abs() < 0.5, "{v}");
        }
    }

    #[test]
    fn frame_upscale_size() {
        let f = Frame::new(10, 8);
        assert_eq!(NeuralSr::default().upscale(&f).size(), (20, 16));
    }

    #[test]
    fn scale_three_works() {
        let cfg = NeuralSrConfig {
            scale: 3,
            ..NeuralSrConfig::default()
        };
        let hr = scene(90, 90);
        let lr = hr.downsample_box(3);
        let up = NeuralSr::new(cfg).upscale_plane(&lr);
        assert_eq!(up.size(), (90, 90));
        let p = psnr_planes(&hr, &up).unwrap();
        let p_bl = psnr_planes(
            &hr,
            &InterpUpscaler::new(InterpKernel::Bilinear, 3).upscale_plane(&lr),
        )
        .unwrap();
        assert!(p > p_bl);
    }
}
