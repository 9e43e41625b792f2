use crate::MetricError;
use gss_frame::{Frame, Plane};

/// Mean squared error between two same-sized planes.
///
/// The squared error is accumulated per row and the row partials are
/// folded in row order — a fixed association that depends only on the
/// plane size, so the rows can be computed by [`gss_platform::pool`]
/// workers while the result stays bit-identical at any worker count.
///
/// # Errors
///
/// Returns [`MetricError::SizeMismatch`] when the planes differ in size.
pub fn mse(reference: &Plane<f32>, distorted: &Plane<f32>) -> Result<f64, MetricError> {
    if reference.size() != distorted.size() {
        return Err(MetricError::SizeMismatch {
            reference: reference.size(),
            distorted: distorted.size(),
        });
    }
    let (w, h) = reference.size();
    if w == 0 || h == 0 {
        return Ok(0.0);
    }
    let row_partials = gss_platform::pool::map_indexed(h, |y| {
        let mut acc = 0.0f64;
        for (&a, &b) in reference.row(y).iter().zip(distorted.row(y)) {
            let d = (a - b) as f64;
            acc += d * d;
        }
        acc
    });
    Ok(row_partials.iter().sum::<f64>() / (w * h) as f64)
}

/// PSNR in decibels between two planes (8-bit peak, 255).
///
/// Identical planes yield `f64::INFINITY`.
///
/// # Errors
///
/// Returns [`MetricError::SizeMismatch`] when the planes differ in size.
pub fn psnr_planes(reference: &Plane<f32>, distorted: &Plane<f32>) -> Result<f64, MetricError> {
    let m = mse(reference, distorted)?;
    if m <= 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(10.0 * ((255.0f64 * 255.0) / m).log10())
}

/// Luma-plane PSNR between two frames, the paper's objective quality metric.
///
/// # Errors
///
/// Returns [`MetricError::SizeMismatch`] when the frames differ in size.
///
/// ```
/// # use gss_frame::Frame;
/// # use gss_metrics::psnr;
/// # fn main() -> Result<(), gss_metrics::MetricError> {
/// let reference = Frame::filled(8, 8, [50.0, 128.0, 128.0]);
/// assert!(psnr(&reference, &reference)?.is_infinite());
/// # Ok(())
/// # }
/// ```
pub fn psnr(reference: &Frame, distorted: &Frame) -> Result<f64, MetricError> {
    psnr_planes(reference.y(), distorted.y())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_frames_are_infinite() {
        let f = Frame::filled(8, 8, [77.0, 128.0, 128.0]);
        assert!(psnr(&f, &f).unwrap().is_infinite());
    }

    #[test]
    fn known_mse_gives_known_psnr() {
        // constant error of 1 → MSE 1 → PSNR = 20*log10(255) ≈ 48.13 dB
        let a = Frame::filled(16, 16, [100.0, 128.0, 128.0]);
        let b = Frame::filled(16, 16, [101.0, 128.0, 128.0]);
        let p = psnr(&a, &b).unwrap();
        assert!((p - 48.1308).abs() < 1e-3, "psnr = {p}");
    }

    #[test]
    fn psnr_decreases_with_error() {
        let a = Frame::filled(8, 8, [100.0, 128.0, 128.0]);
        let b = Frame::filled(8, 8, [105.0, 128.0, 128.0]);
        let c = Frame::filled(8, 8, [120.0, 128.0, 128.0]);
        assert!(psnr(&a, &b).unwrap() > psnr(&a, &c).unwrap());
    }

    #[test]
    fn mismatched_sizes_error() {
        let a = Frame::new(4, 4);
        let b = Frame::new(5, 4);
        assert!(matches!(
            psnr(&a, &b),
            Err(MetricError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn psnr_is_symmetric() {
        let a = Frame::filled(8, 8, [90.0, 128.0, 128.0]);
        let b = Frame::filled(8, 8, [110.0, 140.0, 120.0]);
        assert_eq!(psnr(&a, &b).unwrap(), psnr(&b, &a).unwrap());
    }
}
