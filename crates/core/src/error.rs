use std::fmt;

/// Top-level error of the GameStreamSR pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum GssError {
    /// Codec failure (encode/decode).
    Codec(gss_codec::CodecError),
    /// Frame/plane geometry failure.
    Frame(gss_frame::FrameError),
    /// Quality-metric failure.
    Metric(gss_metrics::MetricError),
    /// The requested RoI window does not fit inside the frame.
    WindowTooLarge {
        /// Requested window `(width, height)`.
        window: (usize, usize),
        /// Frame size `(width, height)`.
        frame: (usize, usize),
    },
    /// A configuration the simulator cannot run, such as a zero GOP, an
    /// odd canvas or a NaN rate.
    InvalidConfig {
        /// The offending field, e.g. `"gop_size"`.
        field: &'static str,
        /// What the field must satisfy.
        reason: &'static str,
    },
}

impl fmt::Display for GssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GssError::Codec(e) => write!(f, "codec error: {e}"),
            GssError::Frame(e) => write!(f, "frame error: {e}"),
            GssError::Metric(e) => write!(f, "metric error: {e}"),
            GssError::WindowTooLarge { window, frame } => write!(
                f,
                "roi window {}x{} exceeds frame {}x{}",
                window.0, window.1, frame.0, frame.1
            ),
            GssError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field} {reason}")
            }
        }
    }
}

impl std::error::Error for GssError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GssError::Codec(e) => Some(e),
            GssError::Frame(e) => Some(e),
            GssError::Metric(e) => Some(e),
            GssError::WindowTooLarge { .. } | GssError::InvalidConfig { .. } => None,
        }
    }
}

impl From<gss_codec::CodecError> for GssError {
    fn from(e: gss_codec::CodecError) -> Self {
        GssError::Codec(e)
    }
}

impl From<gss_frame::FrameError> for GssError {
    fn from(e: gss_frame::FrameError) -> Self {
        GssError::Frame(e)
    }
}

impl From<gss_metrics::MetricError> for GssError {
    fn from(e: gss_metrics::MetricError) -> Self {
        GssError::Metric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_work() {
        let e = GssError::from(gss_codec::CodecError::MissingReference);
        assert!(e.to_string().contains("codec"));
        assert!(std::error::Error::source(&e).is_some());
        let w = GssError::WindowTooLarge {
            window: (500, 500),
            frame: (320, 180),
        };
        assert!(w.to_string().contains("500x500"));
        assert!(std::error::Error::source(&w).is_none());
        let c = GssError::InvalidConfig {
            field: "gop_size",
            reason: "must be nonzero",
        };
        assert_eq!(c.to_string(), "invalid config: gop_size must be nonzero");
        assert!(std::error::Error::source(&c).is_none());
    }
}
