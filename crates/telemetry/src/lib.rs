//! Frame-scoped telemetry for the GameStreamSR reproduction.
//!
//! The simulated streaming pipeline (render → encode → link → decode →
//! NPU/GPU upscale → display) previously reported only end-of-run
//! aggregates. This crate adds an observability layer that works at frame
//! granularity while staying deterministic and allocation-free on the hot
//! path:
//!
//! - [`Recorder`] — one per session; records stage spans keyed by
//!   [`Stage`], counters ([`Counter`]), gauges ([`Gauge`]), per-frame
//!   motion-to-photon latency, wire bytes, and deadline misses against a
//!   configurable budget. All aggregate state lives in fixed-size arrays.
//! - [`Histogram`] — fixed geometric buckets with per-bucket count *and*
//!   sum, so percentile queries return bucket means (exact for a bucket of
//!   identical samples, and therefore exact for a single sample).
//! - [`Sink`] implementations — [`MemorySink`] (tests), [`JsonlSink`]
//!   (one JSON object per line) — shared via [`SinkHandle`]. With no sink
//!   attached (every session without telemetry), recording is pure array
//!   arithmetic.
//! - [`TelemetrySummary`] — the durable per-session aggregate, rendered as
//!   a human-readable table or deterministic JSON.
//!
//! All recorded times are *modeled* milliseconds from the platform timing
//! models, not wall-clock measurements, so identical seeded sessions
//! produce byte-identical summaries — a property the workspace tests
//! assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
mod hist;
pub mod json;
pub mod prom;
mod recorder;
pub mod sampling;
mod sink;
pub mod slo;
mod summary;
pub mod timeseries;
pub mod trace;

pub use attribution::{
    Attributor, BlameEntry, FrameFacts, MissCause, MissRecord, SessionAttribution,
};
pub use hist::{DistSummary, Exemplar, Histogram, BUCKETS};
pub use recorder::{FrameSpans, Recorder};
pub use sampling::{
    compute_exemplars, enforce_fleet_cap, KeepReason, SamplingPolicy, SamplingStats,
    SamplingSummary, SamplingTraceSink, SessionExemplars, TraceBudget,
};
pub use sink::{Event, InstantKind, JsonlSink, Level, MemorySink, Sink, SinkHandle};
pub use slo::{FrameHealth, Objective, SloEngine, SloEvent, SloStatus, SloSummary};
pub use summary::{CounterSummary, GaugeSummary, StageSummary, TelemetrySummary};
pub use timeseries::{
    jain_fairness, AdmissionStormDetector, RungFlapDetector, SeriesSet, StarvationDetector,
    TimeSeries,
};
pub use trace::{
    chrome_trace_json, chrome_trace_json_ext, CounterTrack, TraceFrame, TraceInstant, TraceSession,
    TraceSink, TraceSpan,
};

/// The 60 FPS real-time frame budget in milliseconds (16.66 ms). This is
/// the canonical definition; `gss_platform::REALTIME_BUDGET_MS` re-exports
/// it so the timing models, the session simulator, the recorder and the
/// SLO engine all judge frames against the same number.
pub const REALTIME_BUDGET_MS: f64 = 1000.0 / 60.0;

/// Slack added to every deadline comparison so float noise from summing
/// modeled stage times cannot flip a frame that is exactly on budget.
/// Shared by [`Recorder::end_frame`], the session simulator's miss marker
/// and the SLO engine via [`deadline_met`], so the three predicates cannot
/// drift apart.
pub const DEADLINE_EPSILON_MS: f64 = 1e-9;

/// The deadline predicate: does a critical path of `critical_ms` fit a
/// budget of `budget_ms`, up to [`DEADLINE_EPSILON_MS`] of float noise?
pub fn deadline_met(critical_ms: f64, budget_ms: f64) -> bool {
    critical_ms <= budget_ms + DEADLINE_EPSILON_MS
}

/// The pipeline stages a frame passes through, server to display.
///
/// Stage spans may overlap in time: the server searches the region of
/// interest while encoding, and the client's NPU super-resolution runs in
/// parallel with GPU interpolation. Spans carry explicit start/end times
/// rather than relying on nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Stage {
    /// Game render of the native frame on the server GPU.
    Render,
    /// Depth-buffer capture and pre-processing on the server.
    DepthCapture,
    /// Depth-guided region-of-interest search on the server.
    RoiDetect,
    /// Video encode of the low-resolution frame.
    Encode,
    /// Network transfer from server to client.
    LinkTransfer,
    /// Video decode on the client.
    Decode,
    /// Neural super-resolution of the region of interest on the NPU.
    NpuSr,
    /// Interpolation upscale of the full frame on the client GPU (also
    /// used for generic client-side reconstruction in the SOTA baseline).
    GpuInterp,
    /// Merge of the neural region into the interpolated frame.
    Merge,
    /// Scan-out / display of the finished frame.
    Display,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 10;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Render,
        Stage::DepthCapture,
        Stage::RoiDetect,
        Stage::Encode,
        Stage::LinkTransfer,
        Stage::Decode,
        Stage::NpuSr,
        Stage::GpuInterp,
        Stage::Merge,
        Stage::Display,
    ];

    /// Stable array index of this stage.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Kebab-case label used in serialized events and tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Render => "render",
            Stage::DepthCapture => "depth-capture",
            Stage::RoiDetect => "roi-detect",
            Stage::Encode => "encode",
            Stage::LinkTransfer => "link-transfer",
            Stage::Decode => "decode",
            Stage::NpuSr => "npu-sr",
            Stage::GpuInterp => "gpu-interp",
            Stage::Merge => "merge",
            Stage::Display => "display",
        }
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Counter {
    /// Frames encoded by the server codec.
    FramesEncoded,
    /// Keyframes forced by loss recovery (NACK-triggered intra refresh).
    KeyframesForced,
    /// NACKs raised by the client after a lost transfer.
    Nacks,
    /// Transfers dropped by the link model.
    FramesDropped,
    /// Frames the client displayed frozen (no fresh data).
    FramesFrozen,
    /// Frames upscaled through the RoI-parallel client path.
    FramesUpscaled,
    /// Inter frames reconstructed from motion + residual (NEMO baseline).
    FramesReconstructed,
    /// Frames whose motion-to-photon latency exceeded the budget.
    DeadlineMisses,
    /// Total payload bytes put on the wire.
    BytesOnWire,
    /// Degradation-ladder steps taken toward a cheaper rung.
    LadderDowngrades,
    /// Degradation-ladder steps recovered toward full quality.
    LadderUpgrades,
    /// NACKs re-issued after the previous request timed out.
    NackRetries,
    /// Link drops caused by bottleneck-queue overflow (tail drop).
    DropsQueueOverflow,
    /// Link drops caused by a scripted outage window.
    DropsOutage,
    /// Delivered frames discarded because the client decoder was down
    /// (crashed or mid-reconfigure).
    DropsDecoderDown,
    /// Hardware decoder crashes observed by the recovery state machine.
    DecoderCrashes,
    /// Decoder reconfigure attempts started by the recovery state machine
    /// (> crashes when keyframe resync times out and the attempt retries).
    DecoderReconfigures,
    /// Rung-flap anomalies: the degradation ladder reversed direction often
    /// enough inside a short window to count as oscillation.
    AnomalyRungFlap,
    /// Starvation anomalies: the session's consumed rate stayed under its
    /// fair-share allocation for a sustained streak of ticks.
    AnomalyStarvation,
    /// Admission-storm anomalies: a flash crowd of join requests dense
    /// enough to blow through the wait queue (fleet-level counter).
    AnomalyAdmissionStorm,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 20;

    /// All counters, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::FramesEncoded,
        Counter::KeyframesForced,
        Counter::Nacks,
        Counter::FramesDropped,
        Counter::FramesFrozen,
        Counter::FramesUpscaled,
        Counter::FramesReconstructed,
        Counter::DeadlineMisses,
        Counter::BytesOnWire,
        Counter::LadderDowngrades,
        Counter::LadderUpgrades,
        Counter::NackRetries,
        Counter::DropsQueueOverflow,
        Counter::DropsOutage,
        Counter::DropsDecoderDown,
        Counter::DecoderCrashes,
        Counter::DecoderReconfigures,
        Counter::AnomalyRungFlap,
        Counter::AnomalyStarvation,
        Counter::AnomalyAdmissionStorm,
    ];

    /// Stable array index of this counter.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Kebab-case label used in serialized events and tables.
    pub fn label(self) -> &'static str {
        match self {
            Counter::FramesEncoded => "frames-encoded",
            Counter::KeyframesForced => "keyframes-forced",
            Counter::Nacks => "nacks",
            Counter::FramesDropped => "frames-dropped",
            Counter::FramesFrozen => "frames-frozen",
            Counter::FramesUpscaled => "frames-upscaled",
            Counter::FramesReconstructed => "frames-reconstructed",
            Counter::DeadlineMisses => "deadline-misses",
            Counter::BytesOnWire => "bytes-on-wire",
            Counter::LadderDowngrades => "ladder-downgrades",
            Counter::LadderUpgrades => "ladder-upgrades",
            Counter::NackRetries => "nack-retries",
            Counter::DropsQueueOverflow => "drops-queue-overflow",
            Counter::DropsOutage => "drops-outage",
            Counter::DropsDecoderDown => "drops-decoder-down",
            Counter::DecoderCrashes => "decoder-crashes",
            Counter::DecoderReconfigures => "decoder-reconfigures",
            Counter::AnomalyRungFlap => "anomaly-rung-flap",
            Counter::AnomalyStarvation => "anomaly-starvation",
            Counter::AnomalyAdmissionStorm => "anomaly-admission-storm",
        }
    }
}

/// Sampled values whose latest/extreme/mean readings matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Gauge {
    /// Area of the selected region of interest, in low-res pixels.
    RoiAreaPx,
    /// Base-layer quantizer chosen by the rate controller.
    EncodeQuality,
    /// Residual quantization step chosen by the rate controller.
    EncodeResidualStep,
    /// Link goodput observed by the network model, in Mbit/s.
    LinkBandwidthMbps,
    /// Current degradation-ladder rung (0 = full quality).
    LadderRung,
    /// NPU thermal slowdown factor applied to the SR timing model.
    NpuSlowdown,
    /// Recovery state machine position (0 = healthy, 1 = draining,
    /// 2 = reconfiguring, 3 = awaiting keyframe).
    RecoveryState,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 7;

    /// All gauges, in declaration order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::RoiAreaPx,
        Gauge::EncodeQuality,
        Gauge::EncodeResidualStep,
        Gauge::LinkBandwidthMbps,
        Gauge::LadderRung,
        Gauge::NpuSlowdown,
        Gauge::RecoveryState,
    ];

    /// Stable array index of this gauge.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Kebab-case label used in serialized events and tables.
    pub fn label(self) -> &'static str {
        match self {
            Gauge::RoiAreaPx => "roi-area-px",
            Gauge::EncodeQuality => "encode-quality",
            Gauge::EncodeResidualStep => "encode-residual-step",
            Gauge::LinkBandwidthMbps => "link-bandwidth-mbps",
            Gauge::LadderRung => "ladder-rung",
            Gauge::NpuSlowdown => "npu-slowdown",
            Gauge::RecoveryState => "recovery-state",
        }
    }
}

/// Running statistics of one gauge.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct GaugeStat {
    /// Most recent observation.
    pub last: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sum of observations (for the mean).
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Default for GaugeStat {
    fn default() -> Self {
        GaugeStat {
            last: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            count: 0,
        }
    }
}

impl GaugeStat {
    /// Folds one observation into the statistics.
    pub fn observe(&mut self, value: f64) {
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.count += 1;
    }

    /// Mean of the observations, or `None` when none were made. An empty
    /// gauge must not masquerade as a measured 0.0 — that degenerate value
    /// would poison drift comparisons in the benchmark-regression gate.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_match_all_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let labels: std::collections::HashSet<&str> =
            Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Stage::COUNT, "stage labels must be unique");
    }

    #[test]
    fn counter_and_gauge_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        let counter_labels: std::collections::HashSet<&str> =
            Counter::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(counter_labels.len(), Counter::COUNT);
        let gauge_labels: std::collections::HashSet<&str> =
            Gauge::ALL.iter().map(|g| g.label()).collect();
        assert_eq!(gauge_labels.len(), Gauge::COUNT);
    }

    #[test]
    fn gauge_stat_tracks_extremes_and_mean() {
        let mut g = GaugeStat::default();
        assert_eq!(g.mean(), None, "empty gauge must not report a mean");
        g.observe(4.0);
        g.observe(2.0);
        g.observe(6.0);
        assert_eq!(g.last, 6.0);
        assert_eq!(g.min, 2.0);
        assert_eq!(g.max, 6.0);
        assert_eq!(g.mean(), Some(4.0));
        assert_eq!(g.count, 3);
    }
}
