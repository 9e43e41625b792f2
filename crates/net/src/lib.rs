//! Wireless link simulation for the GameStreamSR reproduction.
//!
//! The paper's motivation rests on a network observation: streaming 2K game
//! frames over live 5G mmWave or WiFi drops a large fraction of frames
//! (§II-A cites ≈44% and ≈90%), while 720p streams fit comfortably — which
//! is what makes client-side super-resolution attractive. This crate
//! provides a deterministic-given-seed link simulator with token-bucket
//! queueing, bandwidth volatility, propagation jitter and tail drops, so the
//! bandwidth experiments regenerate that motivation from first principles.
//!
//! There is one channel model, [`SharedLink`]: a bottleneck carrying one
//! flow per session. A lone session's private downlink is a `SharedLink`
//! with a single flow, whose bottleneck plan is the session's fault plan.
//!
//! ```
//! use gss_net::{FaultPlan, LinkProfile, SharedLink};
//!
//! let mut link = SharedLink::new(LinkProfile::wifi(), 42);
//! let flow = link.add_flow(FaultPlan::default());
//! let t = link.send(flow, 12_000, 0.0);
//! assert!(t.delivered());
//! assert!(t.transit_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod shared;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use shared::{FlowStats, SharedLink};

use serde::{Deserialize, Serialize};

/// Statistical description of a wireless link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Profile name for reports.
    pub name: &'static str,
    /// Mean downlink bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Coefficient of variation of the bandwidth across coherence
    /// intervals (0 = perfectly stable).
    pub bandwidth_cv: f64,
    /// How often the channel re-draws its bandwidth, ms.
    pub coherence_ms: f64,
    /// Base round-trip time, ms.
    pub rtt_ms: f64,
    /// One-way jitter standard deviation, ms.
    pub jitter_ms: f64,
    /// Bottleneck queue limit expressed as milliseconds of line rate;
    /// frames that would overflow it are dropped (tail drop).
    pub queue_limit_ms: f64,
}

impl LinkProfile {
    /// A home/office WiFi link: moderate bandwidth, moderate stability.
    pub fn wifi() -> Self {
        LinkProfile {
            name: "WiFi",
            bandwidth_mbps: 60.0,
            bandwidth_cv: 0.35,
            coherence_ms: 200.0,
            rtt_ms: 16.0,
            jitter_ms: 2.5,
            queue_limit_ms: 50.0,
        }
    }

    /// A fixed-access fiber uplink: fat and stable, the last hop of a
    /// consolidation rack serving many sessions (see `gamestreamsr::fleet`).
    /// Congestion on this profile is self-inflicted — the fleet's own
    /// offered load, not channel fades.
    pub fn fiber() -> Self {
        LinkProfile {
            name: "Fiber",
            bandwidth_mbps: 100.0,
            bandwidth_cv: 0.05,
            coherence_ms: 1000.0,
            rtt_ms: 10.0,
            jitter_ms: 1.0,
            queue_limit_ms: 50.0,
        }
    }

    /// A live 5G mmWave link: high mean bandwidth but deep fades
    /// (blockage), matching the volatility reported by the paper's
    /// characterization reference.
    pub fn mmwave_5g() -> Self {
        LinkProfile {
            name: "5G mmWave",
            bandwidth_mbps: 120.0,
            bandwidth_cv: 0.75,
            coherence_ms: 120.0,
            rtt_ms: 22.0,
            jitter_ms: 4.0,
            queue_limit_ms: 50.0,
        }
    }
}

/// Why the link dropped a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// The frame would have overflowed the bottleneck queue (tail drop —
    /// the channel is alive but too slow for the offered load).
    QueueOverflow,
    /// The frame arrived but the client's decoder was down (crashed or
    /// mid-reconfigure), so the payload was discarded undecoded. Emitted
    /// by the session simulator's recovery state machine, never by
    /// [`SharedLink`] itself — the network delivered the frame; the client
    /// could not use it.
    DecoderDown,
    /// An injected outage window: the channel delivered nothing at all.
    Outage,
}

impl DropCause {
    /// Kebab-case label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::QueueOverflow => "queue-overflow",
            DropCause::DecoderDown => "decoder-down",
            DropCause::Outage => "outage",
        }
    }
}

/// The outcome of one frame transmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// `None` when the frame arrived; otherwise why the link dropped it.
    pub drop_cause: Option<DropCause>,
    /// One-way transit latency (queueing + serialization + propagation),
    /// ms, when delivered.
    pub transit_ms: f64,
}

impl Transfer {
    /// `false` when the link dropped the frame.
    pub fn delivered(&self) -> bool {
        self.drop_cause.is_none()
    }
}

/// Streams `frame_bytes`-sized frames at `fps` for `frames` frames and
/// reports the drop rate — the paper's §II-A experiment in miniature.
pub fn stream_drop_rate(
    profile: &LinkProfile,
    seed: u64,
    frame_bytes: usize,
    fps: f64,
    frames: usize,
) -> f64 {
    let mut link = SharedLink::new(profile.clone(), seed);
    let flow = link.add_flow(FaultPlan::default());
    let interval = 1000.0 / fps;
    for i in 0..frames {
        let _ = link.send(flow, frame_bytes, i as f64 * interval);
    }
    link.stats(flow).drop_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_stream_gets_dropped() {
        // 2K-class frames (~210 KB each at 60 FPS ≈ 100 Mbps) overwhelm a
        // link whose fades dip well below that; 720p-class frames fit
        let drop_hi = stream_drop_rate(&LinkProfile::wifi(), 11, 210_000, 60.0, 600);
        let drop_lo = stream_drop_rate(&LinkProfile::wifi(), 11, 62_000, 60.0, 600);
        assert!(drop_hi > 0.2, "high-res drop rate {drop_hi:.3}");
        assert!(drop_lo < 0.05, "low-res drop rate {drop_lo:.3}");
    }

    #[test]
    fn mmwave_is_more_volatile_than_wifi() {
        // same moderately-sized stream: mmWave's deep fades drop more
        // frames than steadier WiFi once the stream approaches capacity
        let wifi = stream_drop_rate(&LinkProfile::wifi(), 5, 30_000, 60.0, 1200);
        let mm = stream_drop_rate(&LinkProfile::mmwave_5g(), 5, 110_000, 60.0, 1200);
        assert!(mm > 0.05, "mmWave drops {mm:.3}");
        let _ = wifi;
    }
}
