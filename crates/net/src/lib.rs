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
//! ```
//! use gss_net::{Link, LinkProfile};
//!
//! let mut link = Link::new(LinkProfile::wifi(), 42);
//! let t = link.send(12_000, 0.0);
//! assert!(t.delivered());
//! assert!(t.arrival_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod shared;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use shared::{paired_single_flow, FlowStats, SharedLink};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
    /// [`Link`] itself — the network delivered the frame; the client could
    /// not use it.
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
    /// Arrival timestamp at the client, ms (send time + transit), when
    /// delivered.
    pub arrival_ms: f64,
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

/// A stateful simulated downlink.
#[derive(Debug, Clone)]
pub struct Link {
    profile: LinkProfile,
    rng: SmallRng,
    queue_bits: f64,
    clock_ms: f64,
    current_mbps: f64,
    next_reroll_ms: f64,
    sent: u64,
    dropped: u64,
    fault_plan: FaultPlan,
}

impl Link {
    /// Creates a link; identical seeds give identical channel traces.
    pub fn new(profile: LinkProfile, seed: u64) -> Self {
        Link::with_faults(profile, seed, FaultPlan::default())
    }

    /// Creates a link with a scripted fault timeline. Faults modulate the
    /// channel *after* the seeded random draws, so the same seed gives the
    /// same underlying trace with and without the plan.
    pub fn with_faults(profile: LinkProfile, seed: u64, fault_plan: FaultPlan) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let current_mbps = draw_bandwidth(&profile, &mut rng);
        Link {
            next_reroll_ms: profile.coherence_ms,
            profile,
            rng,
            queue_bits: 0.0,
            clock_ms: 0.0,
            current_mbps,
            sent: 0,
            dropped: 0,
            fault_plan,
        }
    }

    /// The link profile.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// The channel goodput at the link's current clock, with any active
    /// bandwidth fault applied.
    pub fn effective_mbps(&self) -> f64 {
        self.current_mbps * self.fault_plan.bandwidth_factor(self.clock_ms)
    }

    /// One-way latency sample for a tiny (input/control) packet.
    pub fn control_latency_ms(&mut self) -> f64 {
        self.profile.rtt_ms / 2.0 + self.jitter_sample()
    }

    fn jitter_sample(&mut self) -> f64 {
        // half-normal approximation from the mean of uniforms
        let u: f64 = (0..4).map(|_| self.rng.gen::<f64>()).sum::<f64>() / 4.0;
        (u - 0.5).abs() * 4.0 * self.profile.jitter_ms
    }

    fn advance_to(&mut self, now_ms: f64) {
        let now_ms = now_ms.max(self.clock_ms);
        let mut t = self.clock_ms;
        while t < now_ms {
            let step_end = now_ms.min(self.next_reroll_ms);
            let dt = step_end - t;
            // drain at the faulted rate, sampled at the step midpoint (the
            // coherence interval bounds the approximation error)
            let factor = self.fault_plan.bandwidth_factor((t + step_end) / 2.0);
            let drained = self.current_mbps * factor * 1000.0 * dt; // mbps · ms = bits
            self.queue_bits = (self.queue_bits - drained).max(0.0);
            t = step_end;
            if t >= self.next_reroll_ms {
                self.current_mbps = draw_bandwidth(&self.profile, &mut self.rng);
                self.next_reroll_ms += self.profile.coherence_ms;
            }
        }
        self.clock_ms = now_ms;
    }

    /// Sends a frame of `bytes` at `send_time_ms`. Send times must be
    /// non-decreasing across calls.
    pub fn send(&mut self, bytes: usize, send_time_ms: f64) -> Transfer {
        self.advance_to(send_time_ms);
        self.sent += 1;
        if self.fault_plan.is_outage(send_time_ms) {
            self.dropped += 1;
            return Transfer {
                drop_cause: Some(DropCause::Outage),
                arrival_ms: f64::NAN,
                transit_ms: f64::NAN,
            };
        }
        let bits = bytes as f64 * 8.0;
        let rate_bits_per_ms =
            self.current_mbps * self.fault_plan.bandwidth_factor(send_time_ms) * 1000.0;
        let queue_after_ms = (self.queue_bits + bits) / rate_bits_per_ms;
        if queue_after_ms > self.profile.queue_limit_ms {
            self.dropped += 1;
            return Transfer {
                drop_cause: Some(DropCause::QueueOverflow),
                arrival_ms: f64::NAN,
                transit_ms: f64::NAN,
            };
        }
        self.queue_bits += bits;
        let jitter = self.jitter_sample() * self.fault_plan.jitter_factor(send_time_ms);
        let transit = queue_after_ms + self.profile.rtt_ms / 2.0 + jitter;
        Transfer {
            drop_cause: None,
            arrival_ms: send_time_ms + transit,
            transit_ms: transit,
        }
    }

    /// Fraction of sent frames dropped so far.
    pub fn drop_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.dropped as f64 / self.sent as f64
        }
    }

    /// Frames sent so far.
    pub fn sent_count(&self) -> u64 {
        self.sent
    }
}

pub(crate) fn draw_bandwidth(profile: &LinkProfile, rng: &mut SmallRng) -> f64 {
    // uniform draw scaled so the factor's standard deviation equals the
    // CV, floored at 5% of the mean so the link never fully dies
    let u: f64 = rng.gen::<f64>();
    let factor = 1.0 + (u - 0.5) * 2.0 * profile.bandwidth_cv * 1.732;
    (profile.bandwidth_mbps * factor).max(profile.bandwidth_mbps * 0.05)
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
    let mut link = Link::new(profile.clone(), seed);
    let interval = 1000.0 / fps;
    for i in 0..frames {
        let _ = link.send(frame_bytes, i as f64 * interval);
    }
    link.drop_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_traces() {
        let mut a = Link::new(LinkProfile::wifi(), 7);
        let mut b = Link::new(LinkProfile::wifi(), 7);
        for i in 0..50 {
            let ta = a.send(10_000, i as f64 * 16.66);
            let tb = b.send(10_000, i as f64 * 16.66);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn small_frames_on_idle_link_always_arrive() {
        let mut link = Link::new(LinkProfile::wifi(), 3);
        for i in 0..100 {
            let t = link.send(2_000, i as f64 * 16.66);
            assert!(t.delivered());
            assert!(t.transit_ms >= link.profile().rtt_ms / 2.0);
        }
        assert_eq!(link.drop_rate(), 0.0);
    }

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
    fn queue_drains_over_time() {
        let mut link = Link::new(
            LinkProfile {
                bandwidth_cv: 0.0,
                jitter_ms: 0.0,
                ..LinkProfile::wifi()
            },
            1,
        );
        // back-to-back sends at the same instant queue up
        let t1 = link.send(40_000, 0.0);
        let t2 = link.send(40_000, 0.0);
        assert!(t2.transit_ms > t1.transit_ms);
        // after a long idle gap the queue is empty again
        let t3 = link.send(40_000, 1000.0);
        assert!((t3.transit_ms - t1.transit_ms).abs() < 1e-6);
    }

    #[test]
    fn drop_rate_counts_correctly() {
        let mut link = Link::new(
            LinkProfile {
                bandwidth_mbps: 1.0,
                bandwidth_cv: 0.0,
                queue_limit_ms: 10.0,
                ..LinkProfile::wifi()
            },
            1,
        );
        // 10 KB at 1 Mbps = 80 ms of serialization > 10 ms queue limit
        let t = link.send(10_000, 0.0);
        assert_eq!(t.drop_cause, Some(DropCause::QueueOverflow));
        assert_eq!(link.drop_rate(), 1.0);
        assert_eq!(link.sent_count(), 1);
    }

    #[test]
    fn control_latency_is_half_rtt_plus_jitter() {
        let mut link = Link::new(
            LinkProfile {
                jitter_ms: 0.0,
                ..LinkProfile::wifi()
            },
            9,
        );
        assert!((link.control_latency_ms() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn outage_window_drops_everything_with_the_outage_cause() {
        let plan = FaultPlan::new(vec![FaultEvent {
            start_ms: 100.0,
            end_ms: 300.0,
            kind: FaultKind::Outage,
        }]);
        let mut link = Link::with_faults(LinkProfile::wifi(), 3, plan);
        for i in 0..30 {
            let t = i as f64 * 16.66;
            let transfer = link.send(2_000, t);
            if (100.0..300.0).contains(&t) {
                assert_eq!(transfer.drop_cause, Some(DropCause::Outage), "t={t}");
            } else {
                assert!(transfer.delivered(), "t={t}");
            }
        }
    }

    #[test]
    fn bandwidth_collapse_induces_queue_overflow_drops() {
        // a stream that fits the healthy link comfortably overflows the
        // queue once the collapse leaves a tenth of the bandwidth
        let plan = FaultPlan::new(vec![FaultEvent {
            start_ms: 1000.0,
            end_ms: 4000.0,
            kind: FaultKind::BandwidthCollapse { factor: 0.05 },
        }]);
        let mut clean = Link::new(LinkProfile::wifi(), 11);
        let mut faulted = Link::with_faults(LinkProfile::wifi(), 11, plan);
        let mut overflow_in_window = 0u32;
        for i in 0..360 {
            let t = i as f64 * 16.66;
            assert!(clean.send(50_000, t).delivered(), "clean link drops at {t}");
            let transfer = faulted.send(50_000, t);
            if transfer.drop_cause == Some(DropCause::QueueOverflow)
                && (1000.0..4000.0).contains(&t)
            {
                overflow_in_window += 1;
            }
        }
        assert!(
            overflow_in_window > 60,
            "only {overflow_in_window} overflow drops during the collapse"
        );
        assert!(faulted.drop_rate() > clean.drop_rate());
    }

    #[test]
    fn faulted_links_are_deterministic_and_share_the_seed_trace() {
        let plan = || {
            FaultPlan::new(vec![
                FaultEvent {
                    start_ms: 500.0,
                    end_ms: 900.0,
                    kind: FaultKind::BandwidthCollapse { factor: 0.2 },
                },
                FaultEvent {
                    start_ms: 1200.0,
                    end_ms: 1400.0,
                    kind: FaultKind::JitterSpike { factor: 3.0 },
                },
            ])
        };
        // NaN-valued drop fields defeat PartialEq, so compare bitwise
        let same = |x: &Transfer, y: &Transfer| {
            x.drop_cause == y.drop_cause
                && x.arrival_ms.to_bits() == y.arrival_ms.to_bits()
                && x.transit_ms.to_bits() == y.transit_ms.to_bits()
        };
        let mut a = Link::with_faults(LinkProfile::mmwave_5g(), 21, plan());
        let mut b = Link::with_faults(LinkProfile::mmwave_5g(), 21, plan());
        let mut unfaulted = Link::new(LinkProfile::mmwave_5g(), 21);
        for i in 0..120 {
            let t = i as f64 * 16.66;
            let ta = a.send(30_000, t);
            let tb = b.send(30_000, t);
            assert!(same(&ta, &tb), "t={t}: {ta:?} vs {tb:?}");
            let tu = unfaulted.send(30_000, t);
            // outside every fault window, before the first one perturbs the
            // queue, the faulted link matches the bare-seed trace exactly
            if t < 500.0 {
                assert!(same(&ta, &tu), "t={t}: {ta:?} vs {tu:?}");
            }
        }
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
