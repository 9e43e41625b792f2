//! Deterministic, scriptable fault injection.
//!
//! A [`FaultPlan`] is a timeline of [`FaultEvent`]s scheduled at session
//! times: bandwidth-collapse bursts, full outage windows, jitter spikes,
//! NPU thermal-throttle ramps and decoder stalls. The plan itself holds no
//! randomness — given the same plan and the same link seed, a session
//! replays the exact same trace, which is what makes resilience
//! experiments and the CI soak reproducible.
//!
//! Network faults ([`FaultKind::BandwidthCollapse`], [`FaultKind::Outage`],
//! [`FaultKind::JitterSpike`]) are consumed by [`crate::SharedLink`], as
//! its bottleneck plan or as one flow's plan; platform faults
//! ([`FaultKind::NpuThrottle`], [`FaultKind::DecoderStall`],
//! [`FaultKind::DecoderCrash`]) are queried by the session simulator and
//! fed into the device timing models and the recovery state machine.
//!
//! ```
//! use gss_net::{FaultEvent, FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new(vec![FaultEvent {
//!     start_ms: 1000.0,
//!     end_ms: 2000.0,
//!     kind: FaultKind::BandwidthCollapse { factor: 0.1 },
//! }]);
//! assert_eq!(plan.bandwidth_factor(1500.0), 0.1);
//! assert_eq!(plan.bandwidth_factor(2500.0), 1.0);
//! ```

use serde::{Deserialize, Serialize};

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The channel's bandwidth is multiplied by `factor` (< 1) for the
    /// window — a deep fade / congestion burst.
    BandwidthCollapse {
        /// Multiplier on the drawn bandwidth, in `(0, 1]`.
        factor: f64,
    },
    /// The channel delivers nothing at all: every send in the window is
    /// dropped with [`crate::DropCause::Outage`].
    Outage,
    /// One-way jitter is multiplied by `factor` (> 1) for the window.
    JitterSpike {
        /// Multiplier on the sampled jitter.
        factor: f64,
    },
    /// The NPU thermally throttles: its latency is multiplied by a factor
    /// ramping linearly from 1 at the window start up to `peak_slowdown`
    /// at the window end (heat soaks in gradually; clearing is abrupt, as
    /// when the governor steps the clock back up).
    NpuThrottle {
        /// Latency multiplier reached at the end of the window (≥ 1).
        peak_slowdown: f64,
    },
    /// The client decoder stalls, adding `extra_ms` to every decode in
    /// the window (pipeline flush / DRM renegotiation hiccup).
    DecoderStall {
        /// Added decode latency, ms.
        extra_ms: f64,
    },
    /// The client hardware decoder crashes outright: for the window the
    /// crash signal is asserted and nothing can be decoded until the
    /// session's recovery state machine has drained, reconfigured the
    /// codec and resynchronized on a keyframe. Unlike
    /// [`FaultKind::DecoderStall`] this is not extra latency — it is a
    /// hard loss of the decode capability, the failure mode production
    /// clients dedicate a recovery manager to.
    DecoderCrash,
}

impl FaultKind {
    /// Kebab-case label for telemetry events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BandwidthCollapse { .. } => "bandwidth-collapse",
            FaultKind::Outage => "outage",
            FaultKind::JitterSpike { .. } => "jitter-spike",
            FaultKind::NpuThrottle { .. } => "npu-throttle",
            FaultKind::DecoderStall { .. } => "decoder-stall",
            FaultKind::DecoderCrash => "decoder-crash",
        }
    }
}

/// One scheduled fault window on the session timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Window start, in session milliseconds (inclusive).
    pub start_ms: f64,
    /// Window end, in session milliseconds (exclusive).
    pub end_ms: f64,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the window covers session time `t_ms`.
    pub fn is_active(&self, t_ms: f64) -> bool {
        t_ms >= self.start_ms && t_ms < self.end_ms
    }

    /// Fraction of the window elapsed at `t_ms`, clamped to `[0, 1]`
    /// (used by ramped faults).
    fn progress(&self, t_ms: f64) -> f64 {
        let len = (self.end_ms - self.start_ms).max(f64::MIN_POSITIVE);
        ((t_ms - self.start_ms) / len).clamp(0.0, 1.0)
    }
}

/// A deterministic timeline of scheduled faults.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from scheduled events (any order).
    ///
    /// # Panics
    ///
    /// Panics on an event whose window starts before the session (a
    /// negative `start_ms`), whose window is empty or inverted, a
    /// collapse factor outside `(0, 1]`, a jitter factor below 1, a
    /// throttle slowdown below 1, or a negative stall. Silently accepting
    /// such events would skew the timed integrations (e.g.
    /// [`FaultPlan::decoder_stall_ms`]) without any visible error.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        for e in &events {
            assert!(
                e.start_ms >= 0.0,
                "fault window must start at or after session time 0"
            );
            assert!(e.end_ms > e.start_ms, "fault window must be non-empty");
            match e.kind {
                FaultKind::BandwidthCollapse { factor } => {
                    assert!(
                        factor > 0.0 && factor <= 1.0,
                        "collapse factor must be in (0, 1]"
                    );
                }
                FaultKind::JitterSpike { factor } => {
                    assert!(factor >= 1.0, "jitter factor must be >= 1");
                }
                FaultKind::NpuThrottle { peak_slowdown } => {
                    assert!(peak_slowdown >= 1.0, "slowdown must be >= 1");
                }
                FaultKind::DecoderStall { extra_ms } => {
                    assert!(extra_ms >= 0.0, "stall must be non-negative");
                }
                FaultKind::Outage | FaultKind::DecoderCrash => {}
            }
        }
        FaultPlan { events }
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when no fault is ever scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Combined bandwidth multiplier at `t_ms` (product of active
    /// collapses; 1.0 when none is active).
    pub fn bandwidth_factor(&self, t_ms: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.is_active(t_ms))
            .filter_map(|e| match e.kind {
                FaultKind::BandwidthCollapse { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Whether any outage window covers `t_ms`.
    pub fn is_outage(&self, t_ms: f64) -> bool {
        self.events
            .iter()
            .any(|e| e.is_active(t_ms) && e.kind == FaultKind::Outage)
    }

    /// Combined jitter multiplier at `t_ms` (1.0 when quiet).
    pub fn jitter_factor(&self, t_ms: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.is_active(t_ms))
            .filter_map(|e| match e.kind {
                FaultKind::JitterSpike { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    /// NPU latency multiplier at `t_ms`: each active throttle ramps
    /// linearly from 1 up to its peak across its window; overlapping
    /// throttles multiply. 1.0 when quiet.
    pub fn npu_slowdown(&self, t_ms: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.is_active(t_ms))
            .filter_map(|e| match e.kind {
                FaultKind::NpuThrottle { peak_slowdown } => {
                    Some(1.0 + (peak_slowdown - 1.0) * e.progress(t_ms))
                }
                _ => None,
            })
            .product()
    }

    /// Added decoder latency at `t_ms`, ms (sum of active stalls).
    pub fn decoder_stall_ms(&self, t_ms: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.is_active(t_ms))
            .filter_map(|e| match e.kind {
                FaultKind::DecoderStall { extra_ms } => Some(extra_ms),
                _ => None,
            })
            .sum()
    }

    /// Whether the decoder crash signal is asserted at `t_ms` — i.e. any
    /// [`FaultKind::DecoderCrash`] window covers the instant. The session's
    /// recovery state machine reacts to the *rising edge* of this signal;
    /// the window length only controls how long the crash keeps firing.
    pub fn decoder_crashed(&self, t_ms: f64) -> bool {
        self.events
            .iter()
            .any(|e| e.is_active(t_ms) && e.kind == FaultKind::DecoderCrash)
    }

    /// Whether the plan scripts any decoder crash at all — the session
    /// arms its recovery state machine only when this holds, so crash-free
    /// plans replay byte-identically to builds that predate recovery.
    pub fn has_decoder_crashes(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == FaultKind::DecoderCrash)
    }

    /// Labels of the faults active at `t_ms`, in schedule order (for
    /// structured telemetry when the active set changes).
    pub fn active_labels(&self, t_ms: f64) -> Vec<&'static str> {
        self.events
            .iter()
            .filter(|e| e.is_active(t_ms))
            .map(|e| e.kind.label())
            .collect()
    }

    /// The canonical resilience timeline used by the integration tests,
    /// the bench resilience experiment and the CI soak: a 20 s session
    /// with a jitter spike and a decoder stall early on, a 10 s
    /// mid-session bandwidth collapse overlapping an NPU thermal-throttle
    /// ramp, and a short full outage after the channel recovers.
    pub fn canonical() -> Self {
        FaultPlan::canonical_scaled(1.0)
    }

    /// [`FaultPlan::canonical`] with every timestamp multiplied by
    /// `time_scale`, so tests can replay the same shape on a compressed
    /// clock. The session it is meant for lasts `20_000 · time_scale` ms.
    ///
    /// # Panics
    ///
    /// Panics when `time_scale` is not positive.
    pub fn canonical_scaled(time_scale: f64) -> Self {
        assert!(time_scale > 0.0, "time scale must be positive");
        let s = time_scale;
        FaultPlan::new(vec![
            FaultEvent {
                start_ms: 2_000.0 * s,
                end_ms: 3_000.0 * s,
                kind: FaultKind::JitterSpike { factor: 4.0 },
            },
            FaultEvent {
                start_ms: 3_500.0 * s,
                end_ms: 4_200.0 * s,
                kind: FaultKind::DecoderStall { extra_ms: 3.0 },
            },
            FaultEvent {
                start_ms: 5_000.0 * s,
                end_ms: 15_000.0 * s,
                kind: FaultKind::BandwidthCollapse { factor: 0.10 },
            },
            FaultEvent {
                start_ms: 5_000.0 * s,
                end_ms: 15_000.0 * s,
                kind: FaultKind::NpuThrottle { peak_slowdown: 3.0 },
            },
            FaultEvent {
                start_ms: 16_500.0 * s,
                end_ms: 17_000.0 * s,
                kind: FaultKind::Outage,
            },
        ])
    }

    /// Duration of the session the canonical timeline is scripted for, ms.
    pub fn canonical_duration_ms(time_scale: f64) -> f64 {
        20_000.0 * time_scale
    }

    /// The canonical *crash storm*: the full [`FaultPlan::canonical`]
    /// timeline plus decoder crashes layered on top. An isolated early
    /// crash at 1 s exercises a clean single recovery; a burst of four
    /// rapid crashes from 6 s onward — inside the throttle/collapse
    /// window, each landing before the previous recovery's stability
    /// period expires — drives the recovery state machine through
    /// exponential backoff into the permanent safe-profile fallback.
    /// Deterministic like everything else in this module.
    pub fn crash_storm() -> Self {
        FaultPlan::crash_storm_scaled(1.0)
    }

    /// [`FaultPlan::crash_storm`] with every timestamp multiplied by
    /// `time_scale` (same compressed-clock contract as
    /// [`FaultPlan::canonical_scaled`]).
    ///
    /// # Panics
    ///
    /// Panics when `time_scale` is not positive.
    pub fn crash_storm_scaled(time_scale: f64) -> Self {
        assert!(time_scale > 0.0, "time scale must be positive");
        let s = time_scale;
        let mut events = FaultPlan::canonical_scaled(s).events;
        // 100 ms windows so even a 0.2x compressed clock (20 ms windows,
        // 16.67 ms frame period) samples every crash at least once.
        for (start, end) in [
            (1_000.0, 1_100.0),
            (6_000.0, 6_100.0),
            (6_600.0, 6_700.0),
            (7_200.0, 7_300.0),
            (7_800.0, 7_900.0),
        ] {
            events.push(FaultEvent {
                start_ms: start * s,
                end_ms: end * s,
                kind: FaultKind::DecoderCrash,
            });
        }
        FaultPlan::new(events)
    }

    /// Duration of the session the crash storm is scripted for, ms (same
    /// clock as [`FaultPlan::canonical_duration_ms`]).
    pub fn crash_storm_duration_ms(time_scale: f64) -> f64 {
        FaultPlan::canonical_duration_ms(time_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_quiet_everywhere() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        for t in [0.0, 1e3, 1e6] {
            assert_eq!(p.bandwidth_factor(t), 1.0);
            assert!(!p.is_outage(t));
            assert_eq!(p.jitter_factor(t), 1.0);
            assert_eq!(p.npu_slowdown(t), 1.0);
            assert_eq!(p.decoder_stall_ms(t), 0.0);
            assert!(p.active_labels(t).is_empty());
        }
    }

    #[test]
    fn windows_are_half_open() {
        let p = FaultPlan::new(vec![FaultEvent {
            start_ms: 100.0,
            end_ms: 200.0,
            kind: FaultKind::Outage,
        }]);
        assert!(!p.is_outage(99.9));
        assert!(p.is_outage(100.0));
        assert!(p.is_outage(199.9));
        assert!(!p.is_outage(200.0));
    }

    #[test]
    fn throttle_ramps_linearly_to_its_peak() {
        let p = FaultPlan::new(vec![FaultEvent {
            start_ms: 0.0,
            end_ms: 1000.0,
            kind: FaultKind::NpuThrottle { peak_slowdown: 3.0 },
        }]);
        assert!((p.npu_slowdown(0.0) - 1.0).abs() < 1e-12);
        assert!((p.npu_slowdown(500.0) - 2.0).abs() < 1e-12);
        assert!((p.npu_slowdown(999.999) - 3.0).abs() < 1e-2);
        assert_eq!(p.npu_slowdown(1000.0), 1.0);
    }

    #[test]
    fn overlapping_faults_compose() {
        let p = FaultPlan::new(vec![
            FaultEvent {
                start_ms: 0.0,
                end_ms: 100.0,
                kind: FaultKind::BandwidthCollapse { factor: 0.5 },
            },
            FaultEvent {
                start_ms: 50.0,
                end_ms: 150.0,
                kind: FaultKind::BandwidthCollapse { factor: 0.4 },
            },
            FaultEvent {
                start_ms: 0.0,
                end_ms: 150.0,
                kind: FaultKind::DecoderStall { extra_ms: 2.0 },
            },
            FaultEvent {
                start_ms: 0.0,
                end_ms: 150.0,
                kind: FaultKind::DecoderStall { extra_ms: 1.5 },
            },
        ]);
        assert!((p.bandwidth_factor(75.0) - 0.2).abs() < 1e-12);
        assert!((p.bandwidth_factor(125.0) - 0.4).abs() < 1e-12);
        assert!((p.decoder_stall_ms(10.0) - 3.5).abs() < 1e-12);
        assert_eq!(p.active_labels(75.0).len(), 4);
    }

    #[test]
    fn canonical_scaled_compresses_the_timeline() {
        let full = FaultPlan::canonical();
        let half = FaultPlan::canonical_scaled(0.5);
        assert_eq!(full.events().len(), half.events().len());
        // mid-collapse at full scale maps to the same phase at half scale
        assert_eq!(
            full.bandwidth_factor(10_000.0),
            half.bandwidth_factor(5_000.0)
        );
        assert!((full.npu_slowdown(10_000.0) - half.npu_slowdown(5_000.0)).abs() < 1e-12);
        assert!(full.is_outage(16_700.0));
        assert!(half.is_outage(8_350.0));
        assert_eq!(FaultPlan::canonical_duration_ms(0.5), 10_000.0);
    }

    #[test]
    #[should_panic(expected = "collapse factor")]
    fn zero_collapse_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent {
            start_ms: 0.0,
            end_ms: 1.0,
            kind: FaultKind::BandwidthCollapse { factor: 0.0 },
        }]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_window_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent {
            start_ms: 5.0,
            end_ms: 5.0,
            kind: FaultKind::Outage,
        }]);
    }

    #[test]
    #[should_panic(expected = "session time 0")]
    fn negative_start_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent {
            start_ms: -1.0,
            end_ms: 10.0,
            kind: FaultKind::Outage,
        }]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn negative_duration_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent {
            start_ms: 10.0,
            end_ms: 5.0,
            kind: FaultKind::DecoderStall { extra_ms: 1.0 },
        }]);
    }

    #[test]
    fn overlapping_same_kind_events_compose_without_double_counting_edges() {
        // two stalls overlapping on [50, 100): the sum integrates both in
        // the overlap and exactly one outside it, and the half-open edges
        // keep adjacent windows from double-counting their shared instant
        let p = FaultPlan::new(vec![
            FaultEvent {
                start_ms: 0.0,
                end_ms: 100.0,
                kind: FaultKind::DecoderStall { extra_ms: 2.0 },
            },
            FaultEvent {
                start_ms: 50.0,
                end_ms: 150.0,
                kind: FaultKind::DecoderStall { extra_ms: 1.0 },
            },
            FaultEvent {
                start_ms: 150.0,
                end_ms: 200.0,
                kind: FaultKind::DecoderStall { extra_ms: 4.0 },
            },
        ]);
        assert!((p.decoder_stall_ms(25.0) - 2.0).abs() < 1e-12);
        assert!((p.decoder_stall_ms(75.0) - 3.0).abs() < 1e-12);
        assert!((p.decoder_stall_ms(125.0) - 1.0).abs() < 1e-12);
        // t = 150 is the boundary: the second window has closed, only the
        // third is active — never 1.0 + 4.0
        assert!((p.decoder_stall_ms(150.0) - 4.0).abs() < 1e-12);
        // overlapping crash windows behave as one asserted signal
        let c = FaultPlan::new(vec![
            FaultEvent {
                start_ms: 0.0,
                end_ms: 60.0,
                kind: FaultKind::DecoderCrash,
            },
            FaultEvent {
                start_ms: 40.0,
                end_ms: 100.0,
                kind: FaultKind::DecoderCrash,
            },
        ]);
        assert!(c.decoder_crashed(50.0));
        assert!(c.decoder_crashed(99.9));
        assert!(!c.decoder_crashed(100.0));
        assert_eq!(c.active_labels(50.0), vec!["decoder-crash"; 2]);
    }

    #[test]
    fn crash_storm_extends_the_canonical_timeline() {
        let canonical = FaultPlan::canonical();
        let storm = FaultPlan::crash_storm();
        // the storm is a strict superset: the canonical events are intact,
        // so it perturbs none of the canonical-plan metrics
        assert_eq!(
            &storm.events()[..canonical.events().len()],
            canonical.events()
        );
        let crashes = storm
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::DecoderCrash)
            .count();
        assert_eq!(crashes, 5);
        assert!(storm.decoder_crashed(1_050.0));
        assert!(!storm.decoder_crashed(2_000.0));
        assert!(storm.decoder_crashed(7_850.0));
        assert!(!canonical.decoder_crashed(1_050.0));
        // compressed clock keeps every crash window at least one 60 FPS
        // frame period wide
        let quick = FaultPlan::crash_storm_scaled(0.2);
        for e in quick
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::DecoderCrash)
        {
            assert!(e.end_ms - e.start_ms >= 1000.0 / 60.0);
        }
        assert_eq!(FaultPlan::crash_storm_duration_ms(0.5), 10_000.0);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = FaultPlan::canonical()
            .events()
            .iter()
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "jitter-spike",
                "decoder-stall",
                "bandwidth-collapse",
                "npu-throttle",
                "outage"
            ]
        );
    }

    #[test]
    fn fault_labels_stay_aligned_with_the_attribution_taxonomy() {
        // the attributor keys on fault labels carried by trace instants:
        // faults that can eat a stage's budget must reuse the miss-cause
        // label verbatim, and the outage label must match the string the
        // attributor's decision tree tests for. A rename on either side
        // breaks root-cause attribution silently — this pins the contract.
        use gss_telemetry::MissCause;
        assert_eq!(
            FaultKind::NpuThrottle { peak_slowdown: 2.0 }.label(),
            MissCause::NpuThrottle.label()
        );
        assert_eq!(
            FaultKind::JitterSpike { factor: 2.0 }.label(),
            MissCause::JitterSpike.label()
        );
        assert_eq!(
            FaultKind::DecoderStall { extra_ms: 1.0 }.label(),
            MissCause::DecoderStall.label()
        );
        assert_eq!(FaultKind::Outage.label(), "outage");
        assert_eq!(
            FaultKind::DecoderCrash.label(),
            MissCause::DecoderCrash.label()
        );
        assert_eq!(
            crate::DropCause::QueueOverflow.label(),
            MissCause::QueueOverflow.label()
        );
        assert_eq!(crate::DropCause::DecoderDown.label(), "decoder-down");
    }
}
