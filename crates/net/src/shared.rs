//! Shared-uplink simulation: one bottleneck, many per-session flows.
//!
//! A consolidation server multiplexes every session's downlink traffic
//! through one radio/backhaul bottleneck. [`SharedLink`] models that: a
//! single token-bucket queue, bandwidth trace, and RNG — shared by all
//! flows — plus per-flow fault timelines and per-flow accounting. The
//! shared queue is what couples sessions: one session's burst steals
//! serialization capacity from everyone, so a frame can be tail-dropped
//! even though its own flow is healthy.
//!
//! **Drop attribution contract.** Every drop is charged to exactly one
//! cause in the *victim* flow's ledger:
//!
//! - an outage window (shared or flow-local) active at send time charges
//!   [`DropCause::Outage`] — checked first, like [`Link`];
//! - otherwise a tail drop charges [`DropCause::QueueOverflow`] to the
//!   flow whose frame was refused, even when the queue was filled by
//!   *other* flows' traffic (cross-session contention is congestion, not
//!   an outage, from the victim's point of view).
//!
//! The per-flow ledgers partition the per-flow drop totals by
//! construction ([`FlowStats::consistent`]), so fleet-level attribution
//! can sum them without double counting.
//!
//! Determinism matches [`Link`]: one seed fixes the bandwidth trace and
//! jitter stream, and callers that present sends in a deterministic order
//! (the fleet steps sessions in session-id order) replay bit-identically
//! at any worker count.

use crate::{draw_bandwidth, DropCause, FaultPlan, Link, LinkProfile, Transfer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-flow transmission accounting, with drops partitioned by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Frames this flow offered to the link.
    pub sent: u64,
    /// Frames of this flow the link did not deliver.
    pub dropped: u64,
    /// Drops charged to queue overflow (congestion, including
    /// cross-session contention on the shared queue).
    pub drops_queue_overflow: u64,
    /// Drops charged to an outage window (shared or flow-local).
    pub drops_outage: u64,
    /// Payload bytes this flow offered (delivered or not).
    pub bytes: u64,
    /// Payload bytes the link actually delivered for this flow — the
    /// numerator of the flow's *consumed* rate, as opposed to `bytes`
    /// (offered) and the allocated rate below.
    pub bytes_delivered: u64,
    /// Sum of per-tick fair-share allocations granted to this flow, in
    /// kbit/s fixed point (f64 rates rounded to whole kbit/s keep the
    /// struct `Eq` and the ledger bit-deterministic).
    pub allocated_kbps_sum: u64,
    /// Ticks over which an allocation was recorded (the denominator of
    /// [`FlowStats::mean_allocated_mbps`]).
    pub alloc_ticks: u64,
}

impl FlowStats {
    /// Fraction of this flow's frames that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.dropped as f64 / self.sent as f64
        }
    }

    /// Mean fair-share rate allocated to this flow across the recorded
    /// ticks, Mbit/s. `None` when no allocation was ever recorded.
    pub fn mean_allocated_mbps(&self) -> Option<f64> {
        if self.alloc_ticks == 0 {
            None
        } else {
            Some(self.allocated_kbps_sum as f64 / self.alloc_ticks as f64 / 1000.0)
        }
    }

    /// The ledger invariant: cause-specific counts partition the total
    /// (no drop is lost, none is double-counted under two causes).
    pub fn consistent(&self) -> bool {
        self.drops_queue_overflow + self.drops_outage == self.dropped
    }
}

#[derive(Debug, Clone)]
struct Flow {
    fault_plan: FaultPlan,
    stats: FlowStats,
}

/// A shared bottleneck uplink carrying one flow per session.
///
/// Mirrors [`Link`]'s channel model — token-bucket queue, coherence-
/// interval bandwidth re-rolls, half-normal jitter, tail drop — but the
/// queue, bandwidth trace and RNG are shared across flows, while fault
/// timelines and accounting are per flow. A flow-local
/// [`BandwidthCollapse`](crate::FaultKind::BandwidthCollapse) throttles
/// that flow's access rate into the shared bottleneck (a degraded last
/// hop); shaping the bottleneck itself is the shared plan's job.
#[derive(Debug, Clone)]
pub struct SharedLink {
    profile: LinkProfile,
    rng: SmallRng,
    queue_bits: f64,
    clock_ms: f64,
    current_mbps: f64,
    next_reroll_ms: f64,
    shared_faults: FaultPlan,
    flows: Vec<Flow>,
}

impl SharedLink {
    /// Creates a shared link; identical seeds give identical channel
    /// traces for identical send sequences.
    pub fn new(profile: LinkProfile, seed: u64) -> Self {
        SharedLink::with_faults(profile, seed, FaultPlan::default())
    }

    /// Creates a shared link whose bottleneck follows a scripted fault
    /// timeline (bandwidth collapses and outages hitting every flow).
    pub fn with_faults(profile: LinkProfile, seed: u64, shared_faults: FaultPlan) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let current_mbps = draw_bandwidth(&profile, &mut rng);
        SharedLink {
            next_reroll_ms: profile.coherence_ms,
            profile,
            rng,
            queue_bits: 0.0,
            clock_ms: 0.0,
            current_mbps,
            shared_faults,
            flows: Vec::new(),
        }
    }

    /// Registers a flow with its own fault timeline; returns the flow id
    /// used by [`send`](Self::send).
    pub fn add_flow(&mut self, fault_plan: FaultPlan) -> usize {
        self.flows.push(Flow {
            fault_plan,
            stats: FlowStats::default(),
        });
        self.flows.len() - 1
    }

    /// The link profile of the shared bottleneck.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// This flow's transmission accounting so far.
    pub fn stats(&self, flow: usize) -> FlowStats {
        self.flows[flow].stats
    }

    /// Records the fair-share rate allocated to `flow` for one tick. The
    /// allocator (the fleet loop) calls this every tick for every active
    /// flow, so the ledger carries allocated-vs-consumed alongside the
    /// drop causes. Rates are rounded to whole kbit/s (fixed point keeps
    /// [`FlowStats`] `Eq`).
    pub fn note_allocation(&mut self, flow: usize, mbps: f64) {
        let stats = &mut self.flows[flow].stats;
        stats.allocated_kbps_sum += (mbps.max(0.0) * 1000.0).round() as u64;
        stats.alloc_ticks += 1;
    }

    /// The bottleneck goodput at the link's current clock, with any active
    /// shared bandwidth fault applied.
    pub fn effective_mbps(&self) -> f64 {
        self.current_mbps * self.shared_faults.bandwidth_factor(self.clock_ms)
    }

    /// One-way latency sample for a tiny (input/control) packet of `flow`.
    pub fn control_latency_ms(&mut self, flow: usize) -> f64 {
        let jitter =
            self.jitter_sample() * self.flows[flow].fault_plan.jitter_factor(self.clock_ms);
        self.profile.rtt_ms / 2.0 + jitter
    }

    fn jitter_sample(&mut self) -> f64 {
        // half-normal approximation from the mean of uniforms (same
        // construction as [`Link`])
        let u: f64 = (0..4).map(|_| self.rng.gen::<f64>()).sum::<f64>() / 4.0;
        (u - 0.5).abs() * 4.0 * self.profile.jitter_ms
    }

    fn advance_to(&mut self, now_ms: f64) {
        let now_ms = now_ms.max(self.clock_ms);
        let mut t = self.clock_ms;
        while t < now_ms {
            let step_end = now_ms.min(self.next_reroll_ms);
            let dt = step_end - t;
            let factor = self.shared_faults.bandwidth_factor((t + step_end) / 2.0);
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

    /// Sends a frame of `bytes` on `flow` at `send_time_ms`. Send times
    /// must be non-decreasing across calls (across *all* flows — the
    /// bottleneck has one clock).
    pub fn send(&mut self, flow: usize, bytes: usize, send_time_ms: f64) -> Transfer {
        self.advance_to(send_time_ms);
        let stats = &mut self.flows[flow].stats;
        stats.sent += 1;
        stats.bytes += bytes as u64;
        // Outage first — exactly one cause per drop. A flow inside an
        // outage window records Outage even if the queue is also full.
        if self.shared_faults.is_outage(send_time_ms)
            || self.flows[flow].fault_plan.is_outage(send_time_ms)
        {
            let stats = &mut self.flows[flow].stats;
            stats.dropped += 1;
            stats.drops_outage += 1;
            return Transfer {
                drop_cause: Some(DropCause::Outage),
                arrival_ms: f64::NAN,
                transit_ms: f64::NAN,
            };
        }
        let bits = bytes as f64 * 8.0;
        // The flow's access rate into the shared bottleneck: the shared
        // rate shaped by the shared plan, throttled by any flow-local
        // collapse (a degraded last hop slows *this* flow's admission
        // without speeding or slowing anyone else's drain).
        let rate_bits_per_ms = self.current_mbps
            * self.shared_faults.bandwidth_factor(send_time_ms)
            * self.flows[flow].fault_plan.bandwidth_factor(send_time_ms)
            * 1000.0;
        let queue_after_ms = (self.queue_bits + bits) / rate_bits_per_ms;
        if queue_after_ms > self.profile.queue_limit_ms {
            // Cross-session contention lands here too: the queue may be
            // full of other flows' bits, but the refused frame is charged
            // to the victim as congestion — never as an outage.
            let stats = &mut self.flows[flow].stats;
            stats.dropped += 1;
            stats.drops_queue_overflow += 1;
            return Transfer {
                drop_cause: Some(DropCause::QueueOverflow),
                arrival_ms: f64::NAN,
                transit_ms: f64::NAN,
            };
        }
        self.queue_bits += bits;
        self.flows[flow].stats.bytes_delivered += bytes as u64;
        let jitter = self.jitter_sample() * self.flows[flow].fault_plan.jitter_factor(send_time_ms);
        let transit = queue_after_ms + self.profile.rtt_ms / 2.0 + jitter;
        Transfer {
            drop_cause: None,
            arrival_ms: send_time_ms + transit,
            transit_ms: transit,
        }
    }
}

/// A single-flow [`SharedLink`] reproduces [`Link`]'s channel model; this
/// helper builds both from one seed for equivalence tests.
pub fn paired_single_flow(profile: LinkProfile, seed: u64) -> (Link, SharedLink) {
    let single = Link::new(profile.clone(), seed);
    let mut shared = SharedLink::new(profile, seed);
    let _ = shared.add_flow(FaultPlan::default());
    (single, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultEvent, FaultKind};

    #[test]
    fn single_flow_matches_the_single_session_link_exactly() {
        let (mut single, mut shared) = paired_single_flow(LinkProfile::wifi(), 77);
        for i in 0..200 {
            let t = i as f64 * 16.66;
            let a = single.send(24_000, t);
            let b = shared.send(0, 24_000, t);
            assert_eq!(a.drop_cause, b.drop_cause, "t={t}");
            if a.delivered() {
                assert_eq!(a.transit_ms.to_bits(), b.transit_ms.to_bits(), "t={t}");
            }
        }
        assert!(shared.stats(0).consistent());
    }

    #[test]
    fn contention_charges_the_victim_with_queue_overflow_not_outage() {
        // Flow 0 streams small frames that fit a quiet link easily; flow 1
        // floods the shared queue. Flow 0's drops must be congestion.
        let profile = LinkProfile {
            bandwidth_cv: 0.0,
            jitter_ms: 0.0,
            ..LinkProfile::wifi()
        };
        let mut alone = SharedLink::new(profile.clone(), 5);
        let a = alone.add_flow(FaultPlan::default());
        let mut contended = SharedLink::new(profile, 5);
        let v = contended.add_flow(FaultPlan::default());
        let bully = contended.add_flow(FaultPlan::default());
        for i in 0..240 {
            let t = i as f64 * 16.66;
            assert!(alone.send(a, 40_000, t).delivered(), "uncontended at {t}");
            let victim = contended.send(v, 40_000, t);
            // the bully offers ~2.5x the line rate spread across the tick,
            // keeping the shared queue pinned at its cap right up to the
            // victim's next send
            for k in 0..8 {
                let _ = contended.send(bully, 40_000, t + k as f64 * 16.66 / 8.0);
            }
            if let Some(cause) = victim.drop_cause {
                assert_eq!(cause, DropCause::QueueOverflow, "t={t}");
            }
        }
        let vs = contended.stats(v);
        assert!(
            vs.drops_queue_overflow > 0,
            "contention never overflowed on the victim"
        );
        assert_eq!(vs.drops_outage, 0);
        assert!(vs.consistent(), "ledger double-counted or lost a drop");
        assert!(contended.stats(bully).consistent());
        assert_eq!(alone.stats(a).dropped, 0);
    }

    #[test]
    fn outage_wins_over_a_full_queue_and_is_counted_once() {
        // The victim's flow is in an outage window while the bully keeps
        // the queue saturated: each drop carries exactly one cause.
        let profile = LinkProfile {
            bandwidth_cv: 0.0,
            jitter_ms: 0.0,
            ..LinkProfile::wifi()
        };
        let mut link = SharedLink::new(profile, 9);
        let v = link.add_flow(FaultPlan::new(vec![FaultEvent {
            start_ms: 0.0,
            end_ms: 2_000.0,
            kind: FaultKind::Outage,
        }]));
        let bully = link.add_flow(FaultPlan::default());
        for i in 0..120 {
            let t = i as f64 * 16.66;
            let tv = link.send(v, 20_000, t);
            let _ = link.send(bully, 400_000, t);
            assert_eq!(tv.drop_cause, Some(DropCause::Outage), "t={t}");
        }
        let vs = link.stats(v);
        assert_eq!(vs.drops_outage, vs.dropped);
        assert_eq!(vs.drops_queue_overflow, 0);
        assert!(vs.consistent());
    }

    #[test]
    fn flow_local_outage_does_not_touch_other_flows() {
        let plan = FaultPlan::new(vec![FaultEvent {
            start_ms: 100.0,
            end_ms: 500.0,
            kind: FaultKind::Outage,
        }]);
        let mut link = SharedLink::new(LinkProfile::wifi(), 13);
        let faulty = link.add_flow(plan);
        let healthy = link.add_flow(FaultPlan::default());
        for i in 0..60 {
            let t = i as f64 * 16.66;
            let tf = link.send(faulty, 2_000, t);
            let th = link.send(healthy, 2_000, t);
            if (100.0..500.0).contains(&t) {
                assert_eq!(tf.drop_cause, Some(DropCause::Outage), "t={t}");
            } else {
                assert!(tf.delivered(), "t={t}");
            }
            assert!(th.delivered(), "healthy flow dropped at {t}");
        }
    }

    #[test]
    fn identical_seeds_and_send_orders_replay_identically() {
        let run = || {
            let mut link = SharedLink::new(LinkProfile::mmwave_5g(), 21);
            let f0 = link.add_flow(FaultPlan::default());
            let f1 = link.add_flow(FaultPlan::default());
            let mut out = Vec::new();
            for i in 0..120 {
                let t = i as f64 * 16.66;
                for f in [f0, f1] {
                    let tr = link.send(f, 60_000, t);
                    out.push((tr.drop_cause, tr.arrival_ms.to_bits()));
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ledger_tracks_delivered_bytes_and_allocated_rate() {
        let profile = LinkProfile {
            bandwidth_cv: 0.0,
            jitter_ms: 0.0,
            ..LinkProfile::wifi()
        };
        let mut link = SharedLink::new(profile, 11);
        let f = link.add_flow(FaultPlan::new(vec![FaultEvent {
            start_ms: 200.0,
            end_ms: 400.0,
            kind: FaultKind::Outage,
        }]));
        for i in 0..60 {
            let t = i as f64 * 16.66;
            link.note_allocation(f, 18.0);
            let _ = link.send(f, 10_000, t);
        }
        let s = link.stats(f);
        assert!(s.dropped > 0, "the outage window must drop frames");
        assert_eq!(
            s.bytes_delivered,
            s.bytes - s.dropped * 10_000,
            "delivered bytes must exclude exactly the dropped frames"
        );
        assert_eq!(s.alloc_ticks, 60);
        assert_eq!(s.allocated_kbps_sum, 60 * 18_000);
        assert_eq!(s.mean_allocated_mbps(), Some(18.0));
        assert_eq!(FlowStats::default().mean_allocated_mbps(), None);
        assert!(s.consistent());
    }
}
