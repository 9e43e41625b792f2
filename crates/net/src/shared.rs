//! The channel model: one bottleneck, one flow per session.
//!
//! A consolidation server multiplexes every session's downlink traffic
//! through one radio/backhaul bottleneck. [`SharedLink`] models that: a
//! single token-bucket queue, bandwidth trace, and RNG — shared by all
//! flows — plus per-flow fault timelines and per-flow accounting. The
//! shared queue is what couples sessions: one session's burst steals
//! serialization capacity from everyone, so a frame can be tail-dropped
//! even though its own flow is healthy. A lone session's private downlink
//! is the one-flow case: its fault plan shapes the bottleneck, and its
//! flow carries an empty plan.
//!
//! **Fault layering.** The bottleneck ("shared") plan hits every flow; a
//! flow's plan hits only that flow. An outage in either drops the frame.
//! A shared bandwidth collapse slows the bottleneck's drain, a flow-local
//! one throttles only that flow's admission into it. Jitter spikes from
//! both plans multiply a frame's transit jitter; a control packet's
//! jitter follows its flow's plan only.
//!
//! **Drop attribution contract.** Every drop is charged to exactly one
//! cause in the *victim* flow's ledger:
//!
//! - an outage window (shared or flow-local) active at send time charges
//!   [`DropCause::Outage`] — checked first;
//! - otherwise a tail drop charges [`DropCause::QueueOverflow`] to the
//!   flow whose frame was refused, even when the queue was filled by
//!   *other* flows' traffic (cross-session contention is congestion, not
//!   an outage, from the victim's point of view).
//!
//! The per-flow ledgers partition the per-flow drop totals by
//! construction ([`FlowStats::consistent`]), so fleet-level attribution
//! can sum them without double counting.
//!
//! Determinism: one seed fixes the bandwidth trace and jitter stream, and
//! callers that present sends in a deterministic order (the fleet steps
//! sessions in session-id order) replay bit-identically at any worker
//! count.

use crate::{DropCause, FaultPlan, LinkProfile, Transfer};
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
    /// (offered).
    pub bytes_delivered: u64,
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

/// A bottleneck downlink carrying one flow per session.
///
/// Token-bucket queue, coherence-interval bandwidth re-rolls, half-normal
/// jitter, tail drop. The queue, bandwidth trace and RNG are shared across
/// flows, while fault timelines and accounting are per flow (see the
/// module docs for how the two plans layer).
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
    /// Creates a link; identical seeds give identical channel traces for
    /// identical send sequences.
    pub fn new(profile: LinkProfile, seed: u64) -> Self {
        SharedLink::with_faults(profile, seed, FaultPlan::default())
    }

    /// Creates a link whose bottleneck follows a scripted fault timeline:
    /// bandwidth collapses, outages and jitter spikes hitting every flow.
    /// Faults modulate the channel *after* the seeded random draws, so the
    /// same seed gives the same underlying trace with and without the plan.
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

    /// The link profile of the bottleneck.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// This flow's transmission accounting so far.
    pub fn stats(&self, flow: usize) -> FlowStats {
        self.flows[flow].stats
    }

    /// The bottleneck goodput at the link's current clock, with any active
    /// shared bandwidth fault applied.
    pub fn effective_mbps(&self) -> f64 {
        self.current_mbps * self.shared_faults.bandwidth_factor(self.clock_ms)
    }

    /// One-way latency sample for a tiny (input/control) packet of `flow`
    /// sent at `send_time_ms`; a jitter spike on the flow's own plan
    /// stretches it while the spike is active at that time.
    pub fn control_latency_ms(&mut self, flow: usize, send_time_ms: f64) -> f64 {
        let jitter = self.jitter_sample() * self.flows[flow].fault_plan.jitter_factor(send_time_ms);
        self.profile.rtt_ms / 2.0 + jitter
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
                transit_ms: f64::NAN,
            };
        }
        self.queue_bits += bits;
        self.flows[flow].stats.bytes_delivered += bytes as u64;
        let jitter = self.jitter_sample()
            * self.shared_faults.jitter_factor(send_time_ms)
            * self.flows[flow].fault_plan.jitter_factor(send_time_ms);
        Transfer {
            drop_cause: None,
            transit_ms: queue_after_ms + self.profile.rtt_ms / 2.0 + jitter,
        }
    }
}

fn draw_bandwidth(profile: &LinkProfile, rng: &mut SmallRng) -> f64 {
    // uniform draw scaled so the factor's standard deviation equals the
    // CV, floored at 5% of the mean so the link never fully dies
    let u: f64 = rng.gen::<f64>();
    let factor = 1.0 + (u - 0.5) * 2.0 * profile.bandwidth_cv * 1.732;
    (profile.bandwidth_mbps * factor).max(profile.bandwidth_mbps * 0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultEvent, FaultKind};

    /// A private link: one flow (id 0) with an empty plan, under the
    /// bottleneck plan `plan`.
    fn one_flow(profile: LinkProfile, seed: u64, plan: FaultPlan) -> SharedLink {
        let mut link = SharedLink::with_faults(profile, seed, plan);
        assert_eq!(link.add_flow(FaultPlan::default()), 0);
        link
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let mut a = one_flow(LinkProfile::wifi(), 7, FaultPlan::default());
        let mut b = one_flow(LinkProfile::wifi(), 7, FaultPlan::default());
        for i in 0..50 {
            let ta = a.send(0, 10_000, i as f64 * 16.66);
            let tb = b.send(0, 10_000, i as f64 * 16.66);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn small_frames_on_idle_link_always_arrive() {
        let mut link = one_flow(LinkProfile::wifi(), 3, FaultPlan::default());
        for i in 0..100 {
            let t = link.send(0, 2_000, i as f64 * 16.66);
            assert!(t.delivered());
            assert!(t.transit_ms >= link.profile().rtt_ms / 2.0);
        }
        assert_eq!(link.stats(0).drop_rate(), 0.0);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = one_flow(
            LinkProfile {
                bandwidth_cv: 0.0,
                jitter_ms: 0.0,
                ..LinkProfile::wifi()
            },
            1,
            FaultPlan::default(),
        );
        // back-to-back sends at the same instant queue up
        let t1 = link.send(0, 40_000, 0.0);
        let t2 = link.send(0, 40_000, 0.0);
        assert!(t2.transit_ms > t1.transit_ms);
        // after a long idle gap the queue is empty again
        let t3 = link.send(0, 40_000, 1000.0);
        assert!((t3.transit_ms - t1.transit_ms).abs() < 1e-6);
    }

    #[test]
    fn drop_rate_counts_correctly() {
        let mut link = one_flow(
            LinkProfile {
                bandwidth_mbps: 1.0,
                bandwidth_cv: 0.0,
                queue_limit_ms: 10.0,
                ..LinkProfile::wifi()
            },
            1,
            FaultPlan::default(),
        );
        // 10 KB at 1 Mbps = 80 ms of serialization > 10 ms queue limit
        let t = link.send(0, 10_000, 0.0);
        assert_eq!(t.drop_cause, Some(DropCause::QueueOverflow));
        assert_eq!(link.stats(0).drop_rate(), 1.0);
        assert_eq!(link.stats(0).sent, 1);
    }

    #[test]
    fn control_latency_is_half_rtt_plus_jitter() {
        let mut link = one_flow(
            LinkProfile {
                jitter_ms: 0.0,
                ..LinkProfile::wifi()
            },
            9,
            FaultPlan::default(),
        );
        assert!((link.control_latency_ms(0, 0.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn outage_window_drops_everything_with_the_outage_cause() {
        let plan = FaultPlan::new(vec![FaultEvent {
            start_ms: 100.0,
            end_ms: 300.0,
            kind: FaultKind::Outage,
        }]);
        let mut link = one_flow(LinkProfile::wifi(), 3, plan);
        for i in 0..30 {
            let t = i as f64 * 16.66;
            let transfer = link.send(0, 2_000, t);
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
        let mut clean = one_flow(LinkProfile::wifi(), 11, FaultPlan::default());
        let mut faulted = one_flow(LinkProfile::wifi(), 11, plan);
        let mut overflow_in_window = 0u32;
        for i in 0..360 {
            let t = i as f64 * 16.66;
            assert!(
                clean.send(0, 50_000, t).delivered(),
                "clean link drops at {t}"
            );
            let transfer = faulted.send(0, 50_000, t);
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
        assert!(faulted.stats(0).drop_rate() > clean.stats(0).drop_rate());
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
            x.drop_cause == y.drop_cause && x.transit_ms.to_bits() == y.transit_ms.to_bits()
        };
        let mut a = one_flow(LinkProfile::mmwave_5g(), 21, plan());
        let mut b = one_flow(LinkProfile::mmwave_5g(), 21, plan());
        let mut unfaulted = one_flow(LinkProfile::mmwave_5g(), 21, FaultPlan::default());
        for i in 0..120 {
            let t = i as f64 * 16.66;
            let ta = a.send(0, 30_000, t);
            let tb = b.send(0, 30_000, t);
            assert!(same(&ta, &tb), "t={t}: {ta:?} vs {tb:?}");
            let tu = unfaulted.send(0, 30_000, t);
            // outside every fault window, before the first one perturbs the
            // queue, the faulted link matches the bare-seed trace exactly
            if t < 500.0 {
                assert!(same(&ta, &tu), "t={t}: {ta:?} vs {tu:?}");
            }
        }
    }

    #[test]
    fn jitter_spikes_stretch_transit_and_only_flow_spikes_reach_control_packets() {
        // three links on one seed: quiet, a bottleneck-wide spike, and the
        // same spike on flow 0 alone; every send sees the same queue and
        // the same jitter draw, so any difference is the spike factor
        let spike = || {
            FaultPlan::new(vec![FaultEvent {
                start_ms: 0.0,
                end_ms: 1_000.0,
                kind: FaultKind::JitterSpike { factor: 4.0 },
            }])
        };
        let two_flows = |shared: FaultPlan, flow0: FaultPlan| {
            let mut link = SharedLink::with_faults(LinkProfile::wifi(), 17, shared);
            link.add_flow(flow0);
            link.add_flow(FaultPlan::default());
            link
        };
        let mut quiet = two_flows(FaultPlan::default(), FaultPlan::default());
        let mut shared = two_flows(spike(), FaultPlan::default());
        let mut local = two_flows(FaultPlan::default(), spike());
        let mut transit = [[0.0f64; 2]; 3];
        for i in 0..30 {
            let t = i as f64 * 16.66;
            for flow in 0..2 {
                let q = quiet.control_latency_ms(flow, t);
                // a bottleneck spike leaves control packets alone; a flow
                // spike stretches that flow's control packets too
                assert_eq!(shared.control_latency_ms(flow, t).to_bits(), q.to_bits());
                let l = local.control_latency_ms(flow, t);
                if flow == 0 {
                    assert!(l >= q, "t={t}: flow-local spike shrank control jitter");
                } else {
                    assert_eq!(l.to_bits(), q.to_bits(), "t={t}");
                }
                for (sum, link) in transit
                    .iter_mut()
                    .zip([&mut quiet, &mut shared, &mut local])
                {
                    let tr = link.send(flow, 2_000, t);
                    assert!(tr.delivered(), "t={t}");
                    sum[flow] += tr.transit_ms;
                }
            }
        }
        let [quiet, shared, local] = transit;
        for flow in 0..2 {
            assert!(
                shared[flow] > quiet[flow],
                "flow {flow}: a bottleneck spike must stretch transit ({:.3} vs {:.3} ms)",
                shared[flow],
                quiet[flow]
            );
        }
        assert!(local[0] > quiet[0]);
        assert_eq!(local[1].to_bits(), quiet[1].to_bits());
    }

    #[test]
    fn a_flow_spike_stretches_control_packets_exactly_inside_its_window() {
        // the control sample is judged at its own send time, not at the
        // link clock the previous frame left behind
        let link = |flow_plan: FaultPlan| {
            let mut link = SharedLink::new(LinkProfile::wifi(), 17);
            link.add_flow(flow_plan);
            link
        };
        let mut quiet = link(FaultPlan::default());
        let mut spiked = link(FaultPlan::new(vec![FaultEvent {
            start_ms: 100.0,
            end_ms: 200.0,
            kind: FaultKind::JitterSpike { factor: 4.0 },
        }]));
        let mut stretched = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 16.66;
            let q = quiet.control_latency_ms(0, t);
            if spiked.control_latency_ms(0, t).to_bits() != q.to_bits() {
                stretched.push(t);
            }
            quiet.send(0, 2_000, t);
            spiked.send(0, 2_000, t);
        }
        let inside: Vec<f64> = (0..20)
            .map(|i| i as f64 * 16.66)
            .filter(|t| (100.0..200.0).contains(t))
            .collect();
        assert_eq!(stretched, inside);
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
                    out.push((tr.drop_cause, tr.transit_ms.to_bits()));
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ledger_tracks_delivered_bytes() {
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
            let _ = link.send(f, 10_000, t);
        }
        let s = link.stats(f);
        assert!(s.dropped > 0, "the outage window must drop frames");
        assert_eq!(
            s.bytes_delivered,
            s.bytes - s.dropped * 10_000,
            "delivered bytes must exclude exactly the dropped frames"
        );
        assert!(s.consistent());
    }
}
