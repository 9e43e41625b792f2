//! Adaptive degradation under faults — the client's resilience controller.
//!
//! The paper evaluates GameStreamSR on healthy channels and a cool NPU; a
//! deployment sees neither. This module adds the control loop that keeps
//! the stream at 60 FPS when the world turns hostile: a rolling window of
//! deadline misses and link drops drives a **degradation ladder**, and a
//! NACK manager with exponential backoff bounds how long a lost reference
//! frame can freeze the display.
//!
//! # The ladder
//!
//! Each rung pairs an SR model tier with the *fraction of the 16.66 ms
//! frame budget the NPU pass may occupy at nominal clocks* and a rate-
//! controller scale. Descending a rung shrinks the RoI window so the NPU
//! pass fits the reduced occupancy — which is exactly what absorbs a
//! thermal slowdown: a rung whose pass occupies 35% of the budget still
//! meets the deadline when the NPU runs 2.5× slower. The bottom rung
//! unloads the NPU entirely (GPU bilinear of the whole frame — the quality
//! floor that can never miss). The rate scale rides along so a collapsed
//! link sees a stream it can actually carry.
//!
//! Climbing back is hysteretic: a full streak of clean frames per rung,
//! with a cooldown between transitions, so a marginal channel does not
//! make the ladder oscillate.

use gss_platform::{DeviceProfile, REALTIME_BUDGET_MS};
use gss_sr::ModelTier;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LadderRung {
    /// SR model on the NPU; `None` is the bilinear-only floor.
    pub tier: Option<ModelTier>,
    /// Fraction of [`REALTIME_BUDGET_MS`] the NPU pass may occupy at
    /// nominal clocks (0 on the floor).
    pub npu_budget_fraction: f64,
    /// Scale applied to the rate controller's byte budget.
    pub rate_scale: f64,
}

impl LadderRung {
    /// The RoI side (deployment-scale pixels) this rung runs: the largest
    /// window whose NPU pass fits the rung's budget share under the rung's
    /// model, never exceeding `base_side` (the session's step-0 plan).
    pub fn roi_side(&self, device: &DeviceProfile, base_side: usize) -> usize {
        match self.tier {
            None => 0,
            Some(tier) => device
                .max_realtime_roi_side_for_model(
                    REALTIME_BUDGET_MS * self.npu_budget_fraction,
                    tier.cost_ratio(),
                )
                .min(base_side),
        }
    }

    /// Kebab-case label of the rung's model for reports.
    pub fn tier_label(&self) -> &'static str {
        self.tier.map_or("bilinear", ModelTier::label)
    }
}

/// The degradation ladder, full quality first. Occupancy fractions chosen
/// so each descent absorbs roughly an extra 1.8× of NPU slowdown before
/// the deadline is at risk again (rung r meets the deadline while
/// `fraction × slowdown ≲ 0.9`).
pub const LADDER: [LadderRung; 5] = [
    LadderRung {
        tier: Some(ModelTier::Edsr64),
        npu_budget_fraction: 1.0,
        rate_scale: 1.0,
    },
    LadderRung {
        tier: Some(ModelTier::Edsr64),
        npu_budget_fraction: 0.55,
        rate_scale: 0.8,
    },
    LadderRung {
        tier: Some(ModelTier::Edsr16),
        npu_budget_fraction: 0.35,
        rate_scale: 0.6,
    },
    LadderRung {
        tier: Some(ModelTier::Fsrcnn),
        npu_budget_fraction: 0.2,
        rate_scale: 0.45,
    },
    LadderRung {
        tier: None,
        npu_budget_fraction: 0.0,
        rate_scale: 0.3,
    },
];

/// Rolling window of frames the controller judges its miss count over.
pub const MISS_WINDOW_FRAMES: usize = 12;

/// Bad frames within the miss window that trigger a downgrade.
pub const DEGRADE_MISSES: usize = 4;

/// Consecutive clean frames required per upgrade step (hysteresis).
pub const RECOVER_FRAMES: usize = 18;

/// Minimum frames between any two ladder transitions.
pub const COOLDOWN_FRAMES: usize = 6;

/// Frames a NACK waits for its keyframe before re-requesting.
pub const NACK_TIMEOUT_FRAMES: usize = 3;

/// Upper bound of the NACK retry backoff, in frames.
pub const NACK_BACKOFF_MAX_FRAMES: usize = 24;

/// A ladder step taken by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LadderStep {
    /// Stepped one rung down (cheaper).
    Downgrade,
    /// Stepped one rung up (toward full quality).
    Upgrade,
}

/// Watches per-frame health and walks the degradation ladder.
#[derive(Debug, Clone)]
pub struct DegradationController {
    rung: usize,
    ceiling: usize,
    window: VecDeque<bool>,
    misses_in_window: usize,
    clean_streak: usize,
    cooldown: usize,
}

impl DegradationController {
    /// Creates a controller at the top rung.
    pub fn new() -> Self {
        DegradationController {
            rung: 0,
            ceiling: 0,
            window: VecDeque::with_capacity(MISS_WINDOW_FRAMES),
            misses_in_window: 0,
            clean_streak: 0,
            cooldown: 0,
        }
    }

    /// Current rung index (0 = full quality).
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// The current rung's parameters.
    pub fn rung_params(&self) -> LadderRung {
        LADDER[self.rung]
    }

    /// Whether the controller sits below full quality.
    pub fn is_degraded(&self) -> bool {
        self.rung > 0
    }

    /// The best (lowest-index) rung the controller may climb to. 0 unless
    /// clamped by capability negotiation or the safe-profile fallback.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// Ratchets the ceiling: the controller will never climb above
    /// `rung` again. Tightening only — a looser value than the current
    /// ceiling is ignored, so the safe-profile fallback cannot be undone
    /// by a later negotiation. Returns `true` when the *current* rung had
    /// to move down to respect the new ceiling.
    pub fn clamp_ceiling(&mut self, rung: usize) -> bool {
        self.ceiling = self.ceiling.max(rung.min(LADDER.len() - 1));
        if self.rung < self.ceiling {
            self.rung = self.ceiling;
            self.window.clear();
            self.misses_in_window = 0;
            self.clean_streak = 0;
            true
        } else {
            false
        }
    }

    /// Forces the controller to `rung` immediately (clamped to the
    /// ceiling and the ladder), clearing the rolling window — recovery
    /// uses this to engage the ladder floor the moment the decoder dies
    /// rather than waiting for the miss window to fill. Returns `true`
    /// when the rung changed.
    pub fn force_rung(&mut self, rung: usize) -> bool {
        let target = rung.clamp(self.ceiling, LADDER.len() - 1);
        if target == self.rung {
            return false;
        }
        self.rung = target;
        self.window.clear();
        self.misses_in_window = 0;
        self.clean_streak = 0;
        self.cooldown = COOLDOWN_FRAMES;
        true
    }

    /// Folds one frame's health into the rolling window and returns the
    /// ladder step taken, if any. `bad` means the frame missed its
    /// real-time deadline or the link dropped it.
    pub fn observe(&mut self, bad: bool) -> Option<LadderStep> {
        if self.window.len() == MISS_WINDOW_FRAMES && self.window.pop_front() == Some(true) {
            self.misses_in_window -= 1;
        }
        self.window.push_back(bad);
        if bad {
            self.misses_in_window += 1;
            self.clean_streak = 0;
        } else {
            self.clean_streak += 1;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if self.misses_in_window >= DEGRADE_MISSES && self.rung + 1 < LADDER.len() {
            self.rung += 1;
            self.cooldown = COOLDOWN_FRAMES;
            // stale misses belong to the rung that caused them
            self.window.clear();
            self.misses_in_window = 0;
            self.clean_streak = 0;
            return Some(LadderStep::Downgrade);
        }
        if self.clean_streak >= RECOVER_FRAMES && self.rung > self.ceiling {
            self.rung -= 1;
            self.cooldown = COOLDOWN_FRAMES;
            // hysteresis: a fresh streak is required for the next step up
            self.clean_streak = 0;
            return Some(LadderStep::Upgrade);
        }
        None
    }
}

impl Default for DegradationController {
    fn default() -> Self {
        Self::new()
    }
}

/// What a [`NackManager::begin_frame`] poll asks the session to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackSignal {
    /// First request for this loss: NACK the server now.
    Fresh,
    /// The previous request timed out: NACK again (backoff doubled).
    Retry,
}

/// Keyframe-request state machine: one NACK per loss, re-issued with
/// exponential backoff while the keyframe fails to arrive.
///
/// The retry schedule is keyed on the manager's **own** frame counter:
/// every [`begin_frame`](Self::begin_frame) poll is one frame of this
/// session's timeline, counted internally. Earlier revisions took the
/// caller's frame index, which silently coupled the backoff window to
/// whatever counter the caller happened to share — two sessions polled
/// from one loop at different frame phases would stretch or collapse each
/// other's retry windows. Per-session isolation now holds by construction.
#[derive(Debug, Clone)]
pub struct NackManager {
    awaiting: bool,
    pending_request: bool,
    /// Frames observed by this manager (incremented per poll).
    frame: usize,
    /// Retry deadline on the internal frame counter.
    deadline: Option<usize>,
    backoff: usize,
}

impl NackManager {
    /// Creates the manager with nothing outstanding.
    pub fn new() -> Self {
        NackManager {
            awaiting: false,
            pending_request: false,
            frame: 0,
            deadline: None,
            backoff: NACK_TIMEOUT_FRAMES,
        }
    }

    /// Frames this manager has observed (one per
    /// [`begin_frame`](Self::begin_frame) poll).
    pub fn frames_observed(&self) -> usize {
        self.frame
    }

    /// Whether a keyframe is still outstanding.
    pub fn awaiting(&self) -> bool {
        self.awaiting
    }

    /// The current retry backoff, in frames.
    pub fn backoff_frames(&self) -> usize {
        self.backoff
    }

    /// Records that the link lost a frame the client needed.
    pub fn on_loss(&mut self) {
        if !self.awaiting {
            self.awaiting = true;
            self.pending_request = true;
        }
    }

    /// Records that a keyframe arrived intact; resets the backoff.
    pub fn on_keyframe_delivered(&mut self) {
        self.awaiting = false;
        self.pending_request = false;
        self.deadline = None;
        self.backoff = NACK_TIMEOUT_FRAMES;
    }

    /// Polled once at the start of every frame of this session, before the
    /// server encodes: says whether to send a (re-)request this frame.
    /// Each call advances the manager's internal frame counter by one.
    pub fn begin_frame(&mut self) -> Option<NackSignal> {
        let now = self.frame;
        self.frame += 1;
        if !self.awaiting {
            return None;
        }
        if self.pending_request {
            self.pending_request = false;
            self.deadline = Some(now + self.backoff);
            return Some(NackSignal::Fresh);
        }
        if self.deadline.is_some_and(|d| now >= d) {
            self.backoff = (self.backoff * 2).min(NACK_BACKOFF_MAX_FRAMES);
            self.deadline = Some(now + self.backoff);
            return Some(NackSignal::Retry);
        }
        None
    }
}

impl Default for NackManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_descends_monotonically_in_cost_and_rate() {
        for pair in LADDER.windows(2) {
            assert!(pair[1].npu_budget_fraction < pair[0].npu_budget_fraction);
            assert!(pair[1].rate_scale < pair[0].rate_scale);
            let cost = |r: &LadderRung| r.tier.map_or(0.0, |t| t.cost_ratio());
            assert!(cost(&pair[1]) <= cost(&pair[0]));
        }
        assert_eq!(LADDER[0].tier, Some(ModelTier::Edsr64));
        assert_eq!(LADDER[0].npu_budget_fraction, 1.0);
        assert_eq!(LADDER.last().unwrap().tier, None);
    }

    #[test]
    fn rung_windows_fit_their_budget_share_and_never_grow() {
        // note the side is NOT monotone down the ladder: a cheaper model
        // can afford the full base window again (it is clamped there), it
        // just runs it in a fraction of the time
        let device = DeviceProfile::s8_tab();
        let base = device.max_realtime_roi_side(REALTIME_BUDGET_MS);
        for rung in &LADDER {
            let side = rung.roi_side(&device, base);
            assert!(side <= base, "side {side} exceeds the base plan");
            if let Some(tier) = rung.tier {
                let npu = device.npu_sr_ms_for_model(side * side, tier.cost_ratio());
                assert!(
                    npu <= REALTIME_BUDGET_MS * rung.npu_budget_fraction + 1e-9,
                    "{}: {npu:.2} ms over {:.0}% share",
                    rung.tier_label(),
                    rung.npu_budget_fraction * 100.0
                );
            }
        }
        assert_eq!(LADDER[0].roi_side(&device, base), base);
        assert_eq!(LADDER[4].roi_side(&device, base), 0);
    }

    #[test]
    fn descending_rungs_absorb_increasing_slowdown() {
        // the whole point of the ladder: at rung r the NPU pass still fits
        // the frame budget under a slowdown rung 0 cannot survive
        let device = DeviceProfile::s8_tab();
        let base = device.max_realtime_roi_side(REALTIME_BUDGET_MS);
        let fits = |rung: &LadderRung, slowdown: f64| -> bool {
            let side = rung.roi_side(&device, base);
            match rung.tier {
                None => true,
                Some(tier) => {
                    device.npu_sr_ms_throttled(side * side, tier.cost_ratio(), slowdown)
                        <= REALTIME_BUDGET_MS
                }
            }
        };
        assert!(!fits(&LADDER[0], 1.5));
        assert!(fits(&LADDER[1], 1.5));
        assert!(!fits(&LADDER[1], 2.5));
        assert!(fits(&LADDER[2], 2.5));
        assert!(fits(&LADDER[3], 4.0));
        assert!(fits(&LADDER[4], 100.0));
    }

    #[test]
    fn controller_degrades_on_misses_and_recovers_with_hysteresis() {
        let mut ctl = DegradationController::new();
        assert_eq!(ctl.rung(), 0);
        // a burst of bad frames walks one rung down
        let mut steps = Vec::new();
        for _ in 0..DEGRADE_MISSES {
            if let Some(s) = ctl.observe(true) {
                steps.push(s);
            }
        }
        assert_eq!(steps, vec![LadderStep::Downgrade]);
        assert_eq!(ctl.rung(), 1);
        // clean frames within the cooldown do nothing
        for _ in 0..COOLDOWN_FRAMES {
            assert_eq!(ctl.observe(false), None);
        }
        // a full clean streak climbs back exactly one rung
        let mut upgrades = 0;
        for _ in 0..RECOVER_FRAMES {
            if ctl.observe(false) == Some(LadderStep::Upgrade) {
                upgrades += 1;
            }
        }
        assert_eq!(upgrades, 1);
        assert_eq!(ctl.rung(), 0);
        assert!(!ctl.is_degraded());
    }

    #[test]
    fn sustained_faults_reach_the_floor_and_stop() {
        let mut ctl = DegradationController::new();
        for _ in 0..200 {
            ctl.observe(true);
        }
        assert_eq!(ctl.rung(), LADDER.len() - 1);
        assert_eq!(ctl.rung_params().tier, None);
    }

    #[test]
    fn one_bad_frame_resets_the_recovery_streak() {
        let mut ctl = DegradationController::new();
        for _ in 0..DEGRADE_MISSES {
            ctl.observe(true);
        }
        assert_eq!(ctl.rung(), 1);
        // the downgrade's cooldown runs out inside the streak
        for _ in 0..RECOVER_FRAMES - 1 {
            assert_eq!(ctl.observe(false), None);
        }
        // the streak dies one frame short; a lone miss cannot downgrade
        assert_eq!(ctl.observe(true), None);
        for _ in 0..RECOVER_FRAMES - 1 {
            assert_eq!(ctl.observe(false), None);
        }
        assert_eq!(ctl.rung(), 1, "a marginal channel must not oscillate");
        assert_eq!(ctl.observe(false), Some(LadderStep::Upgrade));
    }

    /// Polls `nack` for `n` frames, asserting every poll stays quiet.
    fn quiet_frames(nack: &mut NackManager, n: usize) {
        for _ in 0..n {
            assert_eq!(
                nack.begin_frame(),
                None,
                "unexpected signal at frame {}",
                nack.frames_observed()
            );
        }
    }

    #[test]
    fn nack_retries_with_exponential_backoff() {
        let mut nack = NackManager::new();
        assert_eq!(nack.begin_frame(), None); // frame 0: nothing lost
        nack.on_loss();
        assert_eq!(nack.begin_frame(), Some(NackSignal::Fresh)); // frame 1
                                                                 // waits out the timeout (frames 2-3)...
        quiet_frames(&mut nack, 2);
        // ...then retries with doubled backoff: 3 → 6 → 12 → 24 → 24
        assert_eq!(nack.begin_frame(), Some(NackSignal::Retry)); // frame 4
        assert_eq!(nack.backoff_frames(), 6);
        quiet_frames(&mut nack, 5); // frames 5-9
        assert_eq!(nack.begin_frame(), Some(NackSignal::Retry)); // frame 10
        assert_eq!(nack.backoff_frames(), 12);
        quiet_frames(&mut nack, 11); // frames 11-21
        assert_eq!(nack.begin_frame(), Some(NackSignal::Retry)); // frame 22
        assert_eq!(nack.backoff_frames(), 24);
        quiet_frames(&mut nack, 23); // frames 23-45
        assert_eq!(nack.begin_frame(), Some(NackSignal::Retry)); // frame 46
        assert_eq!(
            nack.backoff_frames(),
            NACK_BACKOFF_MAX_FRAMES,
            "backoff is bounded"
        );
        // delivery resets everything
        nack.on_keyframe_delivered();
        assert!(!nack.awaiting());
        assert_eq!(nack.backoff_frames(), NACK_TIMEOUT_FRAMES);
        assert_eq!(nack.begin_frame(), None); // frame 47
                                              // a second loss starts from the base timeout again
        nack.on_loss();
        assert_eq!(nack.begin_frame(), Some(NackSignal::Fresh)); // frame 48
        assert_eq!(nack.backoff_frames(), 3);
    }

    #[test]
    fn nack_schedules_are_isolated_between_sessions_at_different_phases() {
        // Two sessions polled from one loop, the second joining 17 frames
        // late: each manager's backoff window must be keyed on its own
        // frame counter, so the phase offset cannot perturb either
        // schedule. Signals are recorded relative to each session's own
        // loss and must match exactly.
        let schedule_of = |phase_lag: usize| {
            let mut nack = NackManager::new();
            for _ in 0..phase_lag {
                assert_eq!(nack.begin_frame(), None);
            }
            nack.on_loss();
            (0..40).map(|_| nack.begin_frame()).collect::<Vec<_>>()
        };
        let a = schedule_of(0);
        let b = schedule_of(17);
        assert_eq!(a, b, "phase lag leaked into the retry schedule");
        assert_eq!(a[0], Some(NackSignal::Fresh));
        assert!(a.contains(&Some(NackSignal::Retry)));

        // And interleaved polling of two live managers cannot cross-talk:
        // session B's schedule is identical whether A exists or not.
        let mut a_live = NackManager::new();
        let mut b_live = NackManager::new();
        for _ in 0..17 {
            let _ = a_live.begin_frame();
        }
        a_live.on_loss();
        b_live.on_loss();
        let mut b_signals = Vec::new();
        for _ in 0..40 {
            let _ = a_live.begin_frame();
            b_signals.push(b_live.begin_frame());
        }
        assert_eq!(b_signals, schedule_of(0));
    }

    #[test]
    fn a_clamped_ceiling_caps_recovery_and_only_ratchets_down() {
        let mut ctl = DegradationController::new();
        // negotiation says this client tops out at rung 2
        assert!(ctl.clamp_ceiling(2), "the rung must move to the ceiling");
        assert_eq!(ctl.rung(), 2);
        assert_eq!(ctl.ceiling(), 2);
        // no amount of clean frames climbs above the ceiling
        for _ in 0..10 * RECOVER_FRAMES {
            assert_eq!(ctl.observe(false), None);
        }
        assert_eq!(ctl.rung(), 2);
        // misses still walk down below the ceiling, and recovery returns
        // exactly to it
        for _ in 0..DEGRADE_MISSES {
            ctl.observe(true);
        }
        assert_eq!(ctl.rung(), 3);
        for _ in 0..2 * RECOVER_FRAMES {
            ctl.observe(false);
        }
        assert_eq!(ctl.rung(), 2);
        // loosening is ignored: the fallback cannot be undone
        assert!(!ctl.clamp_ceiling(0));
        assert_eq!(ctl.ceiling(), 2);
        // out-of-range values clamp to the floor
        ctl.clamp_ceiling(99);
        assert_eq!(ctl.ceiling(), LADDER.len() - 1);
        assert_eq!(ctl.rung(), LADDER.len() - 1);
    }

    #[test]
    fn force_rung_jumps_immediately_and_respects_the_ceiling() {
        let mut ctl = DegradationController::new();
        assert!(ctl.force_rung(LADDER.len() - 1), "jump to the floor");
        assert_eq!(ctl.rung(), LADDER.len() - 1);
        assert!(!ctl.force_rung(LADDER.len() - 1), "no-op reports false");
        // forcing upward respects a clamped ceiling
        ctl.clamp_ceiling(2);
        assert!(ctl.force_rung(0));
        assert_eq!(ctl.rung(), 2, "force cannot pierce the ceiling");
    }

    #[test]
    fn keyframe_mid_backoff_window_resets_the_schedule() {
        let mut nack = NackManager::new();
        nack.on_loss();
        assert_eq!(nack.begin_frame(), Some(NackSignal::Fresh)); // frame 0
        quiet_frames(&mut nack, 2); // frames 1-2
        assert_eq!(nack.begin_frame(), Some(NackSignal::Retry)); // frame 3
        assert_eq!(nack.backoff_frames(), 6);
        // the keyframe lands while the 6-frame retry window is still open
        nack.on_keyframe_delivered();
        assert!(!nack.awaiting());
        assert_eq!(nack.backoff_frames(), 3, "backoff resets to the base");
        // the stale deadline must not fire a ghost retry later
        quiet_frames(&mut nack, 36); // frames 4-39
                                     // and a fresh loss starts a brand-new schedule from the base
        nack.on_loss();
        assert_eq!(nack.begin_frame(), Some(NackSignal::Fresh)); // frame 40
        quiet_frames(&mut nack, 2); // frames 41-42
        assert_eq!(nack.begin_frame(), Some(NackSignal::Retry)); // frame 43
    }

    #[test]
    fn loss_and_keyframe_in_the_same_frame() {
        // the session processes the transfer outcome before polling the
        // next frame: a loss followed by a keyframe in the same frame
        // leaves no outstanding request...
        let mut nack = NackManager::new();
        nack.on_loss();
        nack.on_keyframe_delivered();
        assert!(!nack.awaiting());
        assert_eq!(nack.begin_frame(), None, "nothing outstanding");
        // ...while the reverse order (keyframe then a same-frame loss)
        // leaves exactly one fresh request for the next poll
        nack.on_keyframe_delivered();
        nack.on_loss();
        assert!(nack.awaiting());
        assert_eq!(nack.begin_frame(), Some(NackSignal::Fresh));
        assert_eq!(nack.begin_frame(), None);
    }

    #[test]
    fn duplicate_losses_do_not_stack_requests() {
        let mut nack = NackManager::new();
        nack.on_loss();
        nack.on_loss();
        nack.on_loss();
        assert_eq!(nack.begin_frame(), Some(NackSignal::Fresh));
        assert_eq!(nack.begin_frame(), None);
    }
}
