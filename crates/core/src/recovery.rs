//! Decoder crash recovery: an explicit, deterministic state machine.
//!
//! Production streaming clients (Moonlight, Stadia's client, GFN) all ship
//! a decoder recovery manager, because on commodity phones the hardware
//! video decoder *does* die mid-session — codec process crashes, DRM
//! session loss, surface teardown on rotation. This module models that
//! failure mode for the simulator: when a [`FaultKind::DecoderCrash`]
//! window asserts the crash signal, the session walks
//!
//! ```text
//! Healthy → Draining → Reconfiguring → AwaitingKeyframe → Healthy
//! ```
//!
//! with a per-state frame budget at every step. Repeated crashes (or
//! keyframe-resync timeouts) grow the reconfigure budget with bounded
//! exponential backoff, and after more than [`MAX_STRIKES`] failures
//! inside one stability window the machine falls back permanently to a
//! *safe profile* — the session pins the degradation ladder to its
//! bilinear floor rather than risking another crash loop. The budgets are
//! the constants below. During recovery the session repeats the last good
//! frame (frozen display slots) with the ladder floor engaged, and resyncs
//! via a NACK-forced keyframe on re-entry, so a crash never turns into a
//! permanent freeze.
//!
//! Everything here counts frames, never wall clocks, so identical crash
//! timelines replay bit-identically at any worker count — the same
//! contract as the rest of the pipeline.
//!
//! [`FaultKind::DecoderCrash`]: gss_net::FaultKind::DecoderCrash

use serde::{Deserialize, Serialize};

/// Where the recovery state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryState {
    /// The decoder is up and decoding.
    Healthy,
    /// The crashed codec's queued buffers are being flushed.
    Draining,
    /// The codec is being torn down and reinitialized.
    Reconfiguring,
    /// The codec is up again but has no reference frame: only a keyframe
    /// can restart decoding.
    AwaitingKeyframe,
}

impl RecoveryState {
    /// Kebab-case label for telemetry details and reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryState::Healthy => "healthy",
            RecoveryState::Draining => "draining",
            RecoveryState::Reconfiguring => "reconfiguring",
            RecoveryState::AwaitingKeyframe => "awaiting-keyframe",
        }
    }

    /// Stable numeric encoding for the `recovery-state` gauge
    /// (0 = healthy … 3 = awaiting keyframe).
    pub fn gauge_value(self) -> f64 {
        match self {
            RecoveryState::Healthy => 0.0,
            RecoveryState::Draining => 1.0,
            RecoveryState::Reconfiguring => 2.0,
            RecoveryState::AwaitingKeyframe => 3.0,
        }
    }
}

/// Frames spent flushing the dead codec's buffers.
pub const DRAIN_FRAMES: usize = 2;
/// Base frames spent reinitializing the codec (before backoff).
pub const RECONFIGURE_FRAMES: usize = 3;
/// Frames to wait for the resync keyframe before declaring the attempt
/// failed and reconfiguring again.
pub const AWAIT_KEYFRAME_FRAMES: usize = 8;
/// First backoff increment added to the reconfigure budget on the second
/// strike; doubles per further strike.
pub const BACKOFF_BASE_FRAMES: usize = 4;
/// Ceiling on the backoff increment, frames.
pub const BACKOFF_MAX_FRAMES: usize = 32;
/// Strikes (crashes plus failed resyncs inside one stability window)
/// tolerated before the permanent safe-profile fallback.
pub const MAX_STRIKES: u32 = 3;
/// Healthy frames after a recovery before the strike count forgives — a
/// crash landing inside this window counts as a repeat offence.
pub const STABILITY_FRAMES: usize = 240;

/// One observable transition of the machine, for trace instants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecoveryEvent {
    /// The crash signal rose: the decoder just died.
    CrashDetected {
        /// Repeat-offence count inside the current stability window.
        strike: u32,
    },
    /// The machine entered [`RecoveryState::Reconfiguring`].
    Reconfiguring {
        /// Which attempt this is (equals the strike count).
        attempt: u32,
        /// Frames this reconfigure will take, backoff included.
        budget_frames: usize,
    },
    /// The machine entered [`RecoveryState::AwaitingKeyframe`] and the
    /// session should force a NACK keyframe resync.
    AwaitingKeyframe,
    /// The keyframe never arrived inside its budget; the attempt failed.
    AttemptFailed {
        /// Which attempt failed.
        attempt: u32,
    },
    /// A keyframe decoded: the machine is healthy again.
    Recovered {
        /// Frames the whole episode took, crash to resync.
        frames: u64,
    },
    /// Too many strikes: the machine has permanently fallen back to the
    /// safe profile (ladder floor).
    SafeProfileFallback,
}

impl RecoveryEvent {
    /// Human-readable detail string for the `recovery` trace instant.
    pub fn detail(&self) -> String {
        match self {
            RecoveryEvent::CrashDetected { strike } => {
                format!("recovery: decoder crash detected (strike {strike}) -> draining")
            }
            RecoveryEvent::Reconfiguring {
                attempt,
                budget_frames,
            } => format!(
                "recovery: reconfiguring decoder (attempt {attempt}, budget {budget_frames} frames)"
            ),
            RecoveryEvent::AwaitingKeyframe => "recovery: awaiting keyframe resync".to_owned(),
            RecoveryEvent::AttemptFailed { attempt } => {
                format!("recovery: keyframe window expired (attempt {attempt} failed)")
            }
            RecoveryEvent::Recovered { frames } => {
                format!("recovery: healthy again after {frames} frames")
            }
            RecoveryEvent::SafeProfileFallback => {
                "recovery: safe-profile fallback engaged (ladder pinned to floor)".to_owned()
            }
        }
    }
}

/// End-of-session aggregate of the machine's history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoverySummary {
    /// Decoder crashes observed (rising edges of the crash signal).
    pub crashes: u64,
    /// Reconfigure attempts started (> crashes when resyncs time out).
    pub reconfigures: u64,
    /// Keyframe resyncs that timed out.
    pub failed_attempts: u64,
    /// Whether the permanent safe-profile fallback engaged.
    pub safe_profile_fallback: bool,
    /// Frames each completed recovery episode took, crash to resync, in
    /// episode order.
    pub recovery_frames: Vec<u64>,
    /// Frames the display repeated (frozen) while the machine was not
    /// healthy; maintained by the session, not the machine.
    pub frozen_frames: u64,
}

impl RecoverySummary {
    /// p99 of time-to-recover across completed episodes, in ms, given the
    /// frame interval (exact order statistic on the sorted episode list;
    /// 0 when no episode completed).
    pub fn time_to_recover_p99_ms(&self, frame_interval_ms: f64) -> f64 {
        if self.recovery_frames.is_empty() {
            return 0.0;
        }
        let mut v = self.recovery_frames.clone();
        v.sort_unstable();
        let idx = ((v.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
        v[idx.min(v.len() - 1)] as f64 * frame_interval_ms
    }

    /// The longest completed recovery episode, frames (0 when none).
    pub fn worst_recovery_frames(&self) -> u64 {
        self.recovery_frames.iter().copied().max().unwrap_or(0)
    }
}

/// The recovery state machine. Drive it with [`RecoveryMachine::begin_frame`]
/// (crash signal sampled at the frame's send time) and
/// [`RecoveryMachine::end_frame`] (whether a keyframe decoded this frame);
/// both return the transitions they caused, for telemetry.
#[derive(Debug, Clone)]
pub struct RecoveryMachine {
    state: RecoveryState,
    frames_in_state: usize,
    reconfigure_budget: usize,
    strikes: u32,
    stability_left: usize,
    safe_profile: bool,
    prev_crash: bool,
    episode_frames: u64,
    summary: RecoverySummary,
}

impl RecoveryMachine {
    /// Builds a healthy machine.
    pub fn new() -> Self {
        RecoveryMachine {
            state: RecoveryState::Healthy,
            frames_in_state: 0,
            reconfigure_budget: RECONFIGURE_FRAMES,
            strikes: 0,
            stability_left: 0,
            safe_profile: false,
            prev_crash: false,
            episode_frames: 0,
            summary: RecoverySummary::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> RecoveryState {
        self.state
    }

    /// `true` while the decoder is anything but fully healthy.
    pub fn in_recovery(&self) -> bool {
        self.state != RecoveryState::Healthy
    }

    /// Whether the permanent safe-profile fallback has engaged.
    pub fn safe_profile(&self) -> bool {
        self.safe_profile
    }

    /// Aggregate history so far.
    pub fn summary(&self) -> &RecoverySummary {
        &self.summary
    }

    /// Records one frozen display slot during recovery (session calls
    /// this; the machine itself does not know about the display).
    pub fn note_frozen(&mut self) {
        self.summary.frozen_frames += 1;
    }

    /// Consumes the machine, yielding its summary.
    pub fn into_summary(self) -> RecoverySummary {
        self.summary
    }

    /// Whether a frame of the given type can be decoded right now:
    /// everything while healthy, only a keyframe while awaiting resync,
    /// nothing while draining or reconfiguring.
    pub fn can_decode(&self, is_keyframe: bool) -> bool {
        match self.state {
            RecoveryState::Healthy => true,
            RecoveryState::AwaitingKeyframe => is_keyframe,
            RecoveryState::Draining | RecoveryState::Reconfiguring => false,
        }
    }

    /// Advances the machine by one frame given the sampled crash signal.
    /// Returns the transitions taken, in order.
    pub fn begin_frame(&mut self, crash_signal: bool) -> Vec<RecoveryEvent> {
        let mut events = Vec::new();
        let rising = crash_signal && !self.prev_crash;
        self.prev_crash = crash_signal;
        if rising {
            self.summary.crashes += 1;
            // a crash inside the stability window (or while already
            // recovering) is a repeat offence; otherwise the slate is clean
            self.strikes = if self.state != RecoveryState::Healthy || self.stability_left > 0 {
                self.strikes + 1
            } else {
                1
            };
            if self.state == RecoveryState::Healthy {
                self.episode_frames = 0;
            }
            events.push(RecoveryEvent::CrashDetected {
                strike: self.strikes,
            });
            self.state = RecoveryState::Draining;
            self.frames_in_state = 0;
        }
        match self.state {
            RecoveryState::Healthy => {
                self.stability_left = self.stability_left.saturating_sub(1);
            }
            RecoveryState::Draining => {
                self.episode_frames += 1;
                self.frames_in_state += 1;
                if self.frames_in_state >= DRAIN_FRAMES {
                    self.enter_reconfiguring(&mut events);
                }
            }
            RecoveryState::Reconfiguring => {
                self.episode_frames += 1;
                self.frames_in_state += 1;
                if self.frames_in_state >= self.reconfigure_budget {
                    self.state = RecoveryState::AwaitingKeyframe;
                    self.frames_in_state = 0;
                    events.push(RecoveryEvent::AwaitingKeyframe);
                }
            }
            RecoveryState::AwaitingKeyframe => {
                self.episode_frames += 1;
            }
        }
        events
    }

    /// Closes the frame: `keyframe_decoded` says whether an intra frame
    /// was delivered *and* decoded this frame. Only meaningful while
    /// awaiting the resync keyframe; a no-op otherwise.
    pub fn end_frame(&mut self, keyframe_decoded: bool) -> Vec<RecoveryEvent> {
        let mut events = Vec::new();
        if self.state != RecoveryState::AwaitingKeyframe {
            return events;
        }
        if keyframe_decoded {
            self.state = RecoveryState::Healthy;
            self.frames_in_state = 0;
            self.stability_left = STABILITY_FRAMES;
            self.summary.recovery_frames.push(self.episode_frames);
            events.push(RecoveryEvent::Recovered {
                frames: self.episode_frames,
            });
        } else {
            self.frames_in_state += 1;
            if self.frames_in_state >= AWAIT_KEYFRAME_FRAMES {
                self.summary.failed_attempts += 1;
                self.strikes += 1;
                events.push(RecoveryEvent::AttemptFailed {
                    attempt: self.strikes,
                });
                self.enter_reconfiguring(&mut events);
            }
        }
        events
    }

    /// Starts (or restarts) the reconfigure phase, applying exponential
    /// backoff and — past the strike limit — the safe-profile fallback.
    fn enter_reconfiguring(&mut self, events: &mut Vec<RecoveryEvent>) {
        self.summary.reconfigures += 1;
        let extra = if self.strikes <= 1 {
            0
        } else {
            let shift = (self.strikes - 2).min(16);
            (BACKOFF_BASE_FRAMES << shift).min(BACKOFF_MAX_FRAMES)
        };
        self.reconfigure_budget = RECONFIGURE_FRAMES + extra;
        if !self.safe_profile && self.strikes > MAX_STRIKES {
            self.safe_profile = true;
            self.summary.safe_profile_fallback = true;
            events.push(RecoveryEvent::SafeProfileFallback);
        }
        events.push(RecoveryEvent::Reconfiguring {
            attempt: self.strikes.max(1),
            budget_frames: self.reconfigure_budget,
        });
        self.state = RecoveryState::Reconfiguring;
        self.frames_in_state = 0;
    }
}

impl Default for RecoveryMachine {
    fn default() -> Self {
        RecoveryMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one crash through drain + reconfigure, returning the machine
    /// in `AwaitingKeyframe`.
    fn crash_to_awaiting(m: &mut RecoveryMachine) {
        let ev = m.begin_frame(true);
        assert!(matches!(ev[0], RecoveryEvent::CrashDetected { .. }));
        assert_eq!(m.state(), RecoveryState::Draining);
        let mut guard = 0;
        while m.state() != RecoveryState::AwaitingKeyframe {
            m.begin_frame(false);
            m.end_frame(false);
            guard += 1;
            assert!(guard < 100, "machine never reached AwaitingKeyframe");
        }
    }

    #[test]
    fn healthy_machine_stays_healthy_and_decodes_everything() {
        let mut m = RecoveryMachine::new();
        for _ in 0..100 {
            assert!(m.begin_frame(false).is_empty());
            assert!(m.end_frame(false).is_empty());
        }
        assert_eq!(m.state(), RecoveryState::Healthy);
        assert!(m.can_decode(false));
        assert!(m.can_decode(true));
        assert_eq!(m.summary().crashes, 0);
    }

    #[test]
    fn single_crash_walks_the_four_states_and_recovers_on_keyframe() {
        let mut m = RecoveryMachine::new();
        crash_to_awaiting(&mut m);
        assert!(!m.can_decode(false), "inter frames are useless pre-resync");
        assert!(m.can_decode(true), "a keyframe restarts the decoder");
        m.begin_frame(false);
        let ev = m.end_frame(true);
        assert!(matches!(ev[0], RecoveryEvent::Recovered { .. }));
        assert_eq!(m.state(), RecoveryState::Healthy);
        assert_eq!(m.summary().crashes, 1);
        assert_eq!(m.summary().reconfigures, 1);
        assert_eq!(m.summary().recovery_frames.len(), 1);
        // drain 2 + reconfigure 3 + 1 awaiting frame = 6 frames
        assert_eq!(m.summary().recovery_frames[0], 6);
        assert!(!m.safe_profile());
    }

    #[test]
    fn decoder_is_down_while_draining_and_reconfiguring() {
        let mut m = RecoveryMachine::new();
        m.begin_frame(true);
        assert_eq!(m.state(), RecoveryState::Draining);
        assert!(!m.can_decode(true), "even a keyframe is useless mid-drain");
        m.begin_frame(false);
        m.begin_frame(false);
        assert_eq!(m.state(), RecoveryState::Reconfiguring);
        assert!(!m.can_decode(true));
    }

    #[test]
    fn keyframe_timeout_fails_the_attempt_and_backs_off() {
        let mut m = RecoveryMachine::new();
        crash_to_awaiting(&mut m);
        // starve the resync: the await budget expires
        let mut failed = false;
        for _ in 0..AWAIT_KEYFRAME_FRAMES {
            m.begin_frame(false);
            let ev = m.end_frame(false);
            if ev
                .iter()
                .any(|e| matches!(e, RecoveryEvent::AttemptFailed { .. }))
            {
                failed = true;
                assert_eq!(m.state(), RecoveryState::Reconfiguring);
            }
        }
        assert!(failed, "the keyframe window never expired");
        assert_eq!(m.summary().failed_attempts, 1);
        assert_eq!(m.summary().reconfigures, 2);
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let mut m = RecoveryMachine::new();
        let mut budgets = Vec::new();
        m.begin_frame(true);
        for _ in 0..400 {
            let mut ev = m.begin_frame(false);
            ev.extend(m.end_frame(false));
            for e in ev {
                if let RecoveryEvent::Reconfiguring { budget_frames, .. } = e {
                    budgets.push(budget_frames);
                }
            }
            if budgets.len() >= 5 {
                break;
            }
        }
        // base 3, then +4, +8, +16, +32 (saturated at backoff_max 32)
        assert_eq!(budgets, vec![3, 7, 11, 19, 35]);
    }

    #[test]
    fn repeated_crashes_inside_the_stability_window_trigger_fallback() {
        let mut m = RecoveryMachine::new();
        let mut fallback_at_strike = None;
        for strike in 1..=5u32 {
            m.begin_frame(true);
            // drive to recovery, feeding the keyframe as soon as possible
            let mut guard = 0;
            while m.state() != RecoveryState::Healthy {
                let mut ev = m.begin_frame(false);
                ev.extend(m.end_frame(m.state() == RecoveryState::AwaitingKeyframe));
                if ev
                    .iter()
                    .any(|e| matches!(e, RecoveryEvent::SafeProfileFallback))
                {
                    fallback_at_strike.get_or_insert(strike);
                }
                guard += 1;
                assert!(guard < 200, "recovery never completed");
            }
            // next crash lands well inside the 240-frame stability window
            for _ in 0..10 {
                m.begin_frame(false);
            }
        }
        // strikes 1..3 tolerated, the 4th crosses max_strikes
        assert_eq!(fallback_at_strike, Some(4));
        assert!(m.safe_profile());
        assert!(m.summary().safe_profile_fallback);
        assert_eq!(m.summary().crashes, 5);
        // the machine still recovers after the fallback — it is a profile
        // clamp, not a terminal freeze
        assert_eq!(m.state(), RecoveryState::Healthy);
        assert_eq!(m.summary().recovery_frames.len(), 5);
    }

    #[test]
    fn a_quiet_stability_window_forgives_old_strikes() {
        let mut m = RecoveryMachine::new();
        for _ in 0..4 {
            m.begin_frame(true);
            let mut guard = 0;
            while m.state() != RecoveryState::Healthy {
                m.begin_frame(false);
                m.end_frame(m.state() == RecoveryState::AwaitingKeyframe);
                guard += 1;
                assert!(guard < 200);
            }
            // outlive the stability window before the next crash
            for _ in 0..STABILITY_FRAMES + 1 {
                m.begin_frame(false);
            }
        }
        assert!(
            !m.safe_profile(),
            "well-spaced crashes must never trip the fallback"
        );
        assert_eq!(m.summary().crashes, 4);
    }

    #[test]
    fn crash_during_recovery_restarts_the_drain_within_the_episode() {
        let mut m = RecoveryMachine::new();
        crash_to_awaiting(&mut m);
        let ev = m.begin_frame(true);
        assert!(matches!(ev[0], RecoveryEvent::CrashDetected { strike: 2 }));
        assert_eq!(m.state(), RecoveryState::Draining);
        // one episode, counted from the first crash
        let mut guard = 0;
        while m.state() != RecoveryState::Healthy {
            m.begin_frame(false);
            m.end_frame(m.state() == RecoveryState::AwaitingKeyframe);
            guard += 1;
            assert!(guard < 200);
        }
        assert_eq!(m.summary().crashes, 2);
        assert_eq!(
            m.summary().recovery_frames.len(),
            1,
            "a mid-recovery crash extends the episode, it does not split it"
        );
    }

    #[test]
    fn summary_percentile_is_exact_on_the_sorted_episodes() {
        let s = RecoverySummary {
            recovery_frames: vec![6, 10, 8],
            ..RecoverySummary::default()
        };
        let frame_ms = 1000.0 / 60.0;
        assert!((s.time_to_recover_p99_ms(frame_ms) - 10.0 * frame_ms).abs() < 1e-9);
        assert_eq!(s.worst_recovery_frames(), 10);
        assert_eq!(
            RecoverySummary::default().time_to_recover_p99_ms(frame_ms),
            0.0
        );
    }

    #[test]
    fn gauge_values_and_labels_are_stable() {
        let states = [
            RecoveryState::Healthy,
            RecoveryState::Draining,
            RecoveryState::Reconfiguring,
            RecoveryState::AwaitingKeyframe,
        ];
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.gauge_value(), i as f64);
        }
        let labels: std::collections::HashSet<&str> = states.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), states.len());
    }
}
