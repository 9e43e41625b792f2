//! Declarative service-level objectives with multi-window burn rates.
//!
//! A deadline miss is a boolean; an *operable* session needs to know
//! whether misses are arriving faster than the error budget allows. This
//! module evaluates a small set of declarative objectives over the frame
//! stream — p99 critical path within the real-time budget, effective FPS
//! above a floor, longest frozen run under a cap — using the classic
//! multi-window burn-rate scheme: a *fast* window (seconds of frames)
//! catches sharp regressions, a *slow* window (tens of seconds) filters
//! one-off blips, and a breach fires only when **both** windows burn the
//! error budget faster than the alert threshold. Breach entry/exit events
//! surface as [`InstantKind::SloBreach`] markers in the causal trace, so a
//! Perfetto timeline shows exactly when the session went out of contract.
//!
//! Everything here is arithmetic on modeled per-frame health bits, so the
//! engine is deterministic: identical sessions produce identical breach
//! events and identical [`SloSummary`] JSON.
//!
//! [`InstantKind::SloBreach`]: crate::InstantKind::SloBreach

use crate::json::{json_escape, json_f64};

/// Fast-window length, frames (1 s at 60 FPS).
pub const FAST_WINDOW_FRAMES: usize = 60;

/// Slow-window length, frames (5 s at 60 FPS).
pub const SLOW_WINDOW_FRAMES: usize = 300;

/// Burn-rate alert threshold of the fraction objectives: a breach fires
/// when both windows consume the error budget at least this many times
/// faster than allowed.
pub const BURN_THRESHOLD: f64 = 6.0;

/// One frame's health signals, as seen by every objective.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FrameHealth {
    /// Upscaling critical path, modeled ms (0 for frozen frames).
    pub critical_ms: f64,
    /// Did the critical path fit the real-time budget?
    pub deadline_met: bool,
    /// Was the display slot a frozen repeat (no fresh frame)?
    pub frozen: bool,
}

/// What a service-level objective promises.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum Objective {
    /// At least `1 - error_budget` of frames finish their upscaling
    /// critical path within `budget_ms` (e.g. budget 1% ⇒ "p99 critical
    /// path ≤ budget").
    CriticalPathUnderBudget {
        /// Real-time budget the critical path is judged against, ms.
        budget_ms: f64,
        /// Allowed bad-frame fraction (0.01 ⇒ p99).
        error_budget: f64,
    },
    /// Effective display rate stays at or above `target_fps` out of the
    /// 60 FPS source rate: a frame is bad when it missed its deadline *or*
    /// was a frozen repeat, and the error budget is `1 - target_fps / 60`.
    EffectiveFpsAtLeast {
        /// Floor on the effective display rate, frames per second.
        target_fps: f64,
    },
    /// No stall freezes the display for more than `max_run` consecutive
    /// frames. Breaches instantly when a run exceeds the cap (burn rate =
    /// run / cap), recovers when a fresh frame lands.
    FrozenRunAtMost {
        /// Longest tolerated frozen run, frames.
        max_run: usize,
    },
}

impl Objective {
    /// Is this frame bad for the objective?
    fn is_bad(&self, h: &FrameHealth) -> bool {
        match *self {
            Objective::CriticalPathUnderBudget { budget_ms, .. } => {
                !crate::deadline_met(h.critical_ms, budget_ms)
            }
            Objective::EffectiveFpsAtLeast { .. } => !h.deadline_met || h.frozen,
            Objective::FrozenRunAtMost { .. } => h.frozen,
        }
    }

    /// One-line human description for tables and reports.
    fn describe(&self) -> String {
        match *self {
            Objective::CriticalPathUnderBudget {
                budget_ms,
                error_budget,
            } => format!(
                "p{:.4} critical path <= {budget_ms:.2} ms",
                (1.0 - error_budget) * 100.0
            ),
            Objective::EffectiveFpsAtLeast { target_fps } => {
                format!("effective rate >= {target_fps:.0} fps")
            }
            Objective::FrozenRunAtMost { max_run } => {
                format!("longest frozen run <= {max_run} frames")
            }
        }
    }
}

/// One declarative objective under its name. Every objective is judged
/// over the same [`FAST_WINDOW_FRAMES`] and [`SLOW_WINDOW_FRAMES`].
#[derive(Debug, Clone)]
struct SloSpec {
    /// Stable kebab-case name used in reports, metrics and trace markers.
    name: &'static str,
    /// The promise being tracked.
    objective: Objective,
}

/// A breach-state transition emitted by [`SloEngine::observe`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SloEvent {
    /// Objective name, as in [`SloStatus::name`].
    pub name: &'static str,
    /// `true` when entering breach, `false` when recovering.
    pub breached: bool,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
    /// Human-readable marker text for the trace.
    pub detail: String,
}

/// Fixed-size ring of bad-frame bits with an O(1) running count.
#[derive(Debug, Clone)]
struct BadWindow {
    bits: Vec<bool>,
    next: usize,
    filled: usize,
    bad: usize,
}

impl BadWindow {
    fn new(len: usize) -> Self {
        BadWindow {
            bits: vec![false; len],
            next: 0,
            filled: 0,
            bad: 0,
        }
    }

    fn push(&mut self, bad: bool) {
        if self.filled == self.bits.len() {
            if self.bits[self.next] {
                self.bad -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.bits[self.next] = bad;
        if bad {
            self.bad += 1;
        }
        self.next = (self.next + 1) % self.bits.len();
    }

    fn bad_fraction(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            self.bad as f64 / self.filled as f64
        }
    }
}

/// Per-objective engine state.
#[derive(Debug, Clone)]
struct SloState {
    spec: SloSpec,
    fast: BadWindow,
    slow: BadWindow,
    run: u64,
    frames: u64,
    bad_frames: u64,
    breaches: u64,
    breached_frames: u64,
    max_fast_burn: f64,
    max_slow_burn: f64,
    breached: bool,
}

impl SloState {
    fn burn_rates(&self) -> (f64, f64) {
        // the fraction objectives burn their allowed bad-frame fraction;
        // the frozen-run objective burns on run length
        let budget = match self.spec.objective {
            Objective::FrozenRunAtMost { max_run } => {
                let burn = self.run as f64 / max_run.max(1) as f64;
                return (burn, burn);
            }
            Objective::CriticalPathUnderBudget { error_budget, .. } => error_budget,
            Objective::EffectiveFpsAtLeast { target_fps } => (1.0 - target_fps / 60.0).max(1e-6),
        };
        (
            self.fast.bad_fraction() / budget,
            self.slow.bad_fraction() / budget,
        )
    }
}

/// Evaluates a set of objectives over a frame stream, emitting breach
/// transitions as they happen and a [`SloSummary`] at the end.
#[derive(Debug, Clone)]
pub struct SloEngine {
    states: Vec<SloState>,
}

impl SloEngine {
    /// An engine over explicit objective specs.
    fn new(specs: Vec<SloSpec>) -> Self {
        let states = specs
            .into_iter()
            .map(|spec| SloState {
                spec,
                fast: BadWindow::new(FAST_WINDOW_FRAMES),
                slow: BadWindow::new(SLOW_WINDOW_FRAMES),
                run: 0,
                frames: 0,
                bad_frames: 0,
                breaches: 0,
                breached_frames: 0,
                max_fast_burn: 0.0,
                max_slow_burn: 0.0,
                breached: false,
            })
            .collect();
        SloEngine { states }
    }

    /// The standard objectives every session is judged against: p99
    /// critical path within the real-time budget, effective display rate
    /// of at least 45 FPS, and no frozen stall longer than half a second.
    pub fn standard(budget_ms: f64) -> Self {
        SloEngine::new(vec![
            SloSpec {
                name: "critical-path-p99",
                objective: Objective::CriticalPathUnderBudget {
                    budget_ms,
                    error_budget: 0.01,
                },
            },
            SloSpec {
                name: "effective-fps",
                objective: Objective::EffectiveFpsAtLeast { target_fps: 45.0 },
            },
            SloSpec {
                name: "frozen-run",
                objective: Objective::FrozenRunAtMost { max_run: 30 },
            },
        ])
    }

    /// Folds one frame into every objective and returns the breach-state
    /// transitions it caused (usually none).
    pub fn observe(&mut self, health: &FrameHealth) -> Vec<SloEvent> {
        let mut events = Vec::new();
        for st in &mut self.states {
            let bad = st.spec.objective.is_bad(health);
            st.frames += 1;
            if bad {
                st.bad_frames += 1;
            }
            if health.frozen {
                st.run += 1;
            } else {
                st.run = 0;
            }
            st.fast.push(bad);
            st.slow.push(bad);
            let (fast_burn, slow_burn) = st.burn_rates();
            st.max_fast_burn = st.max_fast_burn.max(fast_burn);
            st.max_slow_burn = st.max_slow_burn.max(slow_burn);
            let over = match st.spec.objective {
                // run-length objectives breach the moment the cap is
                // exceeded and recover the moment the display unfreezes
                Objective::FrozenRunAtMost { .. } => fast_burn > 1.0,
                _ => fast_burn >= BURN_THRESHOLD && slow_burn >= BURN_THRESHOLD,
            };
            if over != st.breached {
                st.breached = over;
                if over {
                    st.breaches += 1;
                }
                events.push(SloEvent {
                    name: st.spec.name,
                    breached: over,
                    fast_burn,
                    slow_burn,
                    detail: format!(
                        "slo {} {}: {} (fast burn {:.2}x, slow burn {:.2}x)",
                        st.spec.name,
                        if over { "breach" } else { "recovered" },
                        st.spec.objective.describe(),
                        fast_burn,
                        slow_burn
                    ),
                });
            }
            if st.breached {
                st.breached_frames += 1;
            }
        }
        events
    }

    /// The current `(fast, slow)` burn rates of a named objective — the
    /// live value a streaming exporter samples each tick, as opposed to the
    /// end-of-run maxima in [`SloEngine::summary`]. `None` for an unknown
    /// objective name.
    pub fn current_burn(&self, name: &str) -> Option<(f64, f64)> {
        self.states
            .iter()
            .find(|st| st.spec.name == name)
            .map(SloState::burn_rates)
    }

    /// The per-objective standings so far.
    pub fn summary(&self) -> SloSummary {
        SloSummary {
            objectives: self
                .states
                .iter()
                .map(|st| SloStatus {
                    name: st.spec.name.to_owned(),
                    objective: st.spec.objective.describe(),
                    frames: st.frames,
                    bad_frames: st.bad_frames,
                    breaches: st.breaches,
                    breached_frames: st.breached_frames,
                    max_fast_burn: st.max_fast_burn,
                    max_slow_burn: st.max_slow_burn,
                    breached: st.breached,
                })
                .collect(),
        }
    }
}

/// Final standing of one objective.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SloStatus {
    /// Objective name.
    pub name: String,
    /// Human description of the promise.
    pub objective: String,
    /// Frames observed.
    pub frames: u64,
    /// Frames that were bad for this objective.
    pub bad_frames: u64,
    /// Times the objective entered breach.
    pub breaches: u64,
    /// Frames spent in breach.
    pub breached_frames: u64,
    /// Worst fast-window burn rate seen.
    pub max_fast_burn: f64,
    /// Worst slow-window burn rate seen.
    pub max_slow_burn: f64,
    /// Was the objective still in breach at session end?
    pub breached: bool,
}

/// All objectives' standings for one session.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SloSummary {
    /// One entry per declared objective, declaration order.
    pub objectives: Vec<SloStatus>,
}

impl SloSummary {
    /// Total breach entries across all objectives.
    pub fn total_breaches(&self) -> u64 {
        self.objectives.iter().map(|o| o.breaches).sum()
    }

    /// The standing for a named objective.
    pub fn objective(&self, name: &str) -> Option<&SloStatus> {
        self.objectives.iter().find(|o| o.name == name)
    }

    /// Deterministic single-line JSON rendering.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"objectives\":[");
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"objective\":\"{}\",\"frames\":{},\"bad_frames\":{},\
                 \"breaches\":{},\"breached_frames\":{},\"max_fast_burn\":{},\
                 \"max_slow_burn\":{},\"breached\":{}}}",
                json_escape(&o.name),
                json_escape(&o.objective),
                o.frames,
                o.bad_frames,
                o.breaches,
                o.breached_frames,
                json_f64(o.max_fast_burn),
                json_f64(o.max_slow_burn),
                o.breached
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> FrameHealth {
        FrameHealth {
            critical_ms: 10.0,
            deadline_met: true,
            frozen: false,
        }
    }

    fn miss() -> FrameHealth {
        FrameHealth {
            critical_ms: 25.0,
            deadline_met: false,
            frozen: false,
        }
    }

    fn frozen() -> FrameHealth {
        FrameHealth {
            critical_ms: 0.0,
            deadline_met: true,
            frozen: true,
        }
    }

    #[test]
    fn healthy_stream_never_breaches() {
        let mut eng = SloEngine::standard(crate::REALTIME_BUDGET_MS);
        for _ in 0..600 {
            assert!(eng.observe(&good()).is_empty());
        }
        let s = eng.summary();
        assert_eq!(s.total_breaches(), 0);
        assert!(s.objectives.iter().all(|o| !o.breached));
    }

    #[test]
    fn sustained_misses_breach_and_recover() {
        let mut eng = SloEngine::standard(crate::REALTIME_BUDGET_MS);
        let mut events = Vec::new();
        for _ in 0..300 {
            events.extend(eng.observe(&good()));
        }
        for _ in 0..120 {
            events.extend(eng.observe(&miss()));
        }
        let breach = events.iter().find(|e| e.breached).expect("breach fires");
        assert_eq!(breach.name, "critical-path-p99");
        // a long healthy tail drains the fast window and recovers
        for _ in 0..600 {
            events.extend(eng.observe(&good()));
        }
        assert!(
            events
                .iter()
                .any(|e| !e.breached && e.name == "critical-path-p99"),
            "recovery fires once the windows drain"
        );
        let s = eng.summary();
        let cp = s.objective("critical-path-p99").unwrap();
        assert!(cp.breaches >= 1);
        assert!(!cp.breached, "recovered by session end");
        assert!(cp.max_fast_burn > cp.max_slow_burn);
    }

    #[test]
    fn frozen_run_breaches_past_the_cap_only() {
        let mut eng = SloEngine::standard(crate::REALTIME_BUDGET_MS);
        for _ in 0..30 {
            let evs = eng.observe(&frozen());
            assert!(
                evs.iter().all(|e| e.name != "frozen-run"),
                "run at the cap must not breach"
            );
        }
        let evs = eng.observe(&frozen());
        assert!(
            evs.iter().any(|e| e.name == "frozen-run" && e.breached),
            "frame 31 of the stall breaches the cap of 30"
        );
        let evs = eng.observe(&good());
        assert!(
            evs.iter().any(|e| e.name == "frozen-run" && !e.breached),
            "a fresh frame recovers instantly"
        );
        assert_eq!(eng.summary().objective("frozen-run").unwrap().breaches, 1);
    }

    #[test]
    fn summary_json_is_deterministic_and_parses() {
        let mut eng = SloEngine::standard(crate::REALTIME_BUDGET_MS);
        for i in 0..400 {
            let h = if i % 3 == 0 { miss() } else { good() };
            eng.observe(&h);
        }
        let a = eng.summary().to_json();
        let b = eng.summary().to_json();
        assert_eq!(a, b);
        let parsed = crate::json::parse(&a).expect("summary json parses");
        assert_eq!(
            parsed
                .get("objectives")
                .and_then(|o| o.as_arr())
                .map(|a| a.len()),
            Some(3)
        );
    }
}
