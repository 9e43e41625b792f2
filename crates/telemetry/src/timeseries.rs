//! Fleet-wide streaming time series with deterministic downsampling, plus
//! the streaming anomaly detectors built on top of them.
//!
//! A fleet run produces one sample per series per 60 Hz tick — far more
//! points than a report (or a human) needs, and an unbounded buffer would
//! make long soaks allocate proportionally to their length. [`TimeSeries`]
//! is the fixed-capacity answer: a ring of per-tick buckets that, when
//! full, *doubles its stride* and merges adjacent buckets in place, so a
//! series always holds at most `capacity` buckets covering the whole run
//! at a uniform power-of-two tick stride. Each bucket keeps deterministic
//! `min`/`max`/`last` (and a sample count), so downsampling never invents
//! values and the global extremes survive any number of compactions
//! (they are additionally tracked exactly across the whole stream).
//!
//! Everything here is integer/float arithmetic on modeled values — no
//! clocks, no RNG, no hashing — so two identical fleet runs produce
//! byte-identical series JSON at any worker count. The hot path
//! ([`TimeSeries::push`]) allocates only when the bucket ring grows toward
//! its fixed capacity (at most `capacity + 1` slots, reserved up front)
//! and never during steady-state compaction, which merges in place.
//!
//! The streaming detectors ([`RungFlapDetector`], [`StarvationDetector`],
//! [`AdmissionStormDetector`]) are small deterministic state machines over
//! the same per-tick signals. Each fires **on entry** into its anomalous
//! condition (returning a human-readable detail string exactly once per
//! episode), which is what the fleet loop turns into `Instant` trace
//! markers and anomaly counters.

use std::collections::VecDeque;

use crate::json::{json_escape, json_f64};

/// Default bucket capacity used by the fleet's series set.
pub const DEFAULT_CAPACITY: usize = 240;

/// One downsampled bucket: the deterministic summary of every sample whose
/// tick falls in `[start_tick, start_tick + stride)` for the owning
/// series' current stride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// First tick the bucket covers (always stride-aligned).
    pub start_tick: u64,
    /// Samples folded into the bucket.
    pub count: u64,
    /// Smallest sample in the bucket.
    pub min: f64,
    /// Largest sample in the bucket.
    pub max: f64,
    /// Most recent sample in the bucket.
    pub last: f64,
}

impl Bucket {
    fn seed(start_tick: u64, value: f64) -> Self {
        Bucket {
            start_tick,
            count: 1,
            min: value,
            max: value,
            last: value,
        }
    }

    fn fold(&mut self, value: f64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
    }

    fn merge(&mut self, other: &Bucket) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.last = other.last;
    }
}

/// A fixed-capacity streaming series of per-tick samples with
/// min/max/last downsampling (see the module docs for the compaction
/// scheme). Ticks must be pushed in non-decreasing order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    capacity: usize,
    stride: u64,
    buckets: Vec<Bucket>,
    samples: u64,
    global_min: f64,
    global_max: f64,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` buckets (floored at 1).
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TimeSeries {
            name: name.into(),
            capacity,
            stride: 1,
            // one slot of slack: push appends first, then compacts
            buckets: Vec::with_capacity(capacity + 1),
            samples: 0,
            global_min: f64::INFINITY,
            global_max: f64::NEG_INFINITY,
        }
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current downsampling stride, in ticks (a power of two).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total samples pushed over the series' lifetime.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The downsampled buckets, oldest first.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Exact minimum over every sample ever pushed (not just surviving
    /// bucket minima), or `None` for an empty series.
    pub fn min(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.global_min)
    }

    /// Exact maximum over every sample ever pushed.
    pub fn max(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.global_max)
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<f64> {
        self.buckets.last().map(|b| b.last)
    }

    /// Pushes one sample. `tick` must be `>=` every previously pushed
    /// tick; an out-of-order tick folds into the newest bucket (keeping
    /// the structure deterministic rather than panicking mid-run).
    pub fn push(&mut self, tick: u64, value: f64) {
        self.samples += 1;
        self.global_min = self.global_min.min(value);
        self.global_max = self.global_max.max(value);
        let key = tick / self.stride;
        match self.buckets.last_mut() {
            Some(last) if last.start_tick / self.stride >= key => last.fold(value),
            _ => {
                self.buckets.push(Bucket::seed(key * self.stride, value));
                while self.buckets.len() > self.capacity {
                    self.compact();
                }
            }
        }
    }

    /// Doubles the stride and merges adjacent buckets in place.
    fn compact(&mut self) {
        self.stride *= 2;
        let mut write = 0;
        for read in 0..self.buckets.len() {
            let mut b = self.buckets[read];
            b.start_tick = (b.start_tick / self.stride) * self.stride;
            if write > 0 && self.buckets[write - 1].start_tick == b.start_tick {
                self.buckets[write - 1].merge(&b);
            } else {
                self.buckets[write] = b;
                write += 1;
            }
        }
        self.buckets.truncate(write);
    }

    /// Deterministic one-line JSON of the summary statistics only.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"samples\":{},\"stride\":{},\"min\":{},\"max\":{},\"last\":{}}}",
            json_escape(&self.name),
            self.samples,
            self.stride,
            json_f64(self.min().unwrap_or(f64::NAN)),
            json_f64(self.max().unwrap_or(f64::NAN)),
            json_f64(self.last().unwrap_or(f64::NAN)),
        )
    }

    /// Deterministic one-line JSON including every surviving bucket.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"name\":\"{}\",\"samples\":{},\"stride\":{},\"min\":{},\"max\":{},\"last\":{},\"buckets\":[",
            json_escape(&self.name),
            self.samples,
            self.stride,
            json_f64(self.min().unwrap_or(f64::NAN)),
            json_f64(self.max().unwrap_or(f64::NAN)),
            json_f64(self.last().unwrap_or(f64::NAN)),
        );
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tick\":{},\"count\":{},\"min\":{},\"max\":{},\"last\":{}}}",
                b.start_tick,
                b.count,
                json_f64(b.min),
                json_f64(b.max),
                json_f64(b.last)
            );
        }
        out.push_str("]}");
        out
    }
}

/// A named collection of [`TimeSeries`] in stable insertion order — the
/// fleet's per-tick metric surface. Lookups are linear (the fleet has a
/// couple dozen series), which keeps iteration order — and therefore
/// every export — deterministic without sorting.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSet {
    capacity: usize,
    series: Vec<TimeSeries>,
}

impl SeriesSet {
    /// An empty set whose series each hold `capacity` buckets.
    pub fn new(capacity: usize) -> Self {
        SeriesSet {
            capacity: capacity.max(1),
            series: Vec::new(),
        }
    }

    /// Pushes one sample, creating the series on first use.
    pub fn push(&mut self, name: &str, tick: u64, value: f64) {
        match self.series.iter_mut().find(|s| s.name == name) {
            Some(s) => s.push(tick, value),
            None => {
                let mut s = TimeSeries::new(name, self.capacity);
                s.push(tick, value);
                self.series.push(s);
            }
        }
    }

    /// Looks a series up by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// All series, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &TimeSeries> {
        self.series.iter()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the set holds no series yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Deterministic one-line JSON array of per-series summaries.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.summary_json());
        }
        out.push(']');
        out
    }

    /// Deterministic one-line JSON array including every bucket.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push(']');
        out
    }
}

/// Detects degradation-ladder oscillation: a session whose rung keeps
/// reversing direction is thrashing between quality tiers (each reversal
/// is a visible quality pop), which a stable controller should not do.
/// Fires on entry once at least [`Self::REVERSALS`] direction reversals
/// land within a [`Self::WINDOW_TICKS`] window.
#[derive(Debug, Clone, Default)]
pub struct RungFlapDetector {
    last_rung: Option<usize>,
    last_dir: i8,
    reversal_ticks: VecDeque<u64>,
    firing: bool,
    /// Episodes fired over the detector's lifetime.
    pub events: u64,
}

impl RungFlapDetector {
    /// Window the reversals are counted over: 2 s of ticks.
    pub const WINDOW_TICKS: u64 = 120;
    /// Reversals within the window that make a flap.
    pub const REVERSALS: usize = 3;

    /// A detector that has seen no tick yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the session's rung this tick; returns a detail string on
    /// the tick an anomalous flapping episode begins.
    pub fn observe(&mut self, tick: u64, rung: usize) -> Option<String> {
        if let Some(prev) = self.last_rung {
            if rung != prev {
                let dir: i8 = if rung > prev { 1 } else { -1 };
                if self.last_dir != 0 && dir != self.last_dir {
                    self.reversal_ticks.push_back(tick);
                }
                self.last_dir = dir;
            }
        }
        self.last_rung = Some(rung);
        while self
            .reversal_ticks
            .front()
            .is_some_and(|&t| t + Self::WINDOW_TICKS <= tick)
        {
            self.reversal_ticks.pop_front();
        }
        let active = self.reversal_ticks.len() >= Self::REVERSALS;
        let fired = active && !self.firing;
        self.firing = active;
        if fired {
            self.events += 1;
            Some(format!(
                "rung flap: {} ladder reversals within {} ticks (now at rung {})",
                self.reversal_ticks.len(),
                Self::WINDOW_TICKS,
                rung
            ))
        } else {
            None
        }
    }
}

/// Detects session starvation: a session whose consumed rate stays under
/// [`Self::FRACTION`] of its fair-share allocation for at least
/// [`Self::THRESHOLD_TICKS`] consecutive ticks is being starved by the
/// shared bottleneck (drops, freezes, or contention) despite holding an
/// allocation. Fires on entry.
#[derive(Debug, Clone, Default)]
pub struct StarvationDetector {
    streak: u64,
    firing: bool,
    /// Longest under-fair-share streak observed, ticks.
    pub max_streak: u64,
    /// Episodes fired over the detector's lifetime.
    pub events: u64,
}

impl StarvationDetector {
    /// Streak threshold: 12 ticks (200 ms) under fair share.
    pub const THRESHOLD_TICKS: u64 = 12;
    /// Fair-share fraction below which a tick counts as starved.
    pub const FRACTION: f64 = 0.5;

    /// A detector that has seen no tick yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one tick's consumed rate against the fair-share
    /// allocation; returns a detail string on the tick starvation is
    /// declared.
    pub fn observe(&mut self, consumed_mbps: f64, fair_share_mbps: f64) -> Option<String> {
        let starved = fair_share_mbps > 0.0 && consumed_mbps < Self::FRACTION * fair_share_mbps;
        if starved {
            self.streak += 1;
            self.max_streak = self.max_streak.max(self.streak);
        } else {
            self.streak = 0;
            self.firing = false;
        }
        let fired = self.streak >= Self::THRESHOLD_TICKS && !self.firing;
        if fired {
            self.firing = true;
            self.events += 1;
            Some(format!(
                "starvation: {:.2} Mbps consumed < {:.0}% of {:.2} Mbps fair share for {} ticks",
                consumed_mbps,
                Self::FRACTION * 100.0,
                fair_share_mbps,
                self.streak
            ))
        } else {
            None
        }
    }
}

/// Detects admission storms: a burst of join requests dense enough to
/// blow through the wait queue (a flash crowd). Fires on entry once at
/// least [`Self::JOINS`] requests land within a [`Self::WINDOW_TICKS`]
/// window.
#[derive(Debug, Clone, Default)]
pub struct AdmissionStormDetector {
    join_ticks: VecDeque<u64>,
    firing: bool,
    /// Episodes fired over the detector's lifetime.
    pub events: u64,
}

impl AdmissionStormDetector {
    /// Window the join requests are counted over: 10 ticks.
    pub const WINDOW_TICKS: u64 = 10;
    /// Join requests within the window that make a storm.
    pub const JOINS: usize = 5;

    /// A detector that has seen no tick yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes this tick's join-request count; returns a detail string on
    /// the tick a storm is declared.
    pub fn observe(&mut self, tick: u64, joins_this_tick: usize) -> Option<String> {
        for _ in 0..joins_this_tick {
            self.join_ticks.push_back(tick);
        }
        while self
            .join_ticks
            .front()
            .is_some_and(|&t| t + Self::WINDOW_TICKS <= tick)
        {
            self.join_ticks.pop_front();
        }
        let active = self.join_ticks.len() >= Self::JOINS;
        let fired = active && !self.firing;
        self.firing = active;
        if fired {
            self.events += 1;
            Some(format!(
                "admission storm: {} join requests within {} ticks",
                self.join_ticks.len(),
                Self::WINDOW_TICKS
            ))
        } else {
            None
        }
    }
}

/// Jain's fairness index over per-session shares: `(Σx)² / (n · Σx²)`.
/// 1.0 means perfectly even shares; `1/n` means one session has
/// everything. Defined as 1.0 for an empty set or all-zero shares (an
/// idle fleet is trivially fair).
pub fn jain_fairness(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sq_sum: f64 = shares.iter().map(|x| x * x).sum();
    if sq_sum <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bucket_is_exact() {
        let mut s = TimeSeries::new("x", 16);
        s.push(3, 5.0);
        s.push(3, 2.0);
        s.push(3, 9.0);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.buckets().len(), 1);
        let b = s.buckets()[0];
        assert_eq!((b.start_tick, b.count), (3, 3));
        assert_eq!((b.min, b.max, b.last), (2.0, 9.0, 9.0));
        assert_eq!(
            (s.min(), s.max(), s.last()),
            (Some(2.0), Some(9.0), Some(9.0))
        );
    }

    #[test]
    fn capacity_one_keeps_downsampling_to_a_single_bucket() {
        let mut s = TimeSeries::new("c1", 1);
        for tick in 0..100u64 {
            s.push(tick, tick as f64);
        }
        assert_eq!(s.buckets().len(), 1, "capacity-1 ring must stay at 1");
        assert!(s.stride().is_power_of_two());
        assert!(s.stride() >= 100, "stride must cover every pushed tick");
        let b = s.buckets()[0];
        assert_eq!(b.start_tick, 0);
        assert_eq!(b.count, 100);
        assert_eq!((b.min, b.max, b.last), (0.0, 99.0, 99.0));
        assert_eq!(s.samples(), 100);
    }

    #[test]
    fn zero_capacity_is_floored_to_one() {
        let mut s = TimeSeries::new("z", 0);
        s.push(0, 1.0);
        s.push(1, 2.0);
        assert_eq!(s.buckets().len(), 1);
    }

    #[test]
    fn downsample_boundary_merges_aligned_pairs_only() {
        // capacity 2: pushing ticks 0,1,2 forces stride 2 and the aligned
        // pair {0,1} must merge while {2} stays separate.
        let mut s = TimeSeries::new("b", 2);
        s.push(0, 10.0);
        s.push(1, 20.0);
        s.push(2, 30.0);
        assert_eq!(s.stride(), 2);
        assert_eq!(s.buckets().len(), 2);
        let (a, b) = (s.buckets()[0], s.buckets()[1]);
        assert_eq!(
            (a.start_tick, a.count, a.min, a.max, a.last),
            (0, 2, 10.0, 20.0, 20.0)
        );
        assert_eq!((b.start_tick, b.count, b.last), (2, 1, 30.0));
        // tick 3 folds into the stride-2 bucket that starts at 2
        s.push(3, 5.0);
        assert_eq!(s.buckets().len(), 2);
        let b = s.buckets()[1];
        assert_eq!((b.start_tick, b.count, b.min, b.last), (2, 2, 5.0, 5.0));
    }

    #[test]
    fn global_extremes_survive_compaction() {
        let mut s = TimeSeries::new("g", 4);
        for tick in 0..1000u64 {
            // the single spike must survive any number of merges
            let v = if tick == 371 { 1e6 } else { (tick % 7) as f64 };
            s.push(tick, v);
        }
        assert_eq!(s.max(), Some(1e6));
        assert_eq!(s.min(), Some(0.0));
        assert!(s.buckets().len() <= 4);
        assert!(s.buckets().iter().any(|b| b.max == 1e6));
        assert_eq!(
            s.buckets().iter().map(|b| b.count).sum::<u64>(),
            s.samples()
        );
    }

    #[test]
    fn compaction_is_deterministic_for_identical_streams() {
        let run = || {
            let mut s = TimeSeries::new("d", 8);
            for tick in 0..500u64 {
                s.push(tick, ((tick * 37) % 101) as f64);
            }
            s.to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn series_set_creates_on_first_use_and_keeps_order() {
        let mut set = SeriesSet::new(8);
        set.push("b", 0, 1.0);
        set.push("a", 0, 2.0);
        set.push("b", 1, 3.0);
        assert_eq!(set.len(), 2);
        let names: Vec<&str> = set.iter().map(TimeSeries::name).collect();
        assert_eq!(names, ["b", "a"], "insertion order, not sorted");
        assert_eq!(set.get("b").unwrap().samples(), 2);
        assert!(crate::json::parse(&set.to_json()).is_ok());
        assert!(crate::json::parse(&set.summary_json()).is_ok());
    }

    #[test]
    fn jain_index_matches_hand_computed_cases() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0]), 1.0);
        // one of four has everything: J = 1/4
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // textbook case: (1+2+3)^2 / (3 * 14) = 36/42
        assert!((jain_fairness(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn rung_flap_fires_on_entry_once_per_episode() {
        let mut d = RungFlapDetector::new();
        // down-up-down-up: 3 reversals, the last at tick 7
        let rungs = [0, 1, 1, 0, 0, 1, 1, 0];
        let mut fires = Vec::new();
        for (tick, &r) in rungs.iter().enumerate() {
            if let Some(msg) = d.observe(tick as u64, r) {
                fires.push((tick, msg));
            }
        }
        assert_eq!(fires.len(), 1, "{fires:?}");
        assert_eq!(d.events, 1);
        // staying flappy does not re-fire; a calm window ages every
        // reversal out and resets
        let calm_end = 8 + RungFlapDetector::WINDOW_TICKS;
        for tick in 8..calm_end {
            assert!(d.observe(tick, 0).is_none());
        }
        // a fresh burst of reversals fires a second episode
        let rungs2 = [1, 1, 0, 0, 1, 1, 0];
        let mut refired = false;
        for (i, &r) in rungs2.iter().enumerate() {
            refired |= d.observe(calm_end + i as u64, r).is_some();
        }
        assert!(refired, "second flap episode must fire again");
        assert_eq!(d.events, 2);
    }

    #[test]
    fn monotone_ladder_walk_never_flaps() {
        let mut d = RungFlapDetector::new();
        for (tick, rung) in [0usize, 1, 2, 3, 4, 4, 3, 2, 1, 0].iter().enumerate() {
            // one reversal total (down at the end): never anomalous
            assert!(d.observe(tick as u64, *rung).is_none());
        }
        assert_eq!(d.events, 0);
    }

    #[test]
    fn starvation_fires_after_the_streak_threshold_only() {
        let threshold = StarvationDetector::THRESHOLD_TICKS;
        let mut d = StarvationDetector::new();
        for _ in 1..threshold {
            assert!(d.observe(0.1, 1.0).is_none());
        }
        let fired = d.observe(0.1, 1.0);
        assert!(fired.is_some(), "the threshold-th starved tick fires");
        assert!(d.observe(0.1, 1.0).is_none(), "no re-fire inside episode");
        assert_eq!(d.events, 1);
        assert_eq!(d.max_streak, threshold + 1);
        // recovery resets; a fresh streak fires a new episode
        assert!(d.observe(0.9, 1.0).is_none());
        for _ in 1..threshold {
            assert!(d.observe(0.0, 1.0).is_none());
        }
        assert!(d.observe(0.0, 1.0).is_some());
        assert_eq!(d.events, 2);
    }

    #[test]
    fn starvation_ignores_sessions_without_an_allocation() {
        let mut d = StarvationDetector::new();
        for _ in 0..2 * StarvationDetector::THRESHOLD_TICKS {
            assert!(d.observe(0.0, 0.0).is_none(), "no share, no starvation");
        }
        assert_eq!(d.events, 0);
        assert_eq!(d.max_streak, 0);
    }

    #[test]
    fn admission_storm_fires_on_a_flash_crowd() {
        let mut d = AdmissionStormDetector::new();
        assert!(d.observe(0, 2).is_none());
        assert!(d.observe(1, 2).is_none());
        assert!(d.observe(2, 1).is_some(), "5th join within the window");
        assert!(d.observe(3, 3).is_none(), "still the same storm");
        assert_eq!(d.events, 1);
        // joins age out of the window; a later burst is a new storm
        for tick in 4..30u64 {
            assert!(d.observe(tick, 0).is_none());
        }
        assert!(d.observe(30, 5).is_some());
        assert_eq!(d.events, 2);
    }

    #[test]
    fn trickle_of_joins_is_not_a_storm() {
        let mut d = AdmissionStormDetector::new();
        for tick in 0..200u64 {
            let joins = usize::from(tick % 12 == 0);
            assert!(d.observe(tick, joins).is_none(), "tick {tick}");
        }
        assert_eq!(d.events, 0);
    }
}
