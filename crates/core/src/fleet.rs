//! Fleet-scale consolidation simulator: many sessions, one server, one
//! shared uplink.
//!
//! A consolidation server runs N concurrent sessions behind a single
//! bottleneck uplink with a global bandwidth budget. Every session is the
//! same per-frame step [`run_session`](crate::session::run_session)
//! drives — fault telemetry, crash recovery, NACK, encode, the freeze and
//! deadline verdicts, SLO and the degradation ladder — configured as a
//! modeled-only GameStreamSR session with loss recovery on. The fleet
//! injects only what consolidation changes: one flow of the fleet's
//! [`SharedLink`] instead of a private one-flow link, a rate cap from the
//! fair-share allocator, the server's time-sharing factor, and its
//! fleet-watch detectors.
//!
//! [`FleetSim`] is the discrete-event driver: logical time advances in
//! 60 Hz ticks ([`FleetSim::step`]), and each tick runs six phases in a
//! fixed order:
//!
//! 1. **Departures** — sessions whose scripted `leave_tick` arrived are
//!    finalized (their last frame is `leave_tick - 1`).
//! 2. **Admission** — arrivals whose `join_tick` arrived enter a FIFO
//!    queue; the head of the queue is admitted while concurrency is below
//!    [`AdmissionPolicy::capacity`]; joins beyond
//!    [`AdmissionPolicy::queue_limit`] waiting slots are rejected.
//! 3. **Allocation** — the shared budget
//!    (`bandwidth_mbps × uplink_utilization`) is split fairly across the
//!    admitted sessions; each session's rate cap `min(1, (budget/n) /
//!    session_rate)` is *composed* with its degradation-ladder rung scale
//!    on the encoder's rate target. Server-side stage latencies are
//!    stretched by the consolidation factor `ceil(n / server_slots)` —
//!    sessions time-share the render/encode GPU.
//! 4. **Produce** (parallel) — every admitted session opens its frame:
//!    faults, recovery, NACK, then render, RoI detection and encode.
//!    Sessions are batched across the worker pool via
//!    [`PoolHandle::for_each_mut`]; each session owns its recorder, trace
//!    sink and RNG-free pipeline state, so the phase is embarrassingly
//!    parallel and bit-deterministic at any worker count. A worker steps
//!    its sessions bound to its share of the pool, so a session's kernel
//!    regions (render rows, RoI, DCT, motion, entropy) divide that share:
//!    with at least as many sessions as workers they run inline instead of
//!    spawning threads of their own. Only a small staged summary survives
//!    the phase, never the server packet.
//! 5. **Transport + control** (serial) — in session order (the
//!    bottleneck has one clock and one RNG, so the serial order *is* the
//!    determinism contract), each session's step sends its staged frame
//!    on its [`SharedLink`] flow, lands and closes the frame; then the
//!    session runs the rung-flap and starvation detectors and lets its
//!    controller adapt.
//! 6. **Watch** (serial) — fleet time-series, the admission-storm
//!    detector, the knee, and the fleet-wide trace retention cap.
//!
//! Determinism: one seed fixes the shared channel; per-session pipelines
//! consume no shared mutable state in the parallel phase; every other
//! phase is serial. Two runs with the same [`FleetConfig`] produce
//! byte-identical [`FleetReport::to_json`] output at any worker count —
//! `tests/fleet.rs` pins this, and also that a one-session fleet on an
//! uncontended link reproduces `run_session`.

use std::collections::VecDeque;

use crate::degrade::LADDER;
use crate::recovery::RecoverySummary;
use crate::session::{Pipeline, SessionConfig};
use crate::step::{SessionStep, Staged};
use crate::GssError;
use gss_codec::RateControlConfig;
use gss_net::{FaultPlan, FlowStats, LinkProfile, SharedLink};
use gss_platform::pool::PoolHandle;
use gss_platform::{DeviceProfile, REALTIME_BUDGET_MS};
use gss_render::GameId;
use gss_telemetry::json::{json_escape, json_f64};
use gss_telemetry::timeseries::{
    jain_fairness, AdmissionStormDetector, RungFlapDetector, SeriesSet, StarvationDetector,
    DEFAULT_CAPACITY,
};
use gss_telemetry::{
    chrome_trace_json_ext, enforce_fleet_cap, Counter, CounterTrack, InstantKind, Level,
    SamplingPolicy, SamplingSummary, SamplingTraceSink, SessionAttribution, SinkHandle, SloSummary,
    TelemetrySummary, TraceInstant, TraceSession, TraceSink,
};

/// One session's place in the fleet timeline.
#[derive(Debug, Clone)]
pub struct FleetSessionSpec {
    /// Game workload.
    pub game: GameId,
    /// Client device model.
    pub device: DeviceProfile,
    /// Session-local fault timeline: outages/jitter/bandwidth events shape
    /// this session's last hop into the shared bottleneck; decoder
    /// crash/stall and NPU-throttle events hit this session's client.
    pub fault_plan: FaultPlan,
    /// Fleet tick at which the session requests admission.
    pub join_tick: usize,
    /// Fleet tick at which the session departs (its last frame is
    /// `leave_tick - 1`); `None` streams until the fleet run ends.
    pub leave_tick: Option<usize>,
}

impl FleetSessionSpec {
    /// A session joining at tick 0 and staying until the run ends.
    pub fn new(game: GameId, device: DeviceProfile) -> Self {
        FleetSessionSpec {
            game,
            device,
            fault_plan: FaultPlan::default(),
            join_tick: 0,
            leave_tick: None,
        }
    }

    /// Sets the admission-request tick.
    pub fn joining_at(mut self, tick: usize) -> Self {
        self.join_tick = tick;
        self
    }

    /// Sets the departure tick.
    pub fn leaving_at(mut self, tick: usize) -> Self {
        self.leave_tick = Some(tick);
        self
    }

    /// Attaches a session-local fault timeline.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

/// Join admission control for the consolidation server.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Maximum concurrently admitted sessions (the capacity estimate).
    pub capacity: usize,
    /// Joins allowed to wait in the FIFO queue; arrivals beyond this are
    /// rejected outright.
    pub queue_limit: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            capacity: 8,
            queue_limit: 4,
        }
    }
}

/// Full configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shared-bottleneck profile (its `bandwidth_mbps` is the uplink's
    /// nominal capacity).
    pub link: LinkProfile,
    /// Channel seed; one seed fixes the whole fleet's bandwidth trace and
    /// jitter stream.
    pub link_seed: u64,
    /// Fault timeline shaping the shared bottleneck itself: bandwidth
    /// collapses, outages and jitter spikes that hit every flow at once (a
    /// staggered storm is per-session plans instead).
    pub shared_faults: FaultPlan,
    /// Fleet ticks to run (60 ticks = 1 s logical).
    pub ticks: usize,
    /// Low-resolution canvas every session's data path runs on.
    pub lr_size: (usize, usize),
    /// GOP length per session.
    pub gop_size: usize,
    /// Per-session nominal rate target, Mbps at deployment scale. The
    /// allocator scales this down when the fleet oversubscribes the
    /// budget.
    pub session_rate_mbps: f64,
    /// Fraction of the bottleneck's nominal bandwidth the allocator hands
    /// out (headroom for keyframes, jitter and bandwidth fades).
    pub uplink_utilization: f64,
    /// Concurrent render/encode slots on the consolidation server:
    /// server-side stage latencies stretch by `ceil(n / server_slots)`.
    pub server_slots: usize,
    /// Join admission control.
    pub admission: AdmissionPolicy,
    /// Worker-pool capacity for the produce phase, captured once at
    /// construction (see [`PoolHandle`]).
    pub pool: PoolHandle,
    /// Tail-based trace sampling policy. `None` keeps every frame's span
    /// tree (full traces); `Some` retains only anomaly/context/baseline
    /// frames under the policy's [`gss_telemetry::TraceBudget`], with the
    /// fleet-wide cap enforced serially each tick in the phase-6 watch.
    pub sampling: Option<SamplingPolicy>,
    /// The fleet timeline.
    pub sessions: Vec<FleetSessionSpec>,
}

impl FleetConfig {
    /// A fleet on the given shared link with no sessions yet: 120 ticks,
    /// fast canvas, default admission policy.
    pub fn new(link: LinkProfile, link_seed: u64) -> Self {
        FleetConfig {
            link,
            link_seed,
            shared_faults: FaultPlan::default(),
            ticks: 120,
            lr_size: (128, 72),
            gop_size: 60,
            session_rate_mbps: 8.0,
            uplink_utilization: 0.7,
            server_slots: 4,
            admission: AdmissionPolicy::default(),
            pool: PoolHandle::current(),
            sampling: None,
            sessions: Vec::new(),
        }
    }

    /// Enables tail-based trace sampling under `policy`.
    pub fn with_sampling(mut self, policy: SamplingPolicy) -> Self {
        self.sampling = Some(policy);
        self
    }

    /// Adds a session spec.
    pub fn with_session(mut self, spec: FleetSessionSpec) -> Self {
        self.sessions.push(spec);
        self
    }

    /// Sets the tick count.
    pub fn with_ticks(mut self, ticks: usize) -> Self {
        self.ticks = ticks;
        self
    }

    /// The bandwidth budget the allocator splits across admitted
    /// sessions, Mbps.
    pub fn budget_mbps(&self) -> f64 {
        self.link.bandwidth_mbps * self.uplink_utilization
    }

    /// Checks what the fleet needs before its first tick: a finite,
    /// non-negative `uplink_utilization` and `session_rate_mbps` (zero
    /// streams at the rate floor), and every session's canvas, GOP and
    /// link (see [`SessionConfig::validate`]).
    ///
    /// # Errors
    ///
    /// [`GssError::InvalidConfig`] naming the first offending field, or
    /// [`GssError::WindowTooLarge`] when a device's RoI window does not
    /// fit the canvas.
    pub(crate) fn validate(&self) -> Result<(), GssError> {
        for (field, value) in [
            ("uplink_utilization", self.uplink_utilization),
            ("session_rate_mbps", self.session_rate_mbps),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(GssError::InvalidConfig {
                    field,
                    reason: "must be finite and non-negative",
                });
            }
        }
        self.sessions
            .iter()
            .try_for_each(|spec| self.session_config(spec, None).validate())
    }

    /// The `run_session` configuration one fleet session streams with:
    /// the fleet's canvas and GOP, rate control at the nominal per-session
    /// rate, the degradation controller and loss recovery always on, and
    /// no pixel path. `telemetry` is the session's trace collector.
    fn session_config(
        &self,
        spec: &FleetSessionSpec,
        telemetry: Option<SinkHandle>,
    ) -> SessionConfig {
        SessionConfig {
            link: self.link.clone(),
            gop_size: self.gop_size,
            lr_size: self.lr_size,
            evaluate_quality: false,
            // consolidation needs the controller to actually reach small
            // per-session shares, so open the quantizer range all the way
            // down
            rate_control: Some(RateControlConfig {
                min_quality: 10,
                ..RateControlConfig::for_bitrate_mbps(self.session_rate_mbps)
            }),
            loss_recovery: true,
            telemetry,
            fault_plan: spec.fault_plan.clone(),
            degradation: true,
            pool: self.pool,
            ..SessionConfig::new(spec.game, spec.device.clone())
        }
    }
}

/// One admitted session: the shared per-frame step plus the fleet's own
/// flow, report accumulators and per-tick observability.
struct ActiveSession {
    spec_idx: usize,
    joined_tick: usize,
    flow: usize,
    step: SessionStep,
    /// Where the session's frames go: its telemetry sink.
    trace: TraceCollector,
    /// What the parallel produce phase staged for the serial transport
    /// phase (never the server packet itself).
    staged: Option<Staged>,
    error: Option<GssError>,
    // report accumulators the recorder does not keep
    max_rung: usize,
    mtp_totals: Vec<f64>,
    // per-tick observability, fed by the serial transport phase and read
    // by the fleet-watch sampler after it
    prev_delivered: u64,
    last_rung: usize,
    last_critical_ms: f64,
    last_alloc_mbps: f64,
    last_consumed_mbps: f64,
    // EMA of consumed rate (time constant ~16 ticks): fairness must not
    // dip on GOP phase (a keyframe tick delivers several times a delta
    // tick), only on sustained under-service
    consumed_ema: f64,
    flap: RungFlapDetector,
    starve: StarvationDetector,
    // per-tick rate counter tracks for the merged trace; a sampled
    // session exports none, so it records none
    alloc_track: Vec<(f64, f64)>,
    consumed_track: Vec<(f64, f64)>,
}

impl ActiveSession {
    /// Parallel phase: open the frame and encode it. Touches only `self`;
    /// the packet is dropped here, only its staged summary is kept.
    fn produce(&mut self, now_ms: f64) {
        match self.step.open(now_ms) {
            Ok((staged, _packet)) => self.staged = Some(staged),
            Err(e) => self.error = Some(e),
        }
    }

    /// Serial phase: cross the shared link, land and close the frame, run
    /// the streaming anomaly detectors, and let the controller adapt.
    fn transport(
        &mut self,
        link: &mut SharedLink,
        now_ms: f64,
        server_factor: f64,
        config: &FleetConfig,
    ) {
        let Some(staged) = self.staged.take() else {
            return;
        };
        let mut frame = self.step.deliver(staged, link, self.flow, server_factor);
        self.step.seal(&mut frame);

        let f = &frame.record;
        self.max_rung = self.max_rung.max(f.rung);
        self.mtp_totals.push(f.mtp.total_ms());

        // per-tick observability: delivered-byte delta against the shared
        // ledger, the allocator's grant, and the streaming anomaly
        // detectors (all serial-phase, modeled values only)
        let delivered = link.stats(self.flow).bytes_delivered;
        let consumed_mbps = (delivered - self.prev_delivered) as f64 * 8.0 * 60.0 / 1e6;
        self.prev_delivered = delivered;
        let alloc_mbps = config.session_rate_mbps * self.step.alloc_scale();
        self.last_rung = f.rung;
        self.last_critical_ms = f.upscale_ms;
        self.last_alloc_mbps = alloc_mbps;
        self.last_consumed_mbps = consumed_mbps;
        self.consumed_ema += (consumed_mbps - self.consumed_ema) / 16.0;
        if self.trace.sampler().is_none() {
            self.alloc_track.push((now_ms, alloc_mbps));
            self.consumed_track.push((now_ms, consumed_mbps));
        }
        let flap = self.flap.observe(f.index as u64, f.rung);
        let starve = self.starve.observe(consumed_mbps, alloc_mbps);
        for (counter, msg) in [
            (Counter::AnomalyRungFlap, flap),
            (Counter::AnomalyStarvation, starve),
        ] {
            if let Some(msg) = msg {
                let rec = self.step.rec();
                rec.incr(counter);
                rec.log(Level::Warn, msg.clone());
                rec.instant(InstantKind::Anomaly, now_ms, msg);
            }
        }

        self.step.adapt(&frame);
    }
}

/// Aggregate report for one fleet session.
#[derive(Debug, Clone)]
pub struct FleetSessionReport {
    /// Index into [`FleetConfig::sessions`].
    pub spec: usize,
    /// Session label (`game @ device`).
    pub label: String,
    /// Tick the session was admitted.
    pub joined_tick: usize,
    /// Tick the session stopped streaming.
    pub left_tick: usize,
    /// Frames streamed.
    pub frames: u64,
    /// Frames that met the deadline and were not frozen.
    pub frames_ok: u64,
    /// Frozen (repeated) display slots.
    pub frames_frozen: u64,
    /// Critical-path deadline misses.
    pub deadline_misses: u64,
    /// Frames discarded while this session's decoder was down.
    pub drops_decoder_down: u64,
    /// Deepest degradation rung visited.
    pub max_rung: usize,
    /// Aggregated per-session telemetry.
    pub telemetry: TelemetrySummary,
    /// SLO standings.
    pub slo: SloSummary,
    /// Deadline-miss / stall attribution, judged frame by frame as the
    /// session streamed.
    pub attribution: SessionAttribution,
    /// This session's ledger on the shared link.
    pub flow: FlowStats,
    /// Decoder-crash recovery history, when the spec scripted crashes.
    pub recovery: Option<RecoverySummary>,
}

impl FleetSessionReport {
    /// Effective display rate: 60 FPS times the fraction of frames that
    /// met the deadline *and* were actually new (not frozen repeats) —
    /// the honest per-viewer rate under consolidation.
    pub fn fps_effective(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            60.0 * self.frames_ok as f64 / self.frames as f64
        }
    }

    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"spec\":{},\"label\":\"{}\",\"joined_tick\":{},\"left_tick\":{},\
             \"frames\":{},\"frames_ok\":{},\"frames_frozen\":{},\"deadline_misses\":{},\
             \"drops_decoder_down\":{},\"max_rung\":{},\"fps_effective\":{},\
             \"flow\":{{\"sent\":{},\"dropped\":{},\"queue_overflow\":{},\"outage\":{},\"bytes\":{}}}",
            self.spec,
            json_escape(&self.label),
            self.joined_tick,
            self.left_tick,
            self.frames,
            self.frames_ok,
            self.frames_frozen,
            self.deadline_misses,
            self.drops_decoder_down,
            self.max_rung,
            json_f64(self.fps_effective()),
            self.flow.sent,
            self.flow.dropped,
            self.flow.drops_queue_overflow,
            self.flow.drops_outage,
            self.flow.bytes,
        );
        let _ = write!(
            out,
            ",\"telemetry\":{},\"slo\":{},\"attribution\":{}}}",
            self.telemetry.to_json(),
            self.slo.to_json(),
            self.attribution.to_json()
        );
        out
    }
}

/// Admission-control outcome of one fleet run.
#[derive(Debug, Clone, Default)]
pub struct AdmissionSummary {
    /// Sessions admitted (possibly after queueing).
    pub admitted: usize,
    /// Sessions rejected because the wait queue was full.
    pub rejected: Vec<usize>,
    /// Sessions that left (or the run ended) before they were admitted.
    pub abandoned: Vec<usize>,
    /// Deepest the wait queue ever got.
    pub peak_queue: usize,
    /// Most sessions ever concurrently admitted.
    pub peak_concurrency: usize,
}

/// Per-rung occupancy series names, one per [`LADDER`] rung (the array
/// length is pinned to the ladder at compile time).
const RUNG_SERIES: [&str; LADDER.len()] = [
    "rung-occupancy-0",
    "rung-occupancy-1",
    "rung-occupancy-2",
    "rung-occupancy-3",
    "rung-occupancy-4",
];

/// Fleet series mirrored into full-resolution Chrome counter tracks
/// (pid 0 of the merged trace); everything else lives only in the
/// [`SeriesSet`] summaries.
const FLEET_TRACKS: [&str; 7] = [
    "active-sessions",
    "fairness-jain",
    "alloc-mbps",
    "consumed-mbps",
    "p99-critical-ms",
    "slo-burn-fast",
    // Fleet-wide retained-frame count; only sampled (and thus only
    // exported) when `FleetConfig::sampling` is on.
    "sampling-retained",
];

/// Streaming fleet-watch state: the time-series summaries, the
/// admission-storm detector, full-resolution counter-track samples for
/// the merged trace, anomaly tallies and the knee tick. Sampled once per
/// tick in the serial phase, so it is bit-deterministic at any worker
/// count.
#[derive(Debug, Clone)]
struct FleetWatch {
    series: SeriesSet,
    storm: AdmissionStormDetector,
    markers: Vec<TraceInstant>,
    tracks: Vec<(&'static str, Vec<(f64, f64)>)>,
    knee_tick: Option<u64>,
    fairness_min: f64,
    fairness_sum: f64,
    fairness_ticks: u64,
    rung_flaps: u64,
    starvation_events: u64,
    starved_max_streak: u64,
}

impl FleetWatch {
    fn new() -> Self {
        FleetWatch {
            series: SeriesSet::new(DEFAULT_CAPACITY),
            storm: AdmissionStormDetector::new(),
            markers: Vec::new(),
            tracks: FLEET_TRACKS.iter().map(|&n| (n, Vec::new())).collect(),
            knee_tick: None,
            fairness_min: 1.0,
            fairness_sum: 0.0,
            fairness_ticks: 0,
            rung_flaps: 0,
            starvation_events: 0,
            starved_max_streak: 0,
        }
    }

    fn track(&mut self, name: &str, ts_ms: f64, value: f64) {
        if let Some((_, samples)) = self.tracks.iter_mut().find(|(n, _)| *n == name) {
            samples.push((ts_ms, value));
        }
    }

    fn summarize(&self) -> FleetWatchSummary {
        FleetWatchSummary {
            knee_tick: self.knee_tick,
            fairness_min: self.fairness_min,
            fairness_mean: if self.fairness_ticks == 0 {
                1.0
            } else {
                self.fairness_sum / self.fairness_ticks as f64
            },
            rung_flaps: self.rung_flaps,
            starvation_events: self.starvation_events,
            starved_max_streak: self.starved_max_streak,
            admission_storms: self.storm.events,
            series: self.series.clone(),
        }
    }
}

/// Fleet-watch rollup carried on [`FleetReport`]: knee, fairness
/// extremes, anomaly tallies and the series summaries.
#[derive(Debug, Clone)]
pub struct FleetWatchSummary {
    /// First tick where Jain fairness fell below 0.9 or the fleet p99
    /// critical path missed the realtime budget; `None` if neither
    /// happened.
    pub knee_tick: Option<u64>,
    /// Worst per-tick Jain fairness over consumed/allocated shares.
    pub fairness_min: f64,
    /// Mean per-tick Jain fairness (1.0 when no tick had active
    /// sessions).
    pub fairness_mean: f64,
    /// Rung-flap anomalies across every session.
    pub rung_flaps: u64,
    /// Starvation anomalies across every session.
    pub starvation_events: u64,
    /// Longest starved-tick streak any session saw.
    pub starved_max_streak: u64,
    /// Admission-storm anomalies (flash-crowd joins).
    pub admission_storms: u64,
    /// The fleet series: per series its sample count, downsampling
    /// stride, min, max and last value.
    pub series: SeriesSet,
}

impl FleetWatchSummary {
    /// Anomaly tallies as `(kind, count)` pairs, for the Prometheus
    /// fleet snapshot.
    pub fn anomalies(&self) -> [(&'static str, u64); 3] {
        [
            ("rung-flap", self.rung_flaps),
            ("starvation", self.starvation_events),
            ("admission-storm", self.admission_storms),
        ]
    }

    /// Deterministic single-line JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"knee_tick\":{},\"fairness_min\":{},\"fairness_mean\":{},\
             \"rung_flaps\":{},\"starvation_events\":{},\"starved_max_streak\":{},\
             \"admission_storms\":{},\"series\":{}}}",
            self.knee_tick
                .map_or_else(|| "null".to_owned(), |t| t.to_string()),
            json_f64(self.fairness_min),
            json_f64(self.fairness_mean),
            self.rung_flaps,
            self.starvation_events,
            self.starved_max_streak,
            self.admission_storms,
            self.series.summary_json(),
        );
        out
    }
}

/// The fleet-aggregate report: per-session reports plus cross-session
/// rollups. [`FleetReport::to_json`] is byte-deterministic.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Shared-link name.
    pub link: String,
    /// Allocator budget, Mbps.
    pub budget_mbps: f64,
    /// Admission capacity.
    pub capacity: usize,
    /// Ticks the fleet ran.
    pub ticks: usize,
    /// Admission-control outcome.
    pub admission: AdmissionSummary,
    /// Per-session reports, in spec order.
    pub sessions: Vec<FleetSessionReport>,
    /// Exact fleet-wide MTP p50, ms (pooled over every frame of every
    /// session, not a percentile-of-percentiles).
    pub mtp_p50_ms: f64,
    /// Exact fleet-wide MTP p99, ms.
    pub mtp_p99_ms: f64,
    /// Fleet-watch rollup: knee, fairness, anomalies, series rings.
    pub watch: FleetWatchSummary,
    /// Tail-sampling ledger when [`FleetConfig::sampling`] was on.
    /// Deliberately *not* part of [`FleetReport::to_json`]: a sampled run
    /// must report byte-identically to a full-trace run of the same
    /// config (sampling observes the fleet, it never perturbs it); the
    /// ledger exports separately via [`SamplingSummary::to_json`].
    pub sampling: Option<SamplingSummary>,
}

impl FleetReport {
    /// Total frames streamed across the fleet.
    pub fn total_frames(&self) -> u64 {
        self.sessions.iter().map(|s| s.frames).sum()
    }

    /// Total deadline misses across the fleet.
    pub fn total_deadline_misses(&self) -> u64 {
        self.sessions.iter().map(|s| s.deadline_misses).sum()
    }

    /// Total frozen display slots across the fleet.
    pub fn total_frozen(&self) -> u64 {
        self.sessions.iter().map(|s| s.frames_frozen).sum()
    }

    /// Summed shared-link ledgers (the per-flow ledgers partition each
    /// flow's drops, so the sum never double counts).
    pub fn total_flow(&self) -> FlowStats {
        let mut total = FlowStats::default();
        for s in &self.sessions {
            total.sent += s.flow.sent;
            total.dropped += s.flow.dropped;
            total.drops_queue_overflow += s.flow.drops_queue_overflow;
            total.drops_outage += s.flow.drops_outage;
            total.bytes += s.flow.bytes;
        }
        total
    }

    /// Worst per-session effective FPS (sessions that streamed at least
    /// one frame).
    pub fn min_fps_effective(&self) -> f64 {
        self.sessions
            .iter()
            .filter(|s| s.frames > 0)
            .map(FleetSessionReport::fps_effective)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean per-session effective FPS.
    pub fn mean_fps_effective(&self) -> f64 {
        let streamed: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| s.frames > 0)
            .map(FleetSessionReport::fps_effective)
            .collect();
        if streamed.is_empty() {
            0.0
        } else {
            streamed.iter().sum::<f64>() / streamed.len() as f64
        }
    }

    /// Fleet-wide fraction of deadline misses with a known root cause.
    pub fn attributed_fraction(&self) -> f64 {
        let misses: u64 = self.sessions.iter().map(|s| s.attribution.misses).sum();
        if misses == 0 {
            return 1.0;
        }
        let attributed: u64 = self
            .sessions
            .iter()
            .map(|s| s.attribution.attributed())
            .sum();
        attributed as f64 / misses as f64
    }

    /// Every per-flow ledger partitions its drops by cause.
    pub fn flows_consistent(&self) -> bool {
        self.sessions.iter().all(|s| s.flow.consistent())
    }

    /// Deterministic single-line JSON: identical fleet runs produce
    /// byte-identical output at any worker count.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.total_flow();
        let _ = write!(
            out,
            "{{\"link\":\"{}\",\"budget_mbps\":{},\"capacity\":{},\"ticks\":{},\
             \"admission\":{{\"admitted\":{},\"rejected\":{:?},\"abandoned\":{:?},\
             \"peak_queue\":{},\"peak_concurrency\":{}}},\
             \"fleet\":{{\"frames\":{},\"deadline_misses\":{},\"frozen\":{},\
             \"mtp_p50_ms\":{},\"mtp_p99_ms\":{},\"min_fps_effective\":{},\
             \"mean_fps_effective\":{},\"attributed_fraction\":{},\
             \"drops\":{{\"sent\":{},\"dropped\":{},\"queue_overflow\":{},\"outage\":{},\"bytes\":{}}}}}",
            json_escape(&self.link),
            json_f64(self.budget_mbps),
            self.capacity,
            self.ticks,
            self.admission.admitted,
            self.admission.rejected,
            self.admission.abandoned,
            self.admission.peak_queue,
            self.admission.peak_concurrency,
            self.total_frames(),
            self.total_deadline_misses(),
            self.total_frozen(),
            json_f64(self.mtp_p50_ms),
            json_f64(self.mtp_p99_ms),
            json_f64(self.min_fps_effective()),
            json_f64(self.mean_fps_effective()),
            json_f64(self.attributed_fraction()),
            total.sent,
            total.dropped,
            total.drops_queue_overflow,
            total.drops_outage,
            total.bytes,
        );
        out.push_str(",\"watch\":");
        out.push_str(&self.watch.to_json());
        out.push_str(",\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Exact percentile of a sample set (nearest-rank), deterministic for
/// identical inputs in any order.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// A fleet session's trace collector, per [`FleetConfig::sampling`]:
/// every frame's span tree, or the tail sampler's retained frames.
#[derive(Debug, Clone)]
enum TraceCollector {
    Full(TraceSink),
    Sampled(SamplingTraceSink),
}

impl TraceCollector {
    fn new(sampling: Option<SamplingPolicy>) -> Self {
        match sampling {
            Some(policy) => TraceCollector::Sampled(SamplingTraceSink::new(policy)),
            None => TraceCollector::Full(TraceSink::new()),
        }
    }

    fn handle(&self) -> SinkHandle {
        match self {
            TraceCollector::Full(sink) => SinkHandle::new(sink.clone()),
            TraceCollector::Sampled(sink) => SinkHandle::new(sink.clone()),
        }
    }

    fn sampler(&self) -> Option<&SamplingTraceSink> {
        match self {
            TraceCollector::Sampled(sink) => Some(sink),
            TraceCollector::Full(_) => None,
        }
    }

    /// The collected session: every frame, or only the retained ones.
    fn session(&self) -> Option<TraceSession> {
        match self {
            TraceCollector::Full(sink) => sink.sessions().pop(),
            TraceCollector::Sampled(sink) => sink.sessions().pop(),
        }
    }
}

/// One finished session's trace collector (a sampler stays live so the
/// fleet cap can still evict its baselines) plus its counter-track
/// samples, keyed by spec index for pid assignment at export time.
#[derive(Debug, Clone)]
struct SessionTrace {
    spec: usize,
    collector: TraceCollector,
    tracks: Vec<(&'static str, Vec<(f64, f64)>)>,
}

/// The discrete-event fleet driver. See the module docs for the per-tick
/// phase order and the determinism contract.
pub struct FleetSim {
    config: FleetConfig,
    link: SharedLink,
    tick: usize,
    wait_queue: VecDeque<usize>,
    active: Vec<ActiveSession>,
    finished: Vec<FleetSessionReport>,
    traces: Vec<SessionTrace>,
    admission: AdmissionSummary,
    fleet_mtp: Vec<f64>,
    server_factor: f64,
    watch: FleetWatch,
}

impl FleetSim {
    /// Builds the fleet; no session is admitted until its join tick.
    pub fn new(config: FleetConfig) -> Self {
        let link = SharedLink::with_faults(
            config.link.clone(),
            config.link_seed,
            config.shared_faults.clone(),
        );
        FleetSim {
            config,
            link,
            tick: 0,
            wait_queue: VecDeque::new(),
            active: Vec::new(),
            finished: Vec::new(),
            traces: Vec::new(),
            admission: AdmissionSummary::default(),
            fleet_mtp: Vec::new(),
            server_factor: 1.0,
            watch: FleetWatch::new(),
        }
    }

    /// The current logical tick.
    pub fn tick(&self) -> usize {
        self.tick
    }

    /// Currently admitted sessions.
    pub fn concurrency(&self) -> usize {
        self.active.len()
    }

    fn spawn_session(&mut self, spec_idx: usize, tick: usize) -> ActiveSession {
        let config = &self.config;
        let spec = &config.sessions[spec_idx];
        let trace = TraceCollector::new(config.sampling);
        let label = format!(
            "fleet#{spec_idx} {:?} @ {} ({})",
            spec.game, spec.device.name, config.link.name
        );
        let step = SessionStep::new(
            &config.session_config(spec, Some(trace.handle())),
            Pipeline::GameStreamSr,
            label,
        );
        ActiveSession {
            spec_idx,
            joined_tick: tick,
            flow: self.link.add_flow(spec.fault_plan.clone()),
            step,
            trace,
            staged: None,
            error: None,
            max_rung: 0,
            mtp_totals: Vec::new(),
            prev_delivered: 0,
            last_rung: 0,
            last_critical_ms: 0.0,
            last_alloc_mbps: 0.0,
            last_consumed_mbps: 0.0,
            consumed_ema: config.session_rate_mbps,
            flap: RungFlapDetector::new(),
            starve: StarvationDetector::new(),
            alloc_track: Vec::new(),
            consumed_track: Vec::new(),
        }
    }

    fn finalize_session(&mut self, mut s: ActiveSession, left_tick: usize) {
        let done = s.step.finish();
        self.traces.push(SessionTrace {
            spec: s.spec_idx,
            collector: s.trace,
            tracks: vec![
                ("alloc-mbps", std::mem::take(&mut s.alloc_track)),
                ("consumed-mbps", std::mem::take(&mut s.consumed_track)),
            ],
        });
        self.watch.rung_flaps += s.flap.events;
        self.watch.starvation_events += s.starve.events;
        self.watch.starved_max_streak = self.watch.starved_max_streak.max(s.starve.max_streak);
        self.fleet_mtp.append(&mut s.mtp_totals);
        let spec = &self.config.sessions[s.spec_idx];
        let t = &done.telemetry;
        let frames_frozen = t.counter(Counter::FramesFrozen);
        self.finished.push(FleetSessionReport {
            spec: s.spec_idx,
            label: format!("{:?} @ {}", spec.game, spec.device.name),
            joined_tick: s.joined_tick,
            left_tick,
            frames: t.frames,
            // a frozen frame upscales nothing, so it never misses: the
            // misses and the frozen slots are disjoint
            frames_ok: t.frames - t.deadline_misses - frames_frozen,
            frames_frozen,
            deadline_misses: t.deadline_misses,
            drops_decoder_down: t.counter(Counter::DropsDecoderDown),
            max_rung: s.max_rung,
            telemetry: done.telemetry,
            slo: done.slo,
            attribution: done.attribution,
            flow: self.link.stats(s.flow),
            recovery: done.recovery,
        });
    }

    /// [`FleetConfig::validate`] until the first tick succeeds: a fleet
    /// with an invalid configuration never leaves tick 0.
    fn check_config(&self) -> Result<(), GssError> {
        if self.tick == 0 {
            self.config.validate()
        } else {
            Ok(())
        }
    }

    /// Advances the fleet one 60 Hz tick through the six phases.
    ///
    /// # Errors
    ///
    /// Until a tick has run, returns [`GssError::InvalidConfig`] or
    /// [`GssError::WindowTooLarge`] for a configuration the fleet cannot
    /// run: a NaN, infinite or negative `uplink_utilization` or
    /// `session_rate_mbps`, or a session canvas or GOP that
    /// [`crate::session::run_session`] refuses. Propagates codec failures
    /// from any session (which would indicate a bug, as in `run_session`).
    pub fn step(&mut self) -> Result<(), GssError> {
        self.check_config()?;
        let tick = self.tick;
        let now_ms = tick as f64 * 1000.0 / 60.0;

        // ---- phase 1: departures -----------------------------------------
        let mut i = 0;
        while i < self.active.len() {
            if self.config.sessions[self.active[i].spec_idx].leave_tick == Some(tick) {
                let s = self.active.remove(i);
                self.finalize_session(s, tick);
            } else {
                i += 1;
            }
        }

        // ---- phase 2: admission ------------------------------------------
        let mut joins_this_tick = 0usize;
        for idx in 0..self.config.sessions.len() {
            if self.config.sessions[idx].join_tick == tick {
                self.wait_queue.push_back(idx);
                joins_this_tick += 1;
            }
        }
        // queued sessions whose departure tick already passed gave up
        self.wait_queue.retain(|&idx| {
            let gone = self.config.sessions[idx]
                .leave_tick
                .is_some_and(|l| l <= tick);
            if gone {
                self.admission.abandoned.push(idx);
            }
            !gone
        });
        while self.active.len() < self.config.admission.capacity {
            let Some(idx) = self.wait_queue.pop_front() else {
                break;
            };
            let s = self.spawn_session(idx, tick);
            self.active.push(s);
            self.admission.admitted += 1;
        }
        while self.wait_queue.len() > self.config.admission.queue_limit {
            let idx = self.wait_queue.pop_back().expect("queue non-empty");
            self.admission.rejected.push(idx);
        }
        self.admission.peak_queue = self.admission.peak_queue.max(self.wait_queue.len());
        self.admission.peak_concurrency = self.admission.peak_concurrency.max(self.active.len());

        // ---- phase 3: fair-share rate allocation -------------------------
        let n = self.active.len();
        if n > 0 {
            self.server_factor = n.div_ceil(self.config.server_slots.max(1)) as f64;
            let share = self.config.budget_mbps() / n as f64;
            let alloc = (share / self.config.session_rate_mbps.max(1e-9)).min(1.0);
            for s in &mut self.active {
                s.step.set_alloc_scale(alloc);
            }
        }

        // ---- phase 4: produce (parallel, per-session isolated) -----------
        self.config
            .pool
            .for_each_mut(&mut self.active, |_, s| s.produce(now_ms));
        for s in &mut self.active {
            if let Some(e) = s.error.take() {
                return Err(e);
            }
        }

        // ---- phase 5: transport + control (serial, session order) --------
        let server_factor = self.server_factor;
        for i in 0..self.active.len() {
            let (link, config) = (&mut self.link, &self.config);
            self.active[i].transport(link, now_ms, server_factor, config);
        }

        // ---- phase 6: fleet-watch sampling (serial) ----------------------
        self.sample_watch(tick, now_ms, joins_this_tick);

        self.tick += 1;
        Ok(())
    }

    /// Samples the fleet time-series, runs the admission-storm detector
    /// and checks the knee condition. Serial and modeled-values-only, so
    /// every series, marker and counter track is bit-deterministic at any
    /// worker count.
    fn sample_watch(&mut self, tick: usize, now_ms: f64, joins_this_tick: usize) {
        let t = tick as u64;
        if let Some(msg) = self.watch.storm.observe(t, joins_this_tick) {
            self.watch.markers.push(TraceInstant {
                kind: InstantKind::Anomaly,
                ts_ms: now_ms,
                detail: msg,
            });
        }
        let n = self.active.len();
        self.watch.series.push("active-sessions", t, n as f64);
        self.watch
            .series
            .push("admission-admitted", t, self.admission.admitted as f64);
        self.watch.series.push(
            "admission-rejected",
            t,
            self.admission.rejected.len() as f64,
        );
        self.watch.series.push(
            "admission-abandoned",
            t,
            self.admission.abandoned.len() as f64,
        );
        self.watch.track("active-sessions", now_ms, n as f64);
        if let Some(policy) = self.config.sampling {
            // Fleet-wide retention budget: enforced serially here so
            // eviction order (and the resulting trace bytes) are
            // bit-deterministic at any worker count.
            let sinks = self.samplers();
            enforce_fleet_cap(&sinks, policy.budget.fleet, now_ms);
            let retained: usize = sinks.iter().map(SamplingTraceSink::retained_count).sum();
            self.watch
                .track("sampling-retained", now_ms, retained as f64);
        }
        if n == 0 {
            return;
        }

        // service share: smoothed consumed over allocated, capped at 1 —
        // over-consumption (a keyframe burst) is not unfairness, only
        // sustained under-service drags Jain's index down
        let shares: Vec<f64> = self
            .active
            .iter()
            .map(|s| {
                if s.last_alloc_mbps > 0.0 {
                    (s.consumed_ema / s.last_alloc_mbps).min(1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let fairness = jain_fairness(&shares);
        let alloc_sum: f64 = self.active.iter().map(|s| s.last_alloc_mbps).sum();
        let consumed_sum: f64 = self.active.iter().map(|s| s.last_consumed_mbps).sum();
        let mut crits: Vec<f64> = self.active.iter().map(|s| s.last_critical_ms).collect();
        let p50 = percentile(&mut crits, 0.50);
        let p99 = percentile(&mut crits, 0.99);
        let (mut burn_fast, mut burn_slow) = (0.0, 0.0);
        for s in &self.active {
            if let Some((fast, slow)) = s.step.slo().current_burn("effective-fps") {
                burn_fast += fast;
                burn_slow += slow;
            }
        }
        burn_fast /= n as f64;
        burn_slow /= n as f64;
        let mut occupancy = [0u64; LADDER.len()];
        for s in &self.active {
            occupancy[s.last_rung.min(LADDER.len() - 1)] += 1;
        }

        self.watch.series.push("fairness-jain", t, fairness);
        self.watch.series.push("alloc-mbps", t, alloc_sum);
        self.watch.series.push("consumed-mbps", t, consumed_sum);
        self.watch.series.push("p50-critical-ms", t, p50);
        self.watch.series.push("p99-critical-ms", t, p99);
        self.watch.series.push("slo-burn-fast", t, burn_fast);
        self.watch.series.push("slo-burn-slow", t, burn_slow);
        for (r, &count) in occupancy.iter().enumerate() {
            self.watch.series.push(RUNG_SERIES[r], t, count as f64);
        }
        self.watch.track("fairness-jain", now_ms, fairness);
        self.watch.track("alloc-mbps", now_ms, alloc_sum);
        self.watch.track("consumed-mbps", now_ms, consumed_sum);
        self.watch.track("p99-critical-ms", now_ms, p99);
        self.watch.track("slo-burn-fast", now_ms, burn_fast);

        self.watch.fairness_min = self.watch.fairness_min.min(fairness);
        self.watch.fairness_sum += fairness;
        self.watch.fairness_ticks += 1;

        if self.watch.knee_tick.is_none()
            && (fairness < 0.9 || !gss_telemetry::deadline_met(p99, REALTIME_BUDGET_MS))
        {
            self.watch.knee_tick = Some(t);
            self.watch.markers.push(TraceInstant {
                kind: InstantKind::Anomaly,
                ts_ms: now_ms,
                detail: format!(
                    "fleet knee at tick {t}: fairness {fairness:.3}, p99 critical {p99:.2} ms"
                ),
            });
        }
    }

    /// Runs every remaining tick, finalizes every session at the tick
    /// reached (later than [`FleetConfig::ticks`] when the fleet was
    /// stepped past it), and returns the fleet report (sessions in spec
    /// order).
    ///
    /// # Errors
    ///
    /// Returns the configuration error [`FleetSim::step`] returns, or the
    /// first session error.
    pub fn run_until_idle(&mut self) -> Result<FleetReport, GssError> {
        self.check_config()?;
        while self.tick < self.config.ticks {
            self.step()?;
        }
        // a fleet stepped past its horizon finalizes where it stands
        let end = self.tick;
        while let Some(s) = self.active.pop() {
            self.finalize_session(s, end);
        }
        while let Some(idx) = self.wait_queue.pop_front() {
            self.admission.abandoned.push(idx);
        }
        self.finished.sort_by_key(|s| s.spec);
        self.admission.rejected.sort_unstable();
        self.admission.abandoned.sort_unstable();
        let mut mtp = std::mem::take(&mut self.fleet_mtp);
        let report = FleetReport {
            link: self.config.link.name.to_owned(),
            budget_mbps: self.config.budget_mbps(),
            capacity: self.config.admission.capacity,
            ticks: end,
            admission: self.admission.clone(),
            sessions: self.finished.clone(),
            mtp_p50_ms: percentile(&mut mtp, 0.50),
            mtp_p99_ms: percentile(&mut mtp, 0.99),
            watch: self.watch.summarize(),
            sampling: self.sampling_summary(),
        };
        self.fleet_mtp = mtp;
        Ok(report)
    }

    /// Every session's tail sampler in deterministic order: finished
    /// sessions spec-sorted first, then still-active sessions in join
    /// order. Sinks are `Arc`-shared clones, so mutating through them
    /// (fleet-cap eviction) acts on the live sessions.
    fn samplers(&self) -> Vec<SamplingTraceSink> {
        let mut finished: Vec<&SessionTrace> = self.traces.iter().collect();
        finished.sort_by_key(|st| st.spec);
        finished
            .into_iter()
            .filter_map(|st| st.collector.sampler().cloned())
            .chain(
                self.active
                    .iter()
                    .filter_map(|s| s.trace.sampler().cloned()),
            )
            .collect()
    }

    /// Sampling roll-up across every session's tail sampler, or `None`
    /// when the fleet runs without sampling. Deliberately not part of
    /// [`FleetReport::to_json`] — a sampled run must report
    /// byte-identically to a full-trace run; export this separately via
    /// [`SamplingSummary::to_json`].
    pub fn sampling_summary(&self) -> Option<SamplingSummary> {
        self.config
            .sampling
            .map(|_| SamplingSummary::collect(&self.samplers()))
    }

    /// Retained trace sessions in merged-trace order (spec-sorted, pid
    /// `i + 1`, trace ids re-keyed to the fleet pid — the same ids the
    /// merged Chrome trace carries), when sampling is on. Pairs
    /// index-for-index with [`FleetReport::sessions`] after
    /// [`FleetSim::run_until_idle`]; empty without sampling.
    pub fn sampled_sessions(&self) -> Vec<TraceSession> {
        let mut traces: Vec<&SessionTrace> = self.traces.iter().collect();
        traces.sort_by_key(|st| st.spec);
        traces
            .iter()
            .enumerate()
            .filter_map(|(i, st)| {
                let mut sess = st.collector.sampler()?.sessions().pop()?;
                sess.rekey((i + 1) as u64);
                Some(sess)
            })
            .collect()
    }

    /// Merged Perfetto/Chrome trace of every finished session — one
    /// Chrome process per fleet session, pids in spec order, plus a
    /// pid-0 `fleet` process carrying the fleet counter tracks
    /// (Perfetto counter rows) and anomaly markers. Per-session
    /// allocated/consumed counter tracks ride on each session's pid.
    /// Call after [`FleetSim::run_until_idle`]. Byte-deterministic.
    pub fn to_chrome_json(&self) -> String {
        let mut traces = self.traces.clone();
        traces.sort_by_key(|st| st.spec);
        let mut counters: Vec<CounterTrack> = self
            .watch
            .tracks
            .iter()
            .filter(|(_, samples)| !samples.is_empty())
            .map(|(name, samples)| CounterTrack {
                pid: 0,
                name: (*name).to_owned(),
                samples: samples.clone(),
            })
            .collect();
        let sessions: Vec<TraceSession> = traces
            .into_iter()
            .enumerate()
            .map(|(i, st)| {
                let pid = (i + 1) as u64;
                // sampled mode: only the retained frames survive, plus the
                // per-session sampling counter tracks
                if let Some(sampler) = st.collector.sampler() {
                    for mut track in sampler.counter_tracks() {
                        track.pid = pid;
                        counters.push(track);
                    }
                }
                let mut sess = st
                    .collector
                    .session()
                    .unwrap_or_else(|| TraceSession::new(String::new(), pid, Vec::new()));
                sess.rekey(pid);
                for (name, samples) in st.tracks {
                    if !samples.is_empty() {
                        counters.push(CounterTrack {
                            pid,
                            name: name.to_owned(),
                            samples,
                        });
                    }
                }
                sess
            })
            .collect();
        let markers: Vec<(u64, TraceInstant)> = self
            .watch
            .markers
            .iter()
            .map(|m| (0u64, m.clone()))
            .collect();
        chrome_trace_json_ext(&sessions, &[(0, "fleet")], &counters, &markers)
    }
}

/// Builds and runs a fleet to completion.
///
/// # Errors
///
/// Propagates the first session error.
pub fn run_fleet(config: FleetConfig) -> Result<FleetReport, GssError> {
    FleetSim::new(config).run_until_idle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_net::{FaultEvent, FaultKind};

    fn two_session_config(ticks: usize) -> FleetConfig {
        FleetConfig::new(LinkProfile::wifi(), 0x0f1ee7)
            .with_ticks(ticks)
            .with_session(FleetSessionSpec::new(GameId::G1, DeviceProfile::s8_tab()))
            .with_session(FleetSessionSpec::new(
                GameId::G4,
                DeviceProfile::pixel7_pro(),
            ))
    }

    #[test]
    fn fleet_runs_and_reports_every_session() {
        let report = run_fleet(two_session_config(60)).expect("fleet run");
        assert_eq!(report.sessions.len(), 2);
        for s in &report.sessions {
            assert_eq!(s.frames, 60, "session {} frame count", s.spec);
            assert!(s.flow.consistent());
        }
        assert_eq!(report.admission.admitted, 2);
        assert!(report.admission.rejected.is_empty());
        assert!(report.mtp_p99_ms >= report.mtp_p50_ms);
    }

    #[test]
    fn reports_are_deterministic_for_one_config() {
        let a = run_fleet(two_session_config(45)).expect("run a");
        let b = run_fleet(two_session_config(45)).expect("run b");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn admission_queues_then_rejects_past_the_policy() {
        let mut config = FleetConfig::new(LinkProfile::wifi(), 1)
            .with_ticks(30)
            .with_session(FleetSessionSpec::new(GameId::G1, DeviceProfile::s8_tab()));
        config.admission = AdmissionPolicy {
            capacity: 1,
            queue_limit: 1,
        };
        // three more arrivals at tick 0: one queued, the rest rejected
        for _ in 0..3 {
            config = config.with_session(FleetSessionSpec::new(
                GameId::G2,
                DeviceProfile::pixel7_pro(),
            ));
        }
        let report = run_fleet(config).expect("fleet run");
        assert_eq!(report.admission.admitted, 1);
        assert_eq!(report.admission.rejected.len(), 2);
        assert_eq!(report.admission.abandoned.len(), 1, "queued but never ran");
        assert_eq!(report.sessions.len(), 1);
    }

    #[test]
    fn a_leaver_frees_a_slot_for_the_queue() {
        let mut config = FleetConfig::new(LinkProfile::wifi(), 2)
            .with_ticks(40)
            .with_session(FleetSessionSpec::new(GameId::G1, DeviceProfile::s8_tab()).leaving_at(20))
            .with_session(
                FleetSessionSpec::new(GameId::G2, DeviceProfile::pixel7_pro()).joining_at(5),
            );
        config.admission = AdmissionPolicy {
            capacity: 1,
            queue_limit: 2,
        };
        let report = run_fleet(config).expect("fleet run");
        assert_eq!(report.admission.admitted, 2);
        let late = &report.sessions[1];
        assert_eq!(late.joined_tick, 20, "admitted the tick the slot freed");
        assert_eq!(late.frames, 20);
        assert_eq!(report.admission.peak_concurrency, 1);
    }

    #[test]
    fn oversubscription_throttles_the_allocation_and_keeps_flows_consistent() {
        // 8 sessions × 8 Mbps over a 60 Mbps bottleneck at 0.7 utilization
        // oversubscribes; the allocator must shed rate rather than melt.
        let mut config = FleetConfig::new(LinkProfile::wifi(), 3).with_ticks(45);
        for i in 0..8 {
            let dev = if i % 2 == 0 {
                DeviceProfile::s8_tab()
            } else {
                DeviceProfile::pixel7_pro()
            };
            config = config.with_session(FleetSessionSpec::new(GameId::ALL[i], dev));
        }
        let report = run_fleet(config).expect("fleet run");
        assert_eq!(report.sessions.len(), 8);
        assert!(report.flows_consistent());
        let total = report.total_flow();
        assert_eq!(total.sent, 8 * 45);
    }

    #[test]
    fn shared_outage_freezes_every_session_and_attributes_outage() {
        let mut config = two_session_config(60);
        config.shared_faults = FaultPlan::new(vec![FaultEvent {
            start_ms: 200.0,
            end_ms: 400.0,
            kind: FaultKind::Outage,
        }]);
        let report = run_fleet(config).expect("fleet run");
        for s in &report.sessions {
            assert!(s.flow.drops_outage > 0, "session {} saw no outage", s.spec);
            assert!(s.frames_frozen > 0);
            assert!(s.flow.consistent());
        }
    }

    /// The error a fleet configured by `configure` returns from its first
    /// tick. `run_until_idle` must refuse it too, and the fleet never
    /// leaves tick 0.
    fn refusal(configure: impl FnOnce(&mut FleetConfig)) -> GssError {
        let mut config = two_session_config(5);
        configure(&mut config);
        let mut sim = FleetSim::new(config);
        let err = sim.step().expect_err("the first tick ran an invalid fleet");
        assert!(sim.run_until_idle().is_err(), "run_until_idle ran it");
        assert_eq!(sim.tick(), 0);
        err
    }

    fn assert_invalid(err: GssError, expected: &str) {
        assert!(
            matches!(err, GssError::InvalidConfig { field, .. } if field == expected),
            "expected {expected} to be refused, got: {err}"
        );
    }

    #[test]
    fn a_zero_coherence_fleet_link_is_refused() {
        for coherence_ms in [0.0, -200.0, f64::NAN] {
            assert_invalid(
                refusal(|c| c.link.coherence_ms = coherence_ms),
                "link.coherence_ms",
            );
        }
    }

    #[test]
    fn a_zero_gop_fleet_is_refused() {
        assert_invalid(refusal(|c| c.gop_size = 0), "gop_size");
    }

    #[test]
    fn an_odd_canvas_fleet_is_refused() {
        assert_invalid(refusal(|c| c.lr_size = (128, 71)), "lr_size");
    }

    #[test]
    fn an_empty_canvas_fleet_is_refused() {
        assert_invalid(refusal(|c| c.lr_size = (0, 0)), "lr_size");
    }

    #[test]
    fn a_fleet_canvas_smaller_than_the_roi_window_is_refused() {
        let err = refusal(|c| c.lr_size = (2, 2));
        assert!(
            matches!(err, GssError::WindowTooLarge { frame: (2, 2), .. }),
            "{err}"
        );
    }

    #[test]
    fn nan_uplink_utilization_is_refused() {
        assert_invalid(
            refusal(|c| c.uplink_utilization = f64::NAN),
            "uplink_utilization",
        );
    }

    #[test]
    fn infinite_uplink_utilization_is_refused() {
        assert_invalid(
            refusal(|c| c.uplink_utilization = f64::INFINITY),
            "uplink_utilization",
        );
    }

    #[test]
    fn negative_uplink_utilization_is_refused() {
        assert_invalid(
            refusal(|c| c.uplink_utilization = -0.5),
            "uplink_utilization",
        );
    }

    #[test]
    fn nan_session_rate_is_refused() {
        assert_invalid(
            refusal(|c| c.session_rate_mbps = f64::NAN),
            "session_rate_mbps",
        );
    }

    #[test]
    fn infinite_session_rate_is_refused() {
        assert_invalid(
            refusal(|c| c.session_rate_mbps = f64::INFINITY),
            "session_rate_mbps",
        );
    }

    #[test]
    fn negative_session_rate_is_refused() {
        assert_invalid(refusal(|c| c.session_rate_mbps = -8.0), "session_rate_mbps");
    }

    #[test]
    fn chrome_export_has_one_process_per_session() {
        let mut sim = FleetSim::new(two_session_config(30));
        sim.run_until_idle().expect("fleet run");
        let json = sim.to_chrome_json();
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        assert!(!json.contains("\"pid\":3"));
    }
}
