//! Seeded workload inputs, the untraced unit of work for each workload,
//! and the output checks every run must pass.
//!
//! The seed is the only input: it is expanded here into session configs
//! (paper workloads) or a fleet timeline (`fleet-storm`), and the
//! simulator receives nothing else.

use gamestreamsr::fleet::{AdmissionPolicy, FleetConfig, FleetReport, FleetSessionSpec, FleetSim};
use gamestreamsr::mtp::FULL_LR;
use gamestreamsr::roi::{plan_roi_window, RoiDetectorConfig};
use gamestreamsr::session::run_session;
use gamestreamsr::{Pipeline, ServerConfig, SessionConfig, SessionReport};
use gss_codec::EncoderConfig;
use gss_net::{FaultEvent, FaultKind, FaultPlan, LinkProfile};
use gss_platform::pool::PoolHandle;
use gss_platform::DeviceProfile;
use gss_render::GameId;
use gss_telemetry::prom::{render_fleet, render_opts, PromFleet, PromOptions, PromSession};
use gss_telemetry::{compute_exemplars, SamplingPolicy};

use crate::spans::{time_if, Spans};

/// Data-path canvas of the paper workloads (640×360 output).
pub const PAPER_CANVAS: (usize, usize) = (320, 180);
/// Frames per paper session. One session per Table I game makes a pass.
pub const FRAMES_PER_SESSION: usize = 24;
/// Ticks of one `fleet-storm` pass.
pub const STORM_TICKS: usize = 120;
/// Flash-crowd sessions of one `fleet-storm` pass (plus 8 long-lived).
pub const STORM_CROWD: usize = 24;
/// Long-lived sessions seeded at the start of every storm.
const STORM_SEEDED: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The GameStreamSR pipeline in the paper's configuration.
    PaperOurs,
    /// The NEMO baseline on the same generated streams.
    PaperNemo,
    /// A 32-session churn storm on the fleet canvas.
    FleetStorm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperOurs,
        Workload::PaperNemo,
        Workload::FleetStorm,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperOurs => "paper-ours",
            Workload::PaperNemo => "paper-nemo",
            Workload::FleetStorm => "fleet-storm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The client pipeline a paper workload streams through (`None` for
    /// the fleet, whose sessions model the GameStreamSR client without
    /// moving client pixels).
    pub fn pipeline(self) -> Option<Pipeline> {
        match self {
            Workload::PaperOurs => Some(Pipeline::GameStreamSr),
            Workload::PaperNemo => Some(Pipeline::Nemo),
            Workload::FleetStorm => None,
        }
    }
}

/// SplitMix64: a tiny, fixed generator so a seed expands to the same
/// inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `salt` separates independent streams.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One of the two calibrated devices; the device sets the RoI patch
    /// size.
    fn device(&mut self) -> DeviceProfile {
        if self.next_u64() & 1 == 0 {
            DeviceProfile::s8_tab()
        } else {
            DeviceProfile::pixel7_pro()
        }
    }
}

/// One session per Table I game, in table order: fault-free wifi, top
/// ladder rung (no degradation controller), quality metrics on. The seed
/// picks each session's link seed and device.
pub fn paper_sessions(
    seed: u64,
    canvas: (usize, usize),
    frames: usize,
    workers: usize,
) -> Vec<SessionConfig> {
    let mut rng = Rng::new(seed, 1);
    GameId::ALL
        .iter()
        .map(|&game| {
            let device = rng.device();
            SessionConfig {
                link_seed: rng.next_u64(),
                frames,
                lr_size: canvas,
                pool: PoolHandle::with_workers(workers),
                ..SessionConfig::new(game, device)
            }
        })
        .collect()
}

/// The server configuration `run_session` builds for `config`: time
/// stride, the RoI window planned at deployment scale and scaled to the
/// canvas, and the paper's codec settings.
pub fn server_config(config: &SessionConfig) -> ServerConfig {
    let plan = plan_roi_window(
        &config.device,
        config.scale,
        FULL_LR.width(),
        FULL_LR.height(),
    );
    ServerConfig {
        game: config.game,
        lr_size: config.lr_size,
        scale: config.scale,
        encoder: EncoderConfig {
            quality: config.encoder_quality,
            gop_size: config.gop_size,
            ..EncoderConfig::default()
        },
        detector: RoiDetectorConfig::default(),
        roi_window: plan.scaled_to_canvas(config.lr_size.0, FULL_LR.width()),
        time_stride: (FULL_LR.width() / config.lr_size.0.max(1)).max(1),
        tracker: None,
        rate_control: None,
    }
}

/// A churn storm in the style of `figures bigfleet`: 8 long-lived
/// sessions (two of them outage victims whose last hop drops twice) and a
/// flash crowd of `crowd` sessions joining around `ticks / 3`, against a
/// 16-slot, 4-queue admission policy behind a 450 Mbps rack uplink, with
/// tail sampling on. The seed drives the link seed, join and leave ticks,
/// the victims and their outage windows, games and devices.
pub fn storm_config(seed: u64, ticks: usize, crowd: usize, workers: usize) -> FleetConfig {
    let mut rng = Rng::new(seed, 2);
    let total_ms = ticks as f64 * 1000.0 / 60.0;
    let rack = LinkProfile {
        bandwidth_mbps: 450.0,
        ..LinkProfile::fiber()
    };
    let mut config = FleetConfig::new(rack, rng.next_u64())
        .with_ticks(ticks)
        // keep a 1-in-32 baseline plus ±2 frames of context around every
        // anomaly, under the default retention budgets
        .with_sampling(SamplingPolicy {
            baseline_period: 32,
            ..SamplingPolicy::default()
        });
    config.session_rate_mbps = 18.0;
    config.admission = AdmissionPolicy {
        capacity: 16,
        queue_limit: 4,
    };
    config.pool = PoolHandle::with_workers(workers);
    // Seeded, but shaped alike at every seed: every storm streams the
    // same game mix (the first eight Table I games, one per long-lived
    // session, the crowd cycling through them) in a seeded rotation, and
    // join and leave ticks jitter by a few ticks around a fixed profile.
    // The render cost, the concurrency curve and the workers' load
    // balance therefore barely move with the seed.
    let rotation = rng.below(STORM_SEEDED);
    let game = |i: usize| GameId::ALL[(i + rotation) % STORM_SEEDED];
    let victim_a = rng.below(STORM_SEEDED);
    let victim_b = (victim_a + 1 + rng.below(STORM_SEEDED - 1)) % STORM_SEEDED;
    for i in 0..STORM_SEEDED {
        let device = rng.device();
        let mut spec = FleetSessionSpec::new(game(i), device).joining_at(i + rng.below(3));
        if i == victim_a || i == victim_b {
            let mut outage = |from: f64| {
                let start = from + 0.15 * rng.unit();
                let end = start + 0.10 + 0.05 * rng.unit();
                FaultEvent {
                    start_ms: total_ms * start,
                    end_ms: total_ms * end,
                    kind: FaultKind::Outage,
                }
            };
            let first = outage(0.15);
            let second = outage(0.50);
            spec = spec.with_faults(FaultPlan::new(vec![first, second]));
        }
        config = config.with_session(spec);
    }
    // the crowd joins about one tick apart from `ticks / 3` and leaves
    // together a third of a run later
    let crowd_start = ticks / 3;
    for i in 0..crowd {
        let device = rng.device();
        let join = crowd_start + i + rng.below(3);
        let leave = crowd_start + ticks / 3 + rng.below(4);
        config = config.with_session(
            FleetSessionSpec::new(game(i), device)
                .joining_at(join)
                .leaving_at(leave.max(join + 1)),
        );
    }
    config
}

/// FNV-1a over a byte string, chained from `state`.
pub fn fnv(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a session's modeled output: every field of every
/// `FrameRecord`, in order.
pub fn session_digest(report: &SessionReport) -> u64 {
    report
        .frames
        .iter()
        .fold(FNV_START, |h, f| fnv(h, format!("{f:?}").as_bytes()))
}

/// The output checks of one session; an empty list means it passed.
pub fn check_session(config: &SessionConfig, report: &SessionReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.frames.len() != config.frames {
        failures.push(format!(
            "{:?}: {} frames recorded, {} requested",
            config.game,
            report.frames.len(),
            config.frames
        ));
    }
    if report.frames.iter().enumerate().any(|(i, f)| f.index != i) {
        failures.push(format!("{:?}: frame indices out of order", config.game));
    }
    let a = &report.attribution;
    if a.attributed() != a.misses {
        failures.push(format!(
            "{:?}: {} of {} deadline misses unattributed",
            config.game,
            a.misses - a.attributed(),
            a.misses
        ));
    }
    failures
}

/// One paper session run through `run_session`.
pub struct SessionRun {
    /// Frames requested.
    pub frames: u64,
    /// Digest of the modeled output (0 when the run failed).
    pub digest: u64,
    /// Failed checks, or the error the session returned.
    pub failures: Vec<String>,
    /// The report, when the session completed.
    pub report: Option<SessionReport>,
}

/// Runs one paper session and checks its output.
pub fn run_paper_session(config: &SessionConfig, pipeline: Pipeline) -> SessionRun {
    match run_session(config, pipeline) {
        Ok(report) => SessionRun {
            frames: config.frames as u64,
            digest: session_digest(&report),
            failures: check_session(config, &report),
            report: Some(report),
        },
        Err(e) => SessionRun {
            frames: config.frames as u64,
            digest: 0,
            failures: vec![format!("{:?}: run_session failed: {e}", config.game)],
            report: None,
        },
    }
}

/// Everything one storm pass produced.
pub struct StormRun {
    /// Session-frames streamed.
    pub frames: u64,
    /// Digest of `FleetReport::to_json`.
    pub digest: u64,
    /// Failed checks, or the error the simulator returned.
    pub failures: Vec<String>,
    /// Bytes of the sampled Chrome trace.
    pub trace_bytes: usize,
    /// Frames the tail sampler retained at the end of the run.
    pub retained_frames: u64,
}

/// The output checks of one storm; an empty list means it passed.
pub fn check_storm(config: &FleetConfig, report: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    for s in &report.sessions {
        let requested = (s.left_tick - s.joined_tick) as u64;
        if s.frames != requested {
            failures.push(format!(
                "fleet session {}: {} frames streamed, {} requested",
                s.spec, s.frames, requested
            ));
        }
    }
    if !report.flows_consistent() {
        failures.push("fleet: shared-link flow ledgers are inconsistent".to_owned());
    }
    if report.attributed_fraction() != 1.0 {
        failures.push(format!(
            "fleet: only {:.4} of deadline misses attributed",
            report.attributed_fraction()
        ));
    }
    match (&report.sampling, config.sampling) {
        (Some(s), Some(policy)) if s.retained > policy.budget.fleet as u64 => {
            failures.push(format!(
                "fleet: {} retained frames exceed the fleet budget {}",
                s.retained, policy.budget.fleet
            ))
        }
        (None, Some(_)) => failures.push("fleet: sampling summary missing".to_owned()),
        _ => {}
    }
    failures
}

/// Runs one storm to completion: every tick through `FleetSim::step`,
/// finalize through `run_until_idle`, then the report JSON, the sampled
/// Chrome trace and the Prometheus snapshot rendered in memory. With
/// `spans`, each of those calls gets a span (steps carry that tick's
/// concurrency).
pub fn run_storm(config: &FleetConfig, mut spans: Option<&mut Spans>) -> StormRun {
    let failed = |frames: u64, e: String| StormRun {
        frames,
        digest: 0,
        failures: vec![e],
        trace_bytes: 0,
        retained_frames: 0,
    };
    let mut sim = FleetSim::new(config.clone());
    let mut frames = 0u64;
    while sim.tick() < config.ticks {
        let tick = sim.tick() as u64;
        let (stepped, concurrency) = time_if(
            spans.as_deref_mut(),
            "fleet.step",
            tick,
            || (sim.step(), sim.concurrency() as u64),
            |&(_, n)| n,
        );
        if let Err(e) = stepped {
            return failed(frames, format!("fleet step {tick} failed: {e}"));
        }
        frames += concurrency;
    }
    let finalized = time_if(
        spans.as_deref_mut(),
        "fleet.finalize",
        0,
        || sim.run_until_idle(),
        |_| 0,
    );
    let report = match finalized {
        Ok(report) => report,
        Err(e) => return failed(frames, format!("fleet finalize failed: {e}")),
    };
    let json = time_if(
        spans.as_deref_mut(),
        "telemetry.report_json",
        0,
        || report.to_json(),
        |_| 0,
    );
    let chrome = time_if(
        spans.as_deref_mut(),
        "telemetry.chrome_trace",
        0,
        || sim.to_chrome_json(),
        |_| 0,
    );
    let prom = time_if(
        spans,
        "telemetry.prometheus",
        0,
        || prometheus(&sim, &report),
        |_| 0,
    );
    std::hint::black_box(&prom);
    let mut failures = check_storm(config, &report);
    if report.total_frames() != frames {
        failures.push(format!(
            "fleet: report counts {} session-frames, the steps produced {frames}",
            report.total_frames()
        ));
    }
    StormRun {
        frames,
        digest: fnv(FNV_START, json.as_bytes()),
        failures,
        trace_bytes: chrome.len(),
        retained_frames: report.sampling.as_ref().map_or(0, |s| s.retained),
    }
}

/// The fleet-labelled Prometheus snapshot with per-session sections and
/// p99 exemplars keyed to the sampled trace, as `figures bigfleet` writes
/// it.
fn prometheus(sim: &FleetSim, report: &FleetReport) -> String {
    let watch = &report.watch;
    let mut out = render_fleet(&PromFleet {
        name: "perfbench-fleet-storm",
        series: &watch.series,
        anomalies: &watch.anomalies(),
        knee_tick: watch.knee_tick,
    });
    let exemplars = compute_exemplars(&sim.sampled_sessions());
    let sessions: Vec<PromSession<'_>> = report
        .sessions
        .iter()
        .enumerate()
        .map(|(i, r)| PromSession {
            name: &r.label,
            summary: &r.telemetry,
            attribution: Some(&r.attribution),
            slo: Some(&r.slo),
            exemplars: exemplars.get(i),
        })
        .collect();
    out.push_str(&render_opts(&sessions, PromOptions { exemplars: true }));
    out
}
