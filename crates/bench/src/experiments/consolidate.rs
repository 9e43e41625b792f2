//! Consolidation study (extension): how many concurrent sessions one
//! GameStreamSR server sustains behind a shared uplink before per-viewer
//! quality collapses.
//!
//! The sweep admits N ∈ {1, 2, 4, 8} sessions to one fleet behind the shared
//! fiber uplink and reports the sessions-per-server curve: per-session
//! effective FPS (min and mean), the pooled fleet MTP percentiles, the
//! shared-queue drop ledger, and how much of the miss budget the
//! attribution engine could explain. The fair-share allocator and the
//! `ceil(n / server_slots)` GPU time-sharing factor are the two levers the
//! curve exercises — see `DESIGN.md` §4f.
//!
//! Fleet sessions keep private telemetry sinks (a sink shared across
//! concurrently-produced sessions would interleave their event streams),
//! so the `--telemetry`/`--trace` session plumbing does not apply here.
//! Set `GSS_FLEET_TRACE=<path>` to write the merged per-session Chrome
//! trace of the densest sweep point instead (one Chrome process per fleet
//! session; open in Perfetto). `figures bigfleet` is the tail-sampled
//! fleet (`gss_telemetry::sampling`).

use crate::{table::f, RunOptions, Table};
use gamestreamsr::fleet::{FleetConfig, FleetReport, FleetSessionSpec, FleetSim};
use gss_net::LinkProfile;
use gss_platform::DeviceProfile;
use gss_render::GameId;

/// Session counts the sweep visits, in order.
pub const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Effective-FPS floor a session must hold to count as "healthy" in the
/// consolidation gate.
pub const HEALTHY_FPS: f64 = 55.0;

/// One sweep point: N requested sessions and the fleet outcome.
#[derive(Debug)]
pub struct ConsolidationPoint {
    /// Sessions requested at this point.
    pub n: usize,
    /// The fleet report.
    pub report: FleetReport,
}

impl ConsolidationPoint {
    /// Sessions holding at least [`HEALTHY_FPS`] effective FPS.
    pub fn healthy_sessions(&self) -> usize {
        self.report
            .sessions
            .iter()
            .filter(|s| s.frames > 0 && s.fps_effective() >= HEALTHY_FPS)
            .count()
    }
}

/// The full sessions-per-server sweep. Produced by [`measure`]; consumed
/// by [`run`] and the benchmark-regression harness.
pub struct ConsolidationSweep {
    /// Fleet ticks each point ran (60 ticks = 1 s logical).
    pub ticks: usize,
    /// One entry per [`SWEEP`] session count.
    pub points: Vec<ConsolidationPoint>,
    /// The densest point's simulator, retained for Chrome-trace export.
    pub peak_sim: FleetSim,
}

/// The canonical fleet at `n` sessions: games round-robin through the
/// paper's workload set, devices alternate between the two calibrated
/// handhelds, all behind the shared fiber uplink. Joins are staggered one
/// tick apart — admitting everyone on the same tick phase-locks the GOPs,
/// so every session's keyframe lands in the same millisecond and the
/// synchronized burst overflows the shared queue (a real consolidation
/// server staggers keyframes for exactly this reason).
pub fn fleet_config(n: usize, ticks: usize) -> FleetConfig {
    let mut config = FleetConfig::new(LinkProfile::fiber(), 0xf1ee7).with_ticks(ticks);
    // what the codec actually emits per session at this canvas's quantizer
    // floor (deployment-equivalent); the allocator splits the budget
    // against this figure
    config.session_rate_mbps = 18.0;
    for i in 0..n {
        let device = if i % 2 == 0 {
            DeviceProfile::s8_tab()
        } else {
            DeviceProfile::pixel7_pro()
        };
        config = config.with_session(
            FleetSessionSpec::new(GameId::ALL[i % GameId::ALL.len()], device).joining_at(i),
        );
    }
    config
}

/// Runs the sweep and returns every fleet report.
pub fn measure(options: &RunOptions) -> ConsolidationSweep {
    let ticks = options.frames(360, 120);
    let mut points = Vec::new();
    let mut peak_sim = None;
    for n in SWEEP {
        let mut sim = FleetSim::new(fleet_config(n, ticks));
        let report = sim.run_until_idle().expect("fleet run");
        points.push(ConsolidationPoint { n, report });
        peak_sim = Some(sim);
    }
    ConsolidationSweep {
        ticks,
        points,
        peak_sim: peak_sim.expect("sweep is non-empty"),
    }
}

/// Prints the sessions-per-server consolidation curve.
pub fn run(options: &RunOptions) {
    let sweep = measure(options);
    let budget = sweep.points[0].report.budget_mbps;
    let mut t = Table::new(
        format!(
            "Server consolidation on a shared fiber uplink ({} ticks/point, {} Mbps budget)",
            sweep.ticks,
            f(budget, 0)
        ),
        &[
            "sessions",
            "healthy (>=55 FPS)",
            "min eff. FPS",
            "mean eff. FPS",
            "fleet MTP p50/p99",
            "drops (queue/outage)",
            "frozen",
            "miss attr.",
        ],
    );
    for p in &sweep.points {
        let r = &p.report;
        let flow = r.total_flow();
        t.row(&[
            format!("{}", p.n),
            format!("{}/{}", p.healthy_sessions(), r.sessions.len()),
            f(r.min_fps_effective(), 1),
            f(r.mean_fps_effective(), 1),
            format!("{}/{} ms", f(r.mtp_p50_ms, 1), f(r.mtp_p99_ms, 1)),
            format!("{}/{}", flow.drops_queue_overflow, flow.drops_outage),
            r.total_frozen().to_string(),
            format!("{}%", f(r.attributed_fraction() * 100.0, 1)),
        ]);
    }
    t.print();
    let densest = sweep.points.last().expect("sweep is non-empty");
    outln!(
        "allocator share at {} sessions: {} Mbps/session ({}x of the 18 Mbps nominal rate)\n",
        densest.n,
        f(budget / densest.n as f64, 2),
        f((budget / densest.n as f64 / 18.0).min(1.0), 2),
    );

    if let Ok(path) = std::env::var("GSS_FLEET_TRACE") {
        match std::fs::write(&path, sweep.peak_sim.to_chrome_json()) {
            Ok(()) => outln!(
                "fleet chrome trace ({} sessions) written to {path} (open in https://ui.perfetto.dev)",
                densest.n
            ),
            Err(e) => eprintln!("error: cannot write fleet trace file {path}: {e}"),
        }
    }
    let _ = options;
}
