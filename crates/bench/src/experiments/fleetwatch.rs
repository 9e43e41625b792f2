//! Fleet-watch churn storm (extension): replay a deterministic admission
//! flash crowd plus a starved victim session and read the fleet back
//! through the streaming time-series layer.
//!
//! The storm seeds three long-lived sessions (the first one's last hop
//! outages twice, starving it under its fair share and whipsawing its
//! ladder rung), then lands a six-session flash crowd inside a ten-tick
//! window against a `capacity 4 / queue 2` admission policy — so the run
//! exercises every detector at once: admission storm, per-session
//! starvation, rung flap, and the fleet fairness knee. Everything the
//! experiment prints and writes is a pure function of the seeded
//! simulation, byte-identical at any `GSS_THREADS`.
//!
//! Artifacts (via `figures fleetwatch`): `--out` writes the fleet report
//! JSON (including the `watch` rollup and series summaries), `--trace`
//! the merged Chrome trace with pid-0 fleet counter tracks and anomaly
//! markers, `--prom` a fleet-labeled Prometheus snapshot, and `--check`
//! gates the `fleetwatch.*` metrics against a committed baseline. The
//! storm keeps every frame's trace; `figures bigfleet` is the
//! tail-sampled storm.

use crate::{table::f, RunOptions, Table};
use gamestreamsr::fleet::{AdmissionPolicy, FleetConfig, FleetReport, FleetSessionSpec, FleetSim};
use gss_net::{FaultEvent, FaultKind, FaultPlan, LinkProfile};
use gss_platform::DeviceProfile;
use gss_render::GameId;

/// Fleet label on the Prometheus snapshot and in the printed table.
pub const FLEET_NAME: &str = "churn-storm";

/// One fleet-watch storm run: the simulator (kept for trace export) and
/// its report.
pub struct FleetwatchRun {
    /// Fleet ticks the storm ran.
    pub ticks: usize,
    /// The fleet report, `watch` rollup included.
    pub report: FleetReport,
    /// The simulator, retained for Chrome-trace export.
    pub sim: FleetSim,
}

/// The canonical churn storm at `ticks` length. Three staggered seed
/// sessions (the first with two last-hop outage windows at 25–40% and
/// 55–70% of the run), then a six-session flash crowd joining one tick
/// apart from `ticks / 3`, all leaving together a third of a run later —
/// against an admission policy of 4 slots and 2 queue places, so the
/// crowd splits into one admit, two queued and three rejects.
pub fn storm_config(ticks: usize) -> FleetConfig {
    let total_ms = ticks as f64 * 1000.0 / 60.0;
    let mut config = FleetConfig::new(LinkProfile::fiber(), 0x0b5e55).with_ticks(ticks);
    // deployment-equivalent per-session rate, as in the consolidation sweep
    config.session_rate_mbps = 18.0;
    config.admission = AdmissionPolicy {
        capacity: 4,
        queue_limit: 2,
    };
    for i in 0..3 {
        let device = if i % 2 == 0 {
            DeviceProfile::s8_tab()
        } else {
            DeviceProfile::pixel7_pro()
        };
        let mut spec =
            FleetSessionSpec::new(GameId::ALL[i % GameId::ALL.len()], device).joining_at(i);
        if i == 0 {
            // the victim: two sustained last-hop outages, each long
            // enough (15% of the run) to run the starvation streak out
            spec = spec.with_faults(FaultPlan::new(vec![
                FaultEvent {
                    start_ms: total_ms * 0.25,
                    end_ms: total_ms * 0.40,
                    kind: FaultKind::Outage,
                },
                FaultEvent {
                    start_ms: total_ms * 0.55,
                    end_ms: total_ms * 0.70,
                    kind: FaultKind::Outage,
                },
            ]));
        }
        config = config.with_session(spec);
    }
    let crowd = ticks / 3;
    for i in 0..6 {
        let device = if i % 2 == 0 {
            DeviceProfile::pixel7_pro()
        } else {
            DeviceProfile::s8_tab()
        };
        config = config.with_session(
            FleetSessionSpec::new(GameId::ALL[(3 + i) % GameId::ALL.len()], device)
                .joining_at(crowd + i)
                .leaving_at(crowd + ticks / 3),
        );
    }
    config
}

/// Runs the storm and returns the report plus the simulator.
pub fn measure(options: &RunOptions) -> FleetwatchRun {
    let ticks = options.frames(480, 160);
    let mut sim = FleetSim::new(storm_config(ticks));
    let report = sim.run_until_idle().expect("fleet run");
    FleetwatchRun { ticks, report, sim }
}

/// Prints one already-measured storm (`figures fleetwatch` reuses the
/// run for its artifacts and its gate).
pub fn print(run: &FleetwatchRun) {
    let w = &run.report.watch;
    let mut t = Table::new(
        format!(
            "Fleet watch: {FLEET_NAME} ({} ticks, {} sessions scripted)",
            run.ticks,
            run.report.sessions.len()
                + run.report.admission.rejected.len()
                + run.report.admission.abandoned.len()
        ),
        &["series", "samples", "min", "max", "last"],
    );
    for s in w.series.iter() {
        t.row(&[
            s.name().to_owned(),
            s.samples().to_string(),
            f(s.min().unwrap_or(f64::NAN), 3),
            f(s.max().unwrap_or(f64::NAN), 3),
            f(s.last().unwrap_or(f64::NAN), 3),
        ]);
    }
    t.print();
    outln!(
        "fairness: min {} mean {} | knee: {}",
        f(w.fairness_min, 3),
        f(w.fairness_mean, 3),
        w.knee_tick
            .map_or_else(|| "none".to_owned(), |t| format!("tick {t}")),
    );
    outln!(
        "anomalies: {} rung flaps, {} starvation episodes (max streak {} ticks), {} admission storms",
        w.rung_flaps, w.starvation_events, w.starved_max_streak, w.admission_storms
    );
    outln!(
        "admission: {} admitted, {} rejected, {} abandoned (peak queue {}, peak concurrency {})\n",
        run.report.admission.admitted,
        run.report.admission.rejected.len(),
        run.report.admission.abandoned.len(),
        run.report.admission.peak_queue,
        run.report.admission.peak_concurrency
    );
}
