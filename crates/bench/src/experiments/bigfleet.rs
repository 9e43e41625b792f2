//! Big-fleet churn storm (extension): a 32-session flash-crowd replay
//! run twice — once with the full trace and once behind the tail
//! sampler — to pin the retention budget, anomaly coverage and the
//! sampled-vs-full trace byte ratio.
//!
//! The fleet seeds eight long-lived sessions (two of them outage
//! victims whose last hop drops twice each, whipsawing their ladder
//! rungs) and then lands a 24-session flash crowd one tick apart
//! against a `capacity 16 / queue 4` admission policy. Both runs share
//! one seeded config, and the simulator's serial phases make the event
//! stream bit-identical between them — so the full run is a perfect
//! reference: the sampled run must produce the byte-identical fleet
//! report (`report_identical`), keep every anomaly frame
//! (`anomaly_coverage == 1.0`) and land the merged sampled trace at a
//! fraction of the full trace's bytes.
//!
//! Artifacts (via `figures bigfleet`): `--out` writes the fleet report
//! JSON plus the sampling ledger, `--trace` the sampled merged Chrome
//! trace, `--full-trace` the unsampled reference trace, `--prom` a
//! Prometheus snapshot with p99 exemplar annotations, and `--check`
//! gates the `bigfleet.*` / `sampling.*` metrics against a committed
//! baseline.

use crate::{table::f, RunOptions, Table};
use gamestreamsr::fleet::{AdmissionPolicy, FleetConfig, FleetReport, FleetSessionSpec, FleetSim};
use gss_net::{FaultEvent, FaultKind, FaultPlan, LinkProfile};
use gss_platform::DeviceProfile;
use gss_render::GameId;
use gss_telemetry::{SamplingPolicy, SamplingSummary};

/// Fleet label on the Prometheus snapshot and in the printed table.
pub const FLEET_NAME: &str = "bigfleet-storm";

/// Scripted sessions in the storm (seeds + flash crowd).
pub const SESSIONS: usize = 32;

/// Retention policy both gates and docs quote: keep a 1-in-32 baseline
/// plus ±2 frames of context around every anomaly, under a 256-frame
/// per-session and 4096-frame fleet budget.
pub fn policy() -> SamplingPolicy {
    SamplingPolicy {
        baseline_period: 32,
        ..SamplingPolicy::default()
    }
}

/// One big-fleet run: the sampled simulator (kept for trace export),
/// its full-trace twin, and the comparison ledger.
pub struct BigfleetRun {
    /// Fleet ticks the storm ran.
    pub ticks: usize,
    /// The retention policy the sampled run used.
    pub policy: SamplingPolicy,
    /// The sampled run's fleet report (byte-identical to the full
    /// run's when `report_identical` holds).
    pub report: FleetReport,
    /// Sampling ledger rolled up across every session's sampler.
    pub sampling: SamplingSummary,
    /// Merged Chrome trace bytes of the full-trace reference run.
    pub full_trace_bytes: usize,
    /// Merged Chrome trace bytes of the sampled run.
    pub sampled_trace_bytes: usize,
    /// Whether both runs' `FleetReport::to_json` matched byte-for-byte.
    pub report_identical: bool,
    /// The sampled simulator, retained for Chrome-trace export.
    pub sim: FleetSim,
    /// The full-trace simulator, retained for the reference trace.
    pub full_sim: FleetSim,
}

impl BigfleetRun {
    /// Sampled-over-full merged trace size.
    pub fn trace_byte_ratio(&self) -> f64 {
        if self.full_trace_bytes == 0 {
            0.0
        } else {
            self.sampled_trace_bytes as f64 / self.full_trace_bytes as f64
        }
    }

    /// Whether the retained total sits inside the fleet budget.
    pub fn budget_ok(&self) -> bool {
        self.sampling.retained <= self.policy.budget.fleet as u64
    }
}

/// The canonical 32-session storm at `ticks` length. Eight staggered
/// seed sessions (sessions 0 and 3 each take two sustained last-hop
/// outages), then a 24-session flash crowd joining one tick apart from
/// `ticks / 3` and leaving together a third of a run later — against an
/// admission policy of 16 slots and 4 queue places, so the crowd splits
/// into admits, queued joins and rejects.
pub fn storm_config(ticks: usize) -> FleetConfig {
    let total_ms = ticks as f64 * 1000.0 / 60.0;
    // a consolidation-rack uplink: fiber characteristics, provisioned
    // for 16 concurrent 18 Mbps sessions (budget 450 x 0.7 = 315 Mbps
    // vs 288 offered). The steady state is healthy, so the anomalies
    // the sampler must catch are the *bursts* — the victims' outage
    // windows and the churn edges — not wall-to-wall congestion.
    let rack = LinkProfile {
        bandwidth_mbps: 450.0,
        ..LinkProfile::fiber()
    };
    let mut config = FleetConfig::new(rack, 0xb16f1ee7).with_ticks(ticks);
    config.session_rate_mbps = 18.0;
    config.admission = AdmissionPolicy {
        capacity: 16,
        queue_limit: 4,
    };
    for i in 0..8 {
        let device = if i % 2 == 0 {
            DeviceProfile::s8_tab()
        } else {
            DeviceProfile::pixel7_pro()
        };
        let mut spec =
            FleetSessionSpec::new(GameId::ALL[i % GameId::ALL.len()], device).joining_at(i);
        if i == 0 || i == 3 {
            // the victims: two sustained last-hop outages each, offset
            // between the two sessions so the anomaly windows interleave
            let shift = if i == 0 { 0.0 } else { 0.05 };
            spec = spec.with_faults(FaultPlan::new(vec![
                FaultEvent {
                    start_ms: total_ms * (0.25 + shift),
                    end_ms: total_ms * (0.40 + shift),
                    kind: FaultKind::Outage,
                },
                FaultEvent {
                    start_ms: total_ms * (0.55 + shift),
                    end_ms: total_ms * (0.70 + shift),
                    kind: FaultKind::Outage,
                },
            ]));
        }
        config = config.with_session(spec);
    }
    let crowd = ticks / 3;
    for i in 0..(SESSIONS - 8) {
        let device = if i % 2 == 0 {
            DeviceProfile::pixel7_pro()
        } else {
            DeviceProfile::s8_tab()
        };
        config = config.with_session(
            FleetSessionSpec::new(GameId::ALL[(8 + i) % GameId::ALL.len()], device)
                .joining_at(crowd + i)
                .leaving_at(crowd + ticks / 3),
        );
    }
    config
}

/// Runs the storm twice — full trace, then sampled — and returns the
/// comparison. Both runs are pure functions of the seeded config, so
/// any report divergence is a sampler bug, not noise.
pub fn measure(options: &RunOptions) -> BigfleetRun {
    let ticks = options.frames(480, 160);
    let policy = policy();

    let mut full_sim = FleetSim::new(storm_config(ticks));
    let full_report = full_sim.run_until_idle().expect("full fleet run");
    let full_trace_bytes = full_sim.to_chrome_json().len();

    let mut sim = FleetSim::new(storm_config(ticks).with_sampling(policy));
    let report = sim.run_until_idle().expect("sampled fleet run");
    let sampled_trace_bytes = sim.to_chrome_json().len();
    let sampling = sim.sampling_summary().expect("sampling enabled");

    let report_identical = full_report.to_json() == report.to_json();
    BigfleetRun {
        ticks,
        policy,
        report,
        sampling,
        full_trace_bytes,
        sampled_trace_bytes,
        report_identical,
        sim,
        full_sim,
    }
}

/// Prints one already-measured storm (`figures bigfleet` reuses the
/// run for its artifacts and its gate).
pub fn print(run: &BigfleetRun) {
    let r = &run.report;
    let s = &run.sampling;
    let mut t = Table::new(
        format!(
            "Big fleet: {FLEET_NAME} ({} ticks, {SESSIONS} sessions scripted)",
            run.ticks
        ),
        &["quantity", "full", "sampled"],
    );
    t.row(&[
        "trace bytes".to_owned(),
        run.full_trace_bytes.to_string(),
        run.sampled_trace_bytes.to_string(),
    ]);
    t.row(&[
        "trace byte ratio".to_owned(),
        "1.000".to_owned(),
        f(run.trace_byte_ratio(), 3),
    ]);
    t.row(&[
        "report identical".to_owned(),
        "-".to_owned(),
        if run.report_identical { "yes" } else { "NO" }.to_owned(),
    ]);
    t.print();
    println!(
        "sampling: {} frames -> {} retained ({} anomaly, {} context, {} baseline), {} evicted, retention {}",
        s.frames,
        s.retained,
        s.anomaly_kept,
        s.context_kept,
        s.baseline_kept,
        s.evicted,
        f(s.retention_ratio(), 4),
    );
    println!(
        "anomalies: {} frames, coverage {} | exemplars: {} | budget: {} / {} ({})",
        s.anomaly_frames,
        f(s.anomaly_coverage(), 3),
        s.exemplars,
        s.retained,
        run.policy.budget.fleet,
        if run.budget_ok() { "ok" } else { "OVER" },
    );
    println!(
        "admission: {} admitted, {} rejected, {} abandoned | {} frames, {} misses, knee {}\n",
        r.admission.admitted,
        r.admission.rejected.len(),
        r.admission.abandoned.len(),
        r.total_frames(),
        r.total_deadline_misses(),
        r.watch
            .knee_tick
            .map_or_else(|| "none".to_owned(), |t| format!("tick {t}")),
    );
}
