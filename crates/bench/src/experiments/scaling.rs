//! Strong-scaling of the deterministic parallel executor.
//!
//! Runs the same seeded GameStreamSR session at 1, 2, 4 and 8 workers and
//! reports the end-to-end speedup. Two time columns:
//!
//! - **measured** — wall-clock of the run. In accounting mode the pool
//!   executes chunks serially, so this column is flat by construction; it
//!   is reported as the baseline cost and a sanity check that the worker
//!   count does not change the amount of work.
//! - **modeled** — `measured - work + span`, where per region the pool
//!   charges the most-loaded worker's chunk cost (`span`) instead of the
//!   full serial cost (`work`). This is the wall-clock on an unloaded
//!   machine with one core per worker, computed exactly on any host —
//!   including single-core CI — in the same spirit as the device timing
//!   models used everywhere else in the pipeline.
//!
//! The `identical` column proves the determinism contract end-to-end: the
//! per-frame record stream and the telemetry summary hash to the same
//! digest at every worker count.

use crate::{RunOptions, Table};
use gamestreamsr::session::{run_session, Pipeline, SessionConfig};
use gss_platform::{pool, DeviceProfile};
use gss_render::GameId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Worker counts exercised by the scaling ladder.
pub const WORKER_LADDER: [usize; 4] = [1, 2, 4, 8];

/// One row of the scaling ladder.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Worker count.
    pub workers: usize,
    /// Wall-clock of the (serialized, accounted) run, ms.
    pub measured_ms: f64,
    /// Modeled wall-clock with one core per worker, ms.
    pub modeled_ms: f64,
    /// Modeled speedup versus the 1-worker run.
    pub speedup: f64,
    /// Load imbalance across workers (most-loaded / mean, 1.0 = perfect),
    /// from the pool's per-worker accounting.
    pub imbalance: f64,
    /// Whether the frame records and telemetry matched the 1-worker run.
    pub identical: bool,
}

fn digest(report_frames: &str, telemetry: &str) -> u64 {
    let mut h = DefaultHasher::new();
    report_frames.hash(&mut h);
    telemetry.hash(&mut h);
    h.finish()
}

/// Runs the ladder and returns its points (used by the smoke test too).
pub fn measure(options: &RunOptions) -> Vec<ScalingPoint> {
    let frames = options.frames(24, 5);
    // Quality evaluation stays ON: it drives the client's decode + SR +
    // merge data path, which is the parallel half of the end-to-end
    // pipeline (without it the run measures the server alone).
    let cfg = SessionConfig {
        frames,
        gop_size: 12,
        // Quick mode keeps enough pixels per frame that the parallel
        // fraction dominates spawn/merge overhead; below ~192x108 the
        // ladder undersells the steady-state speedup.
        lr_size: if options.quick {
            (192, 108)
        } else {
            (320, 180)
        },
        telemetry: options.telemetry.clone(),
        ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
    };

    let prev = pool::workers();
    let mut base: Option<(f64, u64)> = None; // (modeled_ms at 1 worker, digest)
    let mut points = Vec::with_capacity(WORKER_LADDER.len());
    for &w in &WORKER_LADDER {
        pool::set_workers(w);
        pool::start_accounting();
        let t0 = Instant::now();
        let report = run_session(&cfg, Pipeline::GameStreamSr).expect("scaling session");
        let measured_ms = t0.elapsed().as_secs_f64() * 1e3;
        let acct = pool::stop_accounting();
        let modeled_ms = measured_ms - (acct.work_ns as f64) * 1e-6 + (acct.span_ns as f64) * 1e-6;
        let d = digest(&format!("{:?}", report.frames), &report.telemetry.to_json());
        let (base_ms, base_digest) = *base.get_or_insert((modeled_ms, d));
        points.push(ScalingPoint {
            workers: w,
            measured_ms,
            modeled_ms,
            speedup: base_ms / modeled_ms,
            imbalance: acct.imbalance(),
            identical: d == base_digest,
        });
    }
    pool::set_workers(prev);
    points
}

/// Runs one quality-on session at the current worker count under pool
/// accounting and returns the per-worker ledger — the input of the
/// collapsed-stack flamegraph export (`figures triage --folded`). Uses
/// the same session shape as the ladder so the profile reflects the
/// parallel data path, not the aggregate-only storm. A 1-worker pool
/// runs its regions inline and records nothing, so the profile
/// temporarily widens to the ladder's headline count of 4 workers.
pub fn profile(options: &RunOptions) -> gss_platform::pool::PoolAccounting {
    let cfg = SessionConfig {
        frames: options.frames(24, 5),
        gop_size: 12,
        lr_size: if options.quick {
            (192, 108)
        } else {
            (320, 180)
        },
        ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
    };
    let prev = pool::workers();
    if prev <= 1 {
        pool::set_workers(4);
    }
    pool::start_accounting();
    let _ = run_session(&cfg, Pipeline::GameStreamSr).expect("profile session");
    let acct = pool::stop_accounting();
    pool::set_workers(prev);
    acct
}

/// Prints the scaling table and the headline speedup at 4 workers.
pub fn run(options: &RunOptions) {
    let points = measure(options);
    let mut t = Table::new(
        "Scaling: end-to-end session wall-clock vs worker count (G3, ours pipeline)",
        &[
            "workers",
            "measured ms",
            "modeled ms",
            "speedup",
            "imbalance",
            "identical",
        ],
    );
    for p in &points {
        t.row(&[
            p.workers.to_string(),
            format!("{:.1}", p.measured_ms),
            format!("{:.1}", p.modeled_ms),
            format!("{:.2}x", p.speedup),
            format!("{:.2}", p.imbalance),
            if p.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.print();
    let at4 = points
        .iter()
        .find(|p| p.workers == 4)
        .expect("ladder includes 4 workers");
    println!(
        "speedup at 4 workers: {:.2}x (modeled span accounting; identity {})\n",
        at4.speedup,
        if points.iter().all(|p| p.identical) {
            "holds at every worker count"
        } else {
            "VIOLATED"
        }
    );
}
