//! The quick scaling ladder must be deterministic, run each row at its
//! own worker count and gain from parallel workers. `measure` turns pool
//! accounting on, and accounting is process-wide: a region that any other
//! test runs meanwhile lands in the same ledger (and drives the modeled
//! time below zero), so this test lives in a binary of its own.

use gss_bench::experiments::scaling::{measure, WORKER_LADDER};
use gss_bench::RunOptions;

#[test]
fn quick_ladder_is_deterministic_and_scales() {
    let points = measure(&RunOptions {
        quick: true,
        ..Default::default()
    });
    assert_eq!(points.len(), WORKER_LADDER.len());
    assert!(points.iter().all(|p| p.identical), "{points:?}");
    // each row runs its session at the row's count, whatever the process
    // started with: at one worker every region runs inline, so the pool
    // accounts nothing and the modeled time is the measured time
    let at1 = points.iter().find(|p| p.workers == 1).unwrap();
    assert_eq!(at1.modeled_ms, at1.measured_ms, "{points:?}");
    let at4 = points.iter().find(|p| p.workers == 4).unwrap();
    assert!(
        at4.speedup > 1.0,
        "no parallel gain at 4 workers: {points:?}"
    );
}
