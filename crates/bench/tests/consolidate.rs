//! Consolidation-experiment gate: the N=4 sweep point must be
//! deterministic and hold every session healthy. Lives in its own test
//! binary because it saturates the worker pool for seconds — inside the
//! lib suite it would slow every test running beside it in a sibling
//! thread.

use gss_bench::experiments::consolidate::{fleet_config, ConsolidationPoint};

#[test]
fn four_session_point_is_deterministic_and_fully_healthy() {
    // a shortened N=4 point; the full sweep's numbers gate in
    // BENCH_ci.json and tests/fleet.rs pins worker-count identity
    let a = gamestreamsr::run_fleet(fleet_config(4, 45)).expect("fleet");
    let b = gamestreamsr::run_fleet(fleet_config(4, 45)).expect("fleet");
    assert_eq!(a.to_json(), b.to_json());
    let point = ConsolidationPoint { n: 4, report: a };
    assert!(
        point.healthy_sessions() >= 4,
        "want 4 healthy sessions at N=4, got {} (min fps {:.1})",
        point.healthy_sessions(),
        point.report.min_fps_effective()
    );
}
