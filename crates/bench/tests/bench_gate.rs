//! Integration tests for the benchmark-regression gate: the committed CI
//! baseline must stay loadable and internally consistent, perturbations
//! must trip the gate with a readable drift table, and the tracing layer
//! must stay under its overhead budget.

use gss_bench::bench::{self, Baseline, DriftVerdict};
use std::sync::{Mutex, MutexGuard};

/// The overhead assertions are wall-clock measurements; any other test in
/// this binary running concurrently steals CPU and inflates the on/off
/// timings past the 3% budget. Every test takes this guard so the timing
/// tests always measure on a quiet process (poison from an earlier
/// failure is ignored — serialization is all we want).
static SUITE_GATE: Mutex<()> = Mutex::new(());

fn quiet() -> MutexGuard<'static, ()> {
    SUITE_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn committed_ci_baseline() -> Baseline {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ci.json");
    let text = std::fs::read_to_string(path).expect("BENCH_ci.json is committed at the repo root");
    Baseline::from_json(&text).expect("committed baseline parses")
}

#[test]
fn committed_ci_baseline_is_loadable_and_well_formed() {
    let _quiet = quiet();
    let b = committed_ci_baseline();
    assert_eq!(b.host, "ci");
    assert!(b.quick, "the CI gate runs in quick mode");
    assert!(b.metrics.len() >= 30, "only {} metrics", b.metrics.len());
    // every resilience configuration contributes its full metric family
    for run in ["controller", "no_controller", "nemo"] {
        for metric in [
            "fps_effective",
            "longest_frozen_run",
            "max_rung",
            "deadline_miss_rate",
            "drops_queue",
            "drops_outage",
            "nacks",
            "bytes_on_wire",
        ] {
            let name = format!("resilience.{run}.{metric}");
            assert!(
                b.metrics.iter().any(|m| m.name == name),
                "baseline lost {name}"
            );
        }
    }
    // the scaling ladder contributes speedup + determinism per width
    assert!(b.metrics.iter().any(|m| m.name == "scaling.w8.speedup"));
    assert!(b.metrics.iter().any(|m| m.name == "scaling.w8.identical"));
    // the big-fleet sampled storm contributes its retention ledger, and
    // the full-vs-sampled identities are pinned exactly
    for name in [
        "bigfleet.report_identical",
        "sampling.anomaly_coverage",
        "sampling.retention_ratio",
        "sampling.trace_byte_ratio",
        "sampling.budget_ok",
    ] {
        assert!(
            b.metrics.iter().any(|m| m.name == name),
            "baseline lost {name}"
        );
    }
    // wall-clock metrics are informational (no band), never gated
    for m in &b.metrics {
        if m.name.ends_with(".wall_ms") {
            assert!(
                m.abs_tol.is_none() && m.rel_tol.is_none(),
                "{} must be informational",
                m.name
            );
        } else {
            assert!(
                m.abs_tol.is_some() || m.rel_tol.is_some(),
                "{} has no tolerance band",
                m.name
            );
        }
    }
}

#[test]
fn committed_ci_baseline_round_trips_byte_identically() {
    let _quiet = quiet();
    let b = committed_ci_baseline();
    let reparsed = Baseline::from_json(&b.to_json()).expect("re-parse");
    assert_eq!(b.to_json(), reparsed.to_json());
}

#[test]
fn unperturbed_check_passes_and_perturbed_check_fails_with_a_drift_row() {
    let _quiet = quiet();
    let baseline = committed_ci_baseline();
    // a baseline checked against itself reports zero failures
    let self_check = baseline.check(&baseline);
    assert_eq!(self_check.len(), baseline.metrics.len());
    assert!(self_check.iter().all(|d| !d.is_failure()));

    // a collapsed fps metric must trip the gate and show up in the table
    let mut perturbed = baseline.clone();
    let m = perturbed
        .metrics
        .iter_mut()
        .find(|m| m.name == "resilience.controller.fps_effective")
        .expect("fps metric present");
    m.value -= 10.0;
    let drifts = baseline.check(&perturbed);
    let bad: Vec<_> = drifts.iter().filter(|d| d.is_failure()).collect();
    assert_eq!(bad.len(), 1, "exactly the perturbed metric fails");
    assert_eq!(bad[0].name, "resilience.controller.fps_effective");
    assert_eq!(bad[0].verdict, DriftVerdict::Failed);
    assert!((bad[0].abs_delta - 10.0).abs() < 1e-9);
    let table = bench::drift_table(&drifts);
    assert!(table.contains("resilience.controller.fps_effective"));
    assert!(table.contains("FAILED"));

    // dropping a metric entirely is a failure too, not a silent pass
    let mut shrunk = baseline.clone();
    shrunk.metrics.retain(|m| !m.name.starts_with("scaling."));
    let drifts = baseline.check(&shrunk);
    assert!(
        drifts
            .iter()
            .any(|d| d.verdict == DriftVerdict::Missing && d.is_failure()),
        "missing metrics must fail the gate"
    );
}

#[test]
fn tracing_overhead_stays_under_three_percent() {
    // the causal trace layer is meant to be always-on cheap: attaching a
    // TraceSink to the quick scaling ladder must cost < 3% wall-clock
    // (min-of-5 interleaved rounds rides out parallel-suite load spikes)
    let _quiet = quiet();
    let ratio = bench::trace_overhead_ratio(5);
    assert!(
        ratio < 0.03,
        "tracing overhead {:.2}% exceeds the 3% budget",
        ratio * 100.0
    );
}

#[test]
fn sampled_tracing_overhead_stays_under_three_percent() {
    // the tail sampler does strictly more per-frame work than the full
    // trace (classification + ring upkeep), yet must stay inside the
    // same always-on budget — that's the point of sampled telemetry
    let _quiet = quiet();
    let ratio = bench::trace_overhead_ratio_sampled(5);
    assert!(
        ratio < 0.03,
        "sampled tracing overhead {:.2}% exceeds the 3% budget",
        ratio * 100.0
    );
}
