//! Benchmark-regression gate: record a baseline, check later runs
//! against it.
//!
//! `figures bench --emit-baseline BENCH_<host>.json` runs the resilience
//! storm and the scaling ladder and records a named metric set;
//! `figures bench --check BENCH_<host>.json` re-runs them and fails
//! (non-zero exit) when any metric drifts past its tolerance band,
//! printing a per-metric drift table either way.
//!
//! # Tolerance-band policy
//!
//! Metrics fall into three classes, each with its own band:
//!
//! - **Modeled** (effective FPS, freeze runs, ladder depth, drop/NACK
//!   ledgers, miss rates): pure functions of the seeded simulation, exact
//!   on every host and at every `GSS_THREADS` by the determinism contract.
//!   Band: absolute 1e-6 (float) or 0 (integer-valued) — any drift is a
//!   real behavior change.
//! - **Accounting-derived** (modeled scaling speedup, worker imbalance):
//!   computed from wall-clock chunk measurements, so they carry scheduler
//!   noise. Band: wide relative tolerance; they gate only catastrophic
//!   regressions (e.g. the executor quietly serializing).
//! - **Informational** (raw wall-clock): recorded for trend archaeology,
//!   never gated (`None` tolerances — the check always passes them).

use crate::experiments::{bigfleet, consolidate, fleetwatch, recovery, resilience, scaling};
use crate::{RunOptions, Table};
use gss_telemetry::json::{self, json_f64, Json};

/// One benchmarked metric with its tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Stable metric name (`<experiment>.<configuration>.<quantity>`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Maximum tolerated absolute drift, if gated absolutely.
    pub abs_tol: Option<f64>,
    /// Maximum tolerated relative drift (`|cur-base| / max(|base|, 1e-12)`),
    /// if gated relatively.
    pub rel_tol: Option<f64>,
}

impl BenchMetric {
    fn modeled(name: impl Into<String>, value: f64) -> Self {
        BenchMetric {
            name: name.into(),
            value,
            abs_tol: Some(1e-6),
            rel_tol: None,
        }
    }

    fn exact(name: impl Into<String>, value: f64) -> Self {
        BenchMetric {
            name: name.into(),
            value,
            abs_tol: Some(0.0),
            rel_tol: None,
        }
    }

    fn noisy(name: impl Into<String>, value: f64, rel_tol: f64) -> Self {
        BenchMetric {
            name: name.into(),
            value,
            abs_tol: None,
            rel_tol: Some(rel_tol),
        }
    }

    fn informational(name: impl Into<String>, value: f64) -> Self {
        BenchMetric {
            name: name.into(),
            value,
            abs_tol: None,
            rel_tol: None,
        }
    }
}

/// A full baseline: the metric set plus the run mode that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Host tag the baseline was recorded on (free-form; `ci` for the
    /// committed CI baseline).
    pub host: String,
    /// Whether the metrics came from a `--quick` run. Checking a quick run
    /// against a full baseline (or vice versa) is refused outright.
    pub quick: bool,
    /// The metrics, in collection order.
    pub metrics: Vec<BenchMetric>,
}

/// One metric's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `|current - baseline|`.
    pub abs_delta: f64,
    /// `abs_delta / max(|baseline|, 1e-12)`.
    pub rel_delta: f64,
    /// Why the metric passed or failed.
    pub verdict: DriftVerdict,
}

/// The outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftVerdict {
    /// Within every applicable band.
    Ok,
    /// Outside an applicable band.
    Failed,
    /// No band applies (informational metric).
    Informational,
    /// The metric is missing from the other side.
    Missing,
}

impl Drift {
    /// Whether this drift blocks the check.
    pub fn is_failure(&self) -> bool {
        matches!(self.verdict, DriftVerdict::Failed | DriftVerdict::Missing)
    }
}

fn session_metrics(
    out: &mut Vec<BenchMetric>,
    tag: &str,
    r: &gamestreamsr::session::SessionReport,
) {
    use gss_telemetry::Counter;
    let tl = &r.telemetry;
    out.push(BenchMetric::modeled(
        format!("resilience.{tag}.fps_effective"),
        r.fps_effective(),
    ));
    out.push(BenchMetric::exact(
        format!("resilience.{tag}.longest_frozen_run"),
        r.longest_frozen_run() as f64,
    ));
    out.push(BenchMetric::exact(
        format!("resilience.{tag}.max_rung"),
        r.max_rung() as f64,
    ));
    out.push(BenchMetric::modeled(
        format!("resilience.{tag}.deadline_miss_rate"),
        tl.deadline_miss_rate(),
    ));
    for (quantity, counter) in [
        ("drops_queue", Counter::DropsQueueOverflow),
        ("drops_outage", Counter::DropsOutage),
        ("nacks", Counter::Nacks),
        ("bytes_on_wire", Counter::BytesOnWire),
    ] {
        out.push(BenchMetric::exact(
            format!("resilience.{tag}.{quantity}"),
            tl.counter(counter) as f64,
        ));
    }
    // observability-layer metrics: attribution coverage and SLO standings
    // are pure functions of the modeled trace, so they gate exactly
    out.push(BenchMetric::modeled(
        format!("resilience.{tag}.miss_attributed_fraction"),
        r.attribution.attributed_fraction(),
    ));
    out.push(BenchMetric::exact(
        format!("resilience.{tag}.slo_breaches"),
        r.slo.total_breaches() as f64,
    ));
}

/// The deterministic metric set of one resilience-storm run — shared by
/// [`collect`] and the triage report's drift section, so the two can't
/// diverge on what "the storm's metrics" means.
pub(crate) fn resilience_metrics(storm: &resilience::ResilienceRuns) -> Vec<BenchMetric> {
    let mut metrics = Vec::new();
    session_metrics(&mut metrics, "controller", &storm.controller);
    session_metrics(&mut metrics, "no_controller", &storm.no_controller);
    session_metrics(&mut metrics, "nemo", &storm.nemo);
    metrics
}

/// The deterministic metric set of one crash-storm device sweep — the
/// recovery state machine's outcomes per device tier. All modeled: a
/// crash that drifts into a longer freeze or loses its fallback is a real
/// behavior change, not noise.
pub(crate) fn recovery_metrics(runs: &recovery::RecoveryRuns) -> Vec<BenchMetric> {
    const FRAME_MS: f64 = 1000.0 / 60.0;
    let mut out = Vec::new();
    for run in &runs.runs {
        let r = &run.report;
        let rec = r
            .recovery
            .as_ref()
            .expect("the crash storm arms the machine");
        let tag = run.tag;
        out.push(BenchMetric::modeled(
            format!("recovery.{tag}.time_to_recover_p99_ms"),
            rec.time_to_recover_p99_ms(FRAME_MS),
        ));
        out.push(BenchMetric::exact(
            format!("recovery.{tag}.frozen_during_recovery"),
            rec.frozen_frames as f64,
        ));
        out.push(BenchMetric::exact(
            format!("recovery.{tag}.longest_frozen_run"),
            r.longest_frozen_run() as f64,
        ));
        out.push(BenchMetric::exact(
            format!("recovery.{tag}.crashes"),
            rec.crashes as f64,
        ));
        out.push(BenchMetric::exact(
            format!("recovery.{tag}.safe_profile_fallback"),
            if rec.safe_profile_fallback { 1.0 } else { 0.0 },
        ));
        out.push(BenchMetric::modeled(
            format!("recovery.{tag}.post_recovery_fps"),
            recovery::post_recovery_fps(r, runs.clearance_frame),
        ));
    }
    out
}

/// The deterministic metric set of one consolidation sweep — every value
/// is replayed bit-identically on any host and worker count by the fleet
/// determinism contract (`tests/fleet.rs` pins it).
pub(crate) fn consolidate_metrics(sweep: &consolidate::ConsolidationSweep) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    for p in &sweep.points {
        let r = &p.report;
        let tag = format!("consolidate.n{}", p.n);
        out.push(BenchMetric::exact(
            format!("{tag}.healthy_sessions"),
            p.healthy_sessions() as f64,
        ));
        out.push(BenchMetric::modeled(
            format!("{tag}.min_fps_effective"),
            r.min_fps_effective(),
        ));
        out.push(BenchMetric::modeled(
            format!("{tag}.mean_fps_effective"),
            r.mean_fps_effective(),
        ));
        out.push(BenchMetric::modeled(
            format!("{tag}.mtp_p99_ms"),
            r.mtp_p99_ms,
        ));
        out.push(BenchMetric::exact(
            format!("{tag}.frames"),
            r.total_frames() as f64,
        ));
        out.push(BenchMetric::exact(
            format!("{tag}.frozen"),
            r.total_frozen() as f64,
        ));
        let flow = r.total_flow();
        out.push(BenchMetric::exact(
            format!("{tag}.drops_queue_overflow"),
            flow.drops_queue_overflow as f64,
        ));
        out.push(BenchMetric::modeled(
            format!("{tag}.miss_attributed_fraction"),
            r.attributed_fraction(),
        ));
    }
    out
}

/// The deterministic metric set of one fleet-watch churn storm — knee
/// placement, fairness extremes, anomaly tallies, admission outcome and
/// the fleet series envelopes. All modeled or exact: the watch layer
/// samples only modeled values in the serial phase, so any drift is a
/// real behavior change.
pub fn fleetwatch_metrics(run: &fleetwatch::FleetwatchRun) -> Vec<BenchMetric> {
    let r = &run.report;
    let w = &r.watch;
    let mut out = vec![
        BenchMetric::exact(
            "fleetwatch.knee_tick",
            w.knee_tick.map_or(-1.0, |t| t as f64),
        ),
        BenchMetric::modeled("fleetwatch.fairness_min", w.fairness_min),
        BenchMetric::modeled("fleetwatch.fairness_mean", w.fairness_mean),
        BenchMetric::exact("fleetwatch.rung_flaps", w.rung_flaps as f64),
        BenchMetric::exact("fleetwatch.starvation_events", w.starvation_events as f64),
        BenchMetric::exact("fleetwatch.starved_max_streak", w.starved_max_streak as f64),
        BenchMetric::exact("fleetwatch.admission_storms", w.admission_storms as f64),
        BenchMetric::exact("fleetwatch.admitted", r.admission.admitted as f64),
        BenchMetric::exact("fleetwatch.rejected", r.admission.rejected.len() as f64),
        BenchMetric::exact("fleetwatch.abandoned", r.admission.abandoned.len() as f64),
        BenchMetric::exact("fleetwatch.peak_queue", r.admission.peak_queue as f64),
        BenchMetric::exact(
            "fleetwatch.peak_concurrency",
            r.admission.peak_concurrency as f64,
        ),
        BenchMetric::exact("fleetwatch.frames", r.total_frames() as f64),
        BenchMetric::exact("fleetwatch.frozen", r.total_frozen() as f64),
        BenchMetric::modeled("fleetwatch.min_fps_effective", r.min_fps_effective()),
        BenchMetric::modeled("fleetwatch.mean_fps_effective", r.mean_fps_effective()),
    ];
    for (name, quantity) in [
        ("p99-critical-ms", "p99_critical_max_ms"),
        ("alloc-mbps", "alloc_mbps_max"),
        ("consumed-mbps", "consumed_mbps_max"),
        ("slo-burn-fast", "burn_fast_max"),
        ("slo-burn-slow", "burn_slow_max"),
    ] {
        let max = w.series.get(name).and_then(|s| s.max()).unwrap_or(0.0);
        out.push(BenchMetric::modeled(format!("fleetwatch.{quantity}"), max));
    }
    out
}

/// The deterministic metric set of one big-fleet sampled storm: the
/// fleet outcome, the full-vs-sampled report identity, and the tail
/// sampler's retention ledger. Trace byte counts are exact — the
/// merged traces are byte-deterministic, so even a one-byte drift
/// means the export format or the keep policy changed.
pub fn bigfleet_metrics(run: &bigfleet::BigfleetRun) -> Vec<BenchMetric> {
    let r = &run.report;
    let s = &run.sampling;
    vec![
        BenchMetric::exact("bigfleet.sessions", r.sessions.len() as f64),
        BenchMetric::exact("bigfleet.admitted", r.admission.admitted as f64),
        BenchMetric::exact("bigfleet.rejected", r.admission.rejected.len() as f64),
        BenchMetric::exact("bigfleet.abandoned", r.admission.abandoned.len() as f64),
        BenchMetric::exact("bigfleet.frames", r.total_frames() as f64),
        BenchMetric::exact("bigfleet.deadline_misses", r.total_deadline_misses() as f64),
        BenchMetric::exact(
            "bigfleet.knee_tick",
            r.watch.knee_tick.map_or(-1.0, |t| t as f64),
        ),
        BenchMetric::modeled("bigfleet.fairness_min", r.watch.fairness_min),
        BenchMetric::exact(
            "bigfleet.report_identical",
            if run.report_identical { 1.0 } else { 0.0 },
        ),
        BenchMetric::exact("sampling.frames", s.frames as f64),
        BenchMetric::exact("sampling.retained", s.retained as f64),
        BenchMetric::exact("sampling.evicted", s.evicted as f64),
        BenchMetric::exact("sampling.anomaly_frames", s.anomaly_frames as f64),
        BenchMetric::exact("sampling.anomaly_kept", s.anomaly_kept as f64),
        BenchMetric::exact("sampling.baseline_kept", s.baseline_kept as f64),
        BenchMetric::exact("sampling.context_kept", s.context_kept as f64),
        BenchMetric::exact("sampling.exemplars", s.exemplars as f64),
        BenchMetric::exact("sampling.anomaly_coverage", s.anomaly_coverage()),
        BenchMetric::modeled("sampling.retention_ratio", s.retention_ratio()),
        BenchMetric::exact(
            "sampling.budget_ok",
            if run.budget_ok() { 1.0 } else { 0.0 },
        ),
        BenchMetric::exact("sampling.full_trace_bytes", run.full_trace_bytes as f64),
        BenchMetric::exact(
            "sampling.sampled_trace_bytes",
            run.sampled_trace_bytes as f64,
        ),
        BenchMetric::modeled("sampling.trace_byte_ratio", run.trace_byte_ratio()),
    ]
}

/// Runs `measure` and returns its result with its host time as the
/// informational `<name>.wall_ms` metric.
pub fn timed<T>(name: &str, measure: impl FnOnce() -> T) -> (T, BenchMetric) {
    let t0 = std::time::Instant::now();
    let result = measure();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        result,
        BenchMetric::informational(format!("{name}.wall_ms"), wall_ms),
    )
}

/// Runs the benchmarked experiments and collects the metric set: each
/// experiment's metrics, then its `<experiment>.wall_ms`.
pub fn collect(options: &RunOptions) -> Baseline {
    let mut metrics = Vec::new();
    let (storm, wall) = timed("resilience", || resilience::measure(options));
    metrics.extend(resilience_metrics(&storm));
    metrics.push(wall);
    let (crash_sweep, wall) = timed("recovery", || recovery::measure(options));
    metrics.extend(recovery_metrics(&crash_sweep));
    metrics.push(wall);
    let (ladder, wall) = timed("scaling", || scaling::measure(options));
    for p in &ladder {
        // the speedup/imbalance come from wall-clock chunk accounting:
        // wide bands, catching only an executor that stopped scaling
        if p.workers > 1 {
            metrics.push(BenchMetric::noisy(
                format!("scaling.w{}.speedup", p.workers),
                p.speedup,
                0.5,
            ));
        }
        metrics.push(BenchMetric::exact(
            format!("scaling.w{}.identical", p.workers),
            if p.identical { 1.0 } else { 0.0 },
        ));
    }
    metrics.push(wall);
    let (sweep, wall) = timed("consolidate", || consolidate::measure(options));
    metrics.extend(consolidate_metrics(&sweep));
    metrics.push(wall);
    let (watch_run, wall) = timed("fleetwatch", || fleetwatch::measure(options));
    metrics.extend(fleetwatch_metrics(&watch_run));
    metrics.push(wall);
    let (big_run, wall) = timed("bigfleet", || bigfleet::measure(options));
    metrics.extend(bigfleet_metrics(&big_run));
    metrics.push(wall);

    Baseline {
        host: String::new(),
        quick: options.quick,
        metrics,
    }
}

impl Baseline {
    /// Serializes the baseline as pretty-printed deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"host\": \"{}\",\n", self.host));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let tol = |t: Option<f64>| t.map_or("null".to_owned(), json_f64);
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {}, \"abs_tol\": {}, \"rel_tol\": {}}}{}\n",
                m.name,
                json_f64(m.value),
                tol(m.abs_tol),
                tol(m.rel_tol),
                if i + 1 < self.metrics.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a baseline file previously written by [`Baseline::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description when the document is not valid JSON or is
    /// missing required fields.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let host = doc
            .get("host")
            .and_then(Json::as_str)
            .ok_or("baseline missing \"host\"")?
            .to_owned();
        let quick = match doc.get("quick") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("baseline missing \"quick\"".into()),
        };
        let raw = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("baseline missing \"metrics\"")?;
        let mut metrics = Vec::with_capacity(raw.len());
        for m in raw {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing \"name\"")?
                .to_owned();
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} missing \"value\""))?;
            let tol = |key: &str| m.get(key).and_then(Json::as_f64);
            metrics.push(BenchMetric {
                name,
                value,
                abs_tol: tol("abs_tol"),
                rel_tol: tol("rel_tol"),
            });
        }
        Ok(Baseline {
            host,
            quick,
            metrics,
        })
    }

    /// Compares `current` against this baseline, metric by metric. The
    /// baseline's tolerance bands are authoritative (so tightening a band
    /// requires re-emitting the baseline, a reviewable diff).
    pub fn check(&self, current: &Baseline) -> Vec<Drift> {
        let mut drifts = Vec::with_capacity(self.metrics.len());
        for base in &self.metrics {
            let Some(cur) = current.metrics.iter().find(|m| m.name == base.name) else {
                drifts.push(Drift {
                    name: base.name.clone(),
                    baseline: base.value,
                    current: f64::NAN,
                    abs_delta: f64::NAN,
                    rel_delta: f64::NAN,
                    verdict: DriftVerdict::Missing,
                });
                continue;
            };
            let abs_delta = (cur.value - base.value).abs();
            let rel_delta = abs_delta / base.value.abs().max(1e-12);
            let verdict = if base.abs_tol.is_none() && base.rel_tol.is_none() {
                DriftVerdict::Informational
            } else if base.abs_tol.is_some_and(|t| abs_delta > t)
                || base.rel_tol.is_some_and(|t| rel_delta > t)
            {
                DriftVerdict::Failed
            } else {
                DriftVerdict::Ok
            };
            drifts.push(Drift {
                name: base.name.clone(),
                baseline: base.value,
                current: cur.value,
                abs_delta,
                rel_delta,
                verdict,
            });
        }
        for cur in &current.metrics {
            if !self.metrics.iter().any(|m| m.name == cur.name) {
                drifts.push(Drift {
                    name: cur.name.clone(),
                    baseline: f64::NAN,
                    current: cur.value,
                    abs_delta: f64::NAN,
                    rel_delta: f64::NAN,
                    verdict: DriftVerdict::Missing,
                });
            }
        }
        drifts
    }
}

/// Renders the per-metric drift table.
pub fn drift_table(drifts: &[Drift]) -> String {
    let mut t = Table::new(
        "Benchmark drift vs baseline",
        &["metric", "baseline", "current", "delta", "rel", "verdict"],
    );
    let num = |v: f64| {
        if v.is_nan() {
            "-".to_owned()
        } else {
            format!("{v:.6}")
        }
    };
    for d in drifts {
        t.row(&[
            d.name.clone(),
            num(d.baseline),
            num(d.current),
            num(d.abs_delta),
            if d.rel_delta.is_nan() {
                "-".to_owned()
            } else {
                format!("{:.2}%", d.rel_delta * 100.0)
            },
            match d.verdict {
                DriftVerdict::Ok => "ok",
                DriftVerdict::Failed => "FAILED",
                DriftVerdict::Informational => "info",
                DriftVerdict::Missing => "MISSING",
            }
            .to_owned(),
        ]);
    }
    t.render()
}

/// Measures the tracing layer's overhead: the quick scaling ladder with a
/// trace sink attached versus without, min-of-`rounds` wall-clock each.
/// Traced and untraced rounds are interleaved so background load (e.g. a
/// parallel test suite) hits both sides alike. Returns the overhead as a
/// fraction of the untraced time, floored at 0 (scheduler noise can make
/// the traced run measure faster).
pub fn trace_overhead_ratio(rounds: usize) -> f64 {
    overhead_ratio(rounds, false)
}

/// Same measurement with the tail sampler as the sink instead of the
/// full trace. The sampler does strictly more per-frame work
/// (classification + ring upkeep on top of span bookkeeping), so this
/// bounds the cost of running sampled telemetry always-on.
pub fn trace_overhead_ratio_sampled(rounds: usize) -> f64 {
    overhead_ratio(rounds, true)
}

fn overhead_ratio(rounds: usize, sampled: bool) -> f64 {
    let rounds = rounds.max(1);
    let wall = |traced: bool| -> f64 {
        let options = RunOptions {
            quick: true,
            telemetry: traced.then(|| {
                if sampled {
                    gss_telemetry::SinkHandle::new(gss_telemetry::SamplingTraceSink::default())
                } else {
                    gss_telemetry::SinkHandle::new(gss_telemetry::TraceSink::new())
                }
            }),
        };
        let t0 = std::time::Instant::now();
        let points = scaling::measure(&options);
        assert!(!points.is_empty());
        t0.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        off = off.min(wall(false));
        on = on.min(wall(true));
    }
    ((on - off) / off).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            host: "unit".into(),
            quick: true,
            metrics: vec![
                BenchMetric::modeled("a.fps", 58.25),
                BenchMetric::exact("a.drops", 3.0),
                BenchMetric::noisy("a.speedup", 3.0, 0.5),
                BenchMetric::informational("a.wall_ms", 120.0),
            ],
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = sample();
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn identical_runs_pass_the_check() {
        let b = sample();
        let drifts = b.check(&b.clone());
        assert!(drifts.iter().all(|d| !d.is_failure()), "{drifts:?}");
        assert!(drifts
            .iter()
            .any(|d| d.verdict == DriftVerdict::Informational));
    }

    #[test]
    fn perturbed_metric_fails_with_a_drift_row() {
        let base = sample();
        let mut cur = base.clone();
        cur.metrics[1].value = 4.0; // exact-gated drop count changed
        cur.metrics[3].value = 9000.0; // informational: may drift freely
        let drifts = base.check(&cur);
        let failed: Vec<&Drift> = drifts.iter().filter(|d| d.is_failure()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "a.drops");
        let table = drift_table(&drifts);
        assert!(table.contains("FAILED"));
        assert!(table.contains("a.drops"));
    }

    #[test]
    fn noisy_band_tolerates_wobble_but_not_collapse() {
        let base = sample();
        let mut wobble = base.clone();
        wobble.metrics[2].value = 2.4; // 20% off a 0.5 rel band: fine
        assert!(base.check(&wobble).iter().all(|d| !d.is_failure()));
        let mut collapse = base.clone();
        collapse.metrics[2].value = 1.0; // executor stopped scaling
        assert!(base.check(&collapse).iter().any(|d| d.is_failure()));
    }

    #[test]
    fn missing_and_extra_metrics_are_failures() {
        let base = sample();
        let mut cur = base.clone();
        cur.metrics.remove(0);
        cur.metrics.push(BenchMetric::exact("a.new", 1.0));
        let drifts = base.check(&cur);
        assert_eq!(
            drifts
                .iter()
                .filter(|d| d.verdict == DriftVerdict::Missing)
                .count(),
            2
        );
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"host\":\"x\",\"quick\":true}",
            "{\"host\":\"x\",\"quick\":true,\"metrics\":[{\"value\":1}]}",
        ] {
            assert!(Baseline::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
