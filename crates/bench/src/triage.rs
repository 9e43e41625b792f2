//! `figures triage` — the machine-readable health report.
//!
//! Runs the canonical resilience storm and folds the observability layer
//! into one JSON document: per-session deadline-miss attribution
//! ([`gss_telemetry::attribution`]), SLO burn-rate standings
//! ([`gss_telemetry::slo`]), and drift of the storm's deterministic
//! metrics against a committed benchmark baseline (`BENCH_ci.json`). A
//! Prometheus text snapshot of the same sessions is available via
//! [`TriageReport::prometheus`].
//!
//! Everything in the JSON comes from the modeled simulation plus the
//! baseline file's contents — no wall clocks — so the document is
//! byte-identical across reruns and worker counts, a property the
//! integration tests assert. Wall-clock artifacts (the collapsed-stack
//! pool profile) are deliberately separate files.
//!
//! [`TriageReport::gate_failures`] enforces the CI health contract on the
//! controller-managed storm: no SLO may breach, and at most 5% of its
//! deadline misses may be left `unknown`.

use crate::bench::{self, Baseline};
use crate::experiments::resilience::{self, ResilienceRuns};
use crate::RunOptions;
use gamestreamsr::session::SessionReport;
use gss_telemetry::json::{json_escape, json_f64};
use gss_telemetry::prom::{self, PromSession};
use std::fmt::Write as _;

/// Minimum fraction of the managed storm's deadline misses that must be
/// attributed to a non-`unknown` cause for the gate to pass.
pub const MIN_ATTRIBUTED_FRACTION: f64 = 0.95;

/// One metric's baseline-vs-current comparison in the drift section.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Metric name.
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// This run's value.
    pub current: f64,
    /// Tolerated absolute drift.
    pub abs_tol: f64,
    /// Within tolerance?
    pub ok: bool,
}

/// The drift section: either checked rows or a reason it was skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum DriftSection {
    /// Drift was not computed (no baseline, or a quick/full mismatch).
    Skipped {
        /// Why.
        reason: String,
    },
    /// Drift was computed against a baseline.
    Checked {
        /// Baseline identifier (file name).
        baseline: String,
        /// One row per deterministic storm metric present in both sets.
        rows: Vec<DriftRow>,
        /// Storm metrics this run produced that the baseline lacks
        /// (stale baseline — regenerate it).
        missing_from_baseline: Vec<String>,
    },
}

/// The assembled health report.
#[derive(Debug)]
pub struct TriageReport {
    /// Smoke mode?
    pub quick: bool,
    /// The storm's three sessions.
    pub runs: ResilienceRuns,
    /// Drift of the storm's deterministic metrics vs the baseline.
    pub drift: DriftSection,
}

/// Runs the storm and assembles the report. `baseline` is the committed
/// benchmark baseline to diff against, with its display name.
pub fn build(options: &RunOptions, baseline: Option<(&str, &Baseline)>) -> TriageReport {
    let runs = resilience::measure(options);
    let drift = match baseline {
        None => DriftSection::Skipped {
            reason: "no baseline supplied".to_owned(),
        },
        Some((name, b)) if b.quick != options.quick => DriftSection::Skipped {
            reason: format!(
                "baseline {name} was recorded with quick={}, this run has quick={}",
                b.quick, options.quick
            ),
        },
        Some((name, b)) => {
            // only deterministic (absolutely gated) metrics may enter the
            // byte-identical report; the noisy wall-clock metrics live in
            // the bench gate, not here
            let mut rows = Vec::new();
            let mut missing = Vec::new();
            for m in bench::resilience_metrics(&runs) {
                let tol = m.abs_tol.unwrap_or(0.0);
                match b.metrics.iter().find(|bm| bm.name == m.name) {
                    Some(bm) => rows.push(DriftRow {
                        name: m.name,
                        baseline: bm.value,
                        current: m.value,
                        abs_tol: tol,
                        ok: (m.value - bm.value).abs() <= tol,
                    }),
                    None => missing.push(m.name),
                }
            }
            DriftSection::Checked {
                baseline: name.to_owned(),
                rows,
                missing_from_baseline: missing,
            }
        }
    };
    TriageReport {
        quick: options.quick,
        runs,
        drift,
    }
}

impl TriageReport {
    /// The three sessions with their stable report names.
    fn sessions(&self) -> [(&'static str, &SessionReport); 3] {
        [
            ("controller", &self.runs.controller),
            ("no_controller", &self.runs.no_controller),
            ("nemo", &self.runs.nemo),
        ]
    }

    /// Health-contract violations on the controller-managed storm; empty
    /// means the gate passes.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let c = &self.runs.controller;
        let frac = c.attribution.attributed_fraction();
        if frac < MIN_ATTRIBUTED_FRACTION {
            failures.push(format!(
                "controller storm: only {:.1}% of {} deadline misses attributed \
                 (need >= {:.0}%)",
                frac * 100.0,
                c.attribution.misses,
                MIN_ATTRIBUTED_FRACTION * 100.0
            ));
        }
        let breaches = c.slo.total_breaches();
        if breaches > 0 {
            for o in c.slo.objectives.iter().filter(|o| o.breaches > 0) {
                failures.push(format!(
                    "controller storm: SLO {} breached {} time(s) \
                     (max fast burn {:.2}x, slow {:.2}x)",
                    o.name, o.breaches, o.max_fast_burn, o.max_slow_burn
                ));
            }
        }
        if let DriftSection::Checked {
            rows,
            missing_from_baseline,
            baseline,
        } = &self.drift
        {
            for r in rows.iter().filter(|r| !r.ok) {
                failures.push(format!(
                    "drift: {} = {} vs baseline {} (tol {})",
                    r.name, r.current, r.baseline, r.abs_tol
                ));
            }
            for name in missing_from_baseline {
                failures.push(format!(
                    "drift: metric {name} is absent from {baseline} — regenerate the baseline"
                ));
            }
        }
        failures
    }

    /// Deterministic JSON rendering of the whole report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"report\": \"gss-triage\",\n  \"mode\": \"{}\",\n  \"budget_ms\": {},\n  \"sessions\": [",
            if self.quick { "quick" } else { "full" },
            json_f64(gss_telemetry::REALTIME_BUDGET_MS)
        );
        for (i, (name, r)) in self.sessions().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{name}\", \"frames\": {}, \"deadline_misses\": {}, \
                 \"fps_effective\": {}, \"longest_frozen_run\": {}, \"max_rung\": {},\n     \
                 \"attribution\": {},\n     \"slo\": {}}}",
                r.frames.len(),
                r.telemetry.deadline_misses,
                json_f64(r.fps_effective()),
                r.longest_frozen_run(),
                r.max_rung(),
                r.attribution.to_json(),
                r.slo.to_json()
            );
        }
        out.push_str("\n  ],\n  \"drift\": ");
        match &self.drift {
            DriftSection::Skipped { reason } => {
                let _ = write!(out, "{{\"skipped\": \"{}\"}}", json_escape(reason));
            }
            DriftSection::Checked {
                baseline,
                rows,
                missing_from_baseline,
            } => {
                let _ = write!(
                    out,
                    "{{\"baseline\": \"{}\", \"rows\": [",
                    json_escape(baseline)
                );
                for (i, r) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "\n    {{\"name\": \"{}\", \"baseline\": {}, \"current\": {}, \
                         \"abs_tol\": {}, \"ok\": {}}}",
                        json_escape(&r.name),
                        json_f64(r.baseline),
                        json_f64(r.current),
                        json_f64(r.abs_tol),
                        r.ok
                    );
                }
                out.push_str("\n  ], \"missing_from_baseline\": [");
                for (i, name) in missing_from_baseline.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", json_escape(name));
                }
                out.push_str("]}");
            }
        }
        let failures = self.gate_failures();
        let _ = write!(
            out,
            ",\n  \"gate\": {{\"min_attributed_fraction\": {}, \"attributed_fraction\": {}, \
             \"slo_breaches\": {}, \"pass\": {}, \"failures\": [",
            json_f64(MIN_ATTRIBUTED_FRACTION),
            json_f64(self.runs.controller.attribution.attributed_fraction()),
            self.runs.controller.slo.total_breaches(),
            failures.is_empty()
        );
        for (i, f) in failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\"", json_escape(f));
        }
        out.push_str("]}\n}\n");
        out
    }

    /// Prometheus text-format snapshot of the three sessions.
    pub fn prometheus(&self) -> String {
        let sessions: Vec<PromSession<'_>> = self
            .sessions()
            .iter()
            .map(|(name, r)| PromSession {
                name,
                summary: &r.telemetry,
                attribution: Some(&r.attribution),
                slo: Some(&r.slo),
                exemplars: None,
            })
            .collect();
        prom::render(&sessions)
    }

    /// Human-readable console summary (blame tables + SLO standings).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, r) in self.sessions() {
            let _ = writeln!(out, "== {name} ==");
            out.push_str(&r.attribution.table());
            for o in &r.slo.objectives {
                let _ = writeln!(
                    out,
                    "  slo {:<18} {} | breaches {}, worst burn fast {:.2}x / slow {:.2}x{}",
                    o.name,
                    o.objective,
                    o.breaches,
                    o.max_fast_burn,
                    o.max_slow_burn,
                    if o.breached { " [IN BREACH]" } else { "" }
                );
            }
        }
        out
    }
}
