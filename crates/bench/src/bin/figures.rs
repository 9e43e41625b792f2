//! Regenerates the paper's tables and figures, and gates benchmarks.
//!
//! ```text
//! figures [--quick] [--threads N] [--telemetry out.jsonl] [--trace out.json] [experiment-id ...]
//! figures bench [--quick] [--threads N] [--host TAG] (--emit-baseline PATH | --check PATH)
//! figures triage [--quick] [--threads N] [--baseline PATH] [--out PATH] [--prom PATH] [--folded PATH] [--gate]
//! figures fleetwatch [--quick] [--sample] [--threads N] [--out PATH] [--trace PATH] [--prom PATH] [--check PATH]
//! figures bigfleet [--quick] [--threads N] [--out PATH] [--trace PATH] [--full-trace PATH] [--prom PATH] [--check PATH]
//! ```
//!
//! `--telemetry` streams every session's frame-scoped event trace (stage
//! spans, counters, deadline verdicts) to a JSONL file; `--trace` builds a
//! causal per-frame trace of the same sessions and writes it as a Chrome
//! trace-event JSON file, loadable in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`. Both flags share one sink pipeline, so they
//! compose. `--threads` pins the parallel executor's worker count
//! (default: `GSS_THREADS` or the machine's core count capped at 8); any
//! value produces bit-identical results — see `gss_platform::pool`.
//!
//! The `bench` subcommand records or checks a benchmark baseline: see
//! `gss_bench::bench` for the metric set and tolerance-band policy.
//! `--check` exits non-zero when any gated metric drifts out of band,
//! after printing the per-metric drift table.
//!
//! The `triage` subcommand runs the canonical resilience storm and emits
//! the machine-readable health report (deadline-miss attribution + SLO
//! burn rates + drift vs a committed baseline): see `gss_bench::triage`.
//! `--out` writes the deterministic triage JSON, `--prom` a Prometheus
//! text snapshot, `--folded` a collapsed-stack pool profile for
//! flamegraph tooling (wall-clock — the one non-deterministic artifact),
//! and `--gate` exits non-zero when the managed storm breaches an SLO,
//! leaves more than 5% of its misses unattributed, or drifts off the
//! baseline.

use gss_bench::{
    bench,
    experiments::{bigfleet, fleetwatch},
    run_experiment, triage, RunOptions, ALL_EXPERIMENTS,
};
use gss_telemetry::{JsonlSink, Level, SinkHandle, TraceSink};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        return run_bench(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("triage") {
        return run_triage(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fleetwatch") {
        return run_fleetwatch(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bigfleet") {
        return run_bigfleet(&args[1..]);
    }
    run_figures(&args)
}

fn run_figures(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut telemetry_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => gss_platform::pool::set_workers(n),
                _ => {
                    eprintln!("error: --threads needs a worker count >= 1 (e.g. --threads 4)");
                    return ExitCode::FAILURE;
                }
            },
            "--telemetry" => match args.next() {
                Some(path) => telemetry_path = Some(path.clone()),
                None => {
                    eprintln!("error: --telemetry needs a file path (e.g. --telemetry out.jsonl)");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path.clone()),
                None => {
                    eprintln!("error: --trace needs a file path (e.g. --trace out.json)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: figures [--quick] [--threads N] [--telemetry out.jsonl] [--trace out.json] [experiment-id ...]"
                );
                println!(
                    "       figures bench [--quick] [--threads N] [--host TAG] (--emit-baseline PATH | --check PATH)"
                );
                println!(
                    "       figures triage [--quick] [--threads N] [--baseline PATH] [--out PATH] [--prom PATH] [--folded PATH] [--gate]"
                );
                println!(
                    "       figures fleetwatch [--quick] [--threads N] [--out PATH] [--trace PATH] [--prom PATH] [--check PATH]"
                );
                println!(
                    "       figures bigfleet [--quick] [--threads N] [--out PATH] [--trace PATH] [--full-trace PATH] [--prom PATH] [--check PATH]"
                );
                println!("experiments: {}", ALL_EXPERIMENTS.join(" "));
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    // one shared sink pipeline: every experiment's sessions append to the
    // same JSONL stream and/or causal trace
    let mut sinks: Vec<SinkHandle> = Vec::new();
    match telemetry_path.as_deref().map(JsonlSink::create) {
        Some(Ok(sink)) => sinks.push(SinkHandle::new(sink)),
        Some(Err(e)) => {
            eprintln!(
                "error: cannot open telemetry file {}: {e}",
                telemetry_path.as_deref().unwrap_or_default()
            );
            return ExitCode::FAILURE;
        }
        None => {}
    }
    let trace_sink = trace_path.as_ref().map(|_| TraceSink::new());
    if let Some(trace) = &trace_sink {
        sinks.push(SinkHandle::new(trace.clone()));
    }
    let telemetry = match sinks.len() {
        0 => None,
        1 => Some(sinks.remove(0)),
        _ => Some(SinkHandle::fanout(sinks)),
    };
    let options = RunOptions { quick, telemetry };

    for id in &ids {
        println!("\n################ {id} ################\n");
        options.log(Level::Info, format!("experiment {id} starting"));
        if let Err(e) = run_experiment(id, &options) {
            // diagnostics flow through the telemetry sink as structured
            // events; the terminal keeps a copy either way
            options.log(Level::Error, &e);
            eprintln!("error: {e}");
            eprintln!("known experiments: {}", ALL_EXPERIMENTS.join(" "));
            return ExitCode::FAILURE;
        }
    }
    if let Some(sink) = &options.telemetry {
        sink.flush();
    }
    if let Some(path) = &telemetry_path {
        println!("\ntelemetry trace written to {path}");
    }
    if let (Some(path), Some(trace)) = (&trace_path, &trace_sink) {
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("error: cannot write trace file {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "chrome trace written to {path} ({} frames; open in https://ui.perfetto.dev)",
            trace.frame_count()
        );
    }
    ExitCode::SUCCESS
}

fn run_bench(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut host = "local".to_owned();
    let mut emit: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => gss_platform::pool::set_workers(n),
                _ => {
                    eprintln!("error: --threads needs a worker count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--host" => match args.next() {
                Some(tag) => host = tag.clone(),
                None => {
                    eprintln!("error: --host needs a tag (e.g. --host ci)");
                    return ExitCode::FAILURE;
                }
            },
            "--emit-baseline" => emit = args.next().cloned(),
            "--check" => check = args.next().cloned(),
            other => {
                eprintln!("error: unknown bench argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    match (emit, check) {
        (Some(path), None) => {
            let mut baseline = bench::collect(&RunOptions {
                quick,
                telemetry: None,
            });
            baseline.host = host;
            if let Err(e) = std::fs::write(&path, baseline.to_json()) {
                eprintln!("error: cannot write baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "baseline with {} metrics written to {path}",
                baseline.metrics.len()
            );
            ExitCode::SUCCESS
        }
        (None, Some(path)) => check_baseline("benchmark", &path, quick, &[], || {
            bench::collect(&RunOptions {
                quick,
                telemetry: None,
            })
            .metrics
        }),
        _ => {
            eprintln!(
                "usage: figures bench [--quick] [--threads N] [--host TAG] (--emit-baseline PATH | --check PATH)"
            );
            ExitCode::FAILURE
        }
    }
}

fn run_fleetwatch(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut sample = false;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--sample" => sample = true,
            "--threads" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => gss_platform::pool::set_workers(n),
                _ => {
                    eprintln!("error: --threads needs a worker count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => out_path = args.next().cloned(),
            "--trace" => trace_path = args.next().cloned(),
            "--prom" => prom_path = args.next().cloned(),
            "--check" => check = args.next().cloned(),
            "--help" | "-h" => {
                println!(
                    "usage: figures fleetwatch [--quick] [--sample] [--threads N] [--out PATH] [--trace PATH] [--prom PATH] [--check PATH]"
                );
                println!("  --sample      run behind the tail sampler: same report, --trace keeps only retained frames");
                println!("  --out PATH    write the deterministic fleet report JSON (watch rollup included)");
                println!("  --trace PATH  write the merged Chrome trace with fleet counter tracks and anomaly markers");
                println!("  --prom PATH   write a fleet-labeled Prometheus text snapshot");
                println!(
                    "  --check PATH  gate the fleetwatch.* metrics against a benchmark baseline"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown fleetwatch argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let options = RunOptions {
        quick,
        telemetry: None,
    };
    let t0 = std::time::Instant::now();
    let run = if sample {
        fleetwatch::measure_sampled(&options, gss_telemetry::SamplingPolicy::default())
    } else {
        fleetwatch::measure(&options)
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    fleetwatch::print(&run);

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, run.report.to_json()) {
            eprintln!("error: cannot write fleet report {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("fleet report written to {path}");
    }
    if let Some(path) = &trace_path {
        if let Err(e) = std::fs::write(path, run.sim.to_chrome_json()) {
            eprintln!("error: cannot write fleet trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("fleet chrome trace written to {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = &prom_path {
        let watch = &run.report.watch;
        let snapshot = gss_telemetry::prom::render_fleet(&gss_telemetry::prom::PromFleet {
            name: fleetwatch::FLEET_NAME,
            series: &watch.series,
            anomalies: &watch.anomalies(),
            knee_tick: watch.knee_tick,
        });
        if let Err(e) = std::fs::write(path, snapshot) {
            eprintln!("error: cannot write prometheus snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("prometheus snapshot written to {path}");
    }

    let Some(path) = check else {
        return ExitCode::SUCCESS;
    };
    check_baseline("fleetwatch", &path, quick, &["fleetwatch."], || {
        let mut metrics = bench::fleetwatch_metrics(&run);
        metrics.push(bench::BenchMetric {
            name: "fleetwatch.wall_ms".to_owned(),
            value: wall_ms,
            abs_tol: None,
            rel_tol: None,
        });
        metrics
    })
}

fn run_bigfleet(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut full_trace_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => gss_platform::pool::set_workers(n),
                _ => {
                    eprintln!("error: --threads needs a worker count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => out_path = args.next().cloned(),
            "--trace" => trace_path = args.next().cloned(),
            "--full-trace" => full_trace_path = args.next().cloned(),
            "--prom" => prom_path = args.next().cloned(),
            "--check" => check = args.next().cloned(),
            "--help" | "-h" => {
                println!(
                    "usage: figures bigfleet [--quick] [--threads N] [--out PATH] [--trace PATH] [--full-trace PATH] [--prom PATH] [--check PATH]"
                );
                println!(
                    "  --out PATH        write the fleet report JSON plus the sampling ledger"
                );
                println!("  --trace PATH      write the tail-sampled merged Chrome trace");
                println!("  --full-trace PATH write the unsampled reference Chrome trace");
                println!(
                    "  --prom PATH       write a Prometheus snapshot with p99 exemplar annotations"
                );
                println!(
                    "  --check PATH      gate the bigfleet.* / sampling.* metrics against a benchmark baseline"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown bigfleet argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let options = RunOptions {
        quick,
        telemetry: None,
    };
    let t0 = std::time::Instant::now();
    let run = bigfleet::measure(&options);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    bigfleet::print(&run);

    if let Some(path) = &out_path {
        // the fleet report (byte-identical to the full run's) plus the
        // sampling ledger, which deliberately lives outside the report
        let body = format!(
            "{{\"report\":{},\"sampling\":{}}}",
            run.report.to_json(),
            run.sampling.to_json()
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write bigfleet report {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bigfleet report written to {path}");
    }
    if let Some(path) = &trace_path {
        if let Err(e) = std::fs::write(path, run.sim.to_chrome_json()) {
            eprintln!("error: cannot write sampled trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("sampled chrome trace written to {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = &full_trace_path {
        if let Err(e) = std::fs::write(path, run.full_sim.to_chrome_json()) {
            eprintln!("error: cannot write full trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("full chrome trace written to {path}");
    }
    if let Some(path) = &prom_path {
        let watch = &run.report.watch;
        let mut snapshot = gss_telemetry::prom::render_fleet(&gss_telemetry::prom::PromFleet {
            name: bigfleet::FLEET_NAME,
            series: &watch.series,
            anomalies: &watch.anomalies(),
            knee_tick: watch.knee_tick,
        });
        // per-session sections with p99 exemplars keyed to the sampled
        // trace's ids (pid * 1e6 + frame) — paste one into Perfetto's
        // search box to jump to the retained frame
        let sampled = run.sim.sampled_sessions();
        let exemplars = gss_telemetry::compute_exemplars(&sampled);
        let sessions: Vec<gss_telemetry::prom::PromSession<'_>> = run
            .report
            .sessions
            .iter()
            .enumerate()
            .map(|(i, r)| gss_telemetry::prom::PromSession {
                name: &r.label,
                summary: &r.telemetry,
                attribution: Some(&r.attribution),
                slo: Some(&r.slo),
                exemplars: exemplars.get(i),
            })
            .collect();
        snapshot.push_str(&gss_telemetry::prom::render_opts(
            &sessions,
            gss_telemetry::prom::PromOptions { exemplars: true },
        ));
        if let Err(e) = std::fs::write(path, snapshot) {
            eprintln!("error: cannot write prometheus snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("prometheus snapshot written to {path}");
    }

    let Some(path) = check else {
        return ExitCode::SUCCESS;
    };
    check_baseline(
        "bigfleet",
        &path,
        quick,
        &["bigfleet.", "sampling."],
        || {
            let mut metrics = bench::bigfleet_metrics(&run);
            metrics.push(bench::BenchMetric {
                name: "bigfleet.wall_ms".to_owned(),
                value: wall_ms,
                abs_tol: None,
                rel_tol: None,
            });
            metrics
        },
    )
}

/// Gates freshly measured metrics against the baseline at `path`. The
/// baseline is read, parsed and checked for a quick/full mismatch before
/// `measure` runs, so a bad baseline is refused before an expensive
/// collect. With `prefixes` non-empty only the baseline metrics named with
/// one of them are gated. Prints the drift table and the verdict.
fn check_baseline(
    what: &str,
    path: &str,
    quick: bool,
    prefixes: &[&str],
    measure: impl FnOnce() -> Vec<bench::BenchMetric>,
) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut baseline = match bench::Baseline::from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: malformed baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if baseline.quick != quick {
        eprintln!(
            "error: baseline {path} was recorded with quick={}, this run has quick={} — re-run with {}",
            baseline.quick,
            quick,
            if baseline.quick { "--quick" } else { "no --quick" }
        );
        return ExitCode::FAILURE;
    }
    if !prefixes.is_empty() {
        baseline
            .metrics
            .retain(|m| prefixes.iter().any(|p| m.name.starts_with(p)));
        if baseline.metrics.is_empty() {
            let names: Vec<String> = prefixes.iter().map(|p| format!("{p}*")).collect();
            eprintln!(
                "error: baseline {path} has no {} metrics — re-emit it",
                names.join("/")
            );
            return ExitCode::FAILURE;
        }
    }
    let current = bench::Baseline {
        host: baseline.host.clone(),
        quick,
        metrics: measure(),
    };
    let drifts = baseline.check(&current);
    println!("{}", bench::drift_table(&drifts));
    let failures: Vec<&bench::Drift> = drifts.iter().filter(|d| d.is_failure()).collect();
    if failures.is_empty() {
        println!(
            "{what} check passed: {} metrics within tolerance of {path}",
            drifts.len()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "{what} check FAILED: {} of {} metrics out of tolerance vs {path}:",
        failures.len(),
        drifts.len()
    );
    for d in &failures {
        eprintln!(
            "  {}: baseline {} -> current {} (|d| {}, rel {:.2}%)",
            d.name,
            d.baseline,
            d.current,
            d.abs_delta,
            d.rel_delta * 100.0
        );
    }
    ExitCode::FAILURE
}

fn run_triage(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut baseline_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut gate = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => match args.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => gss_platform::pool::set_workers(n),
                _ => {
                    eprintln!("error: --threads needs a worker count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => baseline_path = args.next().cloned(),
            "--out" => out_path = args.next().cloned(),
            "--prom" => prom_path = args.next().cloned(),
            "--folded" => folded_path = args.next().cloned(),
            "--gate" => gate = true,
            "--help" | "-h" => {
                println!(
                    "usage: figures triage [--quick] [--threads N] [--baseline PATH] [--out PATH] [--prom PATH] [--folded PATH] [--gate]"
                );
                println!("  --baseline PATH  benchmark baseline to diff against (default BENCH_ci.json if present)");
                println!(
                    "  --out PATH       write the deterministic triage JSON (default: stdout)"
                );
                println!(
                    "  --prom PATH      write a Prometheus text snapshot of the storm sessions"
                );
                println!("  --folded PATH    write a collapsed-stack pool profile (wall-clock)");
                println!(
                    "  --gate           exit non-zero on SLO breach, <95% attribution, or drift"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown triage argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    // default to the committed CI baseline when it is present and the
    // caller did not pick one explicitly
    let baseline_path = baseline_path.or_else(|| {
        std::path::Path::new("BENCH_ci.json")
            .exists()
            .then(|| "BENCH_ci.json".to_owned())
    });
    let baseline = match &baseline_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match bench::Baseline::from_json(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("error: malformed baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    let options = RunOptions {
        quick,
        telemetry: None,
    };
    let report = triage::build(
        &options,
        baseline
            .as_ref()
            .map(|b| (baseline_path.as_deref().unwrap_or_default(), b)),
    );

    eprint!("{}", report.table());
    let json = report.to_json();
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: cannot write triage report {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("triage report written to {path}");
        }
        None => print!("{json}"),
    }
    if let Some(path) = &prom_path {
        if let Err(e) = std::fs::write(path, report.prometheus()) {
            eprintln!("error: cannot write prometheus snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("prometheus snapshot written to {path}");
    }
    if let Some(path) = &folded_path {
        // wall-clock artifact: a quality-on profiled session, separate
        // from the deterministic report by design
        let acct = gss_bench::experiments::scaling::profile(&options);
        if let Err(e) = std::fs::write(path, acct.collapsed_stack()) {
            eprintln!("error: cannot write collapsed stack {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "collapsed-stack pool profile written to {path} (imbalance {:.2})",
            acct.imbalance()
        );
    }

    let failures = report.gate_failures();
    if failures.is_empty() {
        println!("triage gate: healthy (all SLOs intact, attribution complete, no drift)");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("triage gate: {f}");
        }
        if gate {
            eprintln!("triage gate FAILED with {} violation(s)", failures.len());
            ExitCode::FAILURE
        } else {
            println!(
                "triage gate: {} violation(s) (informational; pass --gate to enforce)",
                failures.len()
            );
            ExitCode::SUCCESS
        }
    }
}
