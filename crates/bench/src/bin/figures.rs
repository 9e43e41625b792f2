//! Regenerates the paper's tables and figures, and gates benchmarks.
//!
//! ```text
//! figures [--quick] [--telemetry PATH] [--trace PATH] [experiment-id ...]
//! figures bench [--quick] [--host TAG] [--emit-baseline PATH] [--check PATH]
//! figures triage [--quick] [--baseline PATH] [--out PATH] [--prom PATH] [--folded PATH] [--gate]
//! figures fleetwatch [--quick] [--out PATH] [--trace PATH] [--prom PATH] [--check PATH]
//! figures bigfleet [--quick] [--out PATH] [--trace PATH] [--full-trace PATH] [--prom PATH] [--check PATH]
//! ```
//!
//! Every command reads its arguments through one flag table, which also
//! prints the command's `--help`. A flag that takes a value fails without
//! one (when the next argument is missing or starts with `--`), and an
//! unknown flag fails in every command; only the default command takes
//! bare words, its experiment ids. The worker count comes from
//! `GSS_THREADS` (default: the machine's core count capped at 8); any
//! value produces bit-identical results — see `gss_platform::pool`.
//!
//! `--telemetry` streams every session's frame-scoped event trace (stage
//! spans, counters, deadline verdicts) to a JSONL file; `--trace` builds a
//! causal per-frame trace of the same sessions and writes it as a Chrome
//! trace-event JSON file, loadable in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`. Both flags share one sink pipeline, so they
//! compose.
//!
//! The `bench` subcommand records (`--emit-baseline`) or checks
//! (`--check`) a benchmark baseline: see `gss_bench::bench` for the
//! metric set and tolerance-band policy. `--check` exits non-zero when
//! any gated metric drifts out of band, after printing the per-metric
//! drift table. `fleetwatch` and `bigfleet` each run one fleet storm,
//! write its artifacts and, with `--check`, gate their own metrics the
//! same way.
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

use gamestreamsr::fleet::FleetWatchSummary;
use gss_bench::{
    bench::{self, Baseline},
    experiments::{bigfleet, fleetwatch, scaling},
    outln, run_experiment, triage, RunOptions, ALL_EXPERIMENTS,
};
use gss_telemetry::{prom, JsonlSink, Level, SinkHandle, TraceSink};
use std::process::ExitCode;

/// One flag of a command: its name, the placeholder of its value (`None`
/// for a switch) and its help line.
type Flag = (&'static str, Option<&'static str>, &'static str);

/// One `figures` command: its name (empty for the default command), its
/// flags, the placeholder of its bare words (only the default command
/// takes any) and what runs it.
struct Command {
    name: &'static str,
    flags: &'static [Flag],
    words: Option<&'static str>,
    run: fn(&Args, RunOptions) -> Result<(), String>,
}

const QUICK: Flag = ("--quick", None, "shrink frame counts (smoke mode)");
const PATH: Option<&str> = Some("PATH");

/// Every command, the default one first.
#[rustfmt::skip]
const COMMANDS: [Command; 5] = [
    Command { name: "", words: Some("[experiment-id ...]"), run: run_figures, flags: &[
        QUICK,
        ("--telemetry", PATH, "stream every session's event trace to a JSONL file"),
        ("--trace", PATH, "write the sessions' causal Chrome trace"),
    ] },
    Command { name: "bench", words: None, run: run_bench, flags: &[
        QUICK,
        ("--host", Some("TAG"), "host tag of an emitted baseline (default: local)"),
        ("--emit-baseline", PATH, "record a benchmark baseline"),
        ("--check", PATH, "gate a fresh run against a baseline; give exactly one of the two"),
    ] },
    Command { name: "triage", words: None, run: run_triage, flags: &[
        QUICK,
        ("--baseline", PATH, "benchmark baseline to diff against (default BENCH_ci.json if present)"),
        ("--out", PATH, "write the deterministic triage JSON (default: stdout)"),
        ("--prom", PATH, "write a Prometheus text snapshot of the storm sessions"),
        ("--folded", PATH, "write a collapsed-stack pool profile (wall-clock)"),
        ("--gate", None, "exit non-zero on SLO breach, <95% attribution, or drift"),
    ] },
    Command { name: "fleetwatch", words: None, run: run_fleetwatch, flags: &[
        QUICK,
        ("--out", PATH, "write the deterministic fleet report JSON (watch rollup included)"),
        ("--trace", PATH, "write the merged Chrome trace with fleet counter tracks and anomaly markers"),
        ("--prom", PATH, "write a fleet-labeled Prometheus text snapshot"),
        ("--check", PATH, "gate the fleetwatch.* metrics against a benchmark baseline"),
    ] },
    Command { name: "bigfleet", words: None, run: run_bigfleet, flags: &[
        QUICK,
        ("--out", PATH, "write the fleet report JSON plus the sampling ledger"),
        ("--trace", PATH, "write the tail-sampled merged Chrome trace"),
        ("--full-trace", PATH, "write the unsampled reference Chrome trace"),
        ("--prom", PATH, "write a Prometheus snapshot with p99 exemplar annotations"),
        ("--check", PATH, "gate the bigfleet.* / sampling.* metrics against a benchmark baseline"),
    ] },
];

/// A parsed command line: the flags given, in order, with their values,
/// the bare words, and whether `--help` was asked for.
#[derive(Debug, Default)]
struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    words: Vec<String>,
    help: bool,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value given with the flag's last occurrence.
    fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = command(&argv);
    let args = match parse(command, rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: {}", synopsis(command));
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        outln!("{}", help(command));
        return ExitCode::SUCCESS;
    }
    let options = RunOptions {
        quick: args.has("--quick"),
        telemetry: None,
    };
    match (command.run)(&args, options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The command `argv` names and the arguments after its name; the default
/// command and all of `argv` when the first argument names no other.
fn command(argv: &[String]) -> (&'static Command, &[String]) {
    let named = COMMANDS[1..]
        .iter()
        .find(|c| argv.first().is_some_and(|a| a == c.name));
    match named {
        Some(c) => (c, &argv[1..]),
        None => (&COMMANDS[0], argv),
    }
}

/// Reads `argv` against the command's flag table.
fn parse(command: &Command, argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            args.help = true;
        } else if let Some(&(flag, value, _)) = command.flags.iter().find(|f| f.0 == arg) {
            let value = value.map(|_| {
                argv.next()
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            });
            args.flags.push((flag, value.transpose()?));
        } else if command.words.is_some() && !arg.starts_with('-') {
            args.words.push(arg.clone());
        } else {
            return Err(format!("unknown argument {arg}"));
        }
    }
    Ok(args)
}

/// `--flag` or `--flag VALUE`.
fn spec((flag, value, _): &Flag) -> String {
    match value {
        Some(v) => format!("{flag} {v}"),
        None => flag.to_string(),
    }
}

/// `figures [name] [flag ...] [words]`.
fn synopsis(command: &Command) -> String {
    let mut line = String::from("figures");
    if !command.name.is_empty() {
        line += &format!(" {}", command.name);
    }
    for flag in command.flags {
        line += &format!(" [{}]", spec(flag));
    }
    if let Some(words) = command.words {
        line += &format!(" {words}");
    }
    line
}

/// The synopsis and one line per flag. The default command's help also
/// names the other commands and every experiment id.
fn help(command: &Command) -> String {
    let mut out = format!("usage: {}", synopsis(command));
    let default = command.name.is_empty();
    if default {
        for other in &COMMANDS[1..] {
            out += &format!("\n       {}", synopsis(other));
        }
    }
    for flag in command.flags {
        out += &format!("\n  {:<20} {}", spec(flag), flag.2);
    }
    if default {
        out += &format!("\nexperiments: {}", ALL_EXPERIMENTS.join(" "));
    }
    out
}

/// Writes one artifact and says where it went.
fn write(path: &str, what: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("cannot write {what} {path}: {e}"))?;
    outln!("{what} written to {path}");
    Ok(())
}

/// Reads and parses the benchmark baseline at `path`.
fn load_baseline(path: &str) -> Result<Baseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    Baseline::from_json(&text).map_err(|e| format!("malformed baseline {path}: {e}"))
}

/// A fleet's Prometheus snapshot: its series, anomaly tallies and knee.
fn fleet_prom(name: &str, watch: &FleetWatchSummary) -> String {
    prom::render_fleet(&prom::PromFleet {
        name,
        series: &watch.series,
        anomalies: &watch.anomalies(),
        knee_tick: watch.knee_tick,
    })
}

fn run_figures(args: &Args, mut options: RunOptions) -> Result<(), String> {
    let telemetry_path = args.value("--telemetry");
    let trace_path = args.value("--trace");
    // one shared sink pipeline: every experiment's sessions append to the
    // same JSONL stream and/or causal trace
    let mut sinks: Vec<SinkHandle> = Vec::new();
    if let Some(path) = telemetry_path {
        let sink = JsonlSink::create(path)
            .map_err(|e| format!("cannot open telemetry file {path}: {e}"))?;
        sinks.push(SinkHandle::new(sink));
    }
    let trace = trace_path.map(|_| TraceSink::new());
    if let Some(trace) = &trace {
        sinks.push(SinkHandle::new(trace.clone()));
    }
    options.telemetry = match sinks.len() {
        0 | 1 => sinks.pop(),
        _ => Some(SinkHandle::fanout(sinks)),
    };

    let ids: Vec<&str> = match args.words.as_slice() {
        [] => ALL_EXPERIMENTS.to_vec(),
        words => words.iter().map(String::as_str).collect(),
    };
    for id in ids {
        outln!("\n################ {id} ################\n");
        options.log(Level::Info, format!("experiment {id} starting"));
        if let Err(e) = run_experiment(id, &options) {
            // diagnostics flow through the telemetry sink as structured
            // events; the terminal keeps a copy either way
            options.log(Level::Error, &e);
            let known = ALL_EXPERIMENTS.join(" ");
            return Err(format!("{e}\nknown experiments: {known}"));
        }
    }
    if let Some(sink) = &options.telemetry {
        sink.flush();
    }
    if let Some(path) = telemetry_path {
        outln!("\ntelemetry trace written to {path}");
    }
    if let (Some(path), Some(trace)) = (trace_path, &trace) {
        write(path, "chrome trace", trace.to_chrome_json())?;
        outln!(
            "{} frames; open in https://ui.perfetto.dev",
            trace.frame_count()
        );
    }
    Ok(())
}

fn run_bench(args: &Args, options: RunOptions) -> Result<(), String> {
    match (args.value("--emit-baseline"), args.value("--check")) {
        (Some(path), None) => {
            let mut baseline = bench::collect(&options);
            baseline.host = args.value("--host").unwrap_or("local").to_owned();
            write(path, "baseline", baseline.to_json())?;
            outln!("{} metrics recorded", baseline.metrics.len());
            Ok(())
        }
        (None, Some(path)) => check_baseline("benchmark", path, options.quick, &[], || {
            bench::collect(&options).metrics
        }),
        _ => Err("bench takes exactly one of --emit-baseline PATH and --check PATH".into()),
    }
}

fn run_fleetwatch(args: &Args, options: RunOptions) -> Result<(), String> {
    let (run, wall) = bench::timed("fleetwatch", || fleetwatch::measure(&options));
    fleetwatch::print(&run);
    if let Some(path) = args.value("--out") {
        write(path, "fleet report", run.report.to_json())?;
    }
    if let Some(path) = args.value("--trace") {
        write(path, "fleet chrome trace", run.sim.to_chrome_json())?;
    }
    if let Some(path) = args.value("--prom") {
        let snapshot = fleet_prom(fleetwatch::FLEET_NAME, &run.report.watch);
        write(path, "prometheus snapshot", snapshot)?;
    }
    let Some(path) = args.value("--check") else {
        return Ok(());
    };
    check_baseline("fleetwatch", path, options.quick, &["fleetwatch."], || {
        let mut metrics = bench::fleetwatch_metrics(&run);
        metrics.push(wall);
        metrics
    })
}

fn run_bigfleet(args: &Args, options: RunOptions) -> Result<(), String> {
    let (run, wall) = bench::timed("bigfleet", || bigfleet::measure(&options));
    bigfleet::print(&run);
    if let Some(path) = args.value("--out") {
        // the fleet report (byte-identical to the full run's) plus the
        // sampling ledger, which deliberately lives outside the report
        let body = format!(
            "{{\"report\":{},\"sampling\":{}}}",
            run.report.to_json(),
            run.sampling.to_json()
        );
        write(path, "bigfleet report", body)?;
    }
    if let Some(path) = args.value("--trace") {
        write(path, "sampled chrome trace", run.sim.to_chrome_json())?;
    }
    if let Some(path) = args.value("--full-trace") {
        write(path, "full chrome trace", run.full_sim.to_chrome_json())?;
    }
    if let Some(path) = args.value("--prom") {
        let mut snapshot = fleet_prom(bigfleet::FLEET_NAME, &run.report.watch);
        // per-session sections with p99 exemplars keyed to the sampled
        // trace's ids (pid * 1e6 + frame) — paste one into Perfetto's
        // search box to jump to the retained frame
        let sampled = run.sim.sampled_sessions();
        let exemplars = gss_telemetry::compute_exemplars(&sampled);
        let sessions: Vec<prom::PromSession<'_>> = run
            .report
            .sessions
            .iter()
            .enumerate()
            .map(|(i, r)| prom::PromSession {
                name: &r.label,
                summary: &r.telemetry,
                attribution: Some(&r.attribution),
                slo: Some(&r.slo),
                exemplars: exemplars.get(i),
            })
            .collect();
        snapshot.push_str(&prom::render_opts(
            &sessions,
            prom::PromOptions { exemplars: true },
        ));
        write(path, "prometheus snapshot", snapshot)?;
    }
    let Some(path) = args.value("--check") else {
        return Ok(());
    };
    let prefixes = ["bigfleet.", "sampling."];
    check_baseline("bigfleet", path, options.quick, &prefixes, || {
        let mut metrics = bench::bigfleet_metrics(&run);
        metrics.push(wall);
        metrics
    })
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
) -> Result<(), String> {
    let mut baseline = load_baseline(path)?;
    if baseline.quick != quick {
        return Err(format!(
            "baseline {path} was recorded with quick={}, this run has quick={quick} — re-run with {}",
            baseline.quick,
            if baseline.quick { "--quick" } else { "no --quick" }
        ));
    }
    if !prefixes.is_empty() {
        baseline
            .metrics
            .retain(|m| prefixes.iter().any(|p| m.name.starts_with(p)));
        if baseline.metrics.is_empty() {
            let names: Vec<String> = prefixes.iter().map(|p| format!("{p}*")).collect();
            return Err(format!(
                "baseline {path} has no {} metrics — re-emit it",
                names.join("/")
            ));
        }
    }
    let current = Baseline {
        host: baseline.host.clone(),
        quick,
        metrics: measure(),
    };
    let drifts = baseline.check(&current);
    outln!("{}", bench::drift_table(&drifts));
    let failures: Vec<String> = drifts
        .iter()
        .filter(|d| d.is_failure())
        .map(|d| {
            format!(
                "\n  {}: baseline {} -> current {} (|d| {}, rel {:.2}%)",
                d.name,
                d.baseline,
                d.current,
                d.abs_delta,
                d.rel_delta * 100.0
            )
        })
        .collect();
    if failures.is_empty() {
        outln!(
            "{what} check passed: {} metrics within tolerance of {path}",
            drifts.len()
        );
        return Ok(());
    }
    Err(format!(
        "{what} check FAILED: {} of {} metrics out of tolerance vs {path}:{}",
        failures.len(),
        drifts.len(),
        failures.concat()
    ))
}

fn run_triage(args: &Args, options: RunOptions) -> Result<(), String> {
    // default to the committed CI baseline when it is present and the
    // caller did not pick one explicitly
    let baseline_path = args.value("--baseline").or_else(|| {
        std::path::Path::new("BENCH_ci.json")
            .exists()
            .then_some("BENCH_ci.json")
    });
    let baseline = baseline_path.map(load_baseline).transpose()?;
    let report = triage::build(&options, baseline_path.zip(baseline.as_ref()));

    eprint!("{}", report.table());
    let json = report.to_json();
    match args.value("--out") {
        Some(path) => write(path, "triage report", json)?,
        None => outln!("{}", json.trim_end()),
    }
    if let Some(path) = args.value("--prom") {
        write(path, "prometheus snapshot", report.prometheus())?;
    }
    if let Some(path) = args.value("--folded") {
        // wall-clock artifact: a quality-on profiled session, separate
        // from the deterministic report by design
        let acct = scaling::profile(&options);
        write(path, "collapsed-stack pool profile", acct.collapsed_stack())?;
        outln!("pool imbalance {:.2}", acct.imbalance());
    }

    let failures = report.gate_failures();
    if failures.is_empty() {
        outln!("triage gate: healthy (all SLOs intact, attribution complete, no drift)");
        return Ok(());
    }
    for f in &failures {
        eprintln!("triage gate: {f}");
    }
    if args.has("--gate") {
        return Err(format!(
            "triage gate FAILED with {} violation(s)",
            failures.len()
        ));
    }
    outln!(
        "triage gate: {} violation(s) (informational; pass --gate to enforce)",
        failures.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// `command: flag flag=value ... [word] ...` for one command line.
    fn parsed(line: &str) -> Result<String, String> {
        let argv = argv(line);
        let (command, rest) = command(&argv);
        let args = parse(command, rest)?;
        let name = if command.name.is_empty() {
            "figures"
        } else {
            command.name
        };
        let mut out = vec![format!("{name}:")];
        for (flag, value) in &args.flags {
            out.push(match value {
                Some(v) => format!("{flag}={v}"),
                None => flag.to_string(),
            });
        }
        out.extend(args.words.iter().map(|w| format!("[{w}]")));
        Ok(out.join(" "))
    }

    #[test]
    fn ci_and_artifact_command_lines_parse() {
        // every figures invocation in .github/workflows/ci.yml, then in
        // scripts/artifacts.sh (with $out = out)
        let cases = [
            ("--quick", "figures: --quick"),
            ("--quick scaling", "figures: --quick [scaling]"),
            ("--quick resilience", "figures: --quick [resilience]"),
            (
                "--quick --trace recovery-trace.json recovery",
                "figures: --quick --trace=recovery-trace.json [recovery]",
            ),
            ("--quick consolidate", "figures: --quick [consolidate]"),
            (
                "fleetwatch --quick --check BENCH_ci.json --out fleetwatch.json --trace fleetwatch-trace.json --prom fleetwatch.prom",
                "fleetwatch: --quick --check=BENCH_ci.json --out=fleetwatch.json --trace=fleetwatch-trace.json --prom=fleetwatch.prom",
            ),
            (
                "bigfleet --quick --check BENCH_ci.json --out bigfleet.json --trace bigfleet-sampled-trace.json --full-trace bigfleet-full-trace.json --prom bigfleet.prom",
                "bigfleet: --quick --check=BENCH_ci.json --out=bigfleet.json --trace=bigfleet-sampled-trace.json --full-trace=bigfleet-full-trace.json --prom=bigfleet.prom",
            ),
            (
                "bench --quick --host ci --emit-baseline BENCH_ci.json",
                "bench: --quick --host=ci --emit-baseline=BENCH_ci.json",
            ),
            (
                "bench --quick --host ci --check BENCH_ci.json",
                "bench: --quick --host=ci --check=BENCH_ci.json",
            ),
            (
                "--quick --trace resilience-trace.json resilience",
                "figures: --quick --trace=resilience-trace.json [resilience]",
            ),
            (
                "--quick --trace scaling-trace.json scaling",
                "figures: --quick --trace=scaling-trace.json [scaling]",
            ),
            (
                "triage --quick --gate --out triage.json --prom triage.prom --folded triage.folded",
                "triage: --quick --gate --out=triage.json --prom=triage.prom --folded=triage.folded",
            ),
            (
                "--quick --trace out/recovery-trace.json recovery",
                "figures: --quick --trace=out/recovery-trace.json [recovery]",
            ),
            (
                "fleetwatch --quick --out out/fleetwatch.json --trace out/fleetwatch-trace.json --prom out/fleetwatch.prom",
                "fleetwatch: --quick --out=out/fleetwatch.json --trace=out/fleetwatch-trace.json --prom=out/fleetwatch.prom",
            ),
            (
                "bigfleet --quick --out out/bigfleet.json --trace out/bigfleet-sampled-trace.json --full-trace out/bigfleet-full-trace.json --prom out/bigfleet.prom",
                "bigfleet: --quick --out=out/bigfleet.json --trace=out/bigfleet-sampled-trace.json --full-trace=out/bigfleet-full-trace.json --prom=out/bigfleet.prom",
            ),
            (
                "triage --quick --out out/triage.json --prom out/triage.prom",
                "triage: --quick --out=out/triage.json --prom=out/triage.prom",
            ),
        ];
        for (line, expected) in cases {
            assert_eq!(parsed(line).as_deref(), Ok(expected), "{line}");
        }
    }

    #[test]
    fn args_read_switches_and_the_last_value() {
        let argv = argv("--quick --trace a.json fig13 --trace b.json fig2");
        let args = parse(&COMMANDS[0], &argv).unwrap();
        assert!(args.has("--quick"));
        assert!(!args.has("--telemetry"));
        assert_eq!(args.value("--trace"), Some("b.json"));
        assert_eq!(args.value("--telemetry"), None);
        assert_eq!(args.words, ["fig13", "fig2"]);
        assert!(!args.help);
    }

    #[test]
    fn a_value_flag_without_its_value_fails() {
        for command in &COMMANDS {
            for &(flag, value, _) in command.flags {
                if value.is_none() {
                    continue;
                }
                for line in [flag.to_owned(), format!("{flag} --quick")] {
                    assert_eq!(
                        parse(command, &argv(&line)).unwrap_err(),
                        format!("{flag} needs a value"),
                        "figures {} {line}",
                        command.name
                    );
                }
            }
        }
        for line in [
            "fleetwatch --quick --check",
            "bigfleet --quick --check",
            "triage --quick --out",
            "fleetwatch --quick --trace --prom p.prom",
            "--quick --telemetry",
        ] {
            assert!(
                parsed(line).unwrap_err().ends_with("needs a value"),
                "{line}"
            );
        }
    }

    #[test]
    fn unknown_flags_fail_in_every_command() {
        for command in &COMMANDS {
            for flag in ["--threads", "--sample", "--bogus", "-x"] {
                assert_eq!(
                    parse(command, &argv(&format!("--quick {flag} 4"))).unwrap_err(),
                    format!("unknown argument {flag}"),
                    "figures {} {flag}",
                    command.name
                );
            }
        }
        // only the default command takes bare words, its experiment ids
        assert_eq!(
            parsed("fleetwatch --quick fig13").unwrap_err(),
            "unknown argument fig13"
        );
        assert_eq!(parsed("fig13").as_deref(), Ok("figures: [fig13]"));
    }

    #[test]
    fn every_help_lists_every_flag() {
        for command in &COMMANDS {
            assert!(parse(command, &argv("--quick --help")).unwrap().help);
            assert!(parse(command, &argv("-h")).unwrap().help);
            let text = help(command);
            for flag in command.flags {
                let synopsis = format!("[{}]", spec(flag));
                assert!(text.contains(&synopsis), "{synopsis} missing:\n{text}");
                assert!(text.contains(flag.2), "{} missing:\n{text}", flag.2);
            }
        }
        let top = help(&COMMANDS[0]);
        for command in &COMMANDS[1..] {
            assert!(top.contains(&synopsis(command)), "{}", command.name);
        }
        for id in ALL_EXPERIMENTS {
            assert!(top.contains(id), "{id}");
        }
    }
}
