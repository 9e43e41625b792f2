//! Host-time benchmark of the GameStreamSR simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-ours|paper-nemo|fleet-storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the simulator's
//! public entry points (`run_session`; `FleetSim::step`, `run_until_idle`
//! and the exports) with no instrumentation. `--trace 1` replays each
//! workload's per-frame data path through the layers' public functions
//! with a span around every call, runs a pool-accounting pass, and prints
//! the per-layer metrics; the spans are written to
//! `perfbench/traces/<workload>-<seed>.json` (Chrome trace format).
//! The last line of standard output is always one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod replay;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gamestreamsr::fleet::FleetSim;
use gamestreamsr::session::run_session;
use gamestreamsr::{Pipeline, SessionConfig};
use gss_platform::pool::{self, PoolHandle};

use spans::Spans;
use workload::{
    paper_sessions, run_paper_session, run_storm, storm_config, Workload, FNV_START,
    FRAMES_PER_SESSION, PAPER_CANVAS, STORM_CROWD, STORM_TICKS,
};

/// The seed whose output digests are recorded below.
const DEFAULT_SEED: u64 = 1;

/// Output digests at [`DEFAULT_SEED`]. A change that only speeds up the
/// simulator must leave them as they are.
const RECORDED_DIGESTS: [(&str, u64); 3] = [
    ("paper-ours", 0xb9fa_6efa_000c_35a9),
    ("paper-nemo", 0xc944_49cd_7709_162c),
    ("fleet-storm", 0xa70a_d7c7_b0f0_eca2),
];

/// Set-up is timed this many times per run; the median is reported.
const SETUP_REPEATS: usize = 15;

/// The fleet canvas (`FleetConfig::new`'s default).
const FLEET_CANVAS: (usize, usize) = (128, 72);

/// The small storm a paper workload's traced run measures the fleet and
/// telemetry layers on.
const PROBE_TICKS: usize = 60;
const PROBE_CROWD: usize = 6;
/// Frames per game of the fleet-canvas server replay behind
/// `fleet.server_share` on the paper workloads.
const PROBE_FRAMES: usize = 4;

/// Paper sessions in the traced run's pool-accounting pass.
const ACCOUNTED_SESSIONS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failures.push(format!("{name} was not measured"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Counts `frames` as attempted, and as failed when `failures` is not
    /// empty.
    fn tally(&mut self, frames: u64, failures: Vec<String>) {
        self.attempted += frames;
        if !failures.is_empty() {
            self.failed += frames;
            self.failures.extend(failures);
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    pool::set_workers(workers);
    let outcome = if args.trace {
        traced(&args, workers)
    } else {
        untraced(&args, workers)
    };
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!(
        "workload {} | seed {} | workers {workers} | attempted {} | failed {} | failed_frac {}",
        args.workload.name(),
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ascending-sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host time from workload start to the first simulated frame: seeded
/// input generation, configs, simulator construction and the first
/// frame itself (a one-frame session through `run_session`; fleet ticks
/// through `FleetSim::step` until one produces a frame).
fn setup_once(args: &Args, workers: usize) -> f64 {
    let start = Instant::now();
    match args.workload.pipeline() {
        Some(pipeline) => {
            let sessions = paper_sessions(args.seed, PAPER_CANVAS, FRAMES_PER_SESSION, workers);
            let first = SessionConfig {
                frames: 1,
                ..sessions[0].clone()
            };
            black_box(run_session(&first, pipeline).map(|r| r.frames.len()).ok());
        }
        None => {
            let config = storm_config(args.seed, STORM_TICKS, STORM_CROWD, workers);
            let ticks = config.ticks;
            let mut sim = FleetSim::new(config);
            while sim.tick() < ticks && sim.step().is_ok() && sim.concurrency() == 0 {}
            black_box(sim.concurrency());
        }
    }
    start.elapsed().as_secs_f64()
}

fn combine(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_START, |h, d| workload::fnv(h, &d.to_le_bytes()))
}

/// The end-to-end run: set-up timed [`SETUP_REPEATS`] times, then whole
/// sessions (cycling through the ten games) or whole storms until
/// `--seconds` have passed and at least one full pass is done. Each
/// repeat must reproduce the first pass's digest; after the clock stops,
/// the first session (or the storm) runs again at one worker and must
/// match too.
fn untraced(args: &Args, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| setup_once(args, workers))
        .collect();
    let setup_s = median(&mut setups);
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));

    let (frames, elapsed, digest, rss) = match args.workload.pipeline() {
        Some(pipeline) => {
            let sessions = paper_sessions(args.seed, PAPER_CANVAS, FRAMES_PER_SESSION, workers);
            let mut first: Vec<Option<u64>> = vec![None; sessions.len()];
            let mut frames = 0u64;
            let start = Instant::now();
            let mut k = 0;
            while k < sessions.len() || start.elapsed() < budget {
                let idx = k % sessions.len();
                let run = run_paper_session(&sessions[idx], pipeline);
                let mut failures = run.failures;
                match first[idx] {
                    None => first[idx] = Some(run.digest),
                    Some(d) if d != run.digest => failures.push(format!(
                        "{:?}: digest {:016x} differs from the first pass's {d:016x}",
                        sessions[idx].game, run.digest
                    )),
                    Some(_) => {}
                }
                frames += run.frames;
                out.tally(run.frames, failures);
                k += 1;
            }
            let elapsed = start.elapsed();
            let rss = peak_rss_mb();
            let digests: Vec<u64> = first.iter().map(|d| d.unwrap_or(0)).collect();
            let mut one = sessions[0].clone();
            one.pool = PoolHandle::with_workers(1);
            let run = one_worker(|| run_paper_session(&one, pipeline));
            let mut failures = run.failures;
            if run.digest != digests[0] {
                failures.push(format!(
                    "{:?}: digest at 1 worker {:016x} differs from {workers} workers' {:016x}",
                    one.game, run.digest, digests[0]
                ));
            }
            out.tally(run.frames, failures);
            (frames, elapsed, combine(&digests), rss)
        }
        None => {
            let config = storm_config(args.seed, STORM_TICKS, STORM_CROWD, workers);
            let mut first = None;
            let mut frames = 0u64;
            let start = Instant::now();
            while first.is_none() || start.elapsed() < budget {
                let run = run_storm(&config, None);
                let mut failures = run.failures;
                match first {
                    None => first = Some(run.digest),
                    Some(d) if d != run.digest => failures.push(format!(
                        "storm digest {:016x} differs from the first pass's {d:016x}",
                        run.digest
                    )),
                    Some(_) => {}
                }
                frames += run.frames;
                out.tally(run.frames, failures);
            }
            let elapsed = start.elapsed();
            let rss = peak_rss_mb();
            let digest = first.unwrap_or(0);
            let mut one = config.clone();
            one.pool = PoolHandle::with_workers(1);
            let run = one_worker(|| run_storm(&one, None));
            let mut failures = run.failures;
            if run.digest != digest {
                failures.push(format!(
                    "storm digest at 1 worker {:016x} differs from {workers} workers' {digest:016x}",
                    run.digest
                ));
            }
            out.tally(run.frames, failures);
            (frames, elapsed, digest, rss)
        }
    };

    println!("digest {} {digest:016x}", args.workload.name());
    if args.seed == DEFAULT_SEED {
        let recorded = RECORDED_DIGESTS
            .iter()
            .find(|(w, _)| *w == args.workload.name())
            .map(|&(_, d)| d);
        if recorded != Some(digest) {
            out.failures.push(format!(
                "digest {digest:016x} differs from the recorded {:016x} at seed {DEFAULT_SEED}",
                recorded.unwrap_or(0)
            ));
            out.failed = out.attempted;
        }
    }
    out.metric("frames_per_s", frames as f64 / elapsed.as_secs_f64(), "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out
}

/// Runs `f` with the process-wide pool at one worker (threads spawned
/// outside a session's binding, such as the client's NPU leg, read the
/// global knob), then restores it.
fn one_worker<T>(f: impl FnOnce() -> T) -> T {
    let before = pool::workers();
    pool::set_workers(1);
    let out = f();
    pool::set_workers(before);
    out
}

/// The traced run: every session of one pass (paper workloads at the
/// paper canvas; `fleet-storm` at the fleet canvas) runs untraced through
/// `run_session` and is then replayed layer by layer; one storm (the
/// workload's own, or a small probe for the paper workloads) runs with
/// spans and again without; finally a separate pool-accounting pass.
fn traced(args: &Args, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let fleet = args.workload.pipeline().is_none();
    let pipeline = args.workload.pipeline().unwrap_or(Pipeline::GameStreamSr);
    let canvas = if fleet { FLEET_CANVAS } else { PAPER_CANVAS };

    // ---- sessions: untraced run, then the layer-by-layer replay ---------
    let sessions = paper_sessions(args.seed, canvas, FRAMES_PER_SESSION, workers);
    let mut session_ns = 0u64;
    let mut next_frame = 0u64;
    for config in &sessions {
        let start = Instant::now();
        let run = run_paper_session(config, pipeline);
        session_ns += start.elapsed().as_nanos() as u64;
        let mut failures = run.failures;
        if let Some(report) = &run.report {
            failures.extend(replay::replay_session(
                config,
                pipeline,
                report,
                &mut spans,
                &mut next_frame,
            ));
        }
        out.tally(run.frames, failures);
    }

    // ---- fleet: one storm with spans, the same storm without ------------
    let storm = if fleet {
        storm_config(args.seed, STORM_TICKS, STORM_CROWD, workers)
    } else {
        storm_config(args.seed, PROBE_TICKS, PROBE_CROWD, workers)
    };
    let start = Instant::now();
    let with_spans = run_storm(&storm, Some(&mut spans));
    let traced_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let plain = run_storm(&storm, None);
    let plain_wall = start.elapsed().as_secs_f64();
    let mut failures = with_spans.failures.clone();
    if with_spans.digest != plain.digest {
        failures.push("storm digest differs between the traced and untraced runs".to_owned());
    }
    out.tally(with_spans.frames, failures);
    out.tally(plain.frames, plain.failures);

    // ---- server-layer cost per frame at the fleet canvas -----------------
    let server_ns_per_frame = if fleet {
        server_layers_ns(&spans) / next_frame as f64
    } else {
        let mut probe = Spans::new();
        let mut frames = 0u64;
        for config in paper_sessions(args.seed, FLEET_CANVAS, PROBE_FRAMES, workers) {
            let run = run_paper_session(&config, Pipeline::GameStreamSr);
            let mut failures = run.failures;
            if let Some(report) = &run.report {
                failures.extend(replay::replay_session(
                    &config,
                    Pipeline::GameStreamSr,
                    report,
                    &mut probe,
                    &mut frames,
                ));
            }
            out.tally(run.frames, failures);
        }
        server_layers_ns(&probe) / frames as f64
    };

    // ---- pool accounting (serializes parallel regions: no timed metric) --
    pool::start_accounting();
    let start = Instant::now();
    if fleet {
        // accounting times each region's chunks serially, so a kernel
        // region nested inside the produce phase's per-session region
        // would be counted twice: kernels run inline (process-wide knob
        // at 1) while the fleet's own handle keeps the session region
        let run = one_worker(|| run_storm(&storm, None));
        let mut failures = run.failures;
        if run.digest != plain.digest {
            failures.push("storm digest differs under pool accounting".to_owned());
        }
        out.tally(run.frames, failures);
    } else {
        for config in sessions.iter().take(ACCOUNTED_SESSIONS) {
            let run = run_paper_session(config, pipeline);
            out.tally(run.frames, run.failures);
        }
    }
    let accounted_ns = start.elapsed().as_nanos() as f64;
    let acc = pool::stop_accounting();

    layer_metrics(&mut out, &spans, pipeline, session_ns as f64);
    fleet_metrics(&mut out, &spans, server_ns_per_frame, &with_spans);
    out.metric("pool.workers", workers as f64, "count");
    out.metric(
        "pool.parallel_share",
        acc.work_ns as f64 / accounted_ns,
        "ratio",
    );
    out.metric(
        "pool.modeled_speedup",
        accounted_ns / (accounted_ns - acc.work_ns as f64 + acc.span_ns as f64),
        "ratio",
    );
    out.metric("pool.imbalance", acc.imbalance(), "ratio");
    out.metric("bench.trace_overhead", traced_wall / plain_wall, "ratio");
    out.metric("bench.replayed_frames", next_frame as f64, "count");

    let path = format!(
        "perfbench/traces/{}-{}.json",
        args.workload.name(),
        args.seed
    );
    let written = std::fs::create_dir_all("perfbench/traces")
        .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
    match written {
        Ok(()) => println!("trace written to {path}"),
        Err(e) => out.failures.push(format!("cannot write {path}: {e}")),
    }
    out
}

/// Summed frame-path server layers (render, downsample, RoI, encode), ns.
fn server_layers_ns(spans: &Spans) -> f64 {
    [
        "render",
        "platform.downsample",
        "roi.detect",
        "codec.encode",
    ]
    .iter()
    .map(|n| spans.total_ns(n) as f64)
    .sum()
}

/// Mean duration and mean work count of the spans named `name`.
fn per_call(spans: &Spans, name: &str) -> (f64, f64) {
    let (mut ns, mut work, mut n) = (0u64, 0u64, 0u64);
    for s in spans.named(name) {
        ns += s.ns();
        work += s.work;
        n += 1;
    }
    (ns as f64 / n as f64, work as f64 / n as f64)
}

fn layer_metrics(out: &mut Outcome, spans: &Spans, pipeline: Pipeline, session_ns: f64) {
    let (render_ns, shaded) = per_call(spans, "render");
    out.metric("render.ns_per_frame", render_ns, "ns");
    out.metric("render.px_shaded_per_frame", shaded, "px");
    out.metric("render.ns_per_px_shaded", render_ns / shaded, "ns/px");
    out.metric(
        "platform.downsample_ns_per_frame",
        per_call(spans, "platform.downsample").0,
        "ns",
    );
    out.metric(
        "roi.detect_ns_per_frame",
        per_call(spans, "roi.detect").0,
        "ns",
    );
    let (encode_ns, coded) = per_call(spans, "codec.encode");
    out.metric("codec.encode_ns_per_frame", encode_ns, "ns");
    out.metric("codec.coded_bytes_per_frame", coded, "B");
    let (motion_ns, mbs) = per_call(spans, "codec.motion");
    out.metric("codec.motion_ns_per_inter_frame", motion_ns, "ns");
    out.metric("codec.motion_mbs_per_inter_frame", mbs, "count");
    out.metric(
        "codec.decode_ns_per_frame",
        per_call(spans, "codec.decode").0,
        "ns",
    );

    // the NPU leg of the workload's own pipeline: the RoI patch every
    // frame (GameStreamSR, and the fleet's modeled client), or the full
    // frame once per GOP (NEMO)
    let neural = if pipeline == Pipeline::Nemo {
        "sr.full"
    } else {
        "sr.patch"
    };
    let (neural_ns, neural_px) = per_call(spans, neural);
    out.metric("sr.neural_ns_per_call", neural_ns, "ns");
    out.metric("sr.neural_out_px_per_call", neural_px, "px");
    out.metric("sr.neural_ns_per_out_px", neural_ns / neural_px, "ns/px");
    let (interp_ns, interp_px) = per_call(spans, "sr.interp");
    out.metric("sr.interp_ns_per_frame", interp_ns, "ns");
    out.metric("sr.interp_out_px_per_frame", interp_px, "px");
    out.metric("sr.interp_ns_per_out_px", interp_ns / interp_px, "ns/px");

    let upscale_ns = spans.total_ns("client.upscale") as f64;
    out.metric(
        "client.upscale_ns_per_frame",
        per_call(spans, "client.upscale").0,
        "ns",
    );
    out.metric(
        "client.leg_overlap",
        (spans.total_ns("sr.patch") + spans.total_ns("sr.interp")) as f64 / upscale_ns,
        "ratio",
    );
    out.metric("nemo.ref_ns_per_frame", per_call(spans, "nemo.ref").0, "ns");
    out.metric(
        "nemo.nonref_ns_per_frame",
        per_call(spans, "nemo.nonref").0,
        "ns",
    );
    out.metric("metrics.ns_per_frame", per_call(spans, "metrics").0, "ns");

    let frame_path_ns: u64 = spans
        .all()
        .iter()
        .filter(|s| s.parent.is_some() && !s.replay)
        .map(spans::Span::ns)
        .sum();
    out.metric(
        "session.self_share",
        1.0 - frame_path_ns as f64 / session_ns,
        "ratio",
    );
}

fn fleet_metrics(
    out: &mut Outcome,
    spans: &Spans,
    server_ns_per_frame: f64,
    storm: &workload::StormRun,
) {
    let mut step_ms: Vec<f64> = spans
        .named("fleet.step")
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    step_ms.sort_by(f64::total_cmp);
    let step_ns: f64 = step_ms.iter().sum::<f64>() * 1e6;
    let session_frames: u64 = spans.named("fleet.step").map(|s| s.work).sum();
    out.metric("fleet.steps", step_ms.len() as f64, "count");
    out.metric("fleet.step_ms_p50", percentile(&step_ms, 0.50), "ms");
    out.metric("fleet.step_ms_p99", percentile(&step_ms, 0.99), "ms");
    out.metric(
        "fleet.ns_per_session_frame",
        step_ns / session_frames as f64,
        "ns",
    );
    out.metric(
        "fleet.finalize_ms",
        spans.total_ns("fleet.finalize") as f64 / 1e6,
        "ms",
    );
    out.metric(
        "fleet.active_sessions_mean",
        session_frames as f64 / step_ms.len() as f64,
        "count",
    );
    out.metric(
        "fleet.server_share",
        server_ns_per_frame * session_frames as f64 / step_ns,
        "ratio",
    );
    let export_ns: u64 = spans
        .all()
        .iter()
        .filter(|s| s.name.starts_with("telemetry."))
        .map(spans::Span::ns)
        .sum();
    out.metric("telemetry.export_ms", export_ns as f64 / 1e6, "ms");
    out.metric("telemetry.trace_bytes", storm.trace_bytes as f64, "B");
    out.metric(
        "telemetry.retained_frames",
        storm.retained_frames as f64,
        "count",
    );
}
