//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md` § per-experiment index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured values).
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p gss-bench --bin figures
//! ```
//!
//! or a single experiment by id (`table1`, `fig2`, `fig3a`, `fig3b`,
//! `fig7`, `fig9`, `fig10a`, `fig10b`, `fig10c`, `fig11`, `fig12`,
//! `fig13`, `fig14a`, `fig14b`, `fig15`, `server`, `ablation`, `loss`,
//! `resilience`, `recovery`, `scaling`):
//!
//! ```text
//! cargo run --release -p gss-bench --bin figures -- fig10a
//! ```
//!
//! Each experiment prints the same rows/series the paper reports. `--quick`
//! shrinks frame counts for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `println!` for the harness's reports. When the reader of stdout has
/// gone, the process exits with status 141, the status a shell gives a
/// process that SIGPIPE ended, instead of panicking: a report cut short
/// must not read as a pass.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}

/// Writes `args` to the locked stdout; see [`outln!`].
///
/// # Panics
///
/// Panics on a write error other than a broken pipe, as `println!` does.
#[doc(hidden)]
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(141),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

pub mod bench;
pub mod experiments;
mod table;
pub mod triage;

pub use table::Table;

/// Global knobs shared by all experiments.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Shrink frame counts (smoke mode).
    pub quick: bool,
    /// Telemetry sink every experiment session streams its event trace
    /// into (`--telemetry out.jsonl` on the `figures` binary). `None`
    /// keeps sessions aggregate-only.
    pub telemetry: Option<gss_telemetry::SinkHandle>,
}

impl RunOptions {
    /// `full` frames normally, `quick` frames in smoke mode.
    pub fn frames(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Emits a structured log event to the telemetry sink, if one is
    /// attached (the harness still prints to the terminal either way).
    pub fn log(&self, level: gss_telemetry::Level, message: impl Into<String>) {
        if let Some(sink) = &self.telemetry {
            sink.emit(&gss_telemetry::Event::Log {
                level,
                message: message.into(),
            });
        }
    }
}

/// All experiment ids in report order.
pub const ALL_EXPERIMENTS: [&str; 22] = [
    "table1",
    "fig2",
    "fig3a",
    "fig3b",
    "fig7",
    "fig9",
    "fig10a",
    "fig10b",
    "fig10c",
    "fig11",
    "fig12",
    "fig13",
    "fig14a",
    "fig14b",
    "fig15",
    "server",
    "ablation",
    "loss",
    "resilience",
    "recovery",
    "scaling",
    "consolidate",
];

/// Runs one experiment by id, printing its rows to stdout.
///
/// # Errors
///
/// Returns a description for unknown ids; experiment-internal failures
/// panic (they indicate bugs, not user error).
pub fn run_experiment(id: &str, options: &RunOptions) -> Result<(), String> {
    use experiments as e;
    match id {
        "table1" => e::table1::run(options),
        "fig2" => e::fig2::run(options),
        "fig3a" => e::fig3::run_a(options),
        "fig3b" => e::fig3::run_b(options),
        "fig7" => e::fig7::run(options),
        "fig9" => e::fig9::run(options),
        "fig10a" => e::fig10::run_a(options),
        "fig10b" => e::fig10::run_b(options),
        "fig10c" => e::fig10::run_c(options),
        "fig11" => e::fig11_12::run_savings(options),
        "fig12" => e::fig11_12::run_breakdown(options),
        "fig13" => e::fig13::run(options),
        "fig14a" => e::fig14::run_psnr(options),
        "fig14b" => e::fig14::run_perceptual(options),
        "fig15" => e::fig15::run(options),
        "server" => e::server_side::run(options),
        "ablation" => e::ablation::run(options),
        "loss" => e::loss::run(options),
        "resilience" => e::resilience::run(options),
        "recovery" => e::recovery::run(options),
        "scaling" => e::scaling::run(options),
        "consolidate" => e::consolidate::run(options),
        other => return Err(format!("unknown experiment id: {other}")),
    }
    Ok(())
}
