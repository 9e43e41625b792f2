//! `figures` stops quietly when the reader of its stdout has gone: it
//! exits with status 141, the status a shell gives a process that SIGPIPE
//! ended, and never panics, so a report cut short cannot read as a pass.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_exits_141_without_a_panic() {
    for args in [&["-h"][..], &["--quick", "fig9"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("figures runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "figures {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "figures {args:?}: {stderr}");
    }
}
