//! The farm binary's command line: a bad flag exits 2 naming it, before
//! anything is bound or run.

use std::process::Command;

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, names) in [
        (&["--port", "80x0"][..], "--port"),
        (&["--workers", "two"], "--workers"),
        (&["--progress-every", "-1"], "--progress-every"),
        (&["--port"], "--port needs a value"),
        (&["--smoke", "--bogus"], "unknown flag \"--bogus\""),
        (&["--progress-every", "0"], "--progress-every"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_farm")).args(args).output().expect("farm runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(names), "{args:?} must name {names:?}: {err}");
    }
}
