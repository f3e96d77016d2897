//! The orchestrator, run the way `BENCHMARK.json` runs it.

use std::process::Command;

fn exp_perf(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_perf")).args(args).output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `"key": <integer>` from a one-line JSON object.
fn int_field(line: &str, key: &str) -> u64 {
    let rest = line.split(&format!("\"{key}\": ")).nth(1).unwrap();
    rest.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
}

/// Repetitions that pass the cycle cap fail one by one and are counted;
/// the orchestrator itself neither panics nor stops early.
#[test]
fn capped_repetitions_count_as_failures() {
    let args = ["--workload", "bh-idle-k8", "--seconds", "0.2", "--max-cycles", "1000"];
    let (code, stdout) = exp_perf(&args);
    assert_eq!(code, Some(1), "{stdout}");
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    let attempted = int_field(last, "attempted");
    assert!(attempted >= 3, "{last}");
    assert_eq!(int_field(last, "failed"), attempted, "{last}");
    assert!(stdout.contains("cycle cap of 1000 passed"), "{stdout}");
}

#[test]
fn usage_errors_exit_with_code_two() {
    assert_eq!(exp_perf(&["--workload", "nope"]).0, Some(2));
    assert_eq!(exp_perf(&["--trace", "yes"]).0, Some(2));
}
