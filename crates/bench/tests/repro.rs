//! The reproduction's claims and its report, end to end.

use std::process::Command;

use wormdsm_bench::repro::claims::{self, Expect};
use wormdsm_bench::repro::{self, Arm};
use wormdsm_sim::json::validate_json;

/// The quick-arm experiments cheap enough for every test run: each of
/// their claims must come out as expected.
#[test]
fn quick_arm_claims_match_their_expectations() {
    let ids = ["E1", "E4", "E5", "E8", "E10", "H9"];
    let tables = repro::run(Arm::Quick, &ids).expect("known ids");
    let verdicts = claims::check(Arm::Quick, &tables);
    for id in ids {
        assert!(verdicts.iter().any(|v| v.claim.experiment() == id), "no claim for {id}");
    }
    claims::mismatches(&verdicts).unwrap();
}

/// A table that contradicts a claim must fail the run, naming the
/// experiment and the claim.
#[test]
fn doctored_e8_table_fails_its_claim() {
    let mut tables = repro::run(Arm::Quick, &["E8"]).expect("known id");
    let t = &mut tables[0];
    let col = t.cols.iter().position(|c| c == "blocked (cy)").expect("blocked column");
    let row = t.rows.iter_mut().find(|r| r[..2] == ["8", "4"]).expect("8-flit, 4-channel row");
    row[col] = "1".into();

    let verdicts = claims::check(Arm::Quick, &tables);
    let v = verdicts.iter().find(|v| v.claim.id == "E8.no-blocking-at-4").expect("claim checked");
    assert_eq!(v.expect, Expect::Holds);
    assert!(v.outcome.is_err() && !v.matches());
    let e = claims::mismatches(&verdicts).unwrap_err();
    assert!(e.contains("claim E8.no-blocking-at-4 diverges"), "{e}");
}

#[test]
fn unknown_experiment_is_rejected() {
    let e = repro::run(Arm::Quick, &["E99"]).unwrap_err();
    assert!(e.contains("E99") && e.contains("E7b"), "{e}");
}

/// Two runs of the binary write byte-identical reports apart from the
/// run-metadata row, and the report is well-formed JSON.
#[test]
fn repro_json_is_deterministic_apart_from_run_meta() {
    let dir = std::env::temp_dir();
    let report = |n: usize| {
        let path = dir.join(format!("repro_determinism_{}_{n}.json", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", "--only", "E1,E8,E10", "--out"])
            .arg(&path)
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let json = std::fs::read_to_string(&path).expect("report written");
        std::fs::remove_file(&path).ok();
        json
    };
    let (a, b) = (report(0), report(1));
    validate_json(&a).unwrap();
    let strip = |s: &str| -> String {
        s.lines().filter(|l| !l.starts_with("\"run_meta\"")).collect::<Vec<_>>().join("\n")
    };
    assert_ne!(strip(&a), a, "the report carries a run_meta row");
    assert_eq!(strip(&a), strip(&b));
}
