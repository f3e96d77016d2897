//! Reproduce the paper's evaluation: run the experiment table
//! (`wormdsm_bench::repro`), print every table and claim verdict as
//! markdown, and with `--out` write the tables, each claim's outcome and
//! a run-metadata row as JSON. Exits 1, naming the claim, when any
//! claim's outcome differs from its expectation; 2 on a usage error.
//!
//! Usage: `repro [--quick] [--only E7,E8] [--out REPRO.json]`

use std::process::ExitCode;
use std::time::Instant;

use wormdsm_bench::repro::{self, claims, Arm};
use wormdsm_core::RunMeta;
use wormdsm_sim::json::{self, Layout, ToJson};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}\nusage: repro [--quick] [--only E7,E8] [--out REPRO.json]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let (mut arm, mut only, mut out) = (Arm::Full, String::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => arm = Arm::Quick,
            "--only" | "--out" => match args.next() {
                Some(v) if a == "--only" => only = v,
                Some(v) => out = Some(v),
                None => return usage(&format!("{a} needs a value")),
            },
            _ => return usage(&format!("unexpected argument {a:?}")),
        }
    }
    let ids: Vec<&str> = only.split(',').filter(|s| !s.is_empty()).collect();
    let tables = match repro::run(arm, &ids) {
        Ok(t) => t,
        Err(e) => return usage(&e),
    };
    let verdicts = claims::check(arm, &tables);

    println!("# Reproduction, {} arm\n", arm.name());
    for t in &tables {
        println!("{}", t.to_markdown());
    }
    println!("## Claims\n");
    for v in &verdicts {
        let mark = if v.matches() { "" } else { " UNEXPECTED" };
        let measured =
            v.outcome.as_ref().err().map_or(String::new(), |e| format!(" Measured: {e}."));
        println!("- **{}** {}{mark}: {}{measured}", v.claim.id, v.outcome_name(), v.claim.text);
    }

    if let Some(path) = out {
        let meta = RunMeta::capture(0).with_wall_s(t0.elapsed().as_secs_f64());
        let lines = Layout::Lines("");
        let report = json::obj(lines, |o| {
            o.field("arm", arm.name()).field("tables", json::each(lines, &tables));
            o.field("claims", json::each(lines, &verdicts)).field("run_meta", &meta);
        });
        if let Err(e) = std::fs::write(&path, report.to_json() + "\n") {
            return usage(&format!("writing {path}: {e}"));
        }
        eprintln!("wrote {path}");
    }
    claims::mismatches(&verdicts).map_or_else(
        |e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        },
        |()| ExitCode::SUCCESS,
    )
}
