//! exp_perf — what the simulator costs its user in host time and memory,
//! end to end and per layer, on four fixed workloads.
//!
//! Every repetition runs in a child process of its own (this binary
//! re-executed with `--rep`), one at a time, so each reports a clean peak
//! RSS and no two compete for the host. Host metrics summarize the
//! repetitions (median and quartiles; a timed run reports its fastest
//! wall time, see `metrics::HOST`); simulated results must be equal
//! across them.
//!
//! Usage:
//!
//! ```text
//! exp_perf --workload W [--seed S] [--seconds T] [--trace 0|1]
//!     repetitions of one workload for about T seconds (default 10); the
//!     last stdout line is one JSON object with the host metrics, or
//!     with --trace 1 the per-layer metrics of traced repetitions
//! exp_perf [--seed S] [--trace 0|1] [--out F]
//!     one set: every workload's fixed repetition count, interleaved,
//!     then with --trace 1 one traced repetition each; F gets the results
//! exp_perf --compare A.json B.json
//!     compare two result files written by --out
//! ```
//!
//! `--max-cycles N` caps every simulated run (default 20M); a run that
//! passes it fails its repetition. The exit code is 0 only when every
//! repetition passed its checks.

mod compare;
mod json;
mod layers;
mod metrics;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime};
use wormdsm_sim::Cycle;

use metrics::{MetricDef, Pick, HOST, PER_LAYER};
use stats::Stat;
use workload::{Spec, WORKLOADS};

/// Version of the result-file layout written by `--out`.
const RESULT_SCHEMA_VERSION: u64 = 1;

/// Untraced repetitions a timed run makes however long they take.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Option<&'static Spec>,
    rep: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    max_cycles: Cycle,
}

fn spec_named(name: &str) -> Result<&'static Spec, String> {
    workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        rep: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
        compare: None,
        max_cycles: workload::MAX_CYCLES,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(spec_named(&value(&mut it, &flag)?)?),
            "--rep" => a.rep = Some(spec_named(&value(&mut it, &flag)?)?),
            "--seed" => a.seed = number(&value(&mut it, &flag)?, &flag)?,
            "--seconds" => {
                a.seconds = number(&value(&mut it, &flag)?, &flag)?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => a.out = Some(value(&mut it, &flag)?),
            "--compare" => a.compare = Some((value(&mut it, &flag)?, value(&mut it, &flag)?)),
            "--max-cycles" => a.max_cycles = number(&value(&mut it, &flag)?, &flag)?,
            other => return Err(format!("unknown argument {other:?}; see the usage in main.rs")),
        }
    }
    Ok(a)
}

/// What a child process reports for one repetition.
#[derive(Debug, Clone)]
struct RepLine {
    fingerprint: String,
    values: BTreeMap<String, f64>,
}

#[derive(Debug)]
struct Outcome {
    traced: bool,
    rep: Result<RepLine, String>,
}

/// Run one repetition in a child process and wait for it.
fn spawn_rep(spec: &Spec, seed: u64, traced: bool, max_cycles: Cycle) -> Result<RepLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--rep", spec.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--max-cycles", &max_cycles.to_string()])
        .output()
        .map_err(|e| format!("cannot start repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let why: Vec<&str> = stderr.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        return Err(format!("repetition {}: {}", out.status, why.join(" / ")));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let j = json::parse(line).map_err(|e| format!("unreadable repetition output: {e}"))?;
    let fingerprint = j.get("fingerprint").and_then(json::Json::as_str).unwrap_or_default();
    let values = j.get("values").and_then(json::Json::as_obj).unwrap_or_default();
    Ok(RepLine {
        fingerprint: fingerprint.to_string(),
        values: values.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect(),
    })
}

/// The child side of [`spawn_rep`].
fn child(spec: &Spec, seed: u64, traced: bool, max_cycles: Cycle) -> ExitCode {
    match workload::run_rep(spec, seed, traced, max_cycles) {
        Ok(rep) => {
            let values: Vec<String> = rep
                .values
                .iter()
                .map(|(k, v)| format!("{}: {}", json::string(k), json::num(*v)))
                .collect();
            println!(
                "{{\"fingerprint\": \"{:016x}\", \"values\": {{{}}}}}",
                rep.fingerprint,
                values.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// Results of one workload's repetitions.
#[derive(Debug)]
struct Summary {
    attempted: usize,
    errors: Vec<String>,
    fingerprint: Option<String>,
    /// End-to-end metrics over untraced repetitions.
    end_to_end: BTreeMap<String, Stat>,
    /// Per-layer metrics over traced repetitions.
    per_layer: BTreeMap<String, Stat>,
}

impl Summary {
    fn failed(&self) -> usize {
        self.errors.len()
    }

    fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

fn stats_of<'a>(reps: impl Iterator<Item = &'a RepLine>) -> BTreeMap<String, Stat> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in reps {
        for (k, &v) in &r.values {
            samples.entry(k.clone()).or_default().push(v);
        }
    }
    samples.into_iter().filter_map(|(k, v)| Some((k, Stat::of(&v)?))).collect()
}

/// Check fingerprints (every repetition, traced or not, must simulate the
/// same results: the most common fingerprint wins and the others fail)
/// and summarize.
fn summarize(mut outcomes: Vec<Outcome>) -> Summary {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for r in outcomes.iter().filter_map(|o| o.rep.as_ref().ok()) {
        match counts.iter_mut().find(|(f, _)| *f == r.fingerprint) {
            Some((_, n)) => *n += 1,
            None => counts.push((r.fingerprint.clone(), 1)),
        }
    }
    // Ties go to the earliest fingerprint seen.
    let majority = counts.iter().rev().max_by_key(|(_, n)| *n).map(|(f, _)| f.clone());
    for o in &mut outcomes {
        if let (Ok(r), Some(m)) = (&o.rep, &majority) {
            if r.fingerprint != *m {
                o.rep =
                    Err(format!("fingerprint {} differs from the majority's {m}", r.fingerprint));
            }
        }
    }
    let ok = |traced: bool| {
        outcomes.iter().filter(move |o| o.traced == traced).filter_map(|o| o.rep.as_ref().ok())
    };
    let end_to_end = stats_of(ok(false));
    let mut per_layer = stats_of(ok(true));
    if let Some(base) = end_to_end.get("wall_s") {
        let overhead: Vec<f64> =
            ok(true).filter_map(|r| Some(r.values.get("wall_s")? / base.median - 1.0)).collect();
        if let Some(s) = Stat::of(&overhead) {
            per_layer.insert("trace.overhead_frac".to_string(), s);
        }
    }
    let errors: Vec<String> =
        outcomes.iter().filter_map(|o| o.rep.as_ref().err().cloned()).collect();
    Summary { attempted: outcomes.len(), errors, fingerprint: majority, end_to_end, per_layer }
}

fn input_label(spec: &Spec) -> String {
    match spec.input {
        workload::Input::App { app, compute_scale } => {
            format!("{app} compute-scale {compute_scale}")
        }
        workload::Input::Inval { batches, writes, sharers } => {
            format!("{batches} batches x {writes} writes x {sharers} sharers")
        }
    }
}

fn print_metric(def: &MetricDef, s: &Stat) {
    println!(
        "  {:<34} {:>16.6} {:<8} n={:<3} min {:.6} max {:.6} q1 {:.6} q3 {:.6} spread {:.2}%",
        def.name,
        s.median,
        def.unit,
        s.n,
        s.min,
        s.max,
        s.q1,
        s.q3,
        100.0 * s.spread()
    );
}

fn print_summary(spec: &Spec, s: &Summary) {
    println!(
        "== {} (k={}, {}, {}): {} repetitions, {} failed, fingerprint {}",
        spec.name,
        spec.k,
        spec.scheme.name(),
        input_label(spec),
        s.attempted,
        s.failed(),
        s.fingerprint.as_deref().unwrap_or("none")
    );
    println!("  why: {}", spec.why);
    for e in s.errors.iter().take(3) {
        println!("  FAILED: {e}");
    }
    println!("  {:<34} {:>16.6} ratio", "error_rate", s.error_rate());
    for def in HOST.iter().chain(&metrics::SIMULATED) {
        if let Some(st) = s.end_to_end.get(def.name) {
            print_metric(def, st);
        }
    }
    if !s.per_layer.is_empty() {
        println!("  -- per layer (traced repetitions)");
        for def in &PER_LAYER {
            if let Some(st) = s.per_layer.get(def.name) {
                print_metric(def, st);
            }
        }
    }
}

/// Repetitions of one workload for about `seconds`: no repetition starts
/// that the last one of its kind says would end past the budget, once the
/// minimum is met. With `trace`, untraced and traced repetitions
/// alternate.
fn timed_run(spec: &Spec, seed: u64, seconds: f64, trace: bool, max_cycles: Cycle) -> Summary {
    let start = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut last = [Duration::ZERO; 2];
    loop {
        let traced = trace && outcomes.len() % 2 == 1;
        let done = |t: bool| outcomes.iter().filter(|o| o.traced == t).count();
        let min_met =
            if trace { done(false) >= 1 && done(true) >= 1 } else { done(false) >= MIN_REPS };
        if min_met && (start.elapsed() + last[traced as usize]).as_secs_f64() > seconds {
            break;
        }
        let t = Instant::now();
        let rep = spawn_rep(spec, seed, traced, max_cycles);
        last[traced as usize] = t.elapsed();
        outcomes.push(Outcome { traced, rep });
    }
    summarize(outcomes)
}

/// `--workload`: time-boxed repetitions of one workload.
fn run_workload(spec: &Spec, a: &Args) -> ExitCode {
    let s = timed_run(spec, a.seed, a.seconds, a.trace, a.max_cycles);
    print_summary(spec, &s);
    let (defs, source): (Vec<&MetricDef>, _) = if a.trace {
        (PER_LAYER.iter().collect(), &s.per_layer)
    } else {
        (metrics::across_seeds().collect(), &s.end_to_end)
    };
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let st = source.get(d.name)?;
            let value = match d.pick {
                Pick::Median => st.median,
                Pick::Min => st.min,
            };
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(d.name),
                json::num(value),
                json::string(d.unit)
            ))
        })
        .collect();
    let correct = s.failed() == 0 && metrics.len() == defs.len();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.attempted,
        s.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set order, as indices into [`WORKLOADS`]: each workload's repetitions
/// spread evenly over the set, so a slow stretch of the host hits every
/// workload alike.
fn interleaved() -> Vec<usize> {
    let mut slots: Vec<(f64, usize)> = (0..WORKLOADS.len())
        .flat_map(|w| {
            let reps = WORKLOADS[w].reps;
            (0..reps).map(move |i| ((2 * i + 1) as f64 / (2 * reps) as f64, w))
        })
        .collect();
    slots.sort_by(|x, y| x.0.total_cmp(&y.0));
    slots.into_iter().map(|(_, w)| w).collect()
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn stats_json<'a>(
    defs: impl Iterator<Item = &'a MetricDef>,
    stats: &BTreeMap<String, Stat>,
) -> String {
    let fields: Vec<String> = defs
        .filter_map(|d| {
            Some(format!(
                "{}: {{\"unit\": {}, \"better\": \"{}\", \"bound\": {}, {}}}",
                json::string(d.name),
                json::string(d.unit),
                d.better.name(),
                json::num(d.bound),
                stats.get(d.name)?.json_fields()
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(",\n        "))
}

fn workload_json(spec: &Spec, s: &Summary) -> String {
    let mut e2e = s.end_to_end.clone();
    e2e.insert("error_rate".to_string(), Stat::of(&[s.error_rate()]).expect("one value"));
    let errors: Vec<String> = s.errors.iter().map(|e| json::string(e)).collect();
    format!(
        concat!(
            "    {}: {{\"k\": {}, \"scheme\": {}, \"input\": {}, ",
            "\"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"fingerprint\": {},\n",
            "      \"end_to_end\": {},\n      \"per_layer\": {}}}"
        ),
        json::string(spec.name),
        spec.k,
        json::string(spec.scheme.name()),
        json::string(&input_label(spec)),
        s.attempted,
        s.failed(),
        errors.join(", "),
        s.fingerprint.as_deref().map_or("null".to_string(), json::string),
        stats_json(metrics::end_to_end(), &e2e),
        stats_json(PER_LAYER.iter(), &s.per_layer)
    )
}

/// The `--out` result file: `run_meta` provenance, then every workload.
fn result_json(a: &Args, order: &[usize], summaries: &[Summary], started_unix_s: u64) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps: Vec<String> =
        WORKLOADS.iter().map(|s| format!("{}: {}", json::string(s.name), s.reps)).collect();
    let order: Vec<String> = order.iter().map(|&w| json::string(WORKLOADS[w].name)).collect();
    let workloads: Vec<String> =
        WORKLOADS.iter().zip(summaries).map(|(spec, s)| workload_json(spec, s)).collect();
    format!(
        concat!(
            "{{\n  \"run_meta\": {{\"schema_version\": {}, \"host_cores\": {}, \"seed\": {}, ",
            "\"reps\": {{{}}}, \"order\": [{}], \"traced\": {}, \"git_rev\": {}, ",
            "\"started_unix_s\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n"
        ),
        RESULT_SCHEMA_VERSION,
        host_cores,
        a.seed,
        reps.join(", "),
        order.join(", "),
        a.trace,
        json::string(&git_rev()),
        started_unix_s,
        workloads.join(",\n")
    )
}

/// No `--workload`: one interleaved set of every workload.
fn run_set(a: &Args) -> ExitCode {
    let started = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default();
    let order = interleaved();
    let mut runs: Vec<(usize, bool)> = order.iter().map(|&w| (w, false)).collect();
    if a.trace {
        runs.extend((0..WORKLOADS.len()).map(|w| (w, true)));
    }
    let mut outcomes: Vec<Vec<Outcome>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for (i, &(w, traced)) in runs.iter().enumerate() {
        let t = Instant::now();
        let rep = spawn_rep(&WORKLOADS[w], a.seed, traced, a.max_cycles);
        eprintln!(
            "[{}/{}] {}{} {:.2} s{}",
            i + 1,
            runs.len(),
            WORKLOADS[w].name,
            if traced { " (traced)" } else { "" },
            t.elapsed().as_secs_f64(),
            rep.as_ref().err().map(|e| format!(" FAILED: {e}")).unwrap_or_default()
        );
        outcomes[w].push(Outcome { traced, rep });
    }
    let summaries: Vec<Summary> = outcomes.into_iter().map(summarize).collect();
    for (spec, s) in WORKLOADS.iter().zip(&summaries) {
        print_summary(spec, s);
    }
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, result_json(a, &order, &summaries, started.as_secs()))
        {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if summaries.iter().all(|s| s.failed() == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((x, y)) = &a.compare {
        return match compare::run(x, y) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("exp_perf: {e}");
                ExitCode::from(2)
            }
        };
    }
    match (a.rep, a.workload) {
        (Some(spec), _) => child(spec, a.seed, a.trace, a.max_cycles),
        (None, Some(spec)) => run_workload(spec, &a),
        (None, None) => run_set(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope").unwrap_err().contains("unknown workload"));
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
        let a = args("--workload bh-idle-k8 --seed 3 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.map(|s| s.name), a.seed, a.seconds, a.trace),
            (Some("bh-idle-k8"), 3, 2.5, true)
        );
    }

    #[test]
    fn set_order_interleaves_every_repetition() {
        let order = interleaved();
        for (w, spec) in WORKLOADS.iter().enumerate() {
            assert_eq!(order.iter().filter(|&&x| x == w).count(), spec.reps);
        }
        // The rarest workload is not bunched at either end.
        let rarest = (0..WORKLOADS.len()).min_by_key(|&w| WORKLOADS[w].reps).unwrap();
        let at: Vec<usize> = (0..order.len()).filter(|&i| order[i] == rarest).collect();
        assert!(at[0] > 0 && *at.last().unwrap() < order.len() - 1, "{at:?}");
    }

    fn outcome(traced: bool, fingerprint: &str, wall: f64) -> Outcome {
        let values = BTreeMap::from([("wall_s".to_string(), wall)]);
        Outcome { traced, rep: Ok(RepLine { fingerprint: fingerprint.to_string(), values }) }
    }

    #[test]
    fn divergent_and_failed_repetitions_count_as_errors() {
        let s = summarize(vec![
            outcome(false, "aa", 1.0),
            outcome(false, "aa", 3.0),
            outcome(false, "bb", 10.0),
            Outcome { traced: false, rep: Err("cycle cap".to_string()) },
            outcome(true, "aa", 2.2),
        ]);
        assert_eq!((s.attempted, s.failed()), (5, 2));
        assert_eq!(s.fingerprint.as_deref(), Some("aa"));
        assert_eq!(s.end_to_end["wall_s"].median, 2.0, "the divergent rep is excluded");
        assert!((s.per_layer["trace.overhead_frac"].median - 0.1).abs() < 1e-12);
    }

    /// `BENCHMARK.json` at the repository root describes this binary.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((field(j, "name"), field(j, "why")), (spec.name.into(), spec.why.into()));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), metrics::across_seeds().count());
        for (j, def) in e2e.iter().zip(metrics::across_seeds()) {
            assert_eq!((field(j, "name"), field(j, "unit")), (def.name.into(), def.unit.into()));
            assert_eq!(field(j, "better"), def.better.name());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!((field(j, "name"), field(j, "unit")), (def.name.into(), def.unit.into()));
            assert_eq!(field(j, "better"), def.better.name());
        }
    }
}
