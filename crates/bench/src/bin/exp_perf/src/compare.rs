//! `--compare A.json B.json`: per workload and end-to-end metric, both
//! medians, both quartile spreads, the change and a verdict.

use crate::json::{self, Json};
use crate::metrics::{self, Better, MetricDef};
use crate::stats::Stat;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// A run-to-run spread exceeds the metric's bound, so the medians
    /// cannot show a change of that size either way.
    Unresolved,
}

/// Verdict on `b` against baseline `a`. Exact metrics (bound 0) must
/// match; a host metric is worse when its median worsens by more than the
/// bound, and better when it improves by more than the baseline's own
/// spread.
pub fn verdict(def: &MetricDef, a: &Stat, b: &Stat) -> Verdict {
    let worse_by = match def.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if def.bound == 0.0 {
        return match worse_by.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Unchanged,
        };
    }
    let base = a.median.abs();
    if a.spread() > def.bound || b.spread() > def.bound {
        let b_beats_all_a = match def.better {
            Better::Lower => b.max < a.min,
            Better::Higher => b.min > a.max,
        };
        return if b_beats_all_a { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse_by > def.bound * base && worse_by > def.floor {
        Verdict::Worse
    } else if -worse_by > a.spread() * base && -worse_by > def.floor {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn meta<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get("run_meta").and_then(|m| m.get(key))
}

fn stat(doc: &Json, workload: &str, metric: &str) -> Option<Stat> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    Stat::from_json(m)
}

/// Host time from machines with different core counts is not comparable.
fn check_comparable(a: &Json, b: &Json) -> Result<(), String> {
    let cores = |d: &Json| meta(d, "host_cores").and_then(Json::as_f64);
    if cores(a).is_none() || cores(a) != cores(b) {
        return Err(format!("refusing to compare: host_cores {:?} vs {:?}", cores(a), cores(b)));
    }
    Ok(())
}

pub fn run(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    check_comparable(&a, &b)?;
    let seed = |d: &Json| meta(d, "seed").and_then(Json::as_f64);
    if seed(&a) != seed(&b) {
        println!(
            "note: seeds differ ({:?} vs {:?}); simulated metrics will too",
            seed(&a),
            seed(&b)
        );
    }
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>8} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "A sprd", "B sprd", "delta"
    );
    for spec in &WORKLOADS {
        for def in metrics::end_to_end() {
            let (Some(sa), Some(sb)) =
                (stat(&a, spec.name, def.name), stat(&b, spec.name, def.name))
            else {
                println!("{:<16} {:<24} missing from a file", spec.name, def.name);
                continue;
            };
            let delta = if sa.median == 0.0 { 0.0 } else { sb.median / sa.median - 1.0 };
            println!(
                "{:<16} {:<24} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>+8.2}%  {:?} ({})",
                spec.name,
                def.name,
                sa.median,
                sb.median,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                100.0 * delta,
                verdict(def, &sa, &sb),
                def.unit
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HOST, SIMULATED};

    fn stat(median: f64, spread: f64) -> Stat {
        let half = median * spread / 2.0;
        Stat {
            n: 10,
            median,
            q1: median - half,
            q3: median + half,
            min: median - 2.0 * half,
            max: median + 2.0 * half,
        }
    }

    #[test]
    fn host_metric_verdicts_respect_bound_and_spread() {
        let wall = &HOST[0]; // wall_s: lower is better
        let (base, b) = (stat(2.0, 0.02), wall.bound);
        assert_eq!(verdict(wall, &base, &stat(2.0 * (1.0 + b / 2.0), 0.02)), Verdict::Unchanged);
        assert_eq!(verdict(wall, &base, &stat(2.0 * (1.0 + 1.5 * b), 0.02)), Verdict::Worse);
        assert_eq!(verdict(wall, &base, &stat(1.9, 0.02)), Verdict::Better);
        assert_eq!(verdict(wall, &base, &stat(1.99, 0.02)), Verdict::Unchanged);
        let wide = stat(2.0, 1.5 * b);
        assert_eq!(verdict(wall, &wide, &stat(2.1, 0.02)), Verdict::Unresolved);
        // Wide spread, but every B run beats every A run.
        assert_eq!(verdict(wall, &wide, &stat(1.0, 0.02)), Verdict::Better);

        let cps = &HOST[1]; // sim_cycles_per_s: higher is better
        assert_eq!(verdict(cps, &base, &stat(2.3, 0.02)), Verdict::Better);
        assert_eq!(verdict(cps, &base, &stat(1.4, 0.02)), Verdict::Worse);
    }

    #[test]
    fn setup_floor_absorbs_millisecond_noise() {
        let setup = &HOST[2];
        assert_eq!(verdict(setup, &stat(0.004, 0.0), &stat(0.008, 0.0)), Verdict::Unchanged);
        assert_eq!(verdict(setup, &stat(0.040, 0.0), &stat(0.080, 0.0)), Verdict::Worse);
    }

    #[test]
    fn refuses_files_from_hosts_with_other_core_counts() {
        let doc = |cores: &str| json::parse(&format!("{{\"run_meta\": {{{cores}}}}}")).unwrap();
        let two = doc("\"host_cores\": 2");
        assert!(check_comparable(&two, &doc("\"host_cores\": 2")).is_ok());
        assert!(check_comparable(&two, &doc("\"host_cores\": 8")).is_err());
        assert!(check_comparable(&doc(""), &doc("")).is_err(), "missing core counts");
    }

    #[test]
    fn exact_metrics_must_match() {
        let cycles = &SIMULATED[0];
        assert_eq!(verdict(cycles, &stat(100.0, 0.0), &stat(100.0, 0.0)), Verdict::Unchanged);
        assert_eq!(verdict(cycles, &stat(100.0, 0.0), &stat(101.0, 0.0)), Verdict::Worse);
        assert_eq!(verdict(cycles, &stat(100.0, 0.0), &stat(99.0, 0.0)), Verdict::Better);
    }
}
