//! The evaluation's claims as predicates over the experiment tables.
//!
//! Each [`Claim`] quotes a "Paper claim" or "Holds." sentence of
//! EXPERIMENTS.md and checks it against its experiment's [`Table`].
//! Thresholds come from the sentence; a number quoted to one decimal
//! ("2.7-3.2x") is compared after rounding the measurement likewise. A
//! claim the current build does not meet stays, with
//! [`Expect::Diverges`] quoting the measured evidence, so a run fails
//! whenever an outcome changes in either direction.

use std::ops::RangeInclusive;

use super::studies::PHASE_COLS;
use super::{Arm, Table};
use wormdsm_sim::json::{self, ToJson};

/// What a claim is expected to do on the current build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The predicate holds.
    Holds,
    /// The predicate fails; the text quotes the measured evidence.
    Diverges(&'static str),
}

/// One claim and its predicate.
pub struct Claim {
    /// Unique id: the experiment id, a dot, a name.
    pub id: &'static str,
    /// The claim, quoting its source sentence.
    pub text: &'static str,
    /// The predicate; `Err` carries the measured counter-evidence.
    pub check: fn(&Table) -> Result<(), String>,
    /// Expected outcome in the full and the quick arm.
    pub expect: [Expect; 2],
}

impl Claim {
    /// The id of the experiment whose table the predicate reads.
    pub fn experiment(&self) -> &'static str {
        self.id.split('.').next().unwrap_or(self.id)
    }
}

/// The outcome of one claim on one run.
pub struct Verdict {
    /// The claim checked.
    pub claim: &'static Claim,
    /// What it was expected to do in this arm.
    pub expect: Expect,
    /// What the predicate returned.
    pub outcome: Result<(), String>,
}

impl Verdict {
    /// True when the outcome is the expected one.
    pub fn matches(&self) -> bool {
        self.outcome.is_ok() == (self.expect == Expect::Holds)
    }

    /// `"holds"` or `"diverges"`.
    pub fn outcome_name(&self) -> &'static str {
        ["diverges", "holds"][self.outcome.is_ok() as usize]
    }
}

/// One JSON object.
impl ToJson for Verdict {
    fn write_json(&self, out: &mut String) {
        let (expect, evidence) = match self.expect {
            Expect::Holds => ("holds", None),
            Expect::Diverges(e) => ("diverges", Some(e)),
        };
        json::object(out, |o| {
            o.field("id", self.claim.id).field("text", self.claim.text).field("expect", expect);
            o.field("evidence", evidence).field("outcome", self.outcome_name());
            o.field("detail", self.outcome.as_ref().err());
        });
    }
}

/// Check every claim whose experiment is among `tables`, in claim order.
pub fn check(arm: Arm, tables: &[Table]) -> Vec<Verdict> {
    let table = |c: &Claim| tables.iter().find(|t| t.id == c.experiment());
    let verdict = |c: &'static Claim, t| Verdict {
        claim: c,
        expect: c.expect[arm as usize],
        outcome: (c.check)(t),
    };
    CLAIMS.iter().filter_map(|c| table(c).map(|t| verdict(c, t))).collect()
}

/// `Err` naming every claim whose outcome differs from its expectation.
pub fn mismatches(verdicts: &[Verdict]) -> Result<(), String> {
    let bad = verdicts.iter().filter(|v| !v.matches()).map(|v| match &v.outcome {
        Ok(()) => format!("claim {} holds but was expected to diverge", v.claim.id),
        Err(e) => format!("claim {} diverges: {e}", v.claim.id),
    });
    let bad: Vec<String> = bad.collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

/// `Ok` when every case holds, else the first three failures and a count.
fn fails(cases: impl IntoIterator<Item = (bool, String)>) -> Result<(), String> {
    let bad: Vec<String> = cases.into_iter().filter(|c| !c.0).map(|c| c.1).collect();
    match bad.len() {
        0 => Ok(()),
        1..=3 => Err(bad.join("; ")),
        n => Err(format!("{}; and {} more", bad[..3].join("; "), n - 3)),
    }
}

fn round(x: f64, decimals: i32) -> f64 {
    let p = 10f64.powi(decimals);
    (x * p).round() / p
}

fn n(s: &str) -> f64 {
    s.parse().unwrap_or(f64::NAN)
}

/// The multidestination-acknowledgement family: the MI-MA schemes and DPM.
fn is_mi_ma(scheme: &str) -> bool {
    scheme.starts_with("MI-MA") || scheme == "DPM"
}

const ECUBE_MI_MA: [&str; 3] = ["MI-MA(col)", "MI-MA(tree)", "MI-MA(2ph)"];

fn e1_messages(t: &Table) -> Result<(), String> {
    fails(t.rows.iter().filter(|r| r[1] == "UI-UA" || r[1] == "MI-MA(col)").map(|r| {
        let (hs, hr, k) =
            (t.at(r, "home sends"), t.at(r, "home recvs"), n(r[0].split('x').next().unwrap_or("")));
        let ok = if r[1] == "UI-UA" { hs == n(&r[2]) } else { hs <= 2.0 * k };
        (ok && hr == hs, format!("{} {} d={}: {hs:.1} sends, {hr:.1} receives", r[0], r[1], r[2]))
    }))
}

/// In a sweep table, every scheme of `schemes` below UI-UA (`below`) or
/// above it at every `d` in `ds`.
fn vs_ui_ua(
    t: &Table,
    ds: RangeInclusive<f64>,
    schemes: &[&str],
    below: bool,
) -> Result<(), String> {
    let rows = t.rows.iter().filter(|r| ds.contains(&n(&r[1])));
    fails(rows.flat_map(|r| {
        schemes.iter().map(|s| {
            let (v, u) = (t.at(r, s), t.at(r, "UI-UA"));
            (if below { v < u } else { v > u }, format!("d={}: {s} {v:.1} vs UI-UA {u:.1}", r[1]))
        })
    }))
}

/// At row `key`, UI-UA's value over each scheme's, rounded to one decimal,
/// lies in `range`.
fn ratio(
    t: &Table,
    key: &[&str],
    schemes: &[&str],
    range: RangeInclusive<f64>,
) -> Result<(), String> {
    let u = t.num(key, "UI-UA");
    fails(schemes.iter().map(|s| {
        let v = t.num(key, s);
        (range.contains(&round(u / v, 1)), format!("{s} {u:.1}/{v:.1} = {:.2}x", u / v))
    }))
}

fn e4_2d(t: &Table) -> Result<(), String> {
    fails(t.rows.iter().filter(|r| r[0] == "home msgs").map(|r| {
        let v = t.at(r, "UI-UA");
        (v == 2.0 * n(&r[1]) + 2.0, format!("d={}: {v}", r[1]))
    }))
}

fn e4_busy_order(t: &Table) -> Result<(), String> {
    let mut cases = vec![];
    for m in t.rows.iter().filter(|r| r[0] == "home msgs") {
        let busy = |s: &str| t.num(&["DC busy", &m[1]], s);
        let schemes = &t.cols[t.keys..];
        for (a, b) in schemes.iter().flat_map(|a| schemes.iter().map(move |b| (a, b))) {
            let (ma, mb, ba, bb) = (t.at(m, a), t.at(m, b), busy(a), busy(b));
            if ma < mb {
                let why = format!("d={}: {a} {ma} msgs < {b} {mb}, but {ba} > {bb} DC busy", m[1]);
                cases.push((ba <= bb, why));
            }
        }
    }
    fails(cases)
}

fn e7_flat(t: &Table) -> Result<(), String> {
    fails(t.rows.iter().filter(|r| r[2] == "1").map(|r| {
        let l = ["1", "2", "4", "8"].map(|b| t.num(&[&r[0], &r[1], b], "latency (cy)"));
        let why = format!("{}/{}: {l:?} at 1/2/4/8 buffers", r[0], r[1]);
        (l[2] == l[3] && l[1] > l[2] && l[0] > l[1], why)
    }))
}

fn e7b_vct(t: &Table) -> Result<(), String> {
    let parks = t.num(&["MI-MA(2ph)", "vct"], "parks");
    let outcomes = t.rows.iter().map(|r| {
        let ok = match (r[0].as_str(), r[1].as_str()) {
            ("MI-MA(2ph)", "block") => r[2].starts_with("workload incomplete after"),
            _ => r[2] == "completed",
        };
        (ok, format!("{}/{}: {}", r[0], r[1], r[2]))
    });
    fails(outcomes.chain([(parks > 0.0, format!("MI-MA(2ph)/vct parked {parks} gathers"))]))
}

fn e8_four(t: &Table) -> Result<(), String> {
    fails(["8", "24"].map(|len| {
        let b = t.num(&[len, "4"], "blocked (cy)");
        (b == 0.0, format!("{len}-flit worms: {b} blocked cycles at 4 channels"))
    }))
}

const E9_SCHEMES: [&str; 4] = ["UI-UA", "MI-UA(col)", "MI-MA(col)", "MI-MA(wf)"];
const E9_GAPS: [&str; 4] = ["0", "50", "150", "400"];

fn e9_rise(t: &Table) -> Result<(), String> {
    let lat = |s: &str, g: &str| t.num(&[s, g], "latency (cy)");
    fails(E9_SCHEMES.map(|s| {
        let peak = E9_GAPS.map(|g| (lat(s, g), g)).into_iter().max_by(|a, b| a.0.total_cmp(&b.0));
        let ((v, g), idle) = (peak.unwrap_or_default(), lat(s, "idle"));
        let pct = round((v / idle - 1.0) * 100.0, 0);
        ((40.0..=70.0).contains(&pct), format!("{s} {v:.1} at gap {g} vs {idle:.1} idle (+{pct}%)"))
    }))
}

fn e9_order(t: &Table) -> Result<(), String> {
    let lat = |s: &str, g: &str| t.num(&[s, g], "latency (cy)");
    let mut cases = vec![];
    for (g, a, b) in
        E9_GAPS.iter().flat_map(|g| E9_SCHEMES.map(|a| E9_SCHEMES.map(|b| (g, a, b)))).flatten()
    {
        let (la, lb, ia, ib) = (lat(a, g), lat(b, g), lat(a, "idle"), lat(b, "idle"));
        if ia < ib {
            cases.push((la <= lb, format!("gap {g}: {a} {la} vs {b} {lb}, idle {ia} vs {ib}")));
        }
    }
    fails(cases)
}

const E10_REMOTE: [&str; 3] = [
    "clean read miss, neighboring node",
    "clean read miss, corner-to-corner",
    "dirty read miss (cache-to-cache)",
];

fn e10_range(t: &Table) -> Result<(), String> {
    fails(E10_REMOTE.map(|s| {
        let ns = t.num(&[s], "ns");
        ((560.0..=1080.0).contains(&ns), format!("{s}: {ns} ns"))
    }))
}

fn e10_breakdown(t: &Table) -> Result<(), String> {
    let terms = t.rows.iter().filter(|r| r[0].starts_with("breakdown:"));
    let sum: f64 = terms.map(|r| t.at(r, "cycles")).sum();
    let miss = t.num(&[E10_REMOTE[0]], "cycles");
    fails([(sum == miss, format!("the terms sum to {sum} cycles, the miss measures {miss}"))])
}

/// The distinct first-key cells of a table, in row order.
fn groups(t: &Table) -> Vec<&str> {
    let mut g: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
    g.dedup();
    g
}

fn e11_order(t: &Table) -> Result<(), String> {
    fails(groups(t).into_iter().map(|app| {
        let rows = || t.rows.iter().filter(move |r| r[0] == app);
        let norms = |f: fn(&str) -> bool| rows().filter(move |r| f(&r[1])).map(|r| t.at(r, "norm"));
        let ma = norms(is_mi_ma).fold(f64::MIN, f64::max);
        let ua = norms(|s| s.starts_with("MI-UA"))
            .fold((f64::MAX, f64::MIN), |a, v| (a.0.min(v), a.1.max(v)));
        let why = format!("{app}: slowest MI-MA {ma:.3}, MI-UA {:.3}-{:.3}", ua.0, ua.1);
        (ma < ua.0 && ua.1 < 1.0, why)
    }))
}

/// The phase of H5 row `app`/`scheme` that takes the most cycles.
fn largest_phase<'a>(t: &'a Table, app: &str, scheme: &str) -> &'a str {
    let phase = |c: &&'a str| t.num(&[app, scheme], c);
    PHASE_COLS.iter().max_by(|a, b| phase(a).total_cmp(&phase(b))).copied().unwrap_or("")
}

fn h5_ui_ua_body(t: &Table) -> Result<(), String> {
    fails(groups(t).into_iter().map(|app| {
        let big = largest_phase(t, app, "UI-UA");
        (big == "body", format!("{app}: UI-UA's largest phase is {big}"))
    }))
}

fn h5_mi_ua_ack(t: &Table) -> Result<(), String> {
    let cases = groups(t).into_iter().flat_map(|app| {
        let v = move |s: &str, c: &str| t.num(&[app, s], c);
        ["MI-UA(col)", "MI-UA(wf)"].map(|s| {
            let (cut, big) = (v("UI-UA", "body") / v(s, "body"), largest_phase(t, app, s));
            let ok = round(cut, 0) == 2.0 && big == "ack" && v(s, "ack") > v("UI-UA", "ack");
            let why = format!(
                "{app}: UI-UA/{s} body {cut:.2}x, {s}'s largest phase {big}, ack {:.1} vs UI-UA {:.1}",
                v(s, "ack"),
                v("UI-UA", "ack")
            );
            (ok, why)
        })
    });
    fails(cases)
}

fn h5_only_mi_ma(t: &Table) -> Result<(), String> {
    fails(t.rows.iter().filter(|r| r[1] != "UI-UA").map(|r| {
        let ui = |c: &str| t.num(&[&r[0], "UI-UA"], c);
        let (body, ack) = (t.at(r, "body"), t.at(r, "ack"));
        let both = body < ui("body") && ack < ui("ack");
        (both == is_mi_ma(&r[1]), format!("{} {}: body {body:.1}, ack {ack:.1}", r[0], r[1]))
    }))
}

fn h5_tree(t: &Table) -> Result<(), String> {
    fails(groups(t).into_iter().map(|app| {
        let v = |s: &str, c: &str| t.num(&[app, s], c);
        let (tb, cb, td, cd) = (
            v("MI-MA(tree)", "body"),
            v("MI-MA(col)", "body"),
            v("MI-MA(tree)", "dest"),
            v("MI-MA(col)", "dest"),
        );
        let why = format!("{app}: tree body {tb:.1} vs col {cb:.1}, dest {td:.1} vs {cd:.1}");
        (tb < cb && td > cd, why)
    }))
}

/// UI-UA over MI-MA(col) latency at each mesh's largest sharer count,
/// by mesh side.
fn h6_ratios(t: &Table) -> Vec<(usize, f64)> {
    let ratio = |m: &str| {
        let r = t.rows.iter().rev().find(|r| r[0] == m)?;
        let k = m.split('x').next()?.parse().ok()?;
        Some((k, t.at(r, "UI-UA") / t.at(r, "MI-MA(col)")))
    };
    groups(t).into_iter().filter_map(ratio).collect()
}

fn h6_widens(t: &Table) -> Result<(), String> {
    let r: Vec<_> = h6_ratios(t).into_iter().filter(|&(k, _)| k <= 64).collect();
    let mut cases = vec![(r.len() >= 2, format!("{} meshes up to k=64", r.len()))];
    cases.extend(r.windows(2).map(|w| {
        (w[1].1 > w[0].1, format!("k={}: {:.2}x, k={}: {:.2}x", w[0].0, w[0].1, w[1].0, w[1].1))
    }));
    fails(cases)
}

fn h6_dips(t: &Table) -> Result<(), String> {
    let r = h6_ratios(t);
    let at = |k| r.iter().find(|x| x.0 == k).map(|x| x.1);
    match (at(64), at(128)) {
        (Some(a), Some(b)) => fails([(b < a, format!("k=64: {a:.2}x, k=128: {b:.2}x"))]),
        _ => Err("no k=64 and k=128 rows".to_string()),
    }
}

fn h9_ada_wins(t: &Table) -> Result<(), String> {
    let lat = |p: &str, s: &str| t.num(&[p, s], "mean lat");
    let wins =
        ["row", "cluster", "hot-column"].map(|p| (p, lat(p, "MI-MA(ada)"), lat(p, "MI-MA(col)")));
    if wins.iter().any(|w| w.1 < w.2) {
        Ok(())
    } else {
        Err(format!("MI-MA(ada) vs MI-MA(col): {wins:?}"))
    }
}

fn h9_row_body(t: &Table) -> Result<(), String> {
    let col = t.num(&["row", "MI-MA(col)"], "body");
    fails(["DPM", "MI-MA(ada)"].map(|s| {
        let b = t.num(&["row", s], "body");
        (b < col, format!("row: {s} body {b:.1} vs MI-MA(col) {col:.1}"))
    }))
}

fn h9_hot(t: &Table) -> Result<(), String> {
    let lat = |s: &str| t.num(&["hot-column", s], "mean lat");
    let (ada, col, dpm) = (lat("MI-MA(ada)"), lat("MI-MA(col)"), lat("DPM"));
    fails([
        (ada < col, format!("MI-MA(ada) {ada:.1} vs MI-MA(col) {col:.1}")),
        (round(dpm / ada, 1) == 1.4, format!("DPM {dpm:.1}/{ada:.1} = {:.2}x", dpm / ada)),
    ])
}

const HOLDS: [Expect; 2] = [Expect::Holds; 2];

/// Every claim, in experiment order.
pub static CLAIMS: [Claim; 25] = [
    Claim {
        id: "E1.messages",
        text: "\"`2d` messages for UI-UA vs. `O(groups)` for MI-MA\": UI-UA sends d and receives d; MI-MA(col) receives one gather per column group it sends to, at most 2k groups on a k x k mesh (a column splits at most once, at the home row).",
        check: e1_messages,
        expect: HOLDS,
    },
    Claim {
        id: "E2.crossover",
        text: "\"the MI-MA schemes flatten once per-column worms amortize (crossover around d≈4-8)\": MI-MA(col), MI-MA(tree) and MI-MA(2ph) below UI-UA at every d >= 8.",
        check: |t| vs_ui_ua(t, 8.0..=f64::INFINITY, &ECUBE_MI_MA, true),
        expect: HOLDS,
    },
    Claim {
        id: "E2.serpentine-small-d",
        text: "\"the serpentine schemes pay long single-worm paths at small d\": MI-UA(wf) and MI-MA(wf) above UI-UA for 2 <= d <= 8.",
        check: |t| vs_ui_ua(t, 2.0..=8.0, &["MI-UA(wf)", "MI-MA(wf)"], false),
        expect: HOLDS,
    },
    Claim {
        id: "E2.ratio-d48",
        text: "\"At d=48 MI-MA cuts latency 2.2-2.6x.\" (the e-cube MI-MA schemes: col, tree, 2ph)",
        check: |t| ratio(t, &["inval lat", "48"], &ECUBE_MI_MA, 2.2..=2.6),
        expect: [Expect::Diverges("MI-MA(col) 576.4/273.4 = 2.11x and MI-MA(2ph) 576.4/274.5 = 2.10x; only MI-MA(tree), 2.60x, is in range"), Expect::Holds],
    },
    Claim {
        id: "E4.ui-ua-2d-plus-2",
        text: "\"UI-UA = `2d + 2` exactly\" home messages per transaction, request and grant included.",
        check: e4_2d,
        expect: HOLDS,
    },
    Claim {
        id: "E4.wf-plateau",
        text: "\"MI-MA(wf) plateaus near ~18 messages at d=48 (5.4x reduction)\": UI-UA/MI-MA(wf) home messages at d=48 is at least 5.4x.",
        check: |t| ratio(t, &["home msgs", "48"], &["MI-MA(wf)"], 5.4..=f64::INFINITY),
        expect: HOLDS,
    },
    Claim {
        id: "E4.busy-order",
        text: "\"DC busy cycles (E4b) track the same ordering\": at every d, a scheme with fewer home messages never has more DC busy cycles.",
        check: e4_busy_order,
        expect: [
            Expect::Diverges("26 inverted pairs, e.g. d=8: MI-MA(tree) 9.8 home msgs < MI-MA(2ph) 11.3, but 66.0 > 64.2 DC busy cycles"),
            Expect::Diverges("14 inverted pairs, e.g. d=4: MI-MA(tree) 8.4 home msgs < MI-MA(2ph) 8.8, but 53.6 > 50.4 DC busy cycles"),
        ],
    },
    Claim {
        id: "E5.ratio-d48",
        text: "\"2.7-3.2x traffic reduction at d=48\", for the schemes it names: MI-MA(col) and MI-MA(tree).",
        check: |t| ratio(t, &["flit-hops", "48"], &["MI-MA(col)", "MI-MA(tree)"], 2.7..=3.2),
        expect: [Expect::Holds, Expect::Diverges("5 trials: MI-MA(col) 3830.4/1457.6 = 2.63x (the full arm's 20 trials give 2.68x)")],
    },
    Claim {
        id: "E7.flat-at-4",
        text: "\"a small set of invalidation-acknowledgment (i-ack) buffers (2-4)\"; \"latency flattens exactly at 4 buffers\": equal at 4 and 8, higher at 2, higher still at 1, for both schemes and modes.",
        check: e7_flat,
        expect: HOLDS,
    },
    Claim {
        id: "E7b.vct-needed",
        text: "\"with VCT deferred delivery, MI-MA(2ph) parks [gathers] and completes ...; in Block mode the same run wedges\": MI-MA(2ph)/block ends in the deadline error (`workload incomplete after … cycles`), every other run completes, and MI-MA(2ph)/vct parks.",
        check: e7b_vct,
        expect: HOLDS,
    },
    Claim {
        id: "E8.no-blocking-at-4",
        text: "\"No hold-and-wait blocking remains at 4 channels\": 0 blocked cycles at 4 channels for both worm lengths.",
        check: e8_four,
        expect: HOLDS,
    },
    Claim {
        id: "E9.rise",
        text: "\"invalidation latency rises ~40-70% over idle for all schemes\" (each scheme's peak over the loaded gaps).",
        check: e9_rise,
        expect: [
            Expect::Diverges("MI-UA(col) 323.8 at gap 0 vs 167.6 idle (+93%), MI-MA(col) +76%, MI-MA(wf) +72%; only UI-UA, +62%, is in range"),
            Expect::Diverges("2 probes: MI-UA(col) 286.5 at gap 50 vs 159.5 idle (+80%), MI-MA(col) +85%"),
        ],
    },
    Claim {
        id: "E9.order",
        text: "\"ordering between schemes is preserved\" at every load.",
        check: e9_order,
        expect: [
            Expect::Diverges("gap 0: MI-UA(col) 323.8 vs UI-UA 259.0, while idle it measures 167.6 vs 174.0"),
            Expect::Diverges("2 probes, gap 50: MI-MA(col) 283.5 vs UI-UA 267.5, while idle it measures 153.0 vs 159.5"),
        ],
    },
    Claim {
        id: "E10.remote-range",
        text: "\"Our remote misses land at 0.56-1.08 us\" (neighbor, corner-to-corner and dirty read misses).",
        check: e10_range,
        expect: HOLDS,
    },
    Claim {
        id: "E10.breakdown-sums",
        text: "The Table 5 breakdown of the clean read miss to a neighboring node sums to its measured latency.",
        check: e10_breakdown,
        expect: HOLDS,
    },
    Claim {
        id: "E11.order",
        text: "\"MI-MA > MI-UA > UI-UA ordering holds in every app\": every MI-MA scheme's (and DPM's) normalized time below every MI-UA scheme's, and both below 1.0, in all three apps.",
        check: e11_order,
        expect: HOLDS,
    },
    Claim {
        id: "H5.ui-ua-body",
        text: "\"UI-UA's cost is **body serialization**\": body serialization is UI-UA's largest phase in every application.",
        check: h5_ui_ua_body,
        expect: HOLDS,
    },
    Claim {
        id: "H5.mi-ua-ack",
        text: "\"MI-UA halves that with multidestination i-reserve worms but the saving is eaten by **ack return**\": UI-UA's body phase over each MI-UA scheme's rounds to 2x, and the MI-UA scheme's largest phase is an ack return longer than UI-UA's, in every application.",
        check: h5_mi_ua_ack,
        expect: HOLDS,
    },
    Claim {
        id: "H5.only-mi-ma",
        text: "\"Only MI-MA — multidestination both ways — shrinks both\": a scheme has both its body and its ack phase below UI-UA's exactly when it is an MI-MA scheme or DPM, in every application.",
        check: h5_only_mi_ma,
        expect: HOLDS,
    },
    Claim {
        id: "H5.tree",
        text: "\"The tree variant pushes serialization lower still ... but pays in destination-side stall\": MI-MA(tree)'s body phase below MI-MA(col)'s and its dest phase above, in every application.",
        check: h5_tree,
        expect: HOLDS,
    },
    Claim {
        id: "H6.widens",
        text: "\"the gap widens with sharer count exactly as the paper projects: 1.27x on the paper-era 8x8 mesh, 5.72x at k=64\": UI-UA over MI-MA(col) latency at each mesh's largest sharer count grows with every mesh size up to k=64.",
        check: h6_widens,
        expect: HOLDS,
    },
    Claim {
        id: "H6.dips-at-128",
        text: "\"The k=128 row dips back\": that ratio is lower at k=128 than at k=64.",
        check: h6_dips,
        expect: [Expect::Holds, Expect::Diverges("the quick arm stops at k=32, so it has no k=64 or k=128 row")],
    },
    Claim {
        id: "H9.ada-beats-col",
        text: "\"MI-MA(ada) beats MI-MA(col) on at least one skewed or hot-column pattern\": lower mean latency on the row, cluster or hot-column rows.",
        check: h9_ada_wins,
        expect: HOLDS,
    },
    Claim {
        id: "H9.row-body",
        text: "\"merging drains the body-serialization phase\" on row patterns: DPM's and MI-MA(ada)'s body phase below MI-MA(col)'s.",
        check: h9_row_body,
        expect: HOLDS,
    },
    Claim {
        id: "H9.hot-column",
        text: "\"Adaptive beats not just the static baseline but load-blind DPM by 1.4x\" on the hot column: MI-MA(ada) below MI-MA(col), and DPM over MI-MA(ada) rounds to 1.4x.",
        check: h9_hot,
        expect: [Expect::Holds, Expect::Diverges("2 probes: MI-MA(ada) 130.5 vs MI-MA(col) 128.5, and DPM 201.0/130.5 = 1.54x")],
    },
];
