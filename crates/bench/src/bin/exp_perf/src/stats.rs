//! Sample summaries: median and quartiles, computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them (its default
//! "exclusive" method), so spreads read the same in both.

use crate::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    /// Summary of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Stat> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let (q1, q3) = if n < 2 { (median, median) } else { (quartile(&v, 1), quartile(&v, 3)) };
        Some(Stat { n, median, q1, q3, min, max })
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The summary's JSON object members, without the braces.
    pub fn json_fields(&self) -> String {
        format!(
            "\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}",
            self.n,
            json::num(self.median),
            json::num(self.q1),
            json::num(self.q3),
            json::num(self.min),
            json::num(self.max)
        )
    }

    pub fn from_json(j: &Json) -> Option<Stat> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Stat {
            n: f("n")? as usize,
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
        })
    }
}

/// Quartile `i` (1 or 3) of sorted `v`, `v.len() >= 2`.
fn quartile(v: &[f64], i: usize) -> f64 {
    let (n, m) = (4, v.len() + 1);
    let j = (i * m / n).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let s = Stat::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let s = Stat::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Stat::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Stat::of(&[4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.q3, s.spread()), (1, 4.0, 4.0, 0.0));
        assert!(Stat::of(&[]).is_none());
    }

    #[test]
    fn stat_round_trips_through_json() {
        let s = Stat::of(&[0.25, 1.5, 3.125, 9.0]).unwrap();
        let doc = format!("{{{}}}", s.json_fields());
        assert_eq!(Stat::from_json(&json::parse(&doc).unwrap()), Some(s));
    }
}
