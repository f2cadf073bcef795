//! `ppbench compare <a>/metrics.tsv <b>/metrics.tsv`: one verdict per
//! (metric, workload) pair.
//!
//! * a bounded (end-to-end) pair is `unresolved` when either set's own
//!   quartile spread ([`own_spread`]) exceeds the bound, `regressed` when
//!   `b` is worse than `a` by more than the bound, `ok` otherwise;
//! * an `exact` count must be identical (`differs` otherwise);
//! * every other per-layer pair is `info`: the ratio, no verdict.
//!
//! Plain TSV in, no JSON reader.

use std::collections::BTreeMap;

use crate::report::{parse_tsv_line, Row};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Differs,
    Info,
}

impl Verdict {
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
            Verdict::Info => "info",
        }
    }

    /// Whether the verdict fails the comparison.
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Differs)
    }
}

/// `b`'s value over `a`'s (the base is `a`); 1 when both are 0.
pub fn ratio(a: &Row, b: &Row) -> f64 {
    if a.value() == b.value() {
        1.0
    } else {
        b.value() / a.value()
    }
}

/// A set's own spread: its quartile distance as a share of its median.
pub fn own_spread(r: &Row) -> f64 {
    let s = &r.summary;
    if s.median == 0.0 {
        return 0.0;
    }
    (s.q3 - s.q1) / s.median.abs()
}

pub fn verdict(a: &Row, b: &Row) -> Verdict {
    if a.exact {
        return if a.value() == b.value() {
            Verdict::Ok
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = a.bound else {
        return Verdict::Info;
    };
    if own_spread(a).max(own_spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let r = ratio(a, b);
    let worse_by = if a.better == "higher" {
        1.0 - r
    } else {
        r - 1.0
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn read_rows(text: &str) -> BTreeMap<(String, String), Row> {
    text.lines()
        .filter_map(parse_tsv_line)
        .map(|r| ((r.workload.clone(), r.metric.clone()), r))
        .collect()
}

/// The comparison table (TSV) and whether any pair fails. A pair present
/// in only one set fails too: the two sets must measure the same things.
pub fn compare(a_text: &str, b_text: &str) -> (String, bool) {
    let (a, b) = (read_rows(a_text), read_rows(b_text));
    let mut out = String::from("workload\tmetric\tunit\ta\tb\tb/a\tbound\tverdict\n");
    let mut failed = false;
    for (key, ra) in &a {
        let Some(rb) = b.get(key) else {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t-\t-\t-\tmissing\n",
                key.0,
                key.1,
                ra.unit,
                ra.value()
            ));
            failed = true;
            continue;
        };
        let v = verdict(ra, rb);
        failed |= v.fails();
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:.4}\t{}\t{}\n",
            key.0,
            key.1,
            ra.unit,
            ra.value(),
            rb.value(),
            ratio(ra, rb),
            ra.bound.map_or("-".to_string(), |x| x.to_string()),
            v.as_str()
        ));
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        out.push_str(&format!("{}\t{}\t-\t-\t-\t-\t-\tmissing\n", key.0, key.1));
        failed = true;
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn row(better: &str, bound: Option<f64>, exact: bool, median: f64, iqr: f64) -> Row {
        Row {
            tier: "e2e".into(),
            workload: "w".into(),
            metric: "m".into(),
            unit: "ms".into(),
            better: better.into(),
            bound,
            exact,
            summary: Summary {
                n: 9,
                median,
                q1: median - iqr / 2.0,
                q3: median + iqr / 2.0,
            },
        }
    }

    #[test]
    fn verdicts() {
        let base = row("lower", Some(0.10), false, 100.0, 2.0);
        assert_eq!(
            verdict(&base, &row("lower", Some(0.10), false, 109.0, 2.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &row("lower", Some(0.10), false, 111.0, 2.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &row("lower", Some(0.10), false, 50.0, 1.0)),
            Verdict::Ok
        );
        // Either side's own spread above the bound: no verdict.
        assert_eq!(
            verdict(&base, &row("lower", Some(0.10), false, 150.0, 30.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&row("lower", Some(0.10), false, 100.0, 12.0), &base),
            Verdict::Unresolved
        );
        let qps = row("higher", Some(0.10), false, 1000.0, 10.0);
        assert_eq!(
            verdict(&qps, &row("higher", Some(0.10), false, 880.0, 10.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&qps, &row("higher", Some(0.10), false, 1500.0, 10.0)),
            Verdict::Ok
        );
        let count = row("lower", None, true, 7612840.0, 0.0);
        assert_eq!(verdict(&count, &count), Verdict::Ok);
        assert_eq!(
            verdict(&count, &row("lower", None, true, 7612841.0, 0.0)),
            Verdict::Differs
        );
        let layer = row("lower", None, false, 3.0, 0.0);
        assert_eq!(
            verdict(&layer, &row("lower", None, false, 30.0, 0.0)),
            Verdict::Info
        );
    }

    #[test]
    fn compare_reads_tsv_and_fails_on_regressions_and_missing_pairs() {
        use crate::report::{tsv_line, TSV_HEADER};
        let a = format!(
            "{TSV_HEADER}\n{}\n",
            tsv_line(&row("lower", Some(0.10), false, 100.0, 2.0))
        );
        let same = compare(&a, &a);
        assert!(!same.1 && same.0.contains("\tok\n"), "{}", same.0);
        let b = format!(
            "{TSV_HEADER}\n{}\n",
            tsv_line(&row("lower", Some(0.10), false, 120.0, 2.0))
        );
        let worse = compare(&a, &b);
        assert!(
            worse.1 && worse.0.contains("1.2000\t0.1\tregressed"),
            "{}",
            worse.0
        );
        assert!(compare(&a, TSV_HEADER).1);
        assert!(compare(TSV_HEADER, &a).1);
    }
}
