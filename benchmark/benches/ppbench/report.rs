//! What a run writes: the contract's last line, `metrics.tsv` rows and
//! `results.json`. TSV is the interchange format (`compare` reads it
//! back); the JSON is written by hand and never read by the harness.

use std::fmt::Write as _;

use crate::plan::MetricDecl;
use crate::stats::Summary;

/// One measured metric of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// `e2e` or `layer`.
    pub tier: String,
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub better: String,
    /// Regression bound (`-` for per-layer metrics).
    pub bound: Option<f64>,
    pub exact: bool,
    /// The samples' count, median and quartiles; the median is the
    /// metric's reported value.
    pub summary: Summary,
}

impl Row {
    pub fn new(tier: &str, workload: &str, decl: &MetricDecl, summary: Summary) -> Self {
        Self {
            tier: tier.to_string(),
            workload: workload.to_string(),
            metric: decl.name.clone(),
            unit: decl.unit.to_string(),
            better: decl.better.as_str().to_string(),
            bound: decl.bound,
            exact: decl.exact,
            summary,
        }
    }

    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

pub const TSV_HEADER: &str =
    "tier\tworkload\tmetric\tunit\tbetter\tbound\texact\tn\tq1\tmedian\tq3";

pub fn tsv_line(r: &Row) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.tier,
        r.workload,
        r.metric,
        r.unit,
        r.better,
        r.bound.map_or("-".to_string(), |b| b.to_string()),
        u8::from(r.exact),
        r.summary.n,
        r.summary.q1,
        r.summary.median,
        r.summary.q3
    )
}

/// Parses one `metrics.tsv` line (`None` for the header or junk).
pub fn parse_tsv_line(line: &str) -> Option<Row> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 11 || f[0] == "tier" {
        return None;
    }
    Some(Row {
        tier: f[0].to_string(),
        workload: f[1].to_string(),
        metric: f[2].to_string(),
        unit: f[3].to_string(),
        better: f[4].to_string(),
        bound: f[5].parse().ok(),
        exact: f[6] == "1",
        summary: Summary {
            n: f[7].parse().ok()?,
            q1: f[8].parse().ok()?,
            median: f[9].parse().ok()?,
            q3: f[10].parse().ok()?,
        },
    })
}

/// A JSON number, every digit as measured. JSON has no NaN/∞: those
/// become `null`, never a number a reader could take for a measurement.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one JSON object the contract wants as the last line of stdout.
/// A run that attempted nothing, or measured a value that is not a finite
/// number, has no result: that is an error, not a line.
pub fn contract_line(attempted: u64, failed: u64, rows: &[Row]) -> Result<String, String> {
    if attempted == 0 {
        return Err("the run attempted no operation".to_string());
    }
    let mut metrics = Vec::new();
    for r in rows {
        if !r.value().is_finite() {
            return Err(format!("{} on {} is {}", r.metric, r.workload, r.value()));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&r.metric),
            num(r.value()),
            json_str(&r.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

/// `results.json`: the run's settings (`meta`, already-JSON values) and
/// every row.
pub fn results_json(meta: &[(String, String)], rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    for (k, v) in meta {
        writeln!(s, "  {}: {v},", json_str(k)).expect("write to String");
    }
    s.push_str("  \"metrics\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"tier\": {}, \"workload\": {}, \"metric\": {}, \"unit\": {}, \"better\": {}, \
             \"bound\": {}, \"exact\": {}, \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}{comma}",
            json_str(&r.tier),
            json_str(&r.workload),
            json_str(&r.metric),
            json_str(&r.unit),
            json_str(&r.better),
            r.bound.map_or("null".to_string(), num),
            r.exact,
            r.summary.n,
            num(r.summary.q1),
            num(r.summary.median),
            num(r.summary.q3)
        )
        .expect("write to String");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::end_to_end;

    #[test]
    fn tsv_rows_round_trip() {
        let decl = &end_to_end()[2];
        let row = Row::new(
            "e2e",
            "rmat-atomic",
            decl,
            Summary {
                n: 9,
                median: 8.25,
                q1: 8.0,
                q3: 8.5,
            },
        );
        assert_eq!(parse_tsv_line(&tsv_line(&row)), Some(row.clone()));
        assert_eq!(parse_tsv_line(TSV_HEADER), None);
        assert_eq!(TSV_HEADER.split('\t').count(), 11);
        assert_eq!(row.value(), 8.25, "the median is the reported value");
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let decl = &end_to_end()[0];
        let row = Row::new("e2e", "w", decl, Summary::single(0.8127));
        let line = contract_line(1000, 0, std::slice::from_ref(&row)).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert!(contract_line(7, 2, std::slice::from_ref(&row))
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 2,"));
    }

    #[test]
    fn a_run_without_operations_or_with_a_non_number_has_no_result() {
        let decl = &end_to_end()[0];
        let row = Row::new("e2e", "w", decl, Summary::single(0.8127));
        assert!(contract_line(0, 0, std::slice::from_ref(&row)).is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            let row = Row::new("e2e", "w", decl, Summary::single(bad));
            assert!(contract_line(10, 0, &[row]).is_err());
        }
    }
}
