//! Order statistics, metric-name rules and the JSON writer the benchmark
//! reports through.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of `values` by the "exclusive" method
/// (the default of Python's `statistics.quantiles(values, n=4)`), so the
/// spread printed here is the spread a reader recomputes from the raw
/// values. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as f64;
    let cut = |j: f64| {
        let pos = j * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * delta
    };
    Some([cut(1.0), cut(2.0), cut(3.0)])
}

/// Interquartile range as a share of the median (0 when the median is
/// 0 or there are fewer than two values).
pub fn iqr_frac(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// `true` for a metric name the benchmark contract accepts: starts with
/// a letter or digit, at most 64 characters of letters, digits, `_`,
/// `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts a metric unless one of that name is already present (the
/// first pass to measure a layer owns its figure).
pub fn put_first(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    debug_assert!(valid_metric_name(name), "bad metric name {name}");
    metrics
        .entry(name.to_string())
        .or_insert(Metric { value, unit });
}

/// A JSON number with all its digits (`null` is never written: a
/// non-finite value is a benchmark bug).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `{"name": {"value": v, "unit": u}, ...}` object of the result line.
pub fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_frac(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["setup_s", "exp_per_s", "serve.wire.result_s", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "λ", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        let mut m = Metrics::new();
        put_first(&mut m, "a", 1.5, "s");
        put_first(&mut m, "a", 9.0, "s");
        assert_eq!(
            metrics_json(&m),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
    }
}
