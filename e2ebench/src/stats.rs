//! Order statistics and the result line.

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between the two closest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values with their units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`. Panics on a duplicate or illegal name,
    /// or a non-finite value: those are harness bugs.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.entries.push((name.to_string(), value, unit));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// `name value unit` of every metric, for the log.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| format!("{name} {value:.4} {unit}"))
            .collect();
        parts.join(", ")
    }

    /// The recorded names, in order.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.0.as_str())
    }
}

/// The one-line JSON result the harness prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0, 1.0, 5.0]), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 25.0), 2.0);
        assert!(
            (percentile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 99.0) - 99.01).abs() < 1e-9
        );
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "latency_p50_us",
            "core.route_forward_allocs",
            "trace.overhead_share",
            "9x-y",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_lead", "sp ace", "sl/ash", "a\"b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut m = Metrics::default();
        m.put("latency_p50_us", 612.25, "us");
        m.put("setup_s", 0.012, "s");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 612.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.012, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "count");
        m.put("a", 2.0, "count");
    }
}
