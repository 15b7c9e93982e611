//! Sample statistics and the metric report the benchmark prints.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[k]
    } else {
        0.5 * (s[k - 1] + s[k])
    })
}

/// Nearest-rank `p`-th percentile (`0 < p < 1`) of `xs`, reported only when
/// at least [`MIN_TAIL`] samples lie beyond it. With fewer, a tail estimate
/// is one or two unlucky samples, not a percentile.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile rank must lie in (0, 1)");
    let n = xs.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < MIN_TAIL {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// Samples a reported percentile must have beyond it.
pub const MIN_TAIL: usize = 10;

/// One named metric: its value, unit, and how many samples produced it
/// (1 for a count or a single measurement).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in emission order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record `name`; panics on a duplicate or malformed name, since both
    /// are bugs in this benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        assert!(valid_name(&name), "malformed metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record the median of `xs` (skipped when `xs` is empty).
    pub fn put_median(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        if let Some(v) = median(xs) {
            self.put(name, v, unit, xs.len());
        }
    }

    /// The detailed report line: every metric with unit and sample count.
    pub fn detail_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// as `{value, unit}` objects.
    pub fn result_json(&self, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            body.join(", ")
        )
    }
}

/// A metric or span name: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// JSON number with every digit Rust's shortest round-trip form gives
/// (non-finite values, which JSON cannot carry, become `null`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank 990 leaves exactly 10 samples above it.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("core.dyn_fallback.region_cap"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_panics() {
        let mut r = Report::default();
        r.put("a", 1.0, "s", 1);
        r.put("a", 2.0, "s", 1);
    }

    #[test]
    fn json_lines_carry_every_metric_once() {
        let mut r = Report::default();
        r.put("solve_s", 0.25, "s", 9);
        r.put("aux_bytes", 1024.0, "bytes", 1);
        let detail = r.detail_json("chain", 7, false);
        assert!(detail.contains("\"solve_s\": {\"value\": 0.25, \"unit\": \"s\", \"samples\": 9}"));
        assert!(detail
            .contains("\"aux_bytes\": {\"value\": 1024.0, \"unit\": \"bytes\", \"samples\": 1}"));
        let result = r.result_json(10, 0);
        assert!(result.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(result.matches("\"unit\"").count(), 2);
        assert!(r.result_json(10, 1).starts_with("{\"correct\": false"));
    }
}
