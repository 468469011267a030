//! Order statistics, the result line and the metric-name rules.

use std::collections::BTreeMap;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of ascending `sorted`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples give {}",
            (q * 100.0).round(),
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values` after dropping the lowest and the highest tenth
/// (rounded down); 0 when empty.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() || values.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
        return Err(format!(
            "geometric mean needs positive values, got {values:?}"
        ));
    }
    Ok((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Share of attempted requests that failed, were refused or were rejected
/// by an oracle.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one run: request accounting plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and sanity rejections, one line each.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Removes the metrics named in `names` and returns them.
    pub fn take(&mut self, names: &[(&str, &str)]) -> BTreeMap<String, f64> {
        names
            .iter()
            .filter_map(|(name, _)| self.metrics.remove_entry(*name))
            .collect()
    }

    /// Counts one request whose output an oracle rejected.
    pub fn reject(&mut self, why: String) {
        self.failed += 1;
        self.error(why);
    }

    /// Records a problem that is not tied to one request.
    pub fn error(&mut self, why: String) {
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: `declared` fixes the metric set, its order and the
    /// units. A missing, extra, unnamed or non-finite metric makes the
    /// report incorrect instead of printing a partial set.
    pub fn result_line(&mut self, declared: &[(&str, &str)]) -> String {
        let mut problems = Vec::new();
        for name in self.metrics.keys() {
            if !declared.iter().any(|(d, _)| d == name) {
                problems.push(format!("undeclared metric {name}"));
            }
        }
        let mut entries = Vec::new();
        for (name, unit) in declared {
            if !valid_name(name) {
                problems.push(format!("illegal metric name {name:?}"));
            }
            match self.metrics.get(*name) {
                Some(v) if v.is_finite() => {
                    entries.push(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ));
                }
                Some(v) => problems.push(format!("metric {name} is {v}")),
                None => problems.push(format!("metric {name} missing")),
            }
        }
        for problem in problems {
            self.error(problem);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        for (name, _) in crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER)
            .chain(crate::UNLISTED)
        {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<&str> = crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (name, unit) in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            declared.len() + json.matches("\"why\": ").count()
        );
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(
            quantile(&values, 0.9).is_err(),
            "99 samples leave 9 beyond p90"
        );
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.9), Ok(90.0));
        assert_eq!(quantile(&values, 0.5), Ok(50.0));
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn geomean_median_and_trimmed_mean_arithmetic() {
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_err());
        assert!(geomean(&[]).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
        let mut values: Vec<f64> = (1..=8).map(f64::from).collect();
        values.extend([-100.0, 1000.0]);
        assert_eq!(trimmed_mean(&values), 4.5, "one tenth cut at each end");
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn a_forced_wrong_output_is_counted() {
        let mut report = Report {
            attempted: 4,
            ..Report::default()
        };
        report.set("a", 1.0);
        assert_eq!(failed_frac(report.attempted, report.failed), 0.0);
        report.reject("request 2: expectation off by 0.5".to_string());
        assert_eq!(failed_frac(report.attempted, report.failed), 0.25);
        let line = report.result_line(&[("a", "ms")]);
        assert!(!report.correct());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
    }

    #[test]
    fn report_refuses_missing_and_extra_metrics() {
        let mut report = Report {
            attempted: 1,
            ..Report::default()
        };
        report.set("a", 1.5);
        let line = report.result_line(&[("a", "ms")]);
        assert!(report.correct());
        assert!(line.ends_with("\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"));

        report.set("b", 2.0);
        report.result_line(&[("a", "ms")]);
        assert!(!report.correct(), "extra metric accepted");

        let mut report = Report {
            attempted: 1,
            ..Report::default()
        };
        report.result_line(&[("a", "ms")]);
        assert!(!report.correct(), "missing metric accepted");
    }
}
