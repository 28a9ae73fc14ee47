//! Estimators and the metric table one run fills in.

use std::collections::BTreeMap;

/// Sorts `samples` and returns their nearest-rank percentile: the smallest
/// sample with at least `q` of the samples at or below it. 0 if there are
/// none.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Linear-interpolation quantile at position `q * (n - 1)` of the sorted
/// values (Python's "inclusive" method). NaN for an empty slice.
pub fn quantile_f(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of the values.
pub fn median_f(values: &[f64]) -> f64 {
    quantile_f(values, 0.5)
}

/// Upper quartile of the values: a diagnostic of closed-loop saturation
/// (`gen.tx_s_upper_quartile`). Where thread placement makes fresh clusters
/// land in a slow or a fast mode, the upper quartile of the repetitions
/// tracks the fast mode unless most repetitions miss it, and unlike the
/// maximum it ignores one lucky outlier. The gated `tx_s` is the median: on
/// one CPU the repetitions have one mode.
pub fn upper_quartile(values: &[f64]) -> f64 {
    quantile_f(values, 0.75)
}

/// True for `[A-Za-z0-9_.-]+` starting with a letter or digit, at most 64
/// characters — the names `BENCHMARK.json` accepts.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics, in name order. Units live in [`crate::schema`].
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Records `name = value`; an unknown or repeated name is a bug in the
    /// bench.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(
            valid_metric_name(name) && crate::schema::unit_of(name).is_some(),
            "metric {name} is not in the schema"
        );
        let old = self.0.insert(name.to_string(), value);
        assert!(old.is_none(), "metric {name} reported twice");
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_of(&mut v, 0.5), 50);
        assert_eq!(percentile_of(&mut v, 0.99), 99);
        assert_eq!(percentile_of(&mut v, 0.999), 100);
        assert_eq!(percentile_of(&mut v, 0.0), 1);
        assert_eq!(percentile_of(&mut v, 1.0), 100);
        assert_eq!(percentile_of(&mut [7], 0.5), 7);
        assert_eq!(percentile_of(&mut [], 0.5), 0);
        assert_eq!(percentile_of(&mut [9, 1, 5], 0.5), 5);
    }

    #[test]
    fn upper_quartile_tracks_the_fast_mode() {
        // Four fast repetitions, two slow: the estimate is a fast one.
        let reps = [29.0, 43.0, 42.0, 30.0, 41.0, 44.0];
        let uq = upper_quartile(&reps);
        assert!((42.0..=43.0).contains(&uq), "{uq}");
        // One lucky outlier does not carry it.
        let reps = [30.0, 30.0, 31.0, 29.0, 30.0, 60.0];
        assert!(upper_quartile(&reps) < 32.0);
        assert_eq!(median_f(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median_f(&[]).is_nan());
    }

    #[test]
    fn metric_names() {
        for ok in ["tx_s", "core.live.submit_ns_p50", "a-b", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
