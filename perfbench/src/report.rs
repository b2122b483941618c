//! Order statistics and the one-line JSON result.

/// The `q`-quantile (`0.0..=1.0`) of `xs` by the nearest-rank rule;
/// `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The interquartile mean: the mean of what is left after dropping the
/// lowest and the highest quarter of `xs`.
pub fn iq_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Per group, the median; then the interquartile mean over the groups
/// that have any values.
pub fn iq_mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    iq_mean(&medians)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Operations attempted and failed, summed over every stage of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |m| m.1)
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|m| m.0).collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`. A
    /// metric that could not be measured is written as `null`.
    pub fn to_json(&self, tally: Tally) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert!(median(&[]).is_nan());
        assert_eq!(iq_mean(&[1.0, 100.0, 2.0, 3.0, 4.0, -50.0, 2.0, 3.0]), 2.5);
        assert_eq!(iq_mean(&[7.0]), 7.0);
        assert_eq!(
            iq_mean_of_medians(&[vec![1.0, 3.0, 2.0], vec![], vec![5.0]]),
            3.5
        );
    }

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("rounds", 12.0, "rounds");
        let t = Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            m.to_json(t),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"rounds\": {\"value\": 12.0, \"unit\": \"rounds\"}}}"
        );
    }
}
