//! Order statistics and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank quantile of `xs` (sorted ascending); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Harrell–Davis estimate of the `q` quantile (0 < q < 1) of `xs`
/// (sorted ascending); 0 when empty.
///
/// A weighted mean of every order statistic: rank `i` of `n` weighs
/// the mass a Beta(q(n+1), (1−q)(n+1)) distribution puts on
/// `[(i−1)/n, i/n]`. Where a few samples fall in two clusters a single
/// order statistic jumps from one cluster to the other as the split
/// between them shifts by one sample; this estimate moves smoothly.
pub fn hd_quantile(xs: &[f64], q: f64) -> f64 {
    /// Midpoint-rule points per rank.
    const STEPS: usize = 64;
    let n = xs.len();
    if n <= 1 {
        return xs.first().copied().unwrap_or(0.0);
    }
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let points = n * STEPS;
    let log_pdf: Vec<f64> = (0..points)
        .map(|j| {
            let x = (j as f64 + 0.5) / points as f64;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    // Weights relative to the largest, so none underflows to 0 first.
    let peak = log_pdf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut weights = vec![0.0; n];
    for (j, lp) in log_pdf.iter().enumerate() {
        weights[j / STEPS] += (lp - peak).exp();
    }
    let total: f64 = weights.iter().sum();
    weights.iter().zip(xs).map(|(w, x)| w * x).sum::<f64>() / total
}

/// `durations` in the given unit (seconds per unit), sorted ascending.
pub fn sorted_in(durations: impl IntoIterator<Item = Duration>, unit_secs: f64) -> Vec<f64> {
    let mut v: Vec<f64> = durations.into_iter().map(|d| d.as_secs_f64() / unit_secs).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (any order); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The samples of `after` that are not in `before`, both sorted
/// ascending and `before` a sub-multiset of `after`: the samples a
/// lifetime statistic gained between two snapshots.
pub fn gained(after: &[Duration], before: &[Duration]) -> Vec<Duration> {
    let mut out = Vec::with_capacity(after.len().saturating_sub(before.len()));
    let mut j = 0;
    for &a in after {
        if j < before.len() && before[j] == a {
            j += 1;
        } else {
            out.push(a);
        }
    }
    out
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Attempted and failed counts of one phase, failures by
/// `ServiceError` kind.
#[derive(Clone, Default)]
pub struct PhaseCount {
    /// Operations attempted.
    pub attempted: u64,
    /// Failures by kind.
    pub failed: BTreeMap<&'static str, u64>,
}

impl PhaseCount {
    /// Counts one operation per item: `None` succeeded, `Some(kind)`
    /// failed.
    pub fn of(outcomes: impl IntoIterator<Item = Option<&'static str>>) -> Self {
        let mut c = PhaseCount::default();
        for failure in outcomes {
            c.attempted += 1;
            if let Some(k) = failure {
                *c.failed.entry(k).or_default() += 1;
            }
        }
        c
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: PhaseCount) {
        self.attempted += other.attempted;
        for (k, n) in other.failed {
            *self.failed.entry(k).or_default() += n;
        }
    }

    /// Failures of every kind.
    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    /// `{"attempted": …, "succeeded": …, "failed": …, "failed_by_kind": {…}}`.
    pub fn json(&self) -> String {
        let kinds: Vec<String> = self.failed.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
        format!(
            "{{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"failed_by_kind\": {{{}}}}}",
            self.attempted,
            self.attempted - self.failed_total(),
            self.failed_total(),
            kinds.join(", ")
        )
    }
}

/// Metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds `name` with `value` in `unit`; a non-finite value reads 0.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), v, unit));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn harrell_davis_quantiles() {
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
        assert_eq!(hd_quantile(&[7.0], 0.9), 7.0);
        // Symmetric weights: the median of an arithmetic run is its middle.
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((hd_quantile(&xs, 0.5) - 5.0).abs() < 1e-9);
        assert!(hd_quantile(&xs, 0.9) > 8.0 && hd_quantile(&xs, 0.9) < 9.0);
        // Two clusters split 9 : 9 and 10 : 8: the nearest-rank median
        // jumps from one cluster to the other, this estimate moves less.
        let split = |low: usize| -> Vec<f64> {
            (0..18).map(|i| if i < low { 700.0 } else { 900.0 }).collect()
        };
        let (even, shifted) = (split(9), split(10));
        assert_eq!(quantile(&even, 0.5) - quantile(&shifted, 0.5), 0.0);
        assert_eq!(quantile(&split(8), 0.5) - quantile(&even, 0.5), 200.0);
        let hd_step = hd_quantile(&even, 0.5) - hd_quantile(&shifted, 0.5);
        assert!(hd_step > 0.0 && hd_step < 100.0, "step {hd_step}");
    }

    #[test]
    fn gained_is_a_multiset_difference() {
        let ms = Duration::from_millis;
        let after = [ms(1), ms(1), ms(2), ms(3), ms(5)];
        let before = [ms(1), ms(3)];
        assert_eq!(gained(&after, &before), vec![ms(1), ms(2), ms(5)]);
    }

    #[test]
    fn phase_count_tallies_failures_by_kind() {
        let mut c = PhaseCount::of([None, Some("ShutDown"), None]);
        c.merge(PhaseCount::of([Some("ShutDown")]));
        assert_eq!((c.attempted, c.failed_total()), (4, 2));
        assert_eq!(
            c.json(),
            "{\"attempted\": 4, \"succeeded\": 2, \"failed\": 2, \"failed_by_kind\": {\"ShutDown\": 2}}"
        );
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.add("qps", 12.5, "1/s");
        m.add("fail_ratio", f64::NAN, "ratio");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"qps\": \
             {\"value\": 12.5, \"unit\": \"1/s\"}, \"fail_ratio\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
    }
}
