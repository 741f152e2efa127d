//! The arithmetic the harness reports with: medians, the percentile
//! rule, the host-speed correction, and the result line.

use std::fmt::Write as _;

/// Duration of one yardstick run ([`crate::host::Yardstick`]) on the
/// reference host, in nanoseconds. Committed once: every reported time
/// is what the run would have taken on a host on which the yardstick
/// takes exactly this long, so changing it — or the yardstick —
/// rescales every number and invalidates comparison with earlier
/// results.
pub const CALIB_REF_NS: f64 = 400_000.0;

/// `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle ones for an even count);
/// zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail a sample of `n` supports: the highest of p90, p99, p99.9
/// and p99.99 that still has at least ten samples beyond it, falling
/// back to the median for samples too small for any of them.
pub fn supported_tail_pct(n: usize) -> f64 {
    // (percentile, one sample in this many lies beyond it)
    [(99.99, 10_000), (99.9, 1_000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find(|(_, one_in)| n / one_in >= 10)
        .map_or(50.0, |(pct, _)| pct)
}

/// Host-speed correction, one rule for every workload and metric:
///
/// `T_corr = T_wall − C · (1 − CALIB_REF_NS / calib_ns)`
///
/// `cpu` (`C`) is the part of `wall` the process spent on a CPU and
/// `calib_ns` the mean of the yardstick runs interleaved with the
/// measurement. Only the on-CPU share scales with how fast the host is
/// running; time spent waiting (an fsync) is left as measured.
pub fn corrected(wall: f64, cpu: f64, calib_ns: f64) -> f64 {
    wall - cpu * (1.0 - CALIB_REF_NS / calib_ns)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The metrics of one run in reporting order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    /// Prints every metric by name, with its unit.
    pub fn print(&self) {
        for m in &self.0 {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
    }

    /// The value reported under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The result of one run, as the last line of standard output says it.
pub struct RunResult {
    /// Every self-check passed and no operation failed.
    pub correct: bool,
    /// Operations whose reply was examined.
    pub attempted: u64,
    /// Operations refused, errored or answered wrongly.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
}

impl RunResult {
    /// The one-line JSON object the driver parses. Values keep every
    /// digit `f64` formatting yields. A non-finite value cannot be
    /// written as JSON: it is reported as zero and the run as incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.0.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One wild slice does not move the slice-median.
        assert_eq!(median(&[10.0, 10.1, 9.9, 500.0, 10.0]), 10.0);
    }

    #[test]
    fn cpu_bound_correction_reduces_to_scaling_by_ref_over_calib() {
        let (wall, calib) = (130.0, 1.25 * CALIB_REF_NS);
        let got = corrected(wall, wall, calib);
        assert!((got - wall * CALIB_REF_NS / calib).abs() < 1e-9);
        // On a host running at exactly the reference speed nothing moves.
        assert_eq!(corrected(wall, wall, CALIB_REF_NS), wall);
    }

    #[test]
    fn time_spent_off_cpu_is_left_as_measured() {
        assert_eq!(corrected(250.0, 0.0, 1.3 * CALIB_REF_NS), 250.0);
        // Half on CPU: only that half is rescaled.
        let got = corrected(200.0, 100.0, 2.0 * CALIB_REF_NS);
        assert!((got - 150.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond_the_tail() {
        assert_eq!(supported_tail_pct(50), 50.0);
        assert_eq!(supported_tail_pct(100), 90.0);
        assert_eq!(supported_tail_pct(999), 90.0);
        assert_eq!(supported_tail_pct(1_000), 99.0);
        assert_eq!(supported_tail_pct(10_000), 99.9);
        assert_eq!(supported_tail_pct(100_000), 99.99);
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.push("rtt_p50_us", "us", 13.25);
        metrics.push("sat_ops_s", "1/s", 133_000.5);
        let line = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics,
        }
        .to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"rtt_p50_us\": {\"value\": 13.25, \"unit\": \"us\"}, \
             \"sat_ops_s\": {\"value\": 133000.5, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect_not_the_json_invalid() {
        let mut metrics = Metrics::default();
        metrics.push("rtt_p50_us", "us", f64::NAN);
        let line = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics,
        }
        .to_json();
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"value\": 0,"));
    }
}
