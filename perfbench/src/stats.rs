//! Order statistics and the result line.

use std::fmt::Write as _;

/// Linear-interpolation quantile of `values` (`q` in `[0, 1]`), the
/// definition Python's `statistics.quantiles(method="inclusive")` uses.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail percentile: the highest of p99, p95, p90 and p75 that has at
/// least ten samples beyond it, or the median when none has.
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let q = [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|q| (1.0 - q) * n >= 10.0)
        .unwrap_or(0.5);
    quantile(values, q)
}

/// The tail of a long stream of samples: the stream is cut into
/// consecutive windows of at least 1000 samples, so each window's p99
/// has ten samples beyond it, and the median of the windows' tails is
/// reported. One burst of host noise moves one window, not the result.
pub fn windowed_tail(values: &[f64]) -> f64 {
    let windows = (values.len() / 1000).max(1);
    let size = values.len() / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                values.len()
            } else {
                (w + 1) * size
            };
            tail(&values[w * size..end])
        })
        .collect();
    median(&tails)
}

/// First and third quartile distance over the median, as a share.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Interquartile spread of the samples behind `value`, as a share of
    /// their median (0 for a single sample or an exact count).
    pub spread: f64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            spread: 0.0,
        }
    }

    /// The median of `samples`, carrying their spread.
    pub fn median_of(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            name,
            value: median(samples),
            unit,
            spread: spread(samples),
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed (failed operations aside).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Writes `v` as a JSON number; a non-finite value becomes 0 (and an
/// end-to-end result carrying one is marked incorrect).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for JSON.
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

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((tail(&v) - quantile(&v, 0.99)).abs() < 1e-9);
        let v: Vec<f64> = (0..54).map(f64::from).collect();
        assert!((tail(&v) - quantile(&v, 0.75)).abs() < 1e-9);
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&v), median(&v));
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        let mut v = vec![1.0; 4000];
        for x in &mut v[..100] {
            *x = 50.0;
        }
        assert_eq!(windowed_tail(&v), 1.0);
        assert_eq!(windowed_tail(&v[..500]), tail(&v[..500]));
    }
}
