//! Small numeric and reporting helpers: order statistics, the process
//! high-water RSS, verdict fingerprints and a JSON writer for metric maps.

use std::collections::BTreeMap;
use std::time::Duration;
use wdte_core::{VerificationReport, WatermarkResult};

/// Median of `values` (mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// High-water resident set size of this process in MiB (`VmHWM`), which
/// covers the load generator and every in-process judge and router.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// FNV-1a accumulator over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.eat(u64::from(byte));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of one served verdict vector: every field of every report
/// (so two vectors with equal fingerprints are bit-identical with
/// overwhelming probability), and the rendered message of any per-claim
/// error.
pub fn fingerprint(verdicts: &[WatermarkResult<VerificationReport>]) -> u64 {
    let mut hash = Fnv::new();
    hash.eat(verdicts.len() as u64);
    for verdict in verdicts {
        match verdict {
            Ok(report) => {
                hash.eat(u64::from(report.verified));
                hash.eat(report.bit_agreement.to_bits());
                hash.eat(report.queries_issued as u64);
                hash.eat(report.instance_matches.len() as u64);
                for &matched in &report.instance_matches {
                    hash.eat(u64::from(matched));
                }
            }
            Err(err) => {
                hash.eat(u64::MAX);
                hash.eat_bytes(err.to_string().as_bytes());
            }
        }
    }
    hash.finish()
}

/// One metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in a stable order.
pub type Metrics = BTreeMap<String, Metric>;

/// Renders a number for JSON with every measured digit (`null` for values
/// that are not finite, which JSON cannot carry).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, metric)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(metric.value),
                json_string(metric.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut metrics = Metrics::new();
        metrics.insert(
            "a_ms".into(),
            Metric {
                value: 1.5,
                unit: "ms",
            },
        );
        assert_eq!(
            metrics_json(&metrics),
            r#"{"a_ms": {"value": 1.5, "unit": "ms"}}"#
        );
    }
}
