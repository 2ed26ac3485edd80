//! Metric collection, percentiles, peak RSS and the JSON result lines.

use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// Run facts (seed, sizes, clients, sample counts), printed verbatim.
    pub info: Vec<(String, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer (plus rejected
    /// replies and failovers on the networked workload).
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Record one checked operation.
    pub fn outcome(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Count a failure that is not tied to a single operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Median and the highest percentile with ≥ 10 samples beyond it
    /// (p90 from 100 samples), plus the sample count, under `prefix`.
    pub fn latency(&mut self, prefix: &str, samples: &[Duration]) {
        let ms = sorted(samples, 1e3);
        self.metric(&format!("{prefix}_p50_ms"), percentile(&ms, 0.5), "ms");
        self.metric(&format!("{prefix}_p90_ms"), percentile(&ms, 0.9), "ms");
        self.info(&format!("{prefix}_samples"), samples.len());
    }
}

/// A sample of durations in the given scale (1e3 = ms), ascending.
fn sorted(samples: &[Duration], scale: f64) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * scale).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample of durations, in the given scale (1e3 = ms).
pub fn median(samples: &[Duration], scale: f64) -> f64 {
    percentile(&sorted(samples, scale), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Render a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a number as JSON (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over the given metrics.
pub fn json_metrics<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
