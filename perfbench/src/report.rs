//! Failure accounting and the result line.
//!
//! The last line a run prints is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! `failed / attempted` is the workload's fail rate.

use crate::workloads::Pass;

/// The end-to-end metrics every untraced run prints, in `BENCHMARK.json`
/// order: name and unit. (The fail rate is the result line's
/// `failed / attempted`; a metric that is 0 on a healthy run cannot carry
/// a relative bound.)
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Whether `name` is a valid metric name: non-empty, at most 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Attempted and failed operations, with the reason of each failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed, that produced no output, or
    /// whose output differed from the same operation in the first pass.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Known defects the outputs showed (each distinct one once); not
    /// failures.
    pub known_defects: Vec<String>,
}

impl Tally {
    /// Count the operations of `pass`, checking each against its output
    /// check and, for determinism, against the same operation of `first`
    /// (the first pass on the same inputs).
    pub fn record(&mut self, first: &Pass, pass: &Pass) {
        for (k, item) in pass.items.iter().enumerate() {
            self.attempted += 1;
            if let Some(d) = &item.known_defect {
                if !self.known_defects.contains(d) {
                    self.known_defects.push(d.clone());
                }
            }
            let reference = first.items.get(k).and_then(|f| f.digest.as_deref());
            let why = match (&item.check, item.digest.as_deref()) {
                (Err(e), _) => Some(e.clone()),
                (Ok(()), None) => Some(format!("{}: no output", item.name)),
                (Ok(()), Some(d)) if reference != Some(d) => Some(format!(
                    "{}: output digest {d} differs from the first pass ({})",
                    item.name,
                    reference.unwrap_or("none")
                )),
                _ => None,
            };
            if let Some(why) = why {
                self.failed += 1;
                self.failures.push(why);
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result line. Values print with all their digits (Rust's shortest
/// round-trip form); a non-finite value prints as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}
