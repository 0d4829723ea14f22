//! Named metrics, correctness checks and the order statistics the
//! benchmark reports.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// An ordered set of metrics; a name may be set once.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add a metric. Panics on a malformed or repeated name or unit:
    /// both are fixed in this program, so either is a bug here.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(valid_name(name), "metric name {name:?} is malformed");
        assert!(valid_unit(unit), "unit {unit:?} of {name} is malformed");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.items.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// The `metrics` object of the result line:
    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (which JSON cannot carry) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Metric names: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// a digit.
pub fn valid_name(s: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok_char)
}

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok_char)
}

/// Correctness checks of one run: every check is an attempt, and a
/// failed one is kept with its description.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    pub fn new() -> Checks {
        Checks::default()
    }

    /// Count one check; returns `ok` so callers can branch on it.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            let what = what.into();
            eprintln!("CHECK FAILED: {what}");
            self.failed.push(what);
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> &[String] {
        &self.failed
    }

    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Median (mean of the two middle values for an even count). Panics on
/// an empty sample: every metric has at least one sample by
/// construction.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Median of one field over a run's passes. A run lasts long enough to
/// span several of a shared host's busy and quiet phases, so the median
/// over all its passes moves less from run to run than any single pass
/// or the fastest one. Panics on an empty sample.
pub fn median_by<T>(samples: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Order-sensitive fingerprint of a sequence of words: any changed,
/// missing or moved word changes it. Lets a pass keep a checkable digest
/// of its output instead of the output itself, so memory does not grow
/// with the number of passes.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x9E37_79B9_7F4A_7C15, |h, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x100_0000_01B3)
    })
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`), or
/// `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_validated() {
        assert!(valid_name("kernels.lu.factor_par_s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("sim_s"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_is_set_once() {
        let mut m = Metrics::new();
        m.put("a", "s", 1.0);
        m.put("a", "s", 2.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::new();
        m.put("latency_ms", "ms", 1.203_456_789_012_3);
        m.put("bad", "s", f64::NAN);
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_by(&[(0, 4.0), (1, 1.5), (2, 2.0)], |s| s.1), 2.0);
        assert_ne!(fingerprint([1, 2]), fingerprint([2, 1]));
        assert_ne!(fingerprint([1, 2]), fingerprint([1, 2, 0]));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::new();
        assert!(c.check("fine", true));
        assert!(!c.check("broken", false));
        assert_eq!(c.attempted(), 2);
        assert_eq!(c.failed(), ["broken".to_string()]);
        assert!(!c.all_passed());
    }
}
