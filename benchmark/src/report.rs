//! Metrics, their medians and quartiles, and the output format: one
//! `<workload> <metric> <value> <unit>` line per metric, then one closing
//! JSON object.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// `s`, `ms`, `count`, `tasks/s`, ...
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// The median and quartiles of `values` as Python's `statistics.median`
/// and `statistics.quantiles(values, n=4)` compute them, so the spread
/// hivebench reports is the one a reader recomputes. One value is its own
/// median and quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn spread(values: &[f64]) -> Spread {
    assert!(!values.is_empty(), "spread of an empty sample");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 1 {
        return Spread {
            q1: x[0],
            median: x[0],
            q3: x[0],
        };
    }
    // The "exclusive" method: positions i·(n+1)/4, linearly interpolated.
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Spread {
        q1: quartile(1),
        median: quartile(2),
        q3: quartile(3),
    }
}

/// Whether `name` is a valid metric or workload name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Prints `<scope> <metric> <value> <unit>` for every metric.
pub fn print_lines(scope: &str, metrics: &Metrics) {
    for m in &metrics.0 {
        println!("{scope} {} {} {}", m.name, m.value, m.unit);
    }
}

/// The closing JSON object. A metric with a non-finite value, or a name or
/// unit outside the format, is left out and turns the result incorrect.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let ok = |m: &&Metric| m.value.is_finite() && valid_name(&m.name) && valid_unit(m.unit);
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && metrics.0.iter().all(|m| ok(&m))
    );
    for (i, m) in metrics.0.iter().filter(ok).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String never fails");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = spread(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = spread(&[3.5]);
        assert_eq!((s.q1, s.median, s.q3), (3.5, 3.5, 3.5));
    }

    #[test]
    fn names_and_units_follow_the_format() {
        assert!(valid_name("scale.ns_per_event.d256"));
        assert!(valid_name("cloud_offload"));
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        assert!(valid_unit("tasks/s") && valid_unit("%") && valid_unit("ns/invocation"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("setup_s", 0.5, "s");
        assert_eq!(
            result_json(true, 7, 0, &m),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        for (name, value, unit) in [
            ("nan", f64::NAN, "s"),
            ("bad name", 1.0, "s"),
            ("x", 1.0, ""),
        ] {
            let mut bad = m.clone();
            bad.push(name, value, unit);
            let json = result_json(true, 7, 0, &bad);
            assert!(json.starts_with("{\"correct\": false"), "{json}");
            assert!(!json.contains(&format!("\"{name}\"")), "{json}");
        }
    }
}
