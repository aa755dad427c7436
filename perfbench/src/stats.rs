//! Order statistics and the named-metric table the benchmark prints.

use flexstep_core::json::{escape, number, JsonObject};

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile that leaves at least ten samples above
/// it, for `n` samples; `None` below twenty samples, where it would
/// fall under the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (n >= 20).then(|| (100 * (n - 10) / n) as u32)
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (f64::from(p) / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// An ordered table of named metrics, each with its unit.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => *e = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// The unit recorded under `name`.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.2)
    }

    /// Renders `{"name": {"value": v, "unit": u}, ...}` for the metrics
    /// `select` keeps, in insertion order.
    pub fn to_json(&self, select: impl Fn(&str) -> bool) -> String {
        let mut o = JsonObject::new();
        for (name, value, unit) in self.entries.iter().filter(|e| select(&e.0)) {
            let mut m = JsonObject::new();
            m.field_raw("value", &number(*value))
                .field_raw("unit", &format!("\"{}\"", escape(unit)));
            o.field_raw(name, &m.finish());
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(240), Some(95));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
    }
}
