//! Reads counters by name from a Prometheus exposition (the engine's
//! `Metrics` request), the only way the benchmark reads program counters.

use std::collections::BTreeMap;

/// Unlabelled samples of an exposition document, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Expo(BTreeMap<String, f64>);

impl Expo {
    pub fn parse(text: &str) -> Expo {
        let mut m = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.contains('{') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(value), None) = (parts.next(), parts.next(), parts.next()) {
                if let Ok(v) = value.parse::<f64>() {
                    m.insert(name.to_string(), v);
                }
            }
        }
        Expo(m)
    }

    /// A sample, or 0 when absent: counters the program registers lazily
    /// are absent until first bumped.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_unlabelled_samples() {
        let text = "# HELP a_total x\n# TYPE a_total counter\na_total 7\n\
                    h_bucket{le=\"1\"} 3\nh_sum 12\nh_count 4\n";
        let e = Expo::parse(text);
        assert_eq!(e.get("a_total"), 7.0);
        assert_eq!(e.get("h_sum"), 12.0);
        assert_eq!(e.get("h_bucket"), 0.0);
        assert_eq!(e.get("missing"), 0.0);
    }
}
