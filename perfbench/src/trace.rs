//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated spans: per name, the total time and every call's duration.
#[derive(Debug, Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, Vec<Duration>>,
}

impl Trace {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed());
        out
    }

    /// Records an already-measured span.
    pub fn record(&mut self, name: &'static str, d: Duration) {
        self.spans.entry(name).or_default().push(d);
    }

    /// Total milliseconds spent in spans named `name` (0 when none ran).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |v| {
            v.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3
        })
    }

    /// Every call's duration in milliseconds, in call order.
    pub fn samples_ms(&self, name: &str) -> Vec<f64> {
        self.spans.get(name).map_or_else(Vec::new, |v| {
            v.iter().map(|d| d.as_secs_f64() * 1e3).collect()
        })
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |v| v.len() as u64)
    }

    /// Total milliseconds over every span named in `names`.
    pub fn sum_ms(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.total_ms(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_name() {
        let mut t = Trace::default();
        assert_eq!(t.span("a", || 7), 7);
        t.record("a", Duration::from_millis(2));
        t.record("b", Duration::from_millis(3));
        assert_eq!(t.calls("a"), 2);
        assert_eq!(t.calls("missing"), 0);
        assert!(t.total_ms("a") >= 2.0);
        assert_eq!(t.samples_ms("b"), vec![3.0]);
        assert!((t.sum_ms(&["a", "b"]) - t.total_ms("a") - 3.0).abs() < 1e-9);
        assert_eq!(t.total_ms("missing"), 0.0);
    }
}
