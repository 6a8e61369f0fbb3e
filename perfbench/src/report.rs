//! Measurement helpers shared by every workload: metric rendering, the
//! percentile rule, medians, the peak-RSS reader and the input digest.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one workload run reports: operation counts, metrics, and the
/// human-readable lines printed above the final JSON line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one checked operation; a failed check also prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// No failed operation, and every metric finite and well named.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && valid_name(&m.name) && valid_unit(m.unit))
    }

    /// The machine-readable last line:
    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                render_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (never valid JSON) render as `null`.
pub fn render_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A metric name: starts with a letter or digit, at most 64 of letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values` (NaN when empty).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// CPU seconds this process has used so far, summed over its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`); NaN if the clock cannot be read.
///
/// The gated timings use CPU time, not wall time: on a shared host the
/// benchmark's threads wait for a core whenever other tenants hold it, and
/// that wait is host load, not the program's cost.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`, adding the CPU seconds it took to `samples`.
pub fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = cpu_seconds();
    let out = f();
    samples.push(cpu_seconds() - t0);
    out
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder a tail is reported on.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of the ladder that has at least ten samples
/// beyond it among `n` samples, or `None` when not even the median does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Latency samples summarised by the percentile rule: the median, the
/// highest ladder percentile with ten samples beyond it, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub n: usize,
}

impl Tail {
    /// Summarises `samples`; `None` when there are fewer than 20.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let tail_pct = tail_percentile(samples.len())?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
            n: sorted.len(),
        })
    }

    /// `p99` style label of the tail percentile.
    pub fn tail_label(&self) -> String {
        format!("p{}", self.tail_pct)
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(f64::NAN)
}

/// Incremental 64-bit FNV-1a over everything a run feeds the program, so
/// two runs on one seed can show they consumed identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Milliseconds in a duration, as a float with every digit.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_summary_uses_nearest_rank_and_states_the_count() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let t = Tail::of(&samples).expect("enough samples");
        assert_eq!((t.p50, t.tail, t.n), (500.0, 990.0, 1_000));
        assert_eq!(t.tail_label(), "p99");
        let t = Tail::of(&samples[..150]).expect("enough samples");
        assert_eq!(t.tail_label(), "p90");
        assert_eq!(t.n, 150);
        assert!(Tail::of(&samples[..19]).is_none());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = cpu_seconds() - t0;
        assert!(t0.is_finite() && spent > 0.0, "{t0} {spent}");
        let mut samples = Vec::new();
        assert_eq!(timed(&mut samples, || 7), 7);
        assert!(samples.len() == 1 && samples[0] >= 0.0, "{samples:?}");
    }

    #[test]
    fn peak_rss_reader_parses_vm_hwm_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20480 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(5.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t4096 pages\n"), None);
        let live = peak_rss_mb();
        assert!(live.is_finite() && live > 0.0, "{live}");
    }

    #[test]
    fn metric_line_renders_names_units_and_every_digit() {
        let mut r = Report::default();
        r.push("kernels_per_s", "1/s", 123_456.789_012_345);
        r.push("setup_s", "s", 0.000_123_4);
        r.check(true, String::new);
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"kernels_per_s\": {\"value\": 123456.789012345, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0001234, \"unit\": \"s\"}}}"
        );
        r.check(false, || "mismatch".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        r.failed = 0;
        r.push("bad", "ms", f64::NAN);
        assert!(!r.correct(), "a non-finite metric is not a correct run");
        assert!(r.json_line().contains("\"bad\": {\"value\": null"));
    }

    #[test]
    fn names_and_units_follow_the_output_grammar() {
        for ok in ["setup_s", "sim.ns_per_cycle.micro", "http.feed_calls", "0x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", "a b", "x/y", &"n".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "MB", "ns/record"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn digest_is_order_sensitive_fnv1a() {
        let mut empty = Digest::default();
        empty.bytes(b"");
        assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Digest::default();
        a.bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector");
        let (mut x, mut y) = (Digest::default(), Digest::default());
        x.str("ab");
        x.str("c");
        y.str("a");
        y.str("bc");
        assert_ne!(x.finish(), y.finish(), "length prefixes separate fields");
    }
}
