//! Order statistics for the benchmark: window medians and quartiles, a
//! constant-memory latency histogram, the percentile sample-count rule,
//! and the process memory reader.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides the value.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// Whether `n` samples support percentile `p` (in `0..100`): at least
/// [`MIN_TAIL_SAMPLES`] samples must lie beyond it.
#[must_use]
pub fn tail_supported(n: u64, p: f64) -> bool {
    // (100 - p) is exact for the percentiles used; (1 - p/100) is not
    n as f64 * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES
}

/// First quartile, median and third quartile of `values`, interpolated
/// like Python's `statistics.quantiles(values, n=4)` (the exclusive
/// method). `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let at = |q: f64| {
        // 1-based position (n + 1)·q, clamped to the sample
        let pos = ((n + 1.0) * q).clamp(1.0, n);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(sorted.len());
        sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
    };
    Some([at(0.25), at(0.5), at(0.75)])
}

/// Median of `values` (`None` when empty).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 => None,
        1 => Some(values[0]),
        _ => quartiles(values).map(|q| q[1]),
    }
}

/// Rates of fixed-work windows: one `work / seconds` per window, raw and
/// at nominal host speed. The median of these is the run's host-time
/// rate; it discards spikes that a total-work-over-total-time figure
/// would absorb.
#[derive(Debug, Default, Clone)]
pub struct Windows {
    rates: Vec<f64>,
    raw: Vec<f64>,
    work: u64,
}

impl Windows {
    /// Records one window that did `work` units in `seconds` while the
    /// host ran `slowdown` times slower than nominal.
    pub fn push(&mut self, work: u64, seconds: f64, slowdown: f64) {
        let rate = work as f64 / seconds.max(1e-9);
        self.work += work;
        self.raw.push(rate);
        self.rates.push(rate * slowdown);
    }

    /// Appends another run's windows.
    pub fn extend(&mut self, other: &Windows) {
        self.rates.extend_from_slice(&other.rates);
        self.raw.extend_from_slice(&other.raw);
        self.work += other.work;
    }

    /// Number of windows recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether no window has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Total work over all windows.
    #[must_use]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Quartiles of the window rates at nominal speed.
    #[must_use]
    pub fn quartiles(&self) -> Option<[f64; 3]> {
        quartiles(&self.rates)
    }

    /// Median window rate at nominal speed.
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        median(&self.rates)
    }

    /// Median window rate as measured.
    #[must_use]
    pub fn raw_median(&self) -> Option<f64> {
        median(&self.raw)
    }
}

/// Sub-buckets per power of two: values below this are exact, larger
/// ones are kept to within 1/256 of their value.
const SUB: u64 = 128;
const BUCKETS: usize = (64 - 7 + 1) * SUB as usize;

/// A log-linear histogram of non-negative integers (nanoseconds, cycles).
/// Memory is constant, so recording millions of latencies does not move
/// the process's own peak RSS.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros());
    let shift = msb - 7;
    ((shift + 1) * SUB + ((v >> shift) & (SUB - 1))) as usize
}

/// Midpoint of bucket `i` (its exact value below [`SUB`]).
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let lower = (SUB + i % SUB) << shift;
    lower as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p` (in `0..100`), or `None` when fewer
    /// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if !tail_supported(self.n, p) {
            return None;
        }
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_mid(i));
            }
        }
        None
    }
}

/// Reads a `kB` field (`VmHWM`, `VmRSS`, …) out of `/proc/<pid>/status`
/// text, in bytes.
#[must_use]
pub fn status_bytes(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kib: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kib * 1024)
    })
}

fn own_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_bytes(&status, field)
}

/// This process's peak resident set so far, in bytes.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    own_status_bytes("VmHWM")
}

/// This process's current resident set, in bytes.
#[must_use]
pub fn rss_bytes() -> Option<u64> {
    own_status_bytes("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_median_ignores_a_spike() {
        let mut w = Windows::default();
        for _ in 0..9 {
            w.push(1000, 0.001, 1.0);
        }
        // one window stalled 50x: the total rate drops, the median holds
        w.push(1000, 0.05, 1.0);
        assert_eq!(w.len(), 10);
        assert_eq!(w.work(), 10_000);
        assert!((w.median().unwrap() - 1e6).abs() < 1e-3);
        let total_rate = w.work() as f64 / (9.0 * 0.001 + 0.05);
        assert!(total_rate < 0.2e6, "the spike dominates the total rate");
    }

    #[test]
    fn window_rates_scale_to_nominal_speed() {
        let mut w = Windows::default();
        // a host running 2x slow halves the raw rate, not the nominal one
        w.push(1000, 0.002, 2.0);
        w.push(1000, 0.001, 1.0);
        w.push(1000, 0.004, 4.0);
        assert!((w.median().unwrap() - 1e6).abs() < 1e-3);
        assert!((w.raw_median().unwrap() - 0.5e6).abs() < 1e-3);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(99, 90.0));

        let mut h = Hist::default();
        for v in 1..=999u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(99.0), None, "999 samples cannot carry a p99");
        h.record(1000);
        assert!(h.percentile(99.0).is_some());
    }

    #[test]
    fn histogram_percentiles_are_within_half_a_percent() {
        let mut h = Hist::default();
        let values: Vec<u64> = (0..10_000u64).map(|i| 37 + i * i % 1_000_003).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank - 1] as f64;
            let got = h.percentile(p).unwrap();
            assert!(
                (got - exact).abs() <= exact / 200.0,
                "p{p}: {got} vs exact {exact}"
            );
        }
        // small values are exact
        let mut small = Hist::default();
        for v in 0..100 {
            small.record(v);
        }
        assert_eq!(small.percentile(50.0), Some(49.0));
    }

    #[test]
    fn status_reader_parses_kib_fields() {
        let status = "Name:\tperfbench\nVmHWM:\t  182344 kB\nVmRSS:\t   7168 kB\n";
        assert_eq!(status_bytes(status, "VmHWM"), Some(182_344 * 1024));
        assert_eq!(status_bytes(status, "VmRSS"), Some(7168 * 1024));
        assert_eq!(status_bytes(status, "VmSwap"), None);
        // the live reader agrees that a running process has memory
        assert!(peak_rss_bytes().unwrap() >= rss_bytes().unwrap() / 2);
    }
}
