//! Sample sets, percentiles and the seeded input generator.

use std::time::Duration;

/// A set of measured values (milliseconds, microseconds or counts,
/// depending on the caller).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p99.9, p99 and p90 that has at least ten samples
    /// beyond it, as `(percentile, value)`; `None` below 100 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        [99.9, 99.0, 90.0]
            .into_iter()
            .find(|p| self.0.len() as f64 * (1.0 - p / 100.0) >= 10.0)
            .map(|p| (p, self.quantile(p / 100.0)))
    }
}

/// Timings of one kind of operation: as measured, and adjusted to the
/// reference speed (see `speed`).
#[derive(Clone, Debug, Default)]
pub struct Timings {
    pub raw: Samples,
    pub adj: Samples,
}

impl Timings {
    /// Records `value` as measured, and times `factor` as adjusted.
    pub fn push(&mut self, value: f64, factor: f64) {
        self.raw.push(value);
        self.adj.push(value * factor);
    }

    pub fn push_ms(&mut self, d: Duration, factor: f64) {
        self.push(d.as_secs_f64() * 1e3, factor);
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }
}

/// SplitMix64: the benchmark's input generator. The same seed gives the
/// same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// A fill byte for `BULK_PUT` that differs from `previous`, so every
    /// rewrite really changes the values.
    pub fn fill_other_than(&mut self, previous: u8) -> u8 {
        previous.wrapping_add(1 + self.below(255) as u8)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(s.tail().is_none());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        for v in 0..1000 {
            s.push(f64::from(v));
        }
        assert_eq!(s.tail().map(|t| t.0), Some(99.0));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }
}
