//! Small numeric helpers: the seeded generator behind every workload,
//! percentiles, geometric means, and the benchmark's own span
//! accumulator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, well-mixed generator. The benchmark derives every
/// input (op order, `rand` seeds, the open/edit interleaving) from it,
/// so one seed always yields one op sequence.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, split by `stream` so independent
    /// sequences (one per thread, one per purpose) do not correlate.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-th percentile (`0 ≤ q ≤ 100`) of `samples`, linearly
/// interpolated between closest ranks (numpy's default). `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Microseconds in `d`, with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A running mean.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mean {
    /// Sum of the recorded values.
    pub sum: f64,
    /// Number of recorded values.
    pub n: u64,
}

impl Mean {
    /// Record one value.
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// The mean, or 0 with nothing recorded.
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// The benchmark's own spans: named running means of layer times (µs)
/// and of layer counts. Times are wall-clock around one call into a
/// layer's public function; counts are what the layer produced.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Per-metric mean of microseconds.
    pub times: BTreeMap<&'static str, Mean>,
    /// Per-metric mean of counts (must repeat exactly for one seed).
    pub counts: BTreeMap<&'static str, Mean>,
}

impl Spans {
    /// Run `f`, recording its wall time under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.record_time(name, t.elapsed());
        r
    }

    /// Record a duration measured elsewhere.
    pub fn record_time(&mut self, name: &'static str, d: Duration) {
        self.times.entry(name).or_default().add(us(d));
    }

    /// Record a value already in microseconds.
    pub fn record_us(&mut self, name: &'static str, v: f64) {
        self.times.entry(name).or_default().add(v);
    }

    /// Record one count sample.
    pub fn count(&mut self, name: &'static str, v: u64) {
        self.counts.entry(name).or_default().add(v as f64);
    }

    /// Fold another accumulator's times into this one.
    pub fn merge_times(&mut self, other: &Spans) {
        for (name, m) in &other.times {
            let e = self.times.entry(name).or_default();
            e.sum += m.sum;
            e.n += m.n;
        }
    }

    /// Fold another accumulator (times and counts) into this one.
    pub fn merge(&mut self, other: &Spans) {
        self.merge_times(other);
        for (name, m) in &other.counts {
            let e = self.counts.entry(name).or_default();
            e.sum += m.sum;
            e.n += m.n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..16).collect();
        SplitMix::new(7, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }
}
