//! Dependency-free testing support for the majic workspace.
//!
//! The build environment is fully offline, so the workspace cannot pull
//! `proptest`, `criterion`, or `rand` from a registry. This crate
//! provides the small subset those tests actually need:
//!
//! * [`Rng`] — a deterministic SplitMix64 generator,
//! * [`forall`] — a seeded property-test runner with reproducible
//!   per-case seeds,
//! * [`json`] — a minimal JSON parser for structural assertions
//!   (Chrome trace exports and the like),
//! * [`fuzzgen`] — a grammar-based MATLAB program generator and
//!   test-case shrinker for the differential fuzzer (`crates/fuzz`).

pub mod fuzzgen;
pub mod json;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Deterministic pseudo-random generator (SplitMix64).
///
/// Good statistical quality for test-case generation, trivially seedable
/// and portable: the same seed yields the same case on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`. Panics if the interval is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[lo, hi)` over signed integers.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        lo.wrapping_add((self.next_u64() % ((hi - lo) as u64)) as i64)
    }

    /// Uniform in `[0, n)` as `usize`.
    pub fn below(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)` over `f64`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Index drawn according to integer weights (proptest's
    /// `prop_oneof![w => …]` analogue).
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let mut pick = self.range_u64(0, total.max(1));
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if pick < w {
                return i;
            }
            pick -= w;
        }
        weights.len() - 1
    }
}

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 64;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Run `body` against `cases` deterministic random cases.
///
/// Each case gets an independent seed derived from the property name and
/// the case index, so a failure report like
/// `property fibber case 17 (seed 0x1234…)` reproduces with
/// `MAJIC_PROP_SEED=0x…` (run just that seed) regardless of case count.
/// `MAJIC_PROP_CASES` overrides the case count globally.
pub fn forall(name: &str, cases: u32, body: impl Fn(&mut Rng)) {
    if let Some(seed) = std::env::var("MAJIC_PROP_SEED")
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
    {
        let mut rng = Rng::new(seed);
        body(&mut rng);
        return;
    }
    let cases = env_u64("MAJIC_PROP_CASES").map_or(cases, |c| c as u32);
    for case in 0..cases {
        let seed = fnv1a(name.as_bytes()) ^ (u64::from(case)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property `{name}` failed on case {case}/{cases} \
                 (reproduce with MAJIC_PROP_SEED={seed:#x})"
            );
            resume_unwind(payload);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_bounds_hold() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v = rng.range_i64(-5, 20);
            assert!((-5..20).contains(&v));
            let f = rng.range_f64(0.25, 0.75);
            assert!((0.25..0.75).contains(&f));
            let w = rng.weighted(&[4, 1, 1]);
            assert!(w < 3);
        }
    }

    #[test]
    fn forall_runs_all_cases() {
        let count = std::sync::atomic::AtomicU32::new(0);
        forall("counter", 16, |_| {
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 16);
    }
}
