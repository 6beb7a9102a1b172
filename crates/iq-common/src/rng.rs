//! Deterministic random number helpers.
//!
//! Every stochastic element of the simulation (consistency-window jitter,
//! TPC-H data, query-stream permutations) draws from a [`DetRng`] seeded
//! explicitly, so runs are reproducible bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small, fast, seedable RNG wrapper.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream; used to give each table /
    /// node / device its own stream from one master seed.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        DetRng::new(self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Exponentially distributed value with the given mean (for latency
    /// jitter).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_diverge() {
        let mut root = DetRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let s1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn below_in_range() {
        let mut r = DetRng::new(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(9);
        let mut xs: Vec<u32> = (0..22).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..22).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_positive_with_plausible_mean() {
        let mut r = DetRng::new(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!(mean > 2.5 && mean < 3.5, "mean={mean}");
    }
}
