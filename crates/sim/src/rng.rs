//! Deterministic pseudo-random number generation.
//!
//! The simulator needs randomness for CSMA backoff, link-retry jitter
//! (the paper's `d` parameter, §7.1), per-link packet error draws, and
//! workload jitter. We implement xoshiro256** (Blackman & Vigna) rather
//! than pulling in an external generator so that experiment outputs are
//! reproducible independent of dependency versions.
//!
//! Each node/layer derives its own stream with [`Rng::fork`] so the
//! order in which components draw numbers does not couple them.

use crate::time::Duration;

/// A xoshiro256** pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded via splitmix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not be seeded with all zeros; splitmix64 of any
        // seed cannot produce four zero words, but guard anyway.
        if s == [0, 0, 0, 0] {
            Rng { s: [1, 2, 3, 4] }
        } else {
            Rng { s }
        }
    }

    /// Derives an independent child generator, keyed by `stream`.
    ///
    /// Forking with distinct stream ids yields statistically independent
    /// sequences, so each simulated node can own its own RNG.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to the unit interval).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Uniform duration in `[0, max]` inclusive (the paper's link-retry
    /// jitter draw: "a random duration between 0 and d", §7.1).
    pub fn gen_duration(&mut self, max: Duration) -> Duration {
        Duration::from_micros(self.gen_range_inclusive(0, max.as_micros()))
    }

    /// Exponentially distributed duration with the given mean, clamped
    /// to 100x the mean (used for interference burst modelling).
    pub fn gen_exp_duration(&mut self, mean: Duration) -> Duration {
        let u = self.gen_f64().max(1e-12);
        let val = -(u.ln()) * mean.as_secs_f64();
        Duration::from_secs_f64(val.min(mean.as_secs_f64() * 100.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_parent_consumption() {
        let mut parent1 = Rng::new(7);
        let mut child1 = parent1.fork(3);
        let seq1: Vec<u64> = (0..8).map(|_| child1.next_u64()).collect();

        let mut parent2 = Rng::new(7);
        let mut child2 = parent2.fork(3);
        let seq2: Vec<u64> = (0..8).map(|_| child2.next_u64()).collect();
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let v = r.gen_range(7);
            assert!(v < 7);
        }
        assert_eq!(r.gen_range(0), 0);
        for _ in 0..1000 {
            let v = r.gen_range_inclusive(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Rng::new(123);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::new(5);
        let mut sum = 0.0;
        let n = 50_000;
        for _ in 0..n {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} not near 0.5");
    }

    #[test]
    fn gen_bool_edge_probabilities() {
        let mut r = Rng::new(5);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn gen_duration_respects_bound() {
        let mut r = Rng::new(11);
        let max = Duration::from_millis(40);
        for _ in 0..1000 {
            assert!(r.gen_duration(max) <= max);
        }
        assert_eq!(r.gen_duration(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn exp_duration_mean_is_close() {
        let mut r = Rng::new(17);
        let mean = Duration::from_millis(100);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.gen_exp_duration(mean).as_micros()).sum();
        let avg = total as f64 / n as f64;
        assert!(
            (avg - 100_000.0).abs() < 5_000.0,
            "exp mean {avg} not near 100ms"
        );
    }
}
