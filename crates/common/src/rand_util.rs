//! Workload randomness: a fast per-worker PRNG.
//!
//! The workload generators need to draw millions of keys per second per
//! worker, so the generator is allocation-free and a handful of instructions
//! per draw. Skew is declared by each workload's own hot/cold draw (the
//! paper's explicit hot-set model, §7.2), not by a generic distribution.

/// A small, fast xorshift* PRNG. Deterministic per seed, which keeps workload
/// runs reproducible for a given `(node, worker, seed)` triple.
#[derive(Clone, Debug)]
pub struct FastRng {
    state: u64,
}

impl FastRng {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant because xorshift has a fixed point at zero.
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        FastRng { state }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna). Good enough statistical quality for workload
        // key selection, and only a handful of instructions.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection-free mapping is fine here: the
        // slight modulo bias of a plain remainder is irrelevant for workload
        // key draws, but multiply-shift is also faster than `%`.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform choice of an element index from a non-empty slice length.
    #[inline]
    pub fn pick(&mut self, len: usize) -> usize {
        self.gen_range(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_rng_is_deterministic_per_seed() {
        let mut a = FastRng::new(42);
        let mut b = FastRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fast_rng_range_respects_bound() {
        let mut rng = FastRng::new(7);
        for _ in 0..10_000 {
            assert!(rng.gen_range(10) < 10);
        }
    }

    #[test]
    fn fast_rng_bool_probability_is_sane() {
        let mut rng = FastRng::new(1);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac={frac}");
    }
}
