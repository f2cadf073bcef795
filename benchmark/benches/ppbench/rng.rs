//! The harness's own seeded generator (SplitMix64): source pools, query
//! mixes and arrival schedules come from here, so the harness does not
//! depend on whichever `rand` the workspace vendors.

/// SplitMix64 — tiny, stateless-stepping, good enough to pick sources.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per use by a `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with mean `1 / rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let first4 = |seed| {
            let mut r = Rng::new(seed, 1);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(first4(7), first4(7));
        assert_ne!(first4(7), first4(8));
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut r = Rng::new(1, 2);
        let mean = (0..20_000).map(|_| r.exp(50.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.02).abs() < 0.001, "{mean}");
    }
}
