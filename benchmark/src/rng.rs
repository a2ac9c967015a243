//! The benchmark's own input generator: a splitmix64 stream per seed, so
//! the libraries under test only ever see generated inputs.

/// Default `--seed`: the paper's submission date, as in `repro serve`.
pub const DEFAULT_SEED: u64 = 20180806;

/// Seed of the heat-bath ensembles. An ensemble is a fixed data set, as in
/// production: `--seed` places the sources on it (and draws traces, noise
/// and fault streams) but does not regenerate it. Solver iteration counts
/// on a 4^3x8 lattice differ by ±10% between ensembles, which would be the
/// largest part of the run-to-run spread and says nothing about the code.
pub const ENSEMBLE_SEED: u64 = 0x6741_5f65_6e73;

pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated per `stream` tag so two consumers
    /// of one benchmark seed never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(8, 1).next_u64()
        );
        let mut r = SplitMix64::new(1, 1);
        for _ in 0..1000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(5) < 5);
        }
    }
}
