//! Seeded random draws for input generation.

use hmh_hash::splitmix::SplitMix64;

/// A deterministic stream of draws; the same seed gives the same inputs.
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(SplitMix64::new(seed))
    }

    /// An independent stream for sub-task `i` of `seed`.
    pub fn derive(seed: u64, i: u64) -> Self {
        Self::new(SplitMix64::derive(seed, i))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Shuffle in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` sizes at evenly spaced quantiles of `lo..=hi`, log-uniform
    /// when `log`, else uniform, in seeded order: every seed draws the
    /// same sizes, so seeds differ in content but not in the work a size
    /// implies.
    pub fn strata(&mut self, n: usize, (lo, hi): (usize, usize), log: bool) -> Vec<usize> {
        let (lo_f, hi_f) = (lo as f64, hi as f64);
        let mut sizes: Vec<usize> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                let x = if log { lo_f * (hi_f / lo_f).powf(u) } else { lo_f + (hi_f - lo_f) * u };
                (x.round() as usize).clamp(lo, hi)
            })
            .collect();
        self.shuffle(&mut sizes);
        sizes
    }
}
