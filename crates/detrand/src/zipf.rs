//! Zipf-distributed rank sampling for skewed workloads.
//!
//! Real traceability traffic is not uniform: a handful of hot objects
//! (a recalled product line, a flagship SKU) draws most of the locate
//! traffic. [`Zipf`] samples 0-based ranks with probability
//! proportional to `(rank + 1)^-s` over a fixed population of `n`
//! ranks, so rank 0 is the most popular; `s = 0` degenerates to the
//! uniform distribution exactly (all weights are 1).
//!
//! The sampler precomputes the normalized CDF at construction and draws
//! with one `[0, 1)` uniform plus a binary search, so a draw costs one
//! `u64` of entropy — the same budget as `gen_range` — and the stream
//! consumed from the underlying generator is stable forever (the KAT
//! tests pin it), which keeps committed experiment numbers reproducible.

use crate::{unit_f64, RngCore};

/// A Zipf(s) sampler over ranks `0..n` (rank 0 most popular).
#[derive(Clone, Debug)]
pub struct Zipf {
    /// `cdf[r]` = P(rank ≤ r); strictly increasing, last element 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    ///
    /// Panics on `n = 0` or a negative/non-finite `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf: population must be non-empty");
        assert!(s >= 0.0 && s.is_finite(), "Zipf: exponent must be finite and >= 0, got {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 1..=n as u64 {
            // s = 0 uses weight 1 exactly (not powf, which could round),
            // so the degenerate case is *bit-identical* to uniform.
            acc += if s == 0.0 { 1.0 } else { (rank as f64).powf(-s) };
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        // Normalization can leave the top fractionally under 1.0; clamp
        // so every u in [0, 1) maps to a valid rank.
        *cdf.last_mut().expect("n >= 1") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks in the population.
    pub fn population(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one 0-based rank. Costs exactly one `next_u64`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u = unit_f64(rng);
        // First rank whose CDF strictly exceeds u; u < 1.0 and the last
        // CDF entry is exactly 1.0, so the result is always in range.
        self.cdf.partition_point(|&c| c <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;
    use proptiny::prelude::*;

    fn sample_counts(n: usize, s: f64, seed: u64, draws: usize) -> Vec<usize> {
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn kat_pinned_sample_stream() {
        // Known-answer test: this exact stream is part of the crate's
        // contract (committed sweep CSVs depend on it). Do not update
        // these values without regenerating every zipf artifact.
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(42);
        let got: Vec<usize> = (0..20).map(|_| z.sample(&mut rng)).collect();
        assert_eq!(got, [0, 1, 9, 52, 92, 17, 12, 29, 16, 5, 9, 1, 21, 1, 11, 36, 6, 30, 11, 11]);

        let u = Zipf::new(8, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let got: Vec<usize> = (0..16).map(|_| u.sample(&mut rng)).collect();
        assert_eq!(got, [5, 2, 6, 7, 7, 6, 0, 0, 3, 1, 4, 5, 7, 7, 3, 4]);
    }

    #[test]
    fn cdf_is_monotone_and_tops_at_one() {
        for &(n, s) in &[(1usize, 0.0), (2, 0.5), (50, 1.2), (1000, 2.0)] {
            let z = Zipf::new(n, s);
            assert_eq!(z.population(), n);
            for r in 1..n {
                assert!(z.cdf[r] > z.cdf[r - 1], "CDF must be strictly increasing");
            }
            assert_eq!(*z.cdf.last().unwrap(), 1.0);
        }
    }

    #[test]
    fn singleton_population_always_rank_zero() {
        let z = Zipf::new(1, 1.2);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        // At s = 1.2 over 100 ranks, the top 10 ranks carry the clear
        // majority of draws; at s = 0 they carry ~10%.
        let skewed = sample_counts(100, 1.2, 11, 20_000);
        let head: usize = skewed[..10].iter().sum();
        assert!(head > 12_000, "top-10 mass at s=1.2: {head}/20000");
        let uniform = sample_counts(100, 0.0, 11, 20_000);
        let head: usize = uniform[..10].iter().sum();
        assert!((1_400..2_600).contains(&head), "top-10 mass at s=0: {head}/20000");
    }

    proptiny! {
        /// Rank 0 is sampled at least as often as any other rank, for
        /// any positive skew — the defining Zipf shape.
        #[test]
        fn prop_rank_zero_most_frequent(
            seed in 0u64..1_000_000,
            n in 2usize..64,
            tenths in 2u32..30
        ) {
            let s = tenths as f64 / 10.0;
            let counts = sample_counts(n, s, seed, 4_000);
            let max = *counts.iter().max().unwrap();
            prop_assert!(
                counts[0] == max,
                "rank 0 drew {} but some rank drew {max} (n={n}, s={s})",
                counts[0]
            );
        }

        /// s = 0 is uniform within tolerance: every rank's observed
        /// frequency is within 4x of the expected 1/n (loose bound, but
        /// a real skew fails it immediately).
        #[test]
        fn prop_zero_exponent_is_uniform(seed in 0u64..1_000_000, n in 2usize..32) {
            let draws = 8_000;
            let counts = sample_counts(n, 0.0, seed, draws);
            let expect = draws as f64 / n as f64;
            for (r, &c) in counts.iter().enumerate() {
                prop_assert!(
                    (c as f64) < expect * 4.0 && (c as f64) > expect / 4.0,
                    "rank {r} drew {c}, expected ~{expect:.0} (n={n})"
                );
            }
        }

        /// Same seed, same stream: the sampler is a pure function of
        /// (population, exponent, generator state).
        #[test]
        fn prop_same_seed_same_stream(seed in any::<u64>(), n in 1usize..64) {
            let z = Zipf::new(n, 0.8);
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let sa: Vec<usize> = (0..64).map(|_| z.sample(&mut a)).collect();
            let sb: Vec<usize> = (0..64).map(|_| z.sample(&mut b)).collect();
            prop_assert_eq!(sa, sb);
        }
    }
}
