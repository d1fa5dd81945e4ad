//! Offline stub of `rand` 0.9 (see `shims/README.md`).
//!
//! Implements the subset of the `rand` API this workspace uses — seedable
//! `StdRng`, `Rng::{random_range, random_bool}`, and `SliceRandom::shuffle`
//! — over a SplitMix64 core. Determinism per seed is the property the AID
//! reproduction actually relies on (the simulator's replayability argument);
//! statistical quality beyond SplitMix64 is not.

/// Low-level source of randomness.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value uniformly from `range` (half-open or inclusive).
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: distr::SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let p = p.clamp(0.0, 1.0);
        // 53 high bits give a uniform float in [0, 1).
        let f = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        f < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of rngs from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds an rng whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete rng types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

/// Uniform sampling over ranges, mirroring the bits of `rand::distr` we need.
pub mod distr {
    use super::RngCore;
    use std::ops::{Range, RangeInclusive};

    /// Types uniformly sampleable over a bounded interval.
    ///
    /// Like the real crate's `SampleUniform`, this exists so the
    /// [`SampleRange`] impls below can be *blanket* impls over `Range<T>` /
    /// `RangeInclusive<T>`; per-type range impls would break integer-literal
    /// inference at call sites such as `base + rng.random_range(0..5)`.
    pub trait SampleUniform: Copy + PartialOrd {
        /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
        fn sample_between<R: RngCore + ?Sized>(
            lo: Self,
            hi: Self,
            inclusive: bool,
            rng: &mut R,
        ) -> Self;
    }

    macro_rules! impl_sample_uniform_int {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_between<R: RngCore + ?Sized>(
                    lo: Self,
                    hi: Self,
                    inclusive: bool,
                    rng: &mut R,
                ) -> Self {
                    let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                    assert!(span > 0, "cannot sample empty range");
                    let draw = rng.next_u64();
                    // A 64-bit remainder, not a 128-bit one: every span but
                    // the full inclusive 64-bit range (2^64) fits a `u64`,
                    // and that one keeps every draw as it is.
                    let v = match u64::try_from(span) {
                        Ok(span) => draw % span,
                        Err(_) => draw,
                    };
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }

    impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// A range that can produce a uniform sample of `T`.
    pub trait SampleRange<T> {
        /// Draws one uniform sample from the range. Panics if empty.
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    }

    impl<T: SampleUniform> SampleRange<T> for Range<T> {
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
            assert!(self.start < self.end, "cannot sample empty range");
            T::sample_between(self.start, self.end, false, rng)
        }
    }

    impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
            let (lo, hi) = self.into_inner();
            assert!(lo <= hi, "cannot sample empty range");
            T::sample_between(lo, hi, true, rng)
        }
    }
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice extension trait providing in-place shuffling.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffles the slice in place.
        fn shuffle<R: Rng + RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random_range(0u64..1000), b.random_range(0u64..1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.random_range(2usize..=4);
            assert!((2..=4).contains(&v));
            let w = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&w));
        }
    }

    /// An rng that yields one fixed draw.
    struct Fixed(u64);

    impl super::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The 128-bit remainder formula the 64-bit one replaced, as reference.
    fn reference(lo: i128, hi: i128, inclusive: bool, draw: u64) -> i128 {
        let span = (hi - lo) as u128 + u128::from(inclusive);
        lo + ((draw as u128) % span) as i128
    }

    #[test]
    fn sixty_four_bit_remainder_matches_the_128_bit_formula() {
        use super::distr::SampleUniform;

        let mut draws = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            draws.extend((0..20).map(|_| super::RngCore::next_u64(&mut rng)));
        }
        let mut spans = StdRng::seed_from_u64(99);
        for &draw in &draws {
            // Spans of 1, 2^64 - 1 and 2^64, and arbitrary ones in between.
            let hi = super::RngCore::next_u64(&mut spans).max(1);
            let u64s = [
                (0, 1, false),
                (0, u64::MAX, false),
                (0, u64::MAX, true),
                (7, hi, true),
            ];
            for (lo, hi, inclusive) in u64s {
                let got = u64::sample_between(lo, hi, inclusive, &mut Fixed(draw));
                let want = reference(lo as i128, hi as i128, inclusive, draw);
                assert_eq!(
                    got as i128, want,
                    "u64 {lo}..{hi} ({inclusive}), draw {draw}"
                );
            }
            let mid = hi as i64;
            let i64s = [
                (i64::MIN, i64::MAX, true),
                (i64::MIN, i64::MAX, false),
                (-5, 5, false),
                (i64::MIN, mid, true),
                (-1, -1, true),
            ];
            for (lo, hi, inclusive) in i64s {
                let got = i64::sample_between(lo, hi, inclusive, &mut Fixed(draw));
                let want = reference(lo as i128, hi as i128, inclusive, draw);
                assert_eq!(
                    got as i128, want,
                    "i64 {lo}..{hi} ({inclusive}), draw {draw}"
                );
            }
            let got = u8::sample_between(0, u8::MAX, true, &mut Fixed(draw));
            assert_eq!(
                got as i128,
                reference(0, 255, true, draw),
                "u8, draw {draw}"
            );
            let got = i32::sample_between(-40, 9, false, &mut Fixed(draw));
            assert_eq!(
                got as i128,
                reference(-40, 9, false, draw),
                "i32, draw {draw}"
            );
        }
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
