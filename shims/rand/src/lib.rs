//! Minimal offline stand-in for the `rand` crate.
//!
//! The repository builds in environments without a crates.io mirror, so this
//! shim provides the small slice of the `rand` 0.9 API the workspace uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and
//! [`Rng::random_range`]. The generator is xoshiro256** seeded through
//! SplitMix64 — deterministic across platforms, which is all the discrete
//! event simulator requires (simulation runs must be a pure function of the
//! seed). It is **not** a cryptographic RNG and never needs to be.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::ops::{Range, RangeInclusive};

/// Random number generators.
pub mod rngs {
    /// A deterministic pseudo-random generator (xoshiro256**).
    ///
    /// Unlike the real `rand::rngs::StdRng` this generator is stable across
    /// shim versions; simulation traces keyed by seed stay reproducible.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

pub use rngs::StdRng;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Creates a generator from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        StdRng { s }
    }
}

/// The user-facing generator interface.
pub trait Rng {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        // xoshiro256**
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
}

/// Ranges that [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_from<G: Rng>(self, rng: &mut G) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<G: Rng>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let lo = self.start as i128;
                let span = (self.end as i128 - lo) as u128;
                (lo + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<G: Rng>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi - lo) as u128 + 1;
                if span == 0 {
                    // Full-width u128 wrap can only happen for 128-bit types,
                    // which this shim does not cover.
                    unreachable!()
                }
                (lo + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: u64 = rng.random_range(3..9);
            assert!((3..9).contains(&x));
            let y: u64 = rng.random_range(2..=5);
            assert!((2..=5).contains(&y));
            let z: i8 = rng.random_range(-4i8..4);
            assert!((-4..4).contains(&z));
        }
    }
}
