//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no vendored registry,
//! so this workspace-local shim provides exactly the API surface the
//! repository uses: `Rng` (`gen`, `gen_range`, `fill`), `SeedableRng`
//! (`seed_from_u64`) and `rngs::StdRng`. The generator is a deterministic
//! xoshiro256** seeded through SplitMix64 — statistically solid for tests
//! and benchmarks, explicitly **not** cryptographically secure (nothing in
//! this repo draws key material from `rand`; the crypto crate's secrets
//! are constructed from explicit byte arrays).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

/// Types drawable uniformly over their whole domain via [`Rng::gen`].
pub trait Random: Sized {
    /// Draws a uniformly random value.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            #[inline]
            fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for u128 {
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Random for i128 {
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        u128::random(rng) as i128
    }
}

impl Random for bool {
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Random for f32 {
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

impl<const N: usize> Random for [u8; N] {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        rng.fill(&mut out);
        out
    }
}

/// Types with a uniform range sampler, for [`Rng::gen_range`].
pub trait SampleUniform: Sized {
    /// Samples uniformly from `[low, high)` (`high` exclusive) or
    /// `[low, high]` when `inclusive`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self {
                let span = if inclusive {
                    (high as u128).wrapping_sub(low as u128).wrapping_add(1)
                } else {
                    assert!(low < high, "gen_range: empty range");
                    (high as u128) - (low as u128)
                };
                if span == 0 {
                    // Inclusive range covering the whole domain.
                    return <Self as Random>::random(rng);
                }
                // Multiply-shift rejection-free mapping is fine for tests;
                // modulo bias is negligible at these span sizes.
                let draw = u128::random(rng) % span;
                (low as u128).wrapping_add(draw) as $t
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self {
                // Shift into the unsigned domain to reuse the uint path.
                let off = <$t>::MIN as i128;
                let lo = ((low as i128) - off) as $u;
                let hi = ((high as i128) - off) as $u;
                let drawn = <$u as SampleUniform>::sample_range(rng, lo, hi, inclusive);
                ((drawn as i128) + off) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleUniform for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self, _inclusive: bool) -> Self {
        let u = f64::random(rng);
        low + u * (high - low)
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples a value from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, *self.start(), *self.end(), true)
    }
}

/// The subset of `rand::Rng` this repository uses.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniformly random value of type `T`.
    #[inline]
    fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Draws uniformly from `range`.
    #[inline]
    fn gen_range<T: SampleUniform, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::random(self) < p
    }

    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// The subset of `rand::SeedableRng` this repository uses.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256** generator (stand-in for rand's ChaCha12
    /// `StdRng`; same trait surface, not the same stream).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w: u32 = rng.gen_range(0u32..=5);
            assert!(w <= 5);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn fill_covers_all_lengths() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in 0..33 {
            let mut buf = vec![0u8; n];
            rng.fill(&mut buf);
            if n >= 8 {
                assert!(buf.iter().any(|&b| b != 0));
            }
        }
    }

    #[test]
    fn gen_u128_uses_both_words() {
        let mut rng = StdRng::seed_from_u64(3);
        let v: u128 = rng.gen();
        assert!(v >> 64 != 0 || v as u64 != 0);
        assert_ne!(v >> 64, v & u128::from(u64::MAX));
    }
}
