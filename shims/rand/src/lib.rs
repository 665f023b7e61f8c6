//! Offline, API-compatible subset of the `rand` crate (0.8 series).
//!
//! The build container has no network access to crates.io, so the
//! workspace vendors the small slice of `rand` it actually uses:
//! [`RngCore`], [`SeedableRng`], the [`Rng`] extension trait with
//! `gen`, [`rngs::StdRng`] (xoshiro256++ behind the same API), and
//! [`seq::SliceRandom::shuffle`].
//!
//! Determinism matters more than distribution pedigree here: every
//! protocol test seeds explicitly via `seed_from_u64`, and all
//! assertions are self-consistent (round-trips, algebraic identities),
//! never golden constants tied to upstream `rand`'s stream.

#![forbid(unsafe_code)]

use core::fmt;

/// Error type for fallible RNG operations (never produced by the
/// deterministic generators in this workspace).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rng error")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible [`Self::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Marker for cryptographically secure generators.
pub trait CryptoRng {}

impl<R: CryptoRng + ?Sized> CryptoRng for &mut R {}

/// A generator seedable from a fixed-size byte seed.
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64` seed by expanding it with
    /// SplitMix64 (the same construction upstream `rand` uses).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut state).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// One SplitMix64 step: advances `state` and returns the next word.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types samplable from raw generator output via [`Rng::gen`]
/// (stand-in for `rand::distributions::Standard`).
pub trait Standard: Sized {
    /// Samples a uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                let mut wide: u128 = 0;
                let mut produced = 0usize;
                while produced < <$t>::BITS as usize {
                    wide = (wide << 64) | rng.next_u64() as u128;
                    produced += 64;
                }
                wide as $t
            }
        }
    )*};
}

impl_standard_uint!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits mapped to [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl<const N: usize, T: Standard> Standard for [T; N] {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        core::array::from_fn(|_| T::sample(rng))
    }
}

/// Extension methods over [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples a uniform value in `[0, bound)`.
    ///
    /// Only the half-open `low..high` integer form used by this
    /// workspace is supported.
    fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + uniform_below(self, range.end - range.start)
    }

    /// Samples a boolean that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform value in `[0, bound)` by rejection sampling (unbiased, and
/// identical across platforms).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, CryptoRng, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator:
    /// xoshiro256++ behind `rand::rngs::StdRng`'s API surface.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }

        /// The generator whose state is `s`; xoshiro must not start
        /// from the all-zero state, so that one is replaced.
        #[inline]
        fn from_state(s: [u64; 4]) -> Self {
            if s == [0, 0, 0, 0] {
                return StdRng {
                    s: [0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB, 1],
                };
            }
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(b);
            }
            Self::from_state(s)
        }

        /// The trait's SplitMix64 expansion, its words written straight
        /// into the state: the little-endian byte seed read back as
        /// words is the words themselves.
        #[inline]
        fn seed_from_u64(mut state: u64) -> Self {
            Self::from_state(std::array::from_fn(|_| splitmix64(&mut state)))
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&bytes[..n]);
            }
        }
    }

    impl CryptoRng for StdRng {}
}

/// Sequence-related helpers.
pub mod seq {
    use super::{uniform_below, RngCore};

    /// Slice extension methods (subset: `shuffle`, `choose`).
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[uniform_below(rng, self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_types_and_ranges() {
        let mut r = StdRng::seed_from_u64(1);
        let _: u64 = r.gen();
        let f: f64 = r.gen();
        assert!((0.0..1.0).contains(&f));
        for _ in 0..100 {
            let v = r.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn seeding_from_a_u64_is_the_byte_wise_expansion() {
        /// The trait's default: SplitMix64 words through a byte seed.
        fn byte_wise(state: u64) -> StdRng {
            struct Bytes([u8; 32]);
            impl SeedableRng for Bytes {
                type Seed = [u8; 32];
                fn from_seed(seed: [u8; 32]) -> Self {
                    Bytes(seed)
                }
            }
            StdRng::from_seed(Bytes::seed_from_u64(state).0)
        }
        let random = StdRng::seed_from_u64(20261017).next_u64();
        for seed in [0, 1, 5, u64::MAX, random] {
            let (mut direct, mut bytes) = (StdRng::seed_from_u64(seed), byte_wise(seed));
            let draws = |r: &mut StdRng| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
            assert_eq!(draws(&mut direct), draws(&mut bytes), "seed {seed}");
        }
    }

    #[test]
    fn fill_bytes_chunks_agree_with_stream() {
        let mut a = StdRng::seed_from_u64(4);
        let mut b = StdRng::seed_from_u64(4);
        let mut big = [0u8; 24];
        a.fill_bytes(&mut big);
        let mut parts = Vec::new();
        for _ in 0..3 {
            let mut buf = [0u8; 8];
            b.fill_bytes(&mut buf);
            parts.extend_from_slice(&buf);
        }
        assert_eq!(parts, big.to_vec());
    }
}
