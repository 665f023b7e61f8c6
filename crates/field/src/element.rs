//! The [`PrimeField`] trait and the production field [`F61`].

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::FieldError;

/// A prime field element abstraction.
///
/// Implementors are `Copy` value types with canonical representation:
/// two elements are equal iff their representations are equal.
///
/// The MPC stack is generic over this trait so that tests can run over
/// tiny fields ([`crate::Fp<97>`](crate::Fp)) while production runs
/// over [`F61`].
pub trait PrimeField:
    Copy
    + Clone
    + fmt::Debug
    + fmt::Display
    + PartialEq
    + Eq
    + std::hash::Hash
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
    + 'static
{
    /// The field modulus, as `u64` (all fields in this workspace fit).
    const MODULUS: u64;

    /// Additive identity.
    const ZERO: Self;

    /// Multiplicative identity.
    const ONE: Self;

    /// Constructs an element by reducing a `u64`.
    fn from_u64(v: u64) -> Self;

    /// Canonical residue in `[0, MODULUS)`.
    fn as_u64(&self) -> u64;

    /// Returns `true` for the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] on zero.
    fn inv(&self) -> Result<Self, FieldError> {
        if self.is_zero() {
            return Err(FieldError::ZeroInverse);
        }
        // Fermat: a^(p-2).
        Ok(self.pow(Self::MODULUS - 2))
    }

    /// Exponentiation by a `u64` exponent (square and multiply).
    fn pow(&self, mut e: u64) -> Self {
        let mut base = *self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    /// Uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_u64(rng.gen::<u64>())
    }

    /// Canonical 8-byte little-endian encoding.
    fn to_bytes(&self) -> [u8; 8] {
        self.as_u64().to_le_bytes()
    }

    /// Decodes a canonical 8-byte little-endian encoding.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NonCanonicalBytes`] if the value is not
    /// reduced.
    fn from_bytes(bytes: &[u8; 8]) -> Result<Self, FieldError> {
        let v = u64::from_le_bytes(*bytes);
        if v >= Self::MODULUS {
            return Err(FieldError::NonCanonicalBytes);
        }
        Ok(Self::from_u64(v))
    }

    /// The element `-1`.
    fn minus_one() -> Self {
        -Self::ONE
    }

    /// Embeds a signed small integer (used for evaluation points
    /// `-(i-1)` in packed sharing).
    fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Self::from_u64(v as u64)
        } else {
            -Self::from_u64(v.unsigned_abs())
        }
    }

    /// Inner product `Σ a[i]·b[i]` of two equally long slices.
    ///
    /// Field arithmetic is exact, so an override may reorder or delay
    /// reductions ([`F61`] does) and still return the same element as
    /// this fold.
    fn dot(a: &[Self], b: &[Self]) -> Self {
        debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
        a.iter().zip(b).fold(Self::ZERO, |acc, (&x, &y)| acc + x * y)
    }

    /// Extends a polynomial along consecutive points from its forward
    /// differences: given `diffs[j] = Δ^j f(x₀)` for `j = 0..=deg f`,
    /// writes `f(x₀), f(x₀ + 1), …` into `out`. Each further point
    /// costs `deg f` additions, `d_j ← d_j + d_{j+1}`, and no
    /// multiplication.
    ///
    /// Like [`Self::dot`], an override may delay reductions ([`F61`]
    /// does) and still writes the elements this fold writes.
    fn extend_differences(diffs: &[Self], out: &mut [Self]) {
        let mut d = diffs.to_vec();
        for y in out {
            *y = d.first().copied().unwrap_or(Self::ZERO);
            for j in 1..d.len() {
                let next = d[j];
                d[j - 1] += next;
            }
        }
    }
}

/// The Mersenne prime `p = 2^61 − 1`.
pub const P61: u64 = (1u64 << 61) - 1;

/// An element of `F_p` for the Mersenne prime `p = 2^61 − 1`.
///
/// Internally a `u64` kept in `[0, p)`. Products use `u128`
/// intermediates with two-step Mersenne reduction.
///
/// # Example
///
/// ```rust
/// use yoso_field::{F61, PrimeField};
///
/// let a = F61::from(3u64);
/// let b = a.pow(40);
/// assert_eq!(b * b.inv()?, F61::ONE);
/// # Ok::<(), yoso_field::FieldError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F61(u64);

impl F61 {
    /// Constructs from a raw canonical residue.
    ///
    /// # Panics
    ///
    /// Debug-panics if `v >= p`.
    #[inline]
    pub fn from_canonical(v: u64) -> Self {
        debug_assert!(v < P61);
        F61(v)
    }

    /// Reduces the product of two canonical residues: it is below
    /// `2^122`, so two 61-bit chunks whose sum is below `2p`.
    #[inline]
    fn reduce_product(v: u128) -> u64 {
        debug_assert!(v >> 122 == 0);
        let s = (v as u64 & P61) + (v >> 61) as u64;
        if s >= P61 {
            s - P61
        } else {
            s
        }
    }

    /// Reduces an arbitrary `u128` modulo `p = 2^61 − 1` ([`Self::dot`]'s
    /// 32-term sums).
    #[inline]
    fn reduce128(v: u128) -> u64 {
        // Split into 61-bit chunks and add: since p = 2^61 - 1,
        // 2^61 ≡ 1 (mod p).
        let lo = (v & P61 as u128) as u64;
        let mid = ((v >> 61) & P61 as u128) as u64;
        let hi = (v >> 122) as u64;
        let mut s = lo as u128 + mid as u128 + hi as u128;
        if s >= P61 as u128 {
            s -= P61 as u128;
        }
        if s >= P61 as u128 {
            s -= P61 as u128;
        }
        s as u64
    }
}

impl PrimeField for F61 {
    const MODULUS: u64 = P61;
    const ZERO: Self = F61(0);
    const ONE: Self = F61(1);

    #[inline]
    fn from_u64(v: u64) -> Self {
        // v < 2^64 = 8 * 2^61; fold twice.
        let folded = (v & P61) + (v >> 61);
        F61(if folded >= P61 { folded - P61 } else { folded })
    }

    #[inline]
    fn as_u64(&self) -> u64 {
        self.0
    }

    /// Lazy reduction: raw 61×61-bit products are summed in a `u128`
    /// and reduced once per `DOT_CHUNK` terms. The multiply-adds of a
    /// chunk do not depend on each other, unlike the reduce-per-term
    /// fold.
    #[inline]
    fn dot(a: &[F61], b: &[F61]) -> F61 {
        debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
        let mut acc = 0u64;
        for (ca, cb) in a.chunks(DOT_CHUNK).zip(b.chunks(DOT_CHUNK)) {
            // acc < 2^61 plus at most 32 products < 2^122 each: < 2^128.
            let mut wide = u128::from(acc);
            for (x, y) in ca.iter().zip(cb) {
                wide += u128::from(x.0) * u128::from(y.0);
            }
            acc = F61::reduce128(wide);
        }
        F61(acc)
    }

    /// Raw residues in two ping-pong buffers, two steps a pass: one
    /// plain, `d_j + d_{j+1}`, and one folded by `(v & p) + (v >> 61)`,
    /// together `fold(d_j + 2·d_{j+1} + d_{j+2})`. A folded entry is at
    /// most `p + 7`, so the plain step leaves at most `2(p + 7)` and
    /// the sum at most `4(p + 7) < 2^64`. Only the values written out
    /// are made canonical. The last `diffs.len() − 1` points no longer
    /// need the high differences, so the live prefix shrinks with the
    /// points left.
    fn extend_differences(diffs: &[F61], out: &mut [F61]) {
        // The top difference is constant and the one above it zero:
        // they sit in both buffers and are never written.
        let mut a: Vec<u64> = diffs.iter().map(|d| d.0).chain([0, 0]).collect();
        let mut b = a.clone();
        let mut left = out.len();
        for pair in out.chunks_mut(2) {
            pair[0] = F61::from_u64(a[0]);
            if let Some(second) = pair.get_mut(1) {
                *second = F61::from_u64(a[0] + a[1]);
                left -= 2;
                let live = left.min(diffs.len().saturating_sub(1));
                for (d, w) in b[..live].iter_mut().zip(a[..live + 2].windows(3)) {
                    let v = w[0] + 2 * w[1] + w[2];
                    *d = (v & P61) + (v >> 61);
                }
                std::mem::swap(&mut a, &mut b);
            }
        }
    }
}

/// Terms [`F61::dot`] accumulates between reductions: canonical
/// residues are `< 2^61`, so a product is `< 2^122` and 32 of them (plus
/// the carried-in residue) stay below `2^128`.
const DOT_CHUNK: usize = 32;

impl From<u64> for F61 {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u32> for F61 {
    fn from(v: u32) -> Self {
        F61(v as u64)
    }
}

impl fmt::Debug for F61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F61({})", self.0)
    }
}

impl fmt::Display for F61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for F61 {
    type Output = F61;
    #[inline]
    fn add(self, rhs: F61) -> F61 {
        let s = self.0 + rhs.0; // < 2^62, no overflow
        F61(if s >= P61 { s - P61 } else { s })
    }
}

impl Sub for F61 {
    type Output = F61;
    #[inline]
    fn sub(self, rhs: F61) -> F61 {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        F61(if borrow { d.wrapping_add(P61) } else { d })
    }
}

impl Mul for F61 {
    type Output = F61;
    #[inline]
    fn mul(self, rhs: F61) -> F61 {
        F61(F61::reduce_product(self.0 as u128 * rhs.0 as u128))
    }
}

impl Neg for F61 {
    type Output = F61;
    #[inline]
    fn neg(self) -> F61 {
        if self.0 == 0 {
            self
        } else {
            F61(P61 - self.0)
        }
    }
}

impl AddAssign for F61 {
    #[inline]
    fn add_assign(&mut self, rhs: F61) {
        *self = *self + rhs;
    }
}

impl SubAssign for F61 {
    #[inline]
    fn sub_assign(&mut self, rhs: F61) {
        *self = *self - rhs;
    }
}

impl MulAssign for F61 {
    #[inline]
    fn mul_assign(&mut self, rhs: F61) {
        *self = *self * rhs;
    }
}

impl Sum for F61 {
    fn sum<I: Iterator<Item = F61>>(iter: I) -> F61 {
        iter.fold(F61::ZERO, |a, b| a + b)
    }
}

impl Product for F61 {
    fn product<I: Iterator<Item = F61>>(iter: I) -> F61 {
        iter.fold(F61::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constants() {
        assert_eq!(F61::ZERO.as_u64(), 0);
        assert_eq!(F61::ONE.as_u64(), 1);
        assert_eq!(F61::MODULUS, (1u64 << 61) - 1);
        assert_eq!(F61::default(), F61::ZERO);
    }

    #[test]
    fn from_u64_reduces() {
        assert_eq!(F61::from_u64(P61), F61::ZERO);
        assert_eq!(F61::from_u64(P61 + 5), F61::from(5u64));
        assert_eq!(F61::from_u64(u64::MAX).as_u64(), u64::MAX % P61);
    }

    #[test]
    fn add_sub_wraparound() {
        let a = F61::from_canonical(P61 - 1);
        assert_eq!(a + F61::ONE, F61::ZERO);
        assert_eq!(F61::ZERO - F61::ONE, a);
        assert_eq!(-F61::ONE, a);
        assert_eq!(-F61::ZERO, F61::ZERO);
    }

    #[test]
    fn mul_reduction_matches_u128_reference() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let a = rng.gen::<u64>() % P61;
            let b = rng.gen::<u64>() % P61;
            let expect = ((a as u128 * b as u128) % P61 as u128) as u64;
            assert_eq!((F61(a) * F61(b)).as_u64(), expect);
        }
    }

    #[test]
    fn mul_reduction_at_the_corners() {
        let corners =
            [0, 1, 2, P61 - 2, P61 - 1, 1 << 60, (1 << 32) - 1, (1 << 32) + 1];
        for a in corners {
            for b in corners {
                let expect = ((a as u128 * b as u128) % P61 as u128) as u64;
                assert_eq!((F61(a) * F61(b)).as_u64(), expect, "{a} · {b}");
            }
        }
    }

    #[test]
    fn pow_and_inverse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let a = F61::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inv().unwrap(), F61::ONE);
            assert_eq!(a.pow(P61 - 1), F61::ONE); // Fermat
        }
        assert_eq!(F61::ZERO.inv(), Err(FieldError::ZeroInverse));
        assert_eq!(F61::from(5u64).pow(0), F61::ONE);
    }

    #[test]
    fn bytes_roundtrip_and_canonicality() {
        let a = F61::from(0x1234_5678_9abcu64);
        assert_eq!(F61::from_bytes(&a.to_bytes()).unwrap(), a);
        let bad = u64::MAX.to_le_bytes();
        assert_eq!(F61::from_bytes(&bad), Err(FieldError::NonCanonicalBytes));
    }

    #[test]
    fn from_i64_negative_points() {
        assert_eq!(F61::from_i64(-1), -F61::ONE);
        assert_eq!(F61::from_i64(-5) + F61::from(5u64), F61::ZERO);
        assert_eq!(F61::from_i64(7), F61::from(7u64));
    }

    #[test]
    fn sum_and_product() {
        let vals = [1u64, 2, 3, 4].map(F61::from);
        assert_eq!(vals.iter().copied().sum::<F61>(), F61::from(10u64));
        assert_eq!(vals.iter().copied().product::<F61>(), F61::from(24u64));
    }
}
