//! A const-generic small prime field for tests.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};


use crate::PrimeField;

/// An element of `F_P` for a small prime `P` (must satisfy `P < 2^31`
/// so products fit comfortably in `u64`).
///
/// Exists so unit and property tests can exercise the generic MPC stack
/// over tiny fields where exhaustive checks are feasible.
///
/// # Example
///
/// ```rust
/// use yoso_field::{Fp, PrimeField};
///
/// type F97 = Fp<97>;
/// let a = F97::from_u64(50);
/// let b = F97::from_u64(60);
/// assert_eq!((a + b).as_u64(), 13);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp<const P: u64>(u64);

impl<const P: u64> Fp<P> {
    const ASSERT_SMALL: () = assert!(P < (1 << 31), "Fp modulus must be < 2^31");
}

impl<const P: u64> PrimeField for Fp<P> {
    const MODULUS: u64 = P;
    const ZERO: Self = Fp(0);
    const ONE: Self = Fp(1 % P);

    fn from_u64(v: u64) -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::ASSERT_SMALL;
        Fp(v % P)
    }

    fn as_u64(&self) -> u64 {
        self.0
    }
}

impl<const P: u64> fmt::Debug for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp<{P}>({})", self.0)
    }
}

impl<const P: u64> fmt::Display for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const P: u64> Add for Fp<P> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp((self.0 + rhs.0) % P)
    }
}

impl<const P: u64> Sub for Fp<P> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp((self.0 + P - rhs.0) % P)
    }
}

impl<const P: u64> Mul for Fp<P> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Fp(self.0 * rhs.0 % P)
    }
}

impl<const P: u64> Neg for Fp<P> {
    type Output = Self;
    fn neg(self) -> Self {
        Fp((P - self.0) % P)
    }
}

impl<const P: u64> AddAssign for Fp<P> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const P: u64> SubAssign for Fp<P> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const P: u64> MulAssign for Fp<P> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const P: u64> Sum for Fp<P> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<const P: u64> Product for Fp<P> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<const P: u64> From<u64> for Fp<P> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldError;

    type F97 = Fp<97>;
    type F13 = Fp<13>;

    #[test]
    fn exhaustive_inverse_f97() {
        for v in 1..97u64 {
            let a = F97::from_u64(v);
            assert_eq!(a * a.inv().unwrap(), F97::ONE);
        }
        assert_eq!(F97::ZERO.inv(), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn exhaustive_field_axioms_f13() {
        for a in 0..13u64 {
            for b in 0..13u64 {
                let (fa, fb) = (F13::from_u64(a), F13::from_u64(b));
                assert_eq!(fa + fb, fb + fa);
                assert_eq!(fa * fb, fb * fa);
                assert_eq!(fa - fb, -(fb - fa));
                for c in 0..13u64 {
                    let fc = F13::from_u64(c);
                    assert_eq!(fa * (fb + fc), fa * fb + fa * fc);
                    assert_eq!((fa + fb) + fc, fa + (fb + fc));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = F97::from_u64(5);
        let mut acc = F97::ONE;
        for e in 0..30u64 {
            assert_eq!(a.pow(e), acc);
            acc *= a;
        }
    }

    #[test]
    fn from_i64_embedding() {
        assert_eq!(F97::from_i64(-1).as_u64(), 96);
        assert_eq!(F97::from_i64(-97), F97::ZERO);
    }
}
