//! Signed arbitrary-precision integers.
//!
//! [`Int`] is a thin sign-and-magnitude wrapper over [`Nat`]. It exists
//! for the places where subtraction must go negative: the extended
//! Euclidean algorithm, and Lagrange coefficients over the integers
//! used by threshold Paillier share combining (`Δ = n!` scaling).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};


use crate::Nat;

/// Sign of an [`Int`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// A signed arbitrary-precision integer (sign and magnitude).
///
/// # Example
///
/// ```rust
/// use yoso_bignum::{Int, Nat};
///
/// let a = Int::from(5i64);
/// let b = Int::from(-9i64);
/// assert_eq!(&a + &b, Int::from(-4i64));
/// assert_eq!((&a + &b).mod_floor(&Nat::from(7u64)), Nat::from(3u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int {
    sign: Sign,
    magnitude: Nat,
}

impl Int {
    /// The value zero.
    pub fn zero() -> Self {
        Int { sign: Sign::Zero, magnitude: Nat::zero() }
    }

    /// The value one.
    pub fn one() -> Self {
        Int { sign: Sign::Positive, magnitude: Nat::one() }
    }

    /// Constructs a non-negative integer from a [`Nat`].
    pub fn from_nat(n: Nat) -> Self {
        if n.is_zero() {
            Int::zero()
        } else {
            Int { sign: Sign::Positive, magnitude: n }
        }
    }

    /// Constructs an integer from an explicit sign and magnitude.
    ///
    /// A zero magnitude always yields the zero integer regardless of `sign`.
    pub fn from_sign_magnitude(sign: Sign, magnitude: Nat) -> Self {
        if magnitude.is_zero() {
            Int::zero()
        } else {
            match sign {
                Sign::Zero => Int::zero(),
                s => Int { sign: s, magnitude },
            }
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude `|self|`.
    pub fn magnitude(&self) -> &Nat {
        &self.magnitude
    }

    /// Returns `true` if zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Euclidean (floor) residue in `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_floor(&self, m: &Nat) -> Nat {
        let r = &self.magnitude % m;
        match self.sign {
            Sign::Negative if !r.is_zero() => m - &r,
            _ => r,
        }
    }

    /// `self * rhs` where `rhs` is an unsigned value.
    pub fn mul_nat(&self, rhs: &Nat) -> Int {
        Int::from_sign_magnitude(self.sign, &self.magnitude * rhs)
    }

    /// Exact division: `self / rhs` when the division leaves no
    /// remainder (used for integer Lagrange coefficients, where the
    /// `Δ = n!` scaling guarantees exactness).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero or does not divide `self` exactly.
    pub fn div_exact(&self, rhs: &Int) -> Int {
        assert!(!rhs.is_zero(), "div_exact: division by zero");
        let (q, r) = self.magnitude.div_rem(&rhs.magnitude);
        assert!(r.is_zero(), "div_exact: inexact division");
        let sign = match (self.sign, rhs.sign) {
            (Sign::Zero, _) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        };
        Int::from_sign_magnitude(sign, q)
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Less => Int { sign: Sign::Negative, magnitude: Nat::from(v.unsigned_abs()) },
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int { sign: Sign::Positive, magnitude: Nat::from(v as u64) },
        }
    }
}

impl From<Nat> for Int {
    fn from(n: Nat) -> Self {
        Int::from_nat(n)
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sign {
            Sign::Negative => write!(f, "-{}", self.magnitude),
            _ => write!(f, "{}", self.magnitude),
        }
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        let sign = match self.sign {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        };
        Int { sign, magnitude: self.magnitude }
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

impl Add<&Int> for &Int {
    type Output = Int;
    fn add(self, rhs: &Int) -> Int {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => Int { sign: a, magnitude: &self.magnitude + &rhs.magnitude },
            _ => match self.magnitude.cmp(&rhs.magnitude) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => {
                    Int { sign: self.sign, magnitude: &self.magnitude - &rhs.magnitude }
                }
                Ordering::Less => Int { sign: rhs.sign, magnitude: &rhs.magnitude - &self.magnitude },
            },
        }
    }
}

impl Add for Int {
    type Output = Int;
    fn add(self, rhs: Int) -> Int {
        &self + &rhs
    }
}

impl Sub<&Int> for &Int {
    type Output = Int;
    fn sub(self, rhs: &Int) -> Int {
        self + &(-rhs)
    }
}

impl Sub for Int {
    type Output = Int;
    fn sub(self, rhs: Int) -> Int {
        &self - &rhs
    }
}

impl Mul<&Int> for &Int {
    type Output = Int;
    fn mul(self, rhs: &Int) -> Int {
        let sign = match (self.sign, rhs.sign) {
            (Sign::Zero, _) | (_, Sign::Zero) => return Int::zero(),
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        };
        Int { sign, magnitude: &self.magnitude * &rhs.magnitude }
    }
}

impl Mul for Int {
    type Output = Int;
    fn mul(self, rhs: Int) -> Int {
        &self * &rhs
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Negative => -1,
                Sign::Zero => 0,
                Sign::Positive => 1,
            }
        }
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Negative => other.magnitude.cmp(&self.magnitude),
                Sign::Zero => Ordering::Equal,
                Sign::Positive => self.magnitude.cmp(&other.magnitude),
            },
            ord => ord,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Int {
        Int::from(v)
    }

    #[test]
    fn signed_addition_all_sign_combinations() {
        assert_eq!(&i(5) + &i(3), i(8));
        assert_eq!(&i(5) + &i(-3), i(2));
        assert_eq!(&i(3) + &i(-5), i(-2));
        assert_eq!(&i(-3) + &i(-5), i(-8));
        assert_eq!(&i(5) + &i(-5), i(0));
        assert_eq!(&i(0) + &i(-5), i(-5));
        assert_eq!(&i(5) + &i(0), i(5));
    }

    #[test]
    fn signed_subtraction() {
        assert_eq!(&i(5) - &i(9), i(-4));
        assert_eq!(&i(-5) - &i(-9), i(4));
        assert_eq!(&i(-5) - &i(9), i(-14));
    }

    #[test]
    fn signed_multiplication() {
        assert_eq!(&i(5) * &i(-3), i(-15));
        assert_eq!(&i(-5) * &i(-3), i(15));
        assert_eq!(&i(-5) * &i(0), i(0));
    }

    #[test]
    fn mod_floor_maps_negatives_into_range() {
        let m = Nat::from(7u64);
        assert_eq!(i(9).mod_floor(&m), Nat::from(2u64));
        assert_eq!(i(-9).mod_floor(&m), Nat::from(5u64));
        assert_eq!(i(-7).mod_floor(&m), Nat::from(0u64));
        assert_eq!(i(0).mod_floor(&m), Nat::from(0u64));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(i(-10) < i(-2));
        assert!(i(-2) < i(0));
        assert!(i(0) < i(3));
        assert!(i(3) < i(10));
    }

    #[test]
    fn zero_magnitude_normalizes_sign() {
        let z = Int::from_sign_magnitude(Sign::Negative, Nat::zero());
        assert!(z.is_zero());
        assert_eq!(z, Int::zero());
    }

    #[test]
    fn display() {
        assert_eq!(i(-42).to_string(), "-42");
        assert_eq!(i(42).to_string(), "42");
        assert_eq!(i(0).to_string(), "0");
    }
}
