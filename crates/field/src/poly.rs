//! Dense univariate polynomials over a prime field.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use rand::Rng;

use crate::PrimeField;

/// A dense univariate polynomial with coefficients in ascending degree
/// order. The zero polynomial has an empty coefficient vector; otherwise
/// the leading coefficient is non-zero.
///
/// # Example
///
/// ```rust
/// use yoso_field::{F61, Poly, PrimeField};
///
/// // f(x) = 1 + 2x + 3x^2
/// let f = Poly::new(vec![F61::from(1u64), F61::from(2u64), F61::from(3u64)]);
/// assert_eq!(f.eval(F61::from(2u64)), F61::from(17u64));
/// assert_eq!(f.degree(), Some(2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Poly<F: PrimeField> {
    coeffs: Vec<F>,
}

impl<F: PrimeField> Poly<F> {
    /// Constructs a polynomial from coefficients (constant term first),
    /// trimming leading zeros.
    pub fn new(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Poly::new(vec![c])
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Coefficients in ascending degree order.
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Coefficient of `x^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> F {
        self.coeffs.get(i).copied().unwrap_or(F::ZERO)
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: F) -> F {
        let mut acc = F::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates at many points.
    pub fn eval_many(&self, xs: &[F]) -> Vec<F> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// A uniformly random polynomial of degree at most `degree`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, degree: usize) -> Self {
        Poly::new((0..=degree).map(|_| F::random(rng)).collect())
    }

    /// A uniformly random polynomial of degree at most `degree` with
    /// the prescribed value at `x = point`.
    pub fn random_with_value<R: Rng + ?Sized>(rng: &mut R, degree: usize, point: F, value: F) -> Self {
        let mut p = Self::random(rng, degree);
        let delta = value - p.eval(point);
        // Adjust the constant term is wrong if point-dependence matters;
        // instead add delta * basis where basis(point) = 1: use constant shift
        // only when it keeps the prescribed value exact — a constant shift
        // changes the value at every point equally, so it is exact.
        p = &p + &Poly::constant(delta);
        debug_assert_eq!(p.eval(point), value);
        p
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, s: F) -> Self {
        Poly::new(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// The monic polynomial `∏ (x − r)` over the given roots.
    pub fn from_roots(roots: &[F]) -> Self {
        let mut acc = Poly::constant(F::ONE);
        for &r in roots {
            acc = &acc * &Poly::new(vec![-r, F::ONE]);
        }
        acc
    }

    /// Euclidean division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly<F>) -> (Poly<F>, Poly<F>) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let d = divisor.degree().unwrap();
        if self.degree().is_none() || self.degree().unwrap() < d {
            return (Poly::zero(), self.clone());
        }
        let lead_inv = divisor.coeffs[d].inv().expect("leading coefficient is non-zero");
        let mut rem = self.coeffs.clone();
        let mut quot = vec![F::ZERO; rem.len() - d];
        for i in (d..rem.len()).rev() {
            let q = rem[i] * lead_inv;
            quot[i - d] = q;
            if !q.is_zero() {
                for j in 0..=d {
                    let t = divisor.coeffs[j] * q;
                    rem[i - d + j] -= t;
                }
            }
        }
        (Poly::new(quot), Poly::new(rem))
    }
}

impl<F: PrimeField> fmt::Debug for Poly<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(")?;
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "{c}")?,
                1 => write!(f, "{c}·x")?,
                _ => write!(f, "{c}·x^{i}")?,
            }
        }
        write!(f, ")")
    }
}

impl<F: PrimeField> Add for &Poly<F> {
    type Output = Poly<F>;
    fn add(self, rhs: &Poly<F>) -> Poly<F> {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.coeff(i) + rhs.coeff(i));
        }
        Poly::new(out)
    }
}

impl<F: PrimeField> Sub for &Poly<F> {
    type Output = Poly<F>;
    fn sub(self, rhs: &Poly<F>) -> Poly<F> {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.coeff(i) - rhs.coeff(i));
        }
        Poly::new(out)
    }
}

impl<F: PrimeField> Mul for &Poly<F> {
    type Output = Poly<F>;
    fn mul(self, rhs: &Poly<F>) -> Poly<F> {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![F::ZERO; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F61;
    use rand::SeedableRng;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn poly(cs: &[u64]) -> Poly<F61> {
        Poly::new(cs.iter().map(|&c| f(c)).collect())
    }

    #[test]
    fn construction_trims_leading_zeros() {
        let p = poly(&[1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(Poly::<F61>::new(vec![F61::ZERO; 4]), Poly::zero());
        assert_eq!(Poly::<F61>::zero().degree(), None);
    }

    #[test]
    fn eval_horner() {
        let p = poly(&[1, 2, 3]); // 1 + 2x + 3x^2
        assert_eq!(p.eval(f(0)), f(1));
        assert_eq!(p.eval(f(1)), f(6));
        assert_eq!(p.eval(f(2)), f(17));
        assert_eq!(Poly::<F61>::zero().eval(f(5)), F61::ZERO);
    }

    #[test]
    fn add_sub_mul() {
        let a = poly(&[1, 2]);
        let b = poly(&[3, 4, 5]);
        assert_eq!(&a + &b, poly(&[4, 6, 5]));
        assert_eq!(&(&a + &b) - &b, a);
        // (1+2x)(3+4x+5x^2) = 3 + 10x + 13x^2 + 10x^3
        assert_eq!(&a * &b, poly(&[3, 10, 13, 10]));
        assert_eq!(&a * &Poly::zero(), Poly::zero());
    }

    #[test]
    fn from_roots_vanishes_exactly_there() {
        let roots = [f(1), f(5), f(9)];
        let p = Poly::from_roots(&roots);
        assert_eq!(p.degree(), Some(3));
        for r in roots {
            assert_eq!(p.eval(r), F61::ZERO);
        }
        assert_ne!(p.eval(f(2)), F61::ZERO);
    }

    #[test]
    fn div_rem_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let a = Poly::<F61>::random(&mut rng, 12);
            let b = Poly::<F61>::random(&mut rng, 5);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            assert!(r.degree().unwrap_or(0) < b.degree().unwrap() || r.is_zero());
            assert_eq!(&(&q * &b) + &r, a);
        }
    }

    #[test]
    fn random_with_value_hits_target() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for d in 0..8 {
            let p = Poly::<F61>::random_with_value(&mut rng, d, f(7), f(42));
            assert_eq!(p.eval(f(7)), f(42));
            assert!(p.degree().unwrap_or(0) <= d);
        }
    }

    #[test]
    fn debug_format_is_nonempty() {
        assert_eq!(format!("{:?}", Poly::<F61>::zero()), "Poly(0)");
        assert!(format!("{:?}", poly(&[1, 0, 3])).contains("x^2"));
    }
}
