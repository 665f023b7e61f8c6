//! Lagrange interpolation and recombination-vector utilities.
//!
//! Packed Shamir secret sharing reduces to two primitives implemented
//! here:
//!
//! - [`interpolate`]: recover the full polynomial through given points.
//! - [`basis_at`]: compute the Lagrange coefficient vector
//!   `(l_1(x*), …, l_m(x*))` such that
//!   `f(x*) = Σ l_j(x*) · f(x_j)` for every polynomial `f` of degree
//!   `< m`. These vectors are exactly the paper's recombination vectors
//!   used in Step 4 of the offline phase (homomorphic packing) and in
//!   the online μ-reconstruction.

use crate::{FieldError, Poly, PrimeField};

/// Batch inversion via Montgomery's trick: inverts all elements with a
/// single field inversion plus `3(n−1)` multiplications.
///
/// # Errors
///
/// Returns [`FieldError::ZeroInverse`] if any element is zero.
pub fn batch_invert<F: PrimeField>(values: &[F]) -> Result<Vec<F>, FieldError> {
    if values.is_empty() {
        return Ok(Vec::new());
    }
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = F::ONE;
    for &v in values {
        if v.is_zero() {
            return Err(FieldError::ZeroInverse);
        }
        prefix.push(acc);
        acc *= v;
    }
    let mut inv_acc = acc.inv()?;
    let mut out = vec![F::ZERO; values.len()];
    for i in (0..values.len()).rev() {
        out[i] = inv_acc * prefix[i];
        inv_acc *= values[i];
    }
    Ok(out)
}

fn check_points<F: PrimeField>(xs: &[F], ys_len: usize) -> Result<(), FieldError> {
    if xs.len() != ys_len {
        return Err(FieldError::LengthMismatch { xs: xs.len(), ys: ys_len });
    }
    for (i, a) in xs.iter().enumerate() {
        for b in &xs[i + 1..] {
            if a == b {
                return Err(FieldError::DuplicatePoint);
            }
        }
    }
    Ok(())
}

/// Interpolates the unique polynomial of degree `< xs.len()` through
/// the points `(xs[i], ys[i])`.
///
/// # Errors
///
/// Returns [`FieldError::LengthMismatch`] or
/// [`FieldError::DuplicatePoint`] on malformed input.
pub fn interpolate<F: PrimeField>(xs: &[F], ys: &[F]) -> Result<Poly<F>, FieldError> {
    check_points(xs, ys.len())?;
    let mut acc = Poly::zero();
    for (j, (&xj, &yj)) in xs.iter().zip(ys).enumerate() {
        // l_j(x) = Π_{m != j} (x - x_m) / (x_j - x_m)
        let mut numer = Poly::constant(F::ONE);
        let mut denom = F::ONE;
        for (m, &xm) in xs.iter().enumerate() {
            if m == j {
                continue;
            }
            numer = &numer * &Poly::new(vec![-xm, F::ONE]);
            denom *= xj - xm;
        }
        acc = &acc + &numer.scale(yj * denom.inv()?);
    }
    Ok(acc)
}

/// Computes the Lagrange basis vector `(l_1(x), …, l_m(x))` for the
/// node set `xs`, i.e. coefficients such that
/// `f(x) = Σ_j l_j(x) · f(xs[j])` for every polynomial `f` of degree
/// `< xs.len()`.
///
/// This is the recombination vector used throughout the protocol: for
/// packing the λ-values into packed shares (offline Step 4) and for
/// reconstructing `μ^γ` from the published shares (online phase).
///
/// # Errors
///
/// Returns [`FieldError::DuplicatePoint`] if nodes repeat.
pub fn basis_at<F: PrimeField>(xs: &[F], x: F) -> Result<Vec<F>, FieldError> {
    check_points(xs, xs.len())?;
    // Fast path: x coincides with a node.
    if let Some(pos) = xs.iter().position(|&xj| xj == x) {
        let mut out = vec![F::ZERO; xs.len()];
        out[pos] = F::ONE;
        return Ok(out);
    }
    // prod = Π (x - x_m); l_j(x) = prod / ((x - x_j) · Π_{m≠j} (x_j - x_m))
    let diffs: Vec<F> = xs.iter().map(|&xj| x - xj).collect();
    let prod: F = diffs.iter().copied().product();
    let mut denoms = Vec::with_capacity(xs.len());
    for (j, &xj) in xs.iter().enumerate() {
        let mut d = diffs[j];
        for (m, &xm) in xs.iter().enumerate() {
            if m != j {
                d *= xj - xm;
            }
        }
        denoms.push(d);
    }
    let inv = batch_invert(&denoms)?;
    Ok(inv.into_iter().map(|i| prod * i).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F61, Fp, PrimeField};
    use rand::SeedableRng;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    #[test]
    fn batch_invert_matches_individual() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let vals: Vec<F61> = (0..17).map(|_| F61::random(&mut rng)).collect();
        let inv = batch_invert(&vals).unwrap();
        for (v, i) in vals.iter().zip(&inv) {
            assert_eq!(*v * *i, F61::ONE);
        }
        assert_eq!(batch_invert::<F61>(&[]), Ok(vec![]));
        assert_eq!(batch_invert(&[f(1), F61::ZERO]), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn interpolate_recovers_random_polynomial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for deg in 0..10usize {
            let p = crate::Poly::<F61>::random(&mut rng, deg);
            let xs: Vec<F61> = (1..=deg as u64 + 1).map(f).collect();
            let ys = p.eval_many(&xs);
            let q = interpolate(&xs, &ys).unwrap();
            assert_eq!(p, q);
        }
    }

    #[test]
    fn interpolate_rejects_bad_input() {
        assert_eq!(
            interpolate(&[f(1)], &[f(1), f(2)]),
            Err(FieldError::LengthMismatch { xs: 1, ys: 2 })
        );
        assert_eq!(
            interpolate(&[f(1), f(1)], &[f(1), f(2)]),
            Err(FieldError::DuplicatePoint)
        );
    }

    #[test]
    fn basis_at_node_is_indicator() {
        let xs: Vec<F61> = (1..=5u64).map(f).collect();
        let b = basis_at(&xs, f(3)).unwrap();
        assert_eq!(b, vec![F61::ZERO, F61::ZERO, F61::ONE, F61::ZERO, F61::ZERO]);
    }

    #[test]
    fn basis_rows_sum_to_one() {
        // Σ_j l_j(x) = 1 for any x (interpolating the constant 1).
        let xs: Vec<F61> = (1..=8u64).map(f).collect();
        for x in [f(0), f(9), f(12345), F61::from_i64(-7)] {
            let b = basis_at(&xs, x).unwrap();
            assert_eq!(b.iter().copied().sum::<F61>(), F61::ONE);
        }
    }

    #[test]
    fn basis_at_transports_evaluations() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let p = crate::Poly::<F61>::random(&mut rng, 4);
        let xs: Vec<F61> = (1..=5u64).map(f).collect();
        let ys = p.eval_many(&xs);
        for t in [0i64, -1, -2, 7].map(F61::from_i64) {
            let row = basis_at(&xs, t).unwrap();
            assert_eq!(F61::dot(&row, &ys), p.eval(t));
        }
    }

    #[test]
    fn basis_at_matches_interpolate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let p = crate::Poly::<F61>::random(&mut rng, 6);
        let xs: Vec<F61> = (1..=7u64).map(f).collect();
        let ys = p.eval_many(&xs);
        let q = interpolate(&xs, &ys).unwrap();
        for x in [f(0), f(100), F61::from_i64(-3)] {
            let row = basis_at(&xs, x).unwrap();
            assert_eq!(F61::dot(&row, &ys), q.eval(x));
            assert_eq!(q.eval(x), p.eval(x));
        }
    }

    #[test]
    fn small_field_interpolation() {
        type F97 = Fp<97>;
        let xs: Vec<F97> = (1..=4u64).map(F97::from_u64).collect();
        let ys: Vec<F97> = [10u64, 20, 40, 80].iter().map(|&v| F97::from_u64(v)).collect();
        let p = interpolate(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(p.eval(*x), *y);
        }
    }
}
