//! A mixed-radix number-theoretic transform for quasi-linear
//! evaluation.
//!
//! # Why mixed-radix
//!
//! The production field `F_{2^61−1}` has 2-adicity **1**:
//! `p − 1 = 2 · (2^60 − 1)` with
//! `2^60 − 1 = 3²·5²·7·11·13·31·41·61·151·331·1321`, so the largest
//! power-of-two multiplicative subgroup has order 2 and a radix-2 NTT
//! does not exist. Instead, [`NttDomain`] runs a mixed-radix
//! Cooley–Tukey decimation-in-time transform over any *smooth*
//! subgroup size dividing `p − 1` (every prime radix at most
//! [`MAX_RADIX`]). The smooth divisors of `p − 1` are dense — 18, 33,
//! 143, 525, 1287, 2002, … — so a suitable size is always within a
//! small factor of any target `n + k`.
//!
//! For a size `N = r·m` the transform splits the coefficient vector
//! into `r` stride-`r` subsequences, recursively transforms each over
//! the order-`m` subgroup, and recombines with `N·r` twiddle
//! multiplications, for a total cost of `N · Σ rᵢ` field
//! multiplications over the prime factorisation `N = Π rᵢ` —
//! `O(N log N)` for smooth `N`, against `O(N²)` for a cold Lagrange
//! interpolation.
//!
//! # Status
//!
//! Nothing in the protocol runs a transform: the packed sharing deals
//! by finite differences over its consecutive points, which costs
//! less than one forward transform at every committee size measured.
//! What is left is the forward transform the frozen benchmark package
//! times; it goes when that package is repaired.

use crate::{FieldError, PrimeField};

/// Largest prime radix the transform will decompose into. Domain
/// sizes with a prime factor above this bound are rejected as
/// unsupported (the per-radix combine is dense, costing `N·r`
/// multiplications, so very large radices forfeit the speedup).
pub const MAX_RADIX: usize = 64;

/// The multiplicative subgroup `{ω^i : 0 ≤ i < size}` for an
/// order-`size` root of unity `ω`, with the twiddle table of the
/// forward mixed-radix transform.
#[derive(Debug, Clone)]
pub struct NttDomain<F: PrimeField> {
    size: usize,
    /// Prime factors of `size` with multiplicity, descending.
    radices: Vec<usize>,
    /// Twiddles `ω^i`, `0 ≤ i < size`: also the evaluation points.
    powers: Vec<F>,
    /// Field multiplications per transform (`N · Σ rᵢ`), reported to
    /// [`crate::transformstats`] on every run.
    butterfly_ops: u64,
}

impl<F: PrimeField> NttDomain<F> {
    /// Builds the subgroup domain of order `size`, rooted at the
    /// canonical generator: `ω = g^{(p−1)/size}` for the smallest
    /// multiplicative generator `g` of `F*`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::UnsupportedDomainSize`] if `size` is zero,
    /// does not divide `p − 1`, or has a prime factor above
    /// [`MAX_RADIX`].
    pub fn new(size: usize) -> Result<Self, FieldError> {
        let order = F::MODULUS - 1;
        if size == 0 || order % (size as u64) != 0 {
            return Err(FieldError::UnsupportedDomainSize { size });
        }
        let radices = smooth_radices(size)?;
        let root = field_generator::<F>()?.pow(order / (size as u64));
        let powers = std::iter::successors(Some(F::ONE), |&p| Some(p * root)).take(size).collect();
        let butterfly_ops = (size as u64) * radices.iter().map(|&r| r as u64).sum::<u64>();
        Ok(NttDomain { size, radices, powers, butterfly_ops })
    }

    /// Forward transform: evaluates the polynomial with coefficient
    /// vector `coeffs` (length exactly `size`) at every domain point,
    /// returning `[f(ω^0), …, f(ω^{N−1})]`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::LengthMismatch`] unless
    /// `coeffs.len() == size`.
    pub fn forward(&self, coeffs: &[F]) -> Result<Vec<F>, FieldError> {
        if coeffs.len() != self.size {
            return Err(FieldError::LengthMismatch { xs: self.size, ys: coeffs.len() });
        }
        crate::transformstats::bump_butterflies(self.butterfly_ops);
        let mut out = vec![F::ZERO; self.size];
        let mut work = vec![F::ZERO; self.size];
        dft_into(coeffs, 0, 1, &self.radices, 1, &self.powers, &mut out, &mut work);
        Ok(out)
    }
}

/// Whether `size` indexes a supported transform domain in `F`: it must
/// divide `p − 1` and be [`MAX_RADIX`]-smooth.
pub fn supported_size<F: PrimeField>(size: usize) -> bool {
    size >= 1 && (F::MODULUS - 1) % (size as u64) == 0 && smooth_radices(size).is_ok()
}

/// Prime factors of `size` with multiplicity, sorted descending;
/// rejects factors above [`MAX_RADIX`].
fn smooth_radices(size: usize) -> Result<Vec<usize>, FieldError> {
    if size == 0 {
        return Err(FieldError::UnsupportedDomainSize { size });
    }
    let mut out = Vec::new();
    let mut m = size as u64;
    let mut d = 2u64;
    while d * d <= m {
        while m.is_multiple_of(d) {
            out.push(d as usize);
            m /= d;
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if m > 1 {
        if m > MAX_RADIX as u64 {
            return Err(FieldError::UnsupportedDomainSize { size });
        }
        out.push(m as usize);
    }
    if out.iter().any(|&r| r > MAX_RADIX) {
        return Err(FieldError::UnsupportedDomainSize { size });
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    Ok(out)
}

/// Distinct prime factors of `m` by trial division. Terminates quickly
/// for the moduli in use: each found factor is divided out, so the
/// loop bound shrinks with the remaining cofactor (for `2^61 − 2` the
/// largest prime factor is 1321).
fn distinct_prime_factors(mut m: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 2u64;
    while d * d <= m {
        if m.is_multiple_of(d) {
            out.push(d);
            while m.is_multiple_of(d) {
                m /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if m > 1 {
        out.push(m);
    }
    out
}

/// The smallest multiplicative generator of `F*`, found
/// deterministically: the least `g ≥ 2` with `g^{(p−1)/q} ≠ 1` for
/// every prime `q | p − 1`.
fn field_generator<F: PrimeField>() -> Result<F, FieldError> {
    let order = F::MODULUS - 1;
    let primes = distinct_prime_factors(order);
    for g in 2..F::MODULUS {
        let gf = F::from_u64(g);
        if primes.iter().all(|&q| gf.pow(order / q) != F::ONE) {
            return Ok(gf);
        }
    }
    // Unreachable for a prime modulus: F* is cyclic and has a generator.
    Err(FieldError::UnsupportedDomainSize { size: 0 })
}

/// Recursive mixed-radix decimation-in-time DFT into caller buffers.
///
/// Transforms the `n_cur = Π radices` coefficients
/// `input[offset + i·stride]` with the root `ω_cur = table[tstep]`
/// (where `table[i]` is the `i`-th power of the full domain's root and
/// `n_cur · tstep = table.len()`), writing the `n_cur` evaluations in
/// exponent order to `out[..n_cur]`. For `n_cur = r·m` it splits into
/// `r` stride-`r` subsequences: `A(ω^j) = Σ_t ω^{jt} · B_t[j mod m]`
/// with `B_t` the order-`m` sub-DFT of subsequence `t`.
///
/// `work[..n_cur]` is the recursion buffer: sub-DFT `t` lands in
/// `work[t·m .. (t+1)·m]`, and each child borrows the matching chunk of
/// `out` as its own working space (the chunks are disjoint, so the
/// whole recursion performs no allocation — the old shape allocated a
/// `Vec` per sub-transform per level, `O(N log N)` transient bytes).
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn dft_into<F: PrimeField>(
    input: &[F],
    offset: usize,
    stride: usize,
    radices: &[usize],
    tstep: usize,
    table: &[F],
    out: &mut [F],
    work: &mut [F],
) {
    let Some((&r, rest)) = radices.split_first() else {
        out[0] = input[offset];
        return;
    };
    let m: usize = rest.iter().product();
    let n_cur = r * m;
    let size = table.len();
    for t in 0..r {
        dft_into(
            input,
            offset + t * stride,
            stride * r,
            rest,
            tstep * r,
            table,
            &mut work[t * m..(t + 1) * m],
            &mut out[t * m..(t + 1) * m],
        );
    }
    for j in 0..n_cur {
        let jm = j % m;
        // Twiddle index step (tstep·j) mod size, widened to avoid
        // overflow; per-term indices then advance additively.
        let step = ((tstep as u128 * j as u128) % size as u128) as usize;
        let mut idx = 0usize;
        let mut acc = F::ZERO;
        for t in 0..r {
            acc += table[idx] * work[t * m + jm];
            idx += step;
            if idx >= size {
                idx -= size;
            }
        }
        out[j] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp, Poly, F61};
    use rand::SeedableRng;

    type F97 = Fp<97>;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn generator_is_primitive() {
        let g = field_generator::<F61>().unwrap();
        let order = F61::MODULUS - 1;
        assert_eq!(g.pow(order), F61::ONE);
        for q in distinct_prime_factors(order) {
            assert_ne!(g.pow(order / q), F61::ONE, "q = {q}");
        }
        assert_eq!(field_generator::<F97>().unwrap().pow(96), F97::ONE);
    }

    #[test]
    fn rejects_unsupported_sizes() {
        // 2-adicity of F61 is 1: no order-4 subgroup exists.
        assert_eq!(
            NttDomain::<F61>::new(4).unwrap_err(),
            FieldError::UnsupportedDomainSize { size: 4 }
        );
        // 151 divides p − 1 but exceeds MAX_RADIX.
        assert_eq!(
            NttDomain::<F61>::new(151).unwrap_err(),
            FieldError::UnsupportedDomainSize { size: 151 }
        );
        assert_eq!(
            NttDomain::<F61>::new(0).unwrap_err(),
            FieldError::UnsupportedDomainSize { size: 0 }
        );
        assert!(supported_size::<F61>(18));
        assert!(supported_size::<F61>(1287));
        assert!(!supported_size::<F61>(4));
        assert!(!supported_size::<F61>(151));
        assert!(!supported_size::<F61>(0));
    }

    #[test]
    fn size_one_domain_is_trivial() {
        let d = NttDomain::<F61>::new(1).unwrap();
        assert_eq!(d.powers, vec![F61::ONE]);
        assert_eq!(d.forward(&[F61::from(42u64)]).unwrap(), vec![F61::from(42u64)]);
    }

    /// The probe's oracle: the transform is Horner at every point.
    #[test]
    fn forward_matches_direct_evaluation() {
        let mut r = rng(11);
        for size in [2usize, 3, 6, 9, 18, 45, 1287] {
            let d = NttDomain::<F61>::new(size).unwrap();
            let p = Poly::<F61>::random(&mut r, size - 1);
            let got = d.forward(p.coeffs()).unwrap();
            assert_eq!(got, p.eval_many(&d.powers), "size {size}");
        }
    }

    #[test]
    fn power_of_two_sizes_on_small_field() {
        // F97 has 2-adicity 5; exercise repeated radix-2 splits.
        let mut r = rng(15);
        for size in [2usize, 4, 8, 16, 32, 96] {
            let d = NttDomain::<F97>::new(size).unwrap();
            let p = Poly::<F97>::random(&mut r, size - 1);
            assert_eq!(d.forward(p.coeffs()).unwrap(), p.eval_many(&d.powers), "size {size}");
        }
    }

    #[test]
    fn length_mismatches_are_reported() {
        let d = NttDomain::<F61>::new(6).unwrap();
        assert!(matches!(
            d.forward(&[F61::ONE]).unwrap_err(),
            FieldError::LengthMismatch { xs: 6, ys: 1 }
        ));
    }
}
