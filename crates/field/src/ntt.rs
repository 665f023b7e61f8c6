//! Mixed-radix number-theoretic transforms for quasi-linear
//! evaluation and interpolation.
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
//! # Exactness
//!
//! All arithmetic is exact field arithmetic on canonical
//! representations: a transform-based evaluation or interpolation
//! returns *bit-identical* results to the Lagrange path
//! ([`EvalDomain`](crate::EvalDomain), [`lagrange`](crate::lagrange))
//! because both compute exact values of the same unique polynomial.
//! Property tests in `tests/proptests.rs` pin this down.
//!
//! # Determinism
//!
//! This module is in the transcript-determinism lint scope
//! (`yoso-lint`): it uses no hash-based containers, no clocks and no
//! thread-local randomness. Domain construction (generator search,
//! factorisation) is a deterministic function of the field modulus and
//! the requested size.

use crate::allocstats::ensure_filled;
use crate::{FieldError, Poly, PrimeField};

/// Reusable working memory for the `*_into` transform entry points.
///
/// One scratch serves any domain size: buffers grow to the largest size
/// seen and are reused (cleared, never shrunk) afterwards, so a loop
/// dealing thousands of sharings performs no steady-state allocation.
/// Growth events are recorded in [`crate::allocstats`].
#[derive(Debug, Default)]
pub struct NttScratch<F: PrimeField> {
    /// Zero-padded / staged coefficient input.
    pad: Vec<F>,
    /// Coset-scaled input (forward) or raw transform output (inverse).
    staged: Vec<F>,
    /// Recursion working buffer of the in-place mixed-radix DFT.
    work: Vec<F>,
}

impl<F: PrimeField> NttScratch<F> {
    /// A fresh, empty scratch (buffers allocate lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Largest prime radix the transform will decompose into. Subgroup
/// sizes with a prime factor above this bound are rejected as
/// unsupported (the per-radix combine is dense, costing `N·r`
/// multiplications, so very large radices forfeit the speedup).
pub const MAX_RADIX: usize = 64;

/// A multiplicative-coset evaluation domain
/// `{shift · ω^i : 0 ≤ i < size}` for an order-`size` root of unity
/// `ω`, with precomputed twiddle tables for the forward and inverse
/// mixed-radix transforms.
#[derive(Debug, Clone)]
pub struct NttDomain<F: PrimeField> {
    size: usize,
    root: F,
    shift: F,
    shift_inv: F,
    /// `1 / size` in the field (scales the inverse transform).
    size_inv: F,
    /// Prime factors of `size` with multiplicity, descending.
    radices: Vec<usize>,
    /// Forward twiddles `ω^i`, `0 ≤ i < size`.
    powers: Vec<F>,
    /// Inverse twiddles `ω^{−i}`, `0 ≤ i < size`.
    inv_powers: Vec<F>,
    /// The evaluation points `shift · ω^i` in index order.
    points: Vec<F>,
    /// Field multiplications per full transform (`N · Σ rᵢ`), reported
    /// to [`crate::transformstats`] on every forward/inverse run.
    butterfly_ops: u64,
}

impl<F: PrimeField> NttDomain<F> {
    /// Builds the subgroup domain of order `size` (coset shift `1`),
    /// rooted at the canonical generator: `ω = g^{(p−1)/size}` for the
    /// smallest multiplicative generator `g` of `F*`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::UnsupportedDomainSize`] if `size` is zero,
    /// does not divide `p − 1`, or has a prime factor above
    /// [`MAX_RADIX`].
    pub fn new(size: usize) -> Result<Self, FieldError> {
        Self::coset(size, F::ONE)
    }

    /// Builds the coset domain `{shift · ω^i}` for a nonzero `shift`.
    ///
    /// # Errors
    ///
    /// As [`NttDomain::new`], plus [`FieldError::ZeroInverse`] if
    /// `shift` is zero.
    pub fn coset(size: usize, shift: F) -> Result<Self, FieldError> {
        let order = F::MODULUS - 1;
        if size == 0 || order % (size as u64) != 0 {
            return Err(FieldError::UnsupportedDomainSize { size });
        }
        let g = field_generator::<F>()?;
        let root = g.pow(order / (size as u64));
        Self::build(size, root, shift)
    }

    /// Builds a domain from an explicitly supplied order-`size` root of
    /// unity (e.g. a power of a larger domain's root, so that prefix
    /// domains enumerate the *same* subgroup elements).
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::UnsupportedDomainSize`] if `root` does not
    /// have exact multiplicative order `size`, or `size` is not smooth.
    pub fn with_root(size: usize, root: F, shift: F) -> Result<Self, FieldError> {
        if size == 0 || root.pow(size as u64) != F::ONE {
            return Err(FieldError::UnsupportedDomainSize { size });
        }
        for q in distinct_prime_factors(size as u64) {
            if root.pow(size as u64 / q) == F::ONE {
                return Err(FieldError::UnsupportedDomainSize { size });
            }
        }
        Self::build(size, root, shift)
    }

    /// Recognises an ordered point set of the form
    /// `x_j = shift · ω^j` with `ω` of exact order `len` (a geometric
    /// progression closing into a subgroup coset) and builds the
    /// matching domain — the "transform-friendly" test used by the
    /// sharing schemes to select the NTT reconstruction path.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::UnsupportedDomainSize`] if the points are
    /// not such a progression (including any zero point) or the size is
    /// not smooth.
    pub fn from_points(points: &[F]) -> Result<Self, FieldError> {
        let m = points.len();
        if m == 0 || points[0] == F::ZERO {
            return Err(FieldError::UnsupportedDomainSize { size: m });
        }
        let shift = points[0];
        if m == 1 {
            return Self::build(1, F::ONE, shift);
        }
        if points[1] == F::ZERO {
            return Err(FieldError::UnsupportedDomainSize { size: m });
        }
        let ratio = points[1] * shift.inv()?;
        let mut cur = shift;
        for &x in points {
            if x != cur {
                return Err(FieldError::UnsupportedDomainSize { size: m });
            }
            cur *= ratio;
        }
        // The progression must close: ratio^m = 1 (cur walked m steps
        // from shift), with exact order m.
        if cur != shift {
            return Err(FieldError::UnsupportedDomainSize { size: m });
        }
        Self::with_root(m, ratio, shift)
    }

    /// Shared constructor: `root` is assumed to have exact order
    /// `size`; validates smoothness and builds the tables.
    fn build(size: usize, root: F, shift: F) -> Result<Self, FieldError> {
        let radices = smooth_radices(size)?;
        let root_inv = root.inv()?;
        let shift_inv = shift.inv()?;
        // size | p − 1 < p, so size is a nonzero field element.
        let size_inv = F::from_u64(size as u64).inv()?;
        let mut powers = Vec::with_capacity(size);
        let mut inv_powers = Vec::with_capacity(size);
        let (mut acc, mut inv_acc) = (F::ONE, F::ONE);
        for _ in 0..size {
            powers.push(acc);
            inv_powers.push(inv_acc);
            acc *= root;
            inv_acc *= root_inv;
        }
        let points = powers.iter().map(|&p| shift * p).collect();
        let butterfly_ops = (size as u64) * radices.iter().map(|&r| r as u64).sum::<u64>();
        Ok(NttDomain {
            size,
            root,
            shift,
            shift_inv,
            size_inv,
            radices,
            powers,
            inv_powers,
            points,
            butterfly_ops,
        })
    }

    /// The domain size `N`.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the domain is empty (never true for a built domain).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The order-`size` root of unity.
    pub fn root(&self) -> F {
        self.root
    }

    /// The coset shift (`1` for plain subgroup domains).
    pub fn shift(&self) -> F {
        self.shift
    }

    /// Prime factors of the size with multiplicity, descending — the
    /// radix chain of the transform.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// The evaluation points `shift · ω^i` in index order.
    pub fn points(&self) -> &[F] {
        &self.points
    }

    /// Forward transform: evaluates the polynomial with coefficient
    /// vector `coeffs` (length exactly `size`) at every domain point,
    /// returning `[f(points[0]), …, f(points[N−1])]`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::LengthMismatch`] unless
    /// `coeffs.len() == size`.
    pub fn forward(&self, coeffs: &[F]) -> Result<Vec<F>, FieldError> {
        let mut out = Vec::new();
        self.forward_into(coeffs, &mut out, &mut NttScratch::new())?;
        Ok(out)
    }

    /// [`NttDomain::forward`] into a caller-supplied output buffer,
    /// reusing `scratch` working memory. Bit-identical results; no
    /// allocation once the buffers have reached the domain size.
    ///
    /// # Errors
    ///
    /// As [`NttDomain::forward`].
    pub fn forward_into(
        &self,
        coeffs: &[F],
        out: &mut Vec<F>,
        scratch: &mut NttScratch<F>,
    ) -> Result<(), FieldError> {
        if coeffs.len() != self.size {
            return Err(FieldError::LengthMismatch { xs: self.size, ys: coeffs.len() });
        }
        let NttScratch { staged, work, .. } = scratch;
        self.forward_impl(coeffs, out, staged, work);
        Ok(())
    }

    /// Length-checked transform core shared by the forward entry
    /// points: `staged` holds the coset-scaled input when needed,
    /// `work` is the recursion buffer.
    fn forward_impl(&self, coeffs: &[F], out: &mut Vec<F>, staged: &mut Vec<F>, work: &mut Vec<F>) {
        crate::transformstats::bump_butterflies(self.butterfly_ops);
        ensure_filled(out, self.size, F::ZERO);
        ensure_filled(work, self.size, F::ZERO);
        // Coset evaluation: f(shift·ω^j) = Σ (a_i·shift^i)·ω^{ij}.
        if self.shift == F::ONE {
            dft_into(coeffs, 0, 1, &self.radices, 1, &self.powers, out, work);
        } else {
            scale_by_powers_into(coeffs, self.shift, F::ONE, staged);
            dft_into(staged, 0, 1, &self.radices, 1, &self.powers, out, work);
        }
    }

    /// Evaluates a polynomial of degree `< size` (coefficients
    /// zero-padded up to the domain size) at every domain point.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::LengthMismatch`] if more than `size`
    /// coefficients are supplied.
    pub fn evaluate(&self, coeffs: &[F]) -> Result<Vec<F>, FieldError> {
        let mut out = Vec::new();
        self.evaluate_into(coeffs, &mut out, &mut NttScratch::new())?;
        Ok(out)
    }

    /// [`NttDomain::evaluate`] into a caller-supplied output buffer,
    /// reusing `scratch` working memory (the zero padding is staged in
    /// the scratch, not a fresh `Vec`).
    ///
    /// # Errors
    ///
    /// As [`NttDomain::evaluate`].
    pub fn evaluate_into(
        &self,
        coeffs: &[F],
        out: &mut Vec<F>,
        scratch: &mut NttScratch<F>,
    ) -> Result<(), FieldError> {
        if coeffs.len() > self.size {
            return Err(FieldError::LengthMismatch { xs: self.size, ys: coeffs.len() });
        }
        let NttScratch { pad, staged, work } = scratch;
        ensure_filled(pad, self.size, F::ZERO);
        pad[..coeffs.len()].copy_from_slice(coeffs);
        self.forward_impl(pad, out, staged, work);
        Ok(())
    }

    /// Inverse transform: recovers the full coefficient vector (length
    /// `size`, untrimmed) of the unique polynomial of degree `< size`
    /// with `f(points[i]) = evals[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::LengthMismatch`] unless
    /// `evals.len() == size`.
    pub fn inverse(&self, evals: &[F]) -> Result<Vec<F>, FieldError> {
        let mut out = Vec::new();
        self.inverse_into(evals, &mut out, &mut NttScratch::new())?;
        Ok(out)
    }

    /// [`NttDomain::inverse`] into a caller-supplied output buffer,
    /// reusing `scratch` working memory.
    ///
    /// # Errors
    ///
    /// As [`NttDomain::inverse`].
    pub fn inverse_into(
        &self,
        evals: &[F],
        out: &mut Vec<F>,
        scratch: &mut NttScratch<F>,
    ) -> Result<(), FieldError> {
        if evals.len() != self.size {
            return Err(FieldError::LengthMismatch { xs: self.size, ys: evals.len() });
        }
        crate::transformstats::bump_butterflies(self.butterfly_ops);
        let NttScratch { staged, work, .. } = scratch;
        ensure_filled(staged, self.size, F::ZERO);
        ensure_filled(work, self.size, F::ZERO);
        dft_into(evals, 0, 1, &self.radices, 1, &self.inv_powers, staged, work);
        // Undo the transform scale (1/N) and the coset scale
        // (shift^{−i} on coefficient i) in one pass.
        scale_by_powers_into(staged, self.shift_inv, self.size_inv, out);
        Ok(())
    }

    /// Interpolates the unique polynomial of degree `< size` through
    /// `(points[i], ys[i])`, as a trimmed [`Poly`]. Bit-identical to
    /// [`EvalDomain::interpolate`](crate::EvalDomain::interpolate) and
    /// [`lagrange::interpolate`](crate::lagrange::interpolate) over the
    /// same points.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::LengthMismatch`] unless
    /// `ys.len() == size`.
    pub fn interpolate(&self, ys: &[F]) -> Result<Poly<F>, FieldError> {
        Ok(Poly::new(self.inverse(ys)?))
    }
}

/// Whether `size` indexes a supported transform domain in `F`: it must
/// divide `p − 1` and be [`MAX_RADIX`]-smooth.
pub fn supported_size<F: PrimeField>(size: usize) -> bool {
    size >= 1 && (F::MODULUS - 1) % (size as u64) == 0 && smooth_radices(size).is_ok()
}

/// The subgroup-prefix enumeration of exponents `E` for a radix chain
/// `[r_1, …, r_l]` (product `N`): a permutation of `0..N` such that
/// for every suffix product `m` of the chain, the first `m` entries
/// are exactly the exponent set of the order-`m` subgroup (the
/// multiples of `N/m`).
///
/// `E(1) = [0]`; for `N = r·m`, `E(N)` lists `r·e + b` for `b` in
/// `0..r` (outer) and `e` in `E(m)` (inner). Packed-sharing layouts
/// place nodes in this order so that a prefix of nodes of chain length
/// is itself a transform domain.
pub fn chain_enumeration(radices: &[usize]) -> Vec<usize> {
    let mut e = vec![0usize];
    for &r in radices.iter().rev() {
        let mut next = Vec::with_capacity(e.len() * r);
        for b in 0..r {
            next.extend(e.iter().map(|&x| r * x + b));
        }
        e = next;
    }
    e
}

/// The prefix sizes realised by [`chain_enumeration`]: the suffix
/// products `1, r_l, r_{l−1}·r_l, …, N` of the radix chain, ascending.
pub fn chain_sizes(radices: &[usize]) -> Vec<usize> {
    let mut sizes = vec![1usize];
    let mut acc = 1usize;
    for &r in radices.iter().rev() {
        acc *= r;
        sizes.push(acc);
    }
    sizes
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

/// `out[i] = values[i] · first · base^i`, in one pass, reusing `out`'s
/// backing allocation.
fn scale_by_powers_into<F: PrimeField>(values: &[F], base: F, first: F, out: &mut Vec<F>) {
    ensure_filled(out, values.len(), F::ZERO);
    let mut s = first;
    for (o, &v) in out.iter_mut().zip(values) {
        *o = v * s;
        s *= base;
    }
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
    use crate::{lagrange, EvalDomain, F61, Fp};
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
        assert_eq!(d.len(), 1);
        assert_eq!(d.points(), &[F61::ONE]);
        let p = d.interpolate(&[F61::from(42u64)]).unwrap();
        assert_eq!(p, Poly::constant(F61::from(42u64)));
        assert_eq!(d.evaluate(p.coeffs()).unwrap(), vec![F61::from(42u64)]);
        // A one-point coset carries the constant at its shift.
        let c = NttDomain::<F61>::from_points(&[F61::from(7u64)]).unwrap();
        assert_eq!(c.interpolate(&[F61::from(9u64)]).unwrap(), Poly::constant(F61::from(9u64)));
    }

    #[test]
    fn forward_matches_direct_evaluation() {
        let mut r = rng(11);
        for size in [2usize, 3, 6, 9, 18, 45] {
            let d = NttDomain::<F61>::new(size).unwrap();
            let p = Poly::<F61>::random(&mut r, size - 1);
            let got = d.forward(p.coeffs()).unwrap();
            assert_eq!(got, p.eval_many(d.points()), "size {size}");
        }
    }

    #[test]
    fn coset_forward_matches_direct_evaluation() {
        let mut r = rng(12);
        let shift = F61::from(123_456_789u64);
        let d = NttDomain::<F61>::coset(18, shift).unwrap();
        let p = Poly::<F61>::random(&mut r, 17);
        assert_eq!(d.forward(p.coeffs()).unwrap(), p.eval_many(d.points()));
    }

    #[test]
    fn interpolate_is_bit_identical_to_lagrange() {
        let mut r = rng(13);
        for size in [2usize, 6, 15, 18, 33] {
            let d = NttDomain::<F61>::coset(size, F61::from(5u64)).unwrap();
            let p = Poly::<F61>::random(&mut r, size - 1);
            let ys = p.eval_many(d.points());
            let fast = d.interpolate(&ys).unwrap();
            let slow = lagrange::interpolate(d.points(), &ys).unwrap();
            let eval_domain = EvalDomain::new(d.points().to_vec()).unwrap();
            assert_eq!(fast, slow, "size {size}");
            assert_eq!(fast, eval_domain.interpolate(&ys).unwrap(), "size {size}");
            assert_eq!(fast, p, "size {size}");
        }
    }

    #[test]
    fn degree_boundary_roundtrip() {
        // Degree exactly size − 1 (leading coefficient nonzero) and a
        // low-degree polynomial (padded coefficients) both round-trip.
        let mut r = rng(14);
        let d = NttDomain::<F61>::new(21).unwrap();
        let full = Poly::<F61>::random(&mut r, 20);
        assert_eq!(d.interpolate(&d.evaluate(full.coeffs()).unwrap()).unwrap(), full);
        let low = Poly::<F61>::random(&mut r, 3);
        assert_eq!(d.interpolate(&d.evaluate(low.coeffs()).unwrap()).unwrap(), low);
    }

    #[test]
    fn power_of_two_sizes_on_small_field() {
        // F97 has 2-adicity 5; exercise repeated radix-2 splits.
        let mut r = rng(15);
        for size in [2usize, 4, 8, 16, 32, 96] {
            let d = NttDomain::<F97>::new(size).unwrap();
            let p = Poly::<F97>::random(&mut r, size - 1);
            let ys = d.forward(p.coeffs()).unwrap();
            assert_eq!(ys, p.eval_many(d.points()), "size {size}");
            assert_eq!(d.interpolate(&ys).unwrap(), p, "size {size}");
        }
    }

    #[test]
    fn from_points_detects_progressions() {
        let d = NttDomain::<F61>::coset(18, F61::from(3u64)).unwrap();
        let again = NttDomain::<F61>::from_points(d.points()).unwrap();
        assert_eq!(again.root(), d.root());
        assert_eq!(again.shift(), d.shift());
        assert_eq!(again.points(), d.points());

        // Sequential points 1..=n are not a progression.
        let seq: Vec<F61> = (1..=6u64).map(F61::from).collect();
        assert!(NttDomain::from_points(&seq).is_err());
        // A progression that does not close into a subgroup (prefix of
        // a larger domain) is rejected.
        assert!(NttDomain::from_points(&d.points()[..6]).is_err());
        // Zero can never lie on a coset.
        assert!(NttDomain::from_points(&[F61::ZERO, F61::ONE]).is_err());
        assert!(NttDomain::<F61>::from_points(&[]).is_err());
        // Duplicate points (ratio 1) are rejected with a typed error,
        // not a panic: the "root" has order 1, never exactly 2.
        assert!(matches!(
            NttDomain::from_points(&[F61::from(3u64), F61::from(3u64)]),
            Err(FieldError::UnsupportedDomainSize { .. })
        ));
    }

    #[test]
    fn with_root_requires_exact_order() {
        let d = NttDomain::<F61>::new(18).unwrap();
        // ω² has order 9, not 18.
        let sq = d.root() * d.root();
        assert!(NttDomain::with_root(18, sq, F61::ONE).is_err());
        assert!(NttDomain::with_root(9, sq, F61::ONE).is_ok());
    }

    #[test]
    fn prefix_domain_shares_subgroup_elements() {
        // The order-m subgroup obtained from the full root's power
        // enumerates exactly the chain-prefix elements of the full
        // domain.
        let full = NttDomain::<F61>::new(18).unwrap();
        let e = chain_enumeration(full.radices());
        let sizes = chain_sizes(full.radices());
        assert_eq!(full.radices(), &[3, 3, 2]);
        assert_eq!(sizes, vec![1, 2, 6, 18]);
        for &m in &sizes {
            let step = 18 / m;
            let sub = NttDomain::with_root(m, full.root().pow(step as u64), F61::ONE).unwrap();
            let mut prefix: Vec<u64> =
                e[..m].iter().map(|&x| full.points()[x].as_u64()).collect();
            let mut subgroup: Vec<u64> = sub.points().iter().map(|p| p.as_u64()).collect();
            prefix.sort_unstable();
            subgroup.sort_unstable();
            assert_eq!(prefix, subgroup, "m = {m}");
        }
    }

    #[test]
    fn chain_enumeration_is_a_permutation() {
        for radices in [vec![3usize, 3, 2], vec![13, 11, 3, 3], vec![2], vec![]] {
            let e = chain_enumeration(&radices);
            let n: usize = radices.iter().product();
            let mut sorted = e.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "radices {radices:?}");
        }
    }

    #[test]
    fn length_mismatches_are_reported() {
        let d = NttDomain::<F61>::new(6).unwrap();
        assert!(matches!(
            d.forward(&[F61::ONE]).unwrap_err(),
            FieldError::LengthMismatch { xs: 6, ys: 1 }
        ));
        assert!(matches!(
            d.inverse(&[F61::ONE]).unwrap_err(),
            FieldError::LengthMismatch { xs: 6, ys: 1 }
        ));
        assert!(d.evaluate(&[F61::ONE; 7]).is_err());
    }
}
