//! Precomputed evaluation domains for repeated recombination.
//!
//! The protocol opens packed and standard sharings from whichever
//! parties' shares arrive, and the same party subsets recur across
//! batches and epochs. [`EvalDomain`] does the node-dependent work once
//! —
//!
//! - barycentric weights `w_j = 1 / Π_{m≠j}(x_j − x_m)`,
//! - a cache of recombination (Lagrange basis) vectors keyed by
//!   target point
//!
//! — after which [`basis_at`](EvalDomain::basis_at) costs `O(n)` per
//! fresh target (one batch inversion) and `O(1)` per repeated target.
//! Construction itself ([`EvalDomain::new`]) remains `O(n²)`: this is
//! the *cold* cost paid once per node set.
//!
//! All arithmetic is exact field arithmetic over canonical
//! representations, so every row is *bit-identical* to
//! [`lagrange::basis_at`](crate::lagrange::basis_at); property tests in
//! `tests/proptests.rs` pin this down.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::{lagrange, FieldError, PrimeField};

/// A fixed set of pairwise-distinct evaluation points with
/// precomputed barycentric weights and a recombination-vector cache.
#[derive(Debug)]
pub struct EvalDomain<F: PrimeField> {
    points: Vec<F>,
    /// Barycentric weights `w_j = 1 / Π_{m≠j}(x_j − x_m)`.
    weights: Vec<F>,
    /// Recombination vectors keyed by the canonical `u64` of the
    /// target point.
    basis_cache: RwLock<HashMap<u64, Arc<Vec<F>>>>,
}

impl<F: PrimeField> Clone for EvalDomain<F> {
    fn clone(&self) -> Self {
        // Clones share nothing mutable; warmed cache entries are
        // carried over as cheap `Arc` copies.
        let basis = read_lock(&self.basis_cache).clone();
        EvalDomain {
            points: self.points.clone(),
            weights: self.weights.clone(),
            basis_cache: RwLock::new(basis),
        }
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<F: PrimeField> EvalDomain<F> {
    /// Builds a domain over `points`.
    ///
    /// Costs `O(n²)` multiplications (the weights); intended to be done
    /// once per node set and reused.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DuplicatePoint`] if any two points
    /// coincide.
    pub fn new(points: Vec<F>) -> Result<Self, FieldError> {
        let mut keys: Vec<u64> = points.iter().map(PrimeField::as_u64).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(FieldError::DuplicatePoint);
        }
        let mut denoms = Vec::with_capacity(points.len());
        for (j, &xj) in points.iter().enumerate() {
            let mut d = F::ONE;
            for (m, &xm) in points.iter().enumerate() {
                if m != j {
                    d *= xj - xm;
                }
            }
            denoms.push(d);
        }
        // Denominators are products of differences of distinct points,
        // hence non-zero; inversion cannot fail.
        let weights = lagrange::batch_invert(&denoms)?;
        Ok(EvalDomain { points, weights, basis_cache: RwLock::new(HashMap::new()) })
    }

    /// The domain's evaluation points, in construction order.
    pub fn points(&self) -> &[F] {
        &self.points
    }

    /// Number of points in the domain.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The recombination vector `(l_1(x), …, l_n(x))` for this node
    /// set: coefficients with `f(x) = Σ_j l_j(x)·f(x_j)` for every
    /// polynomial `f` of degree `< n`.
    ///
    /// First call per target is `O(n)`; repeats are a cache hit.
    /// Bit-identical to [`lagrange::basis_at`] on the same inputs.
    pub fn basis_at(&self, x: F) -> Arc<Vec<F>> {
        let key = x.as_u64();
        if let Some(hit) = read_lock(&self.basis_cache).get(&key) {
            return Arc::clone(hit);
        }
        let row = Arc::new(self.basis_row_uncached(x));
        Arc::clone(write_lock(&self.basis_cache).entry(key).or_insert(row))
    }

    fn basis_row_uncached(&self, x: F) -> Vec<F> {
        // Target on a node: the basis row is an indicator vector.
        if let Some(pos) = self.points.iter().position(|&xj| xj == x) {
            let mut out = vec![F::ZERO; self.points.len()];
            out[pos] = F::ONE;
            return out;
        }
        // First barycentric form: l_j(x) = N(x) · w_j / (x − x_j), with
        // N(x) = Π_j (x − x_j).
        let diffs: Vec<F> = self.points.iter().map(|&xj| x - xj).collect();
        let n_at_x: F = diffs.iter().copied().product();
        let inv = lagrange::batch_invert(&diffs)
            .expect("diffs are non-zero: x is not a node");
        self.weights
            .iter()
            .zip(inv)
            .map(|(&w, d)| n_at_x * w * d)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Poly, F61};
    use rand::SeedableRng;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn domain(points: &[u64]) -> EvalDomain<F61> {
        EvalDomain::new(points.iter().copied().map(f).collect()).unwrap()
    }

    /// `f(x)` recombined from the domain's values of `f`.
    fn recombine(d: &EvalDomain<F61>, p: &Poly<F61>, x: F61) -> F61 {
        F61::dot(&d.basis_at(x), &p.eval_many(d.points()))
    }

    #[test]
    fn rejects_duplicates() {
        let err = EvalDomain::new(vec![f(1), f(2), f(1)]).unwrap_err();
        assert_eq!(err, FieldError::DuplicatePoint);
    }

    #[test]
    fn basis_matches_reference() {
        let d = domain(&[1, 2, 3, 4, 5, 6, 7]);
        for x in [f(0), f(3), f(99), F61::from_i64(-4)] {
            let fast = d.basis_at(x);
            let slow = lagrange::basis_at(d.points(), x).unwrap();
            assert_eq!(*fast, slow);
        }
        // Second call hits the cache and returns the same row.
        let again = d.basis_at(f(99));
        assert_eq!(*again, *d.basis_at(f(99)));
    }

    #[test]
    fn empty_domain_behaves() {
        let d = EvalDomain::<F61>::new(Vec::new()).unwrap();
        assert!(d.is_empty());
        assert!(d.basis_at(f(5)).is_empty());
    }

    #[test]
    fn single_point_domain_roundtrips() {
        let d = domain(&[42]);
        assert_eq!(d.len(), 1);
        // A constant is carried to every target.
        assert_eq!(*d.basis_at(f(42)), vec![F61::ONE]);
        assert_eq!(*d.basis_at(f(0)), vec![F61::ONE]);
        assert_eq!(*d.basis_at(f(99)), vec![F61::ONE]);
    }

    #[test]
    fn degree_boundary_roundtrip() {
        // Degree exactly n − 1 (leading coefficient pinned nonzero) and
        // degree 0 are both carried exactly to points off the domain.
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let d = domain(&[2, 4, 6, 8, 10]);
        let full = Poly::new(vec![f(9), f(0), f(0), f(0), f(123)]);
        assert_eq!(full.degree(), Some(4));
        let constant = Poly::constant(f(9));
        for x in [f(0), f(7), F61::random(&mut rng)] {
            assert_eq!(recombine(&d, &full, x), full.eval(x));
            assert_eq!(recombine(&d, &constant, x), f(9));
        }
    }

    #[test]
    fn clone_keeps_cache_entries() {
        let d = domain(&[1, 2, 3, 4]);
        let row = d.basis_at(f(9));
        let c = d.clone();
        assert_eq!(*c.basis_at(f(9)), *row);
    }
}
