//! Hot transform-work counters.
//!
//! The ledger of field multiplications spent on share transforms: full
//! mixed-radix transforms report their butterfly multiplications here,
//! and the row-wise paths (range Horner evaluation, basis-row dot
//! products, ciphertext-row evaluations) report their per-row
//! multiplications, so the repository benchmark can report both as
//! exact counts (`field.butterfly_muls`, `field.slice_muls`). The
//! counters are process-global relaxed atomics — like
//! [`crate::allocstats`] they never influence control flow or the
//! transcript.

use std::sync::atomic::{AtomicU64, Ordering};

/// Field multiplications spent inside full mixed-radix transforms
/// (forward, evaluate, inverse): `N · Σ rᵢ` per transform.
static BUTTERFLY_MULS: AtomicU64 = AtomicU64::new(0);

/// Field multiplications spent on slice work: range Horner evaluation
/// and share-row dot products (Lagrange basis rows, recombination).
static SLICE_MULS: AtomicU64 = AtomicU64::new(0);

/// Records `n` butterfly multiplications from a full transform.
#[inline]
pub fn bump_butterflies(n: u64) {
    BUTTERFLY_MULS.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` slice multiplications (Horner steps or dot-product
/// terms on the share-row hot path).
#[inline]
pub fn bump_slice_muls(n: u64) {
    SLICE_MULS.fetch_add(n, Ordering::Relaxed);
}

/// Butterfly multiplications recorded since process start (or the last
/// [`reset`]).
pub fn butterfly_muls() -> u64 {
    BUTTERFLY_MULS.load(Ordering::Relaxed)
}

/// Slice multiplications recorded since process start (or the last
/// [`reset`]).
pub fn slice_muls() -> u64 {
    SLICE_MULS.load(Ordering::Relaxed)
}

/// Total transform work units: butterfly plus slice multiplications.
pub fn transform_ops() -> u64 {
    butterfly_muls().saturating_add(slice_muls())
}

/// Resets both counters to zero (bench harnesses only; concurrent
/// increments from other threads may interleave).
pub fn reset() {
    BUTTERFLY_MULS.store(0, Ordering::Relaxed);
    SLICE_MULS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_independently() {
        // Process-global counters and concurrent tests: assert deltas
        // only, and only lower bounds.
        let (b0, s0) = (butterfly_muls(), slice_muls());
        bump_butterflies(7);
        bump_slice_muls(5);
        assert!(butterfly_muls() >= b0 + 7);
        assert!(slice_muls() >= s0 + 5);
        assert!(transform_ops() >= b0 + s0 + 12);
    }
}
