//! Hot-path allocation counters for the share pipeline.
//!
//! The scale work (DESIGN §12) replaced per-call `Vec` churn on the
//! dealing/reconstruction hot path with reusable scratch buffers. This
//! module is the shared ledger that keeps the replacement *measurable*:
//! every scratch buffer in `yoso-field` and `yoso-pss-sharing` reports
//! here when it actually has to grow its backing allocation, so a run
//! records only first-touch growths. The counters are process-global
//! relaxed atomics — they never influence control flow or the
//! transcript, and reading them costs one atomic load.
//!
//! The repository benchmark samples [`hot_allocs`] around each solo
//! workload and reports the delta as `pss.hot_allocs_per_gate`;
//! `crates/core/tests/alloc_profile.rs` pins it at ≤ 3 per gate.

use std::sync::atomic::{AtomicU64, Ordering};

static HOT_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records one hot-path buffer allocation (or capacity growth).
#[inline]
pub fn bump() {
    HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` hot-path buffer allocations at once.
#[inline]
pub fn bump_n(n: u64) {
    HOT_ALLOCS.fetch_add(n, Ordering::Relaxed);
}

/// Total hot-path buffer allocations recorded since process start (or
/// the last [`reset`]).
pub fn hot_allocs() -> u64 {
    HOT_ALLOCS.load(Ordering::Relaxed)
}

/// Resets the counter to zero (bench harnesses only; concurrent
/// increments from other threads may interleave).
pub fn reset() {
    HOT_ALLOCS.store(0, Ordering::Relaxed);
}

/// Clears `buf` and resizes it to `len` copies of `fill`, counting a
/// hot-path allocation whenever the backing capacity has to grow. The
/// shared idiom for every scratch buffer on the share hot path.
#[inline]
pub fn ensure_filled<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    if buf.capacity() < len {
        bump();
    }
    buf.clear();
    buf.resize(len, fill);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_is_counted_and_reuse_keeps_capacity() {
        // The counter is process-global and tests run concurrently, so
        // only the delta from *this* thread's growth is asserted; the
        // no-count-on-reuse property is pinned via capacity stability.
        let before = hot_allocs();
        let mut buf: Vec<u64> = Vec::new();
        ensure_filled(&mut buf, 64, 0);
        assert!(hot_allocs() > before, "growth must be counted");
        let cap = buf.capacity();
        ensure_filled(&mut buf, 64, 1);
        ensure_filled(&mut buf, 32, 2);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
        assert_eq!(buf, vec![2u64; 32]);
    }
}
