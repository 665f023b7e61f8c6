//! Protocol parameters and their consistency constraints.


use yoso_pss_sharing::PointLayout;

use crate::ProtocolError;

/// Parameters of one protocol instance.
///
/// The committee size `n`, corruption threshold `t` and packing factor
/// `k` must satisfy the paper's GOD condition (§5.4):
///
/// ```text
/// n ≥ (t + 2(k−1) + 1) + t + failstops
/// ```
///
/// i.e. the `t + 2(k−1) + 1` shares needed to reconstruct a packed
/// multiplication result must be available from the honest,
/// non-crashed members alone. Equivalently, with `t < n(1/2 − ε)` the
/// packing factor can reach `k − 1 ≤ n·ε` (no fail-stops) or
/// `k − 1 ≤ n·ε/2` while tolerating `n·ε` crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolParams {
    /// Committee size.
    pub n: usize,
    /// Maximum number of actively corrupt roles per committee.
    pub t: usize,
    /// Packing factor (secrets per packed sharing).
    pub k: usize,
    /// Number of fail-stop (crash) roles tolerated per committee.
    pub failstops: usize,
    /// Where the sharing schemes place their evaluation points. A
    /// protocol-wide parameter: every role derives its points from it.
    /// [`PointLayout::Subgroup`] unlocks `O(n log n)` transform dealing
    /// and reconstruction with bit-identical outputs; the default
    /// [`PointLayout::Sequential`] is the paper's presentation.
    pub layout: PointLayout,
}

impl ProtocolParams {
    /// Creates parameters with no fail-stop allowance.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] if the GOD condition is
    /// violated.
    pub fn new(n: usize, t: usize, k: usize) -> Result<Self, ProtocolError> {
        Self::with_failstops(n, t, k, 0)
    }

    /// Creates parameters tolerating `failstops` crashed roles per
    /// committee (§5.4).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] if the GOD condition is
    /// violated or any parameter is degenerate.
    pub fn with_failstops(
        n: usize,
        t: usize,
        k: usize,
        failstops: usize,
    ) -> Result<Self, ProtocolError> {
        if n == 0 || k == 0 {
            return Err(ProtocolError::BadParameters(format!("degenerate n={n}, k={k}")));
        }
        if k > n {
            return Err(ProtocolError::BadParameters(format!("packing k={k} exceeds n={n}")));
        }
        let params = ProtocolParams { n, t, k, failstops, layout: PointLayout::default() };
        let available = n
            .checked_sub(t + failstops)
            .ok_or_else(|| ProtocolError::BadParameters(format!("t+failstops exceed n={n}")))?;
        if available < params.reconstruction_threshold() {
            return Err(ProtocolError::BadParameters(format!(
                "GOD violated: n−t−failstops = {available} honest shares < t+2(k−1)+1 = {}",
                params.reconstruction_threshold()
            )));
        }
        // The λ-packing degree must stay below n for shares to exist.
        if params.packing_degree() >= n {
            return Err(ProtocolError::BadParameters(format!(
                "packing degree t+k−1 = {} must be below n = {n}",
                params.packing_degree()
            )));
        }
        Ok(params)
    }

    /// Derives the largest GOD-compatible parameters for committee size
    /// `n` and gap `ε` (`t = ⌊n(1/2 − ε)⌋ − 1`, `k = ⌊nε⌋ + 1`, no
    /// fail-stops), the paper's recommended instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] for infeasible `(n, ε)`.
    pub fn from_gap(n: usize, epsilon: f64) -> Result<Self, ProtocolError> {
        if !(0.0..0.5).contains(&epsilon) {
            return Err(ProtocolError::BadParameters(format!("gap ε={epsilon} out of range")));
        }
        let t = ((n as f64) * (0.5 - epsilon)).floor() as usize;
        let t = t.saturating_sub(1);
        let k = ((n as f64) * epsilon).floor() as usize + 1;
        Self::new(n, t, k)
    }

    /// The §5.4 fail-stop variant for `(n, ε)`: packing `k ≈ nε/2 + 1`
    /// tolerating `⌊nε⌋` crashes.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] for infeasible `(n, ε)`.
    pub fn from_gap_failstop(n: usize, epsilon: f64) -> Result<Self, ProtocolError> {
        if !(0.0..0.5).contains(&epsilon) {
            return Err(ProtocolError::BadParameters(format!("gap ε={epsilon} out of range")));
        }
        let t = (((n as f64) * (0.5 - epsilon)).floor() as usize).saturating_sub(1);
        let k = ((n as f64) * epsilon / 2.0).floor() as usize + 1;
        let failstops = ((n as f64) * epsilon).floor() as usize;
        Self::with_failstops(n, t, k, failstops)
    }

    /// Selects the [`PointLayout`] for every sharing scheme the
    /// protocol builds. Validity is unaffected — both layouts use
    /// pairwise-distinct points — so this is a plain builder.
    #[must_use]
    pub fn with_layout(mut self, layout: PointLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Number of verified μ-shares needed to reconstruct a packed
    /// multiplication output: `t + 2(k−1) + 1`.
    pub fn reconstruction_threshold(&self) -> usize {
        self.t + 2 * (self.k - 1) + 1
    }

    /// Degree of the packed λ-sharings: `t + k − 1`.
    pub fn packing_degree(&self) -> usize {
        self.t + self.k - 1
    }

    /// The implied gap `ε` (from `t < n(1/2 − ε)`).
    pub fn epsilon(&self) -> f64 {
        0.5 - self.t as f64 / self.n as f64
    }

    /// The role range worker `worker` (of `total`) owns in a
    /// role-sharded run of these parameters — the canonical contiguous
    /// split of `0..n` (see [`crate::RolePartition::of_workers`]). All
    /// workers of one run must use the same `total`.
    pub fn worker_role_range(&self, worker: usize, total: usize) -> crate::RolePartition {
        crate::RolePartition::of_workers(worker, total, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_parameters() {
        let p = ProtocolParams::new(10, 2, 3).unwrap();
        assert_eq!(p.reconstruction_threshold(), 7);
        assert_eq!(p.packing_degree(), 4);
        // 10 − 2 = 8 ≥ 7 ✓
    }

    #[test]
    fn rejects_god_violation() {
        // n = 10, t = 3, k = 3: need 3 + 4 + 1 = 8 > 10 − 3 = 7.
        assert!(ProtocolParams::new(10, 3, 3).is_err());
        assert!(ProtocolParams::new(10, 3, 2).is_ok()); // need 6 ≤ 7
    }

    #[test]
    fn rejects_degenerate() {
        assert!(ProtocolParams::new(0, 0, 1).is_err());
        assert!(ProtocolParams::new(5, 0, 0).is_err());
        assert!(ProtocolParams::new(5, 0, 6).is_err());
        assert!(ProtocolParams::new(5, 6, 1).is_err());
    }

    #[test]
    fn failstops_consume_budget() {
        // n = 12, t = 2, k = 3: need 2+4+1 = 7 ≤ 12−2−failstops.
        assert!(ProtocolParams::with_failstops(12, 2, 3, 3).is_ok());
        assert!(ProtocolParams::with_failstops(12, 2, 3, 4).is_err());
    }

    #[test]
    fn from_gap_matches_paper_formulas() {
        // n = 20, ε = 0.1: t = ⌊20·0.4⌋−1 = 7, k = ⌊2⌋+1 = 3.
        let p = ProtocolParams::from_gap(20, 0.1).unwrap();
        assert_eq!((p.n, p.t, p.k), (20, 7, 3));
        assert!(p.epsilon() > 0.1);
        // Reconstruction: 7 + 4 + 1 = 12 ≤ 20 − 7 = 13 ✓
    }

    #[test]
    fn from_gap_failstop_halves_packing() {
        let full = ProtocolParams::from_gap(40, 0.2).unwrap();
        let fs = ProtocolParams::from_gap_failstop(40, 0.2).unwrap();
        assert_eq!(fs.k, 5); // ⌊40·0.1⌋ + 1
        assert_eq!(full.k, 9); // ⌊40·0.2⌋ + 1
        assert_eq!(fs.failstops, 8);
    }

    #[test]
    fn traditional_yoso_is_k_equals_one() {
        // ε = 0 ⇒ k = 1 (no packing): t can reach (n−1)/2... minus GOD slack.
        let p = ProtocolParams::new(11, 5, 1).unwrap();
        assert_eq!(p.reconstruction_threshold(), 6);
    }
}
