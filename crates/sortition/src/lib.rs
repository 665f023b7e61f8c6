//! Committee-size analysis for role assignment with a corruption gap
//! (paper §6, reproducing Table 1).
//!
//! Benhamouda et al. (TCC'20) size sortition committees so that with
//! overwhelming probability the corrupt fraction stays below `1/2`.
//! The paper generalizes the analysis to a *gap*: the corrupt count
//! `t` satisfies `t ≤ c·(1/2 − ε)` for the realized committee size
//! `c`, which enables the packed protocol with packing factor
//! `k ≈ c·ε`.
//!
//! Given the sortition parameter `C` (expected committee size), the
//! global corruption ratio `f`, and security parameters
//! `(k₁, k₂, k₃)`, this crate computes — by the closed forms (4), (5)
//! and the bound (6) of the paper —
//!
//! - the slack parameters `ε₁, ε₂, ε₃`,
//! - the corruption bound `t = f·C·(1+ε₁) + f(1−f)·C·(1+ε₂) + 1`,
//! - the maximal admissible gap `ε` (or `⊥` when none exists),
//! - the committee-size lower bound `c = t/(1/2 − ε)`, the
//!   gap-free bound `c′ = 2t`, and the packing factor `k`.
//!
//! The [`table1`] function regenerates the paper's Table 1 grid, and
//! [`montecarlo`] validates the tail bounds empirically at reduced
//! security parameters (experiment E6).
//!
//! # Example
//!
//! ```rust
//! use yoso_sortition::{GapAnalysis, SecurityParams};
//!
//! let a = GapAnalysis::compute(1000.0, 0.05, SecurityParams::default())
//!     .expect("feasible at 5% corruption");
//! assert_eq!(a.t, 446);       // paper Table 1, row (1000, 0.05)
//! assert_eq!(a.c, 949);
//! assert_eq!(a.c_prime, 892); // 2·t (paper prints 893 from unrounded t)
//! assert_eq!(a.k, 28);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod montecarlo;


/// The analysis security parameters (paper defaults: `k₁ = 64`,
/// `k₂ = k₃ = 128`).
///
/// - The adversary may grind the sortition at most `2^{k₁}` times.
/// - `φ < t` holds except with probability `2^{−k₂}`.
/// - `t ≤ c·(1/2 − ε)` holds except with probability `2^{−k₃}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityParams {
    /// Grinding budget exponent.
    pub k1: u32,
    /// Corruption-bound failure exponent.
    pub k2: u32,
    /// Committee-size-bound failure exponent.
    pub k3: u32,
}

impl Default for SecurityParams {
    fn default() -> Self {
        SecurityParams { k1: 64, k2: 128, k3: 128 }
    }
}

/// The outcome of the gap analysis for one `(C, f)` point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapAnalysis {
    /// The sortition parameter (expected committee size).
    pub c_param: f64,
    /// Global corruption ratio.
    pub f: f64,
    /// Chernoff slack for the adversarially ground corrupt count.
    pub eps1: f64,
    /// Chernoff slack for the honest-selection variance.
    pub eps2: f64,
    /// Slack for the committee-size lower tail.
    pub eps3: f64,
    /// Corruption bound: `φ < t` w.h.p.
    pub t: u64,
    /// Committee-size lower bound with gap: `c = t/(1/2 − ε)`.
    pub c: u64,
    /// Committee-size lower bound without gap (`ε = 0`): `c′ = 2t`.
    pub c_prime: u64,
    /// The maximal admissible gap `ε`.
    pub eps: f64,
    /// The packing factor `k = ⌊c·ε⌋` the protocol can use.
    pub k: u64,
}

const LN2: f64 = std::f64::consts::LN_2;

impl GapAnalysis {
    /// Runs the analysis for sortition parameter `c_param` and global
    /// corruption ratio `f`, returning `None` (the paper's `⊥`) when
    /// no positive gap is achievable.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f < 1` and `c_param > 0`.
    pub fn compute(c_param: f64, f: f64, sec: SecurityParams) -> Option<GapAnalysis> {
        assert!(f > 0.0 && f < 1.0, "corruption ratio must be in (0,1)");
        assert!(c_param > 0.0, "sortition parameter must be positive");
        let cf = c_param * f;
        let cf1 = c_param * f * (1.0 - f);

        // Eq. (4): smallest ε₁ with C ≥ (k₁+k₂+1)(2+ε₁)ln2 / (f·ε₁²).
        let a1 = (sec.k1 + sec.k2 + 1) as f64 * LN2;
        let eps1 = (a1 + (a1 * a1 + 8.0 * cf * a1).sqrt()) / (2.0 * cf);

        // Eq. (5): smallest ε₂ with C ≥ (k₂+1)(2+ε₂)ln2 / (f(1−f)ε₂²).
        let a2 = (sec.k2 + 1) as f64 * LN2;
        let eps2 = (a2 + (a2 * a2 + 8.0 * cf1 * a2).sqrt()) / (2.0 * cf1);

        let b1 = cf * (1.0 + eps1);
        let b2 = cf1 * (1.0 + eps2);
        let t_real = b1 + b2 + 1.0;

        // Eq. (6) lower bound on ε₃.
        let eps3 = (2.0 * sec.k3 as f64 * LN2 / (c_param * (1.0 - f) * (1.0 - f))).sqrt();
        if eps3 >= 1.0 {
            return None;
        }

        // Eq. (6) right inequality solved for the maximal δ.
        let delta = (1.0 - eps3) * (1.0 - f) * (1.0 - f) * c_param / (b1 + b2);
        if delta <= 1.0 {
            return None;
        }
        // δ = (1/2 + ε)/(1/2 − ε)  ⇒  ε = (δ−1)/(2(δ+1)).
        let eps = (delta - 1.0) / (2.0 * (delta + 1.0));

        let t = t_real.round() as u64;
        let c = (t as f64 / (0.5 - eps)).round() as u64;
        let c_prime = 2 * t;
        let k = (c as f64 * eps).floor() as u64;
        if k == 0 {
            return None;
        }
        Some(GapAnalysis { c_param, f, eps1, eps2, eps3, t, c, c_prime, eps, k })
    }

    /// The online-communication improvement factor over the gap-free
    /// protocol: the packed protocol amortizes each batch over `k`
    /// gates, so the per-gate online cost drops by `k`.
    pub fn improvement_factor(&self) -> u64 {
        self.k
    }

    /// The relative committee-size overhead `c/c′ − 1` paid for the gap.
    pub fn committee_overhead(&self) -> f64 {
        self.c as f64 / self.c_prime as f64 - 1.0
    }

    /// The fail-stop variant (§5.4): halve the packing factor to
    /// tolerate `⌊c·ε⌋` unresponsive honest parties.
    pub fn failstop_packing(&self) -> u64 {
        (self.c as f64 * self.eps / 2.0).floor() as u64
    }
}

/// The grids used by the paper's Table 1.
pub const TABLE1_C: [f64; 5] = [1000.0, 5000.0, 10000.0, 20000.0, 40000.0];
/// The corruption ratios of Table 1.
pub const TABLE1_F: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];

/// One row of Table 1 (`None` = the paper's `⊥`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Sortition parameter.
    pub c_param: f64,
    /// Global corruption ratio.
    pub f: f64,
    /// The analysis outcome, if feasible.
    pub analysis: Option<GapAnalysis>,
}

/// Regenerates the full Table 1 grid with the paper's security
/// parameters.
pub fn table1() -> Vec<Table1Row> {
    let sec = SecurityParams::default();
    let mut rows = Vec::new();
    for &c in &TABLE1_C {
        for &f in &TABLE1_F {
            rows.push(Table1Row { c_param: c, f, analysis: GapAnalysis::compute(c, f, sec) });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(c: f64, f: f64) -> Option<GapAnalysis> {
        GapAnalysis::compute(c, f, SecurityParams::default())
    }

    /// |got − want| ≤ tol (absolute, in units of the quantity).
    fn close(got: u64, want: u64, tol: u64) -> bool {
        got.abs_diff(want) <= tol
    }

    #[test]
    fn paper_table1_row_1000_005() {
        let a = get(1000.0, 0.05).unwrap();
        assert_eq!(a.t, 446);
        assert_eq!(a.c, 949);
        // Paper prints c' = 893 (from unrounded t); 2t = 892 with t = 446.
        assert!(close(a.c_prime, 893, 1), "c' {}", a.c_prime);
        assert!((a.eps - 0.03).abs() < 0.005, "eps {}", a.eps);
        assert!(close(a.k, 28, 1), "k {}", a.k);
    }

    #[test]
    fn paper_table1_infeasible_cells() {
        // C=1000 infeasible for f ≥ 0.1; C=5000 infeasible for f ≥ 0.2;
        // C=10000 infeasible for f = 0.25.
        assert!(get(1000.0, 0.10).is_none());
        assert!(get(1000.0, 0.25).is_none());
        assert!(get(5000.0, 0.20).is_none());
        assert!(get(5000.0, 0.25).is_none());
        assert!(get(10000.0, 0.25).is_none());
    }

    #[test]
    fn paper_table1_row_5000_005() {
        let a = get(5000.0, 0.05).unwrap();
        assert!(close(a.t, 1078, 2), "t {}", a.t);
        assert!(close(a.c, 4699, 10), "c {}", a.c);
        assert!((a.eps - 0.27).abs() < 0.01, "eps {}", a.eps);
        assert!(close(a.k, 1271, 10), "k {}", a.k);
    }

    #[test]
    fn paper_table1_row_20000_020() {
        // The headline ">1000× at 20% corruption" row.
        let a = get(20000.0, 0.2).unwrap();
        assert!(close(a.t, 9107, 10), "t {}", a.t);
        assert!(close(a.c, 20401, 40), "c {}", a.c);
        assert!(close(a.c_prime, 18215, 25), "c' {}", a.c_prime);
        assert!((a.eps - 0.05).abs() < 0.01, "eps {}", a.eps);
        assert!(a.k > 1000, "k {} should exceed 1000", a.k);
    }

    #[test]
    fn paper_table1_row_40000_025() {
        // Largest committee, narrowest feasible gap.
        let a = get(40000.0, 0.25).unwrap();
        assert!(close(a.t, 20408, 20), "t {}", a.t);
        assert!(close(a.c, 40911, 80), "c {}", a.c);
        // The paper's displayed ε (0.01) is inconsistent with its own
        // k = 47 = ⌊c·ε⌋, which implies ε ≈ 0.00115; we match on k.
        assert!(a.eps > 0.0 && a.eps < 0.01, "eps {}", a.eps);
        assert!(close(a.k, 47, 15), "k {}", a.k);
    }

    #[test]
    fn full_grid_feasibility_pattern_matches_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 25);
        let feasible: Vec<bool> = rows.iter().map(|r| r.analysis.is_some()).collect();
        // Paper Table 1 pattern, row-major over (C × f).
        let expected = [
            true, false, false, false, false, // 1000
            true, true, true, false, false, // 5000
            true, true, true, true, false, // 10000
            true, true, true, true, false, // 20000
            true, true, true, true, true, // 40000
        ];
        assert_eq!(feasible, expected);
    }

    #[test]
    fn gap_monotonic_in_committee_size() {
        // Larger committees admit larger gaps at fixed f.
        let e1 = get(5000.0, 0.1).unwrap().eps;
        let e2 = get(10000.0, 0.1).unwrap().eps;
        let e3 = get(40000.0, 0.1).unwrap().eps;
        assert!(e1 < e2 && e2 < e3, "{e1} {e2} {e3}");
    }

    #[test]
    fn gap_decreasing_in_corruption() {
        let e1 = get(20000.0, 0.05).unwrap().eps;
        let e2 = get(20000.0, 0.15).unwrap().eps;
        let e3 = get(20000.0, 0.2).unwrap().eps;
        assert!(e1 > e2 && e2 > e3, "{e1} {e2} {e3}");
    }

    #[test]
    fn committee_overhead_is_marginal() {
        // The paper's point: enabling the gap costs only a marginally
        // larger committee. At (20000, 0.2): c/c' − 1 ≈ 12%.
        let a = get(20000.0, 0.2).unwrap();
        assert!(a.committee_overhead() < 0.15, "overhead {}", a.committee_overhead());
        // While the online saving is >1000×.
        assert!(a.improvement_factor() > 1000);
    }

    #[test]
    fn failstop_packing_is_half() {
        let a = get(20000.0, 0.1).unwrap();
        let full = a.k;
        let fs = a.failstop_packing();
        assert!(fs >= full / 2 - 1 && fs <= full / 2 + 1, "full {full}, failstop {fs}");
    }

    #[test]
    fn derived_quantities_consistent() {
        for row in table1() {
            if let Some(a) = row.analysis {
                assert!(a.eps > 0.0 && a.eps < 0.5);
                assert!(a.t as f64 <= a.c as f64 * (0.5 - a.eps) + 1.0);
                assert_eq!(a.c_prime, 2 * a.t);
                assert!(a.k as f64 <= a.c as f64 * a.eps);
                assert!(a.eps1 > 0.0 && a.eps2 > 0.0 && a.eps3 > 0.0 && a.eps3 < 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "corruption ratio")]
    fn invalid_f_panics() {
        let _ = GapAnalysis::compute(1000.0, 0.0, SecurityParams::default());
    }
}
