//! Monte-Carlo validation of the sortition tail bounds (experiment E6).
//!
//! The analytic bounds guarantee failure probabilities of `2^{−128}`,
//! which no simulation can observe. Instead we recompute the analysis
//! at *reduced* security parameters (e.g. `k₂ = k₃ ≈ 7`, bound
//! `2^{−7} ≈ 0.8%`) and check that the empirical failure rate over many
//! sampled committees stays below the bound — evidence that the
//! (conservative) Chernoff analysis is implemented correctly.

use rand::Rng;

use crate::{GapAnalysis, SecurityParams};

/// Outcome of a Monte-Carlo validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McReport {
    /// Number of sampled committees.
    pub trials: u64,
    /// Trials where the corrupt count reached `t` (bound event 2).
    pub corruption_failures: u64,
    /// Trials where the selected honest count fell below the analysis's
    /// Chernoff floor `(1−ε₃)(1−f)²·C` (bound event 3 — the tail the
    /// paper's Eq. (3) first term controls).
    pub size_failures: u64,
    /// The analysis the trials were checked against.
    pub analysis: GapAnalysis,
}

impl McReport {
    /// Empirical probability of the corruption bound failing.
    pub fn corruption_rate(&self) -> f64 {
        self.corruption_failures as f64 / self.trials as f64
    }

    /// Empirical probability of the size bound failing.
    pub fn size_rate(&self) -> f64 {
        self.size_failures as f64 / self.trials as f64
    }
}

/// Samples `trials` committees from a pool of `n_global` parties with
/// corruption ratio `f` and sortition parameter `c_param`, counting
/// violations of the bounds derived at security `sec`.
///
/// Returns `None` if the analysis itself is infeasible at these
/// parameters.
pub fn validate<R: Rng + ?Sized>(
    rng: &mut R,
    n_global: u64,
    c_param: f64,
    f: f64,
    sec: SecurityParams,
    trials: u64,
) -> Option<McReport> {
    let analysis = GapAnalysis::compute(c_param, f, sec)?;
    let honest_floor = (1.0 - analysis.eps3) * (1.0 - f) * (1.0 - f) * c_param;
    let mut corruption_failures = 0;
    let mut size_failures = 0;
    for _ in 0..trials {
        let committee = yoso_runtime_stub::sample(rng, n_global, f, c_param);
        if committee.corrupt as u64 >= analysis.t {
            corruption_failures += 1;
        }
        let honest = (committee.size - committee.corrupt) as f64;
        if honest < honest_floor {
            size_failures += 1;
        }
    }
    Some(McReport { trials, corruption_failures, size_failures, analysis })
}

/// A local re-implementation of the committee sampler so this crate
/// stays dependency-free of the runtime (the runtime's sampler is
/// cross-checked against this one in the integration tests).
mod yoso_runtime_stub {
    use rand::Rng;

    pub struct Sampled {
        pub size: usize,
        pub corrupt: usize,
    }

    pub fn sample<R: Rng + ?Sized>(rng: &mut R, n_global: u64, f: f64, c_param: f64) -> Sampled {
        let p = c_param / n_global as f64;
        let corrupt_pool = (f * n_global as f64).round() as u64;
        let honest_pool = n_global - corrupt_pool;
        let corrupt = gaussian_binomial(rng, corrupt_pool, p);
        let honest = gaussian_binomial(rng, honest_pool, p);
        Sampled { size: (corrupt + honest) as usize, corrupt: corrupt as usize }
    }

    fn gaussian_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
        if n == 0 || p <= 0.0 {
            return 0;
        }
        let mean = n as f64 * p;
        let sd = (mean * (1.0 - p)).sqrt();
        if n <= 4096 {
            let mut count = 0;
            for _ in 0..n {
                if rng.gen::<f64>() < p {
                    count += 1;
                }
            }
            return count;
        }
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + z * sd).round().clamp(0.0, n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bounds_hold_empirically_at_reduced_security() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        // Reduced security: failure bounds 2^-8 ≈ 0.4%.
        let sec = SecurityParams { k1: 4, k2: 8, k3: 8 };
        let report =
            validate(&mut rng, 1_000_000, 2000.0, 0.1, sec, 2000).expect("feasible");
        // The Chernoff bounds are conservative; empirical rates should
        // be well below the nominal 2^-8.
        assert!(report.corruption_rate() < 0.004, "corruption rate {}", report.corruption_rate());
        assert!(report.size_rate() < 0.004, "size rate {}", report.size_rate());
    }

    #[test]
    fn infeasible_returns_none() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let sec = SecurityParams::default();
        assert!(validate(&mut rng, 1_000_000, 1000.0, 0.25, sec, 10).is_none());
    }

    #[test]
    fn tight_parameters_fail_more_often_than_loose() {
        // Sanity: with a *larger* t (looser bound, higher security
        // margin) the corruption bound fails less often.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let loose = SecurityParams { k1: 4, k2: 16, k3: 8 };
        let tight = SecurityParams { k1: 1, k2: 2, k3: 8 };
        let r_loose = validate(&mut rng, 1_000_000, 2000.0, 0.1, loose, 1500).unwrap();
        let r_tight = validate(&mut rng, 1_000_000, 2000.0, 0.1, tight, 1500).unwrap();
        assert!(r_loose.analysis.t > r_tight.analysis.t);
        assert!(r_loose.corruption_failures <= r_tight.corruption_failures);
    }
}
