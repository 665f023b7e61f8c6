//! Committee sampling by cryptographic sortition (simulation).
//!
//! Benhamouda et al.'s role assignment selects each of the `N` global
//! parties into a committee independently with probability `C/N`,
//! where `C` is the sortition parameter (the *expected* committee
//! size). With `f·N` globally corrupt parties, the number of corrupt
//! committee members is binomial.
//!
//! This module simulates that process (the analytic tail bounds live
//! in the `yoso-sortition` crate, which this simulator validates by
//! Monte Carlo in experiment E6).

use rand::Rng;

/// Outcome of sampling one committee from the global pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledCommittee {
    /// Actual committee size `c` (random, expectation `C`).
    pub size: usize,
    /// Number of corrupt members `φ` in the committee.
    pub corrupt: usize,
}

impl SampledCommittee {
    /// The realized corruption ratio `φ/c` (zero for an empty committee).
    pub fn corruption_ratio(&self) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            self.corrupt as f64 / self.size as f64
        }
    }
}

/// Samples a committee: each of `n_global` parties joins independently
/// with probability `c_param / n_global`; a fixed `f` fraction of the
/// pool is corrupt.
///
/// Uses two binomial draws (corrupt and honest subpopulations) rather
/// than iterating the whole pool, so it is cheap even for
/// `n_global = 10^7`.
///
/// # Panics
///
/// Panics unless `0 ≤ f ≤ 1` and `c_param ≤ n_global as f64`.
pub fn sample_committee<R: Rng + ?Sized>(
    rng: &mut R,
    n_global: u64,
    f: f64,
    c_param: f64,
) -> SampledCommittee {
    assert!((0.0..=1.0).contains(&f), "corruption ratio out of range");
    assert!(c_param >= 0.0 && c_param <= n_global as f64, "sortition parameter out of range");
    let p = c_param / n_global as f64;
    let corrupt_pool = (f * n_global as f64).round() as u64;
    let honest_pool = n_global - corrupt_pool;
    let corrupt = binomial(rng, corrupt_pool, p);
    let honest = binomial(rng, honest_pool, p);
    SampledCommittee { size: (corrupt + honest) as usize, corrupt: corrupt as usize }
}

/// Samples `Binomial(n, p)`.
///
/// Uses exact Bernoulli summation for small `n` and a Gaussian
/// approximation with continuity correction for large `n` (the regime
/// where it is accurate to far better than the tail-bound slack we
/// validate against).
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    let var = mean * (1.0 - p);
    if n <= 4096 {
        let mut count = 0u64;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                count += 1;
            }
        }
        return count;
    }
    // Box–Muller Gaussian approximation.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let sample = mean + z * var.sqrt();
    sample.round().clamp(0.0, n as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn binomial_small_matches_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let trials = 2000;
        let mut total = 0u64;
        for _ in 0..trials {
            total += binomial(&mut rng, 100, 0.3);
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn binomial_large_matches_mean_and_spread() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let trials = 2000;
        let n = 1_000_000u64;
        let p = 0.001; // mean 1000, sd ~31.6
        let mut total = 0f64;
        let mut sq = 0f64;
        for _ in 0..trials {
            let s = binomial(&mut rng, n, p) as f64;
            total += s;
            sq += s * s;
        }
        let mean = total / trials as f64;
        let var = sq / trials as f64 - mean * mean;
        assert!((mean - 1000.0).abs() < 5.0, "mean {mean}");
        assert!((var.sqrt() - 31.6).abs() < 3.0, "sd {}", var.sqrt());
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn committee_sampling_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let trials = 500;
        let mut sizes = 0usize;
        let mut ratios = 0f64;
        for _ in 0..trials {
            let c = sample_committee(&mut rng, 1_000_000, 0.2, 1000.0);
            sizes += c.size;
            ratios += c.corruption_ratio();
        }
        let avg_size = sizes as f64 / trials as f64;
        let avg_ratio = ratios / trials as f64;
        assert!((avg_size - 1000.0).abs() < 15.0, "avg size {avg_size}");
        assert!((avg_ratio - 0.2).abs() < 0.01, "avg ratio {avg_ratio}");
    }

    #[test]
    fn empty_committee_ratio_is_zero() {
        let c = SampledCommittee { size: 0, corrupt: 0 };
        assert_eq!(c.corruption_ratio(), 0.0);
    }
}
