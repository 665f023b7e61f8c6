//! Property tests for packed and standard Shamir sharing invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use yoso_field::{lagrange, Fp, F61, PrimeField};
use yoso_pss_sharing::shamir::{PowerTable, ZeroWeights};
use yoso_pss_sharing::{shamir, PackedSharing};

fn felt() -> impl Strategy<Value = F61> {
    any::<u64>().prop_map(F61::from_u64)
}

/// (n, k, degree) with 1 <= k <= degree+1 <= n.
fn params() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..24).prop_flat_map(|n| {
        (1usize..=n.min(6)).prop_flat_map(move |k| ((k - 1)..n).prop_map(move |d| (n, k, d)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_roundtrip((n, k, d) in params(), seed in any::<u64>(), secrets_seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut srng = rand::rngs::StdRng::seed_from_u64(secrets_seed);
        let scheme = PackedSharing::<F61>::new(n, k).unwrap();
        let secrets: Vec<F61> = (0..k).map(|_| F61::random(&mut srng)).collect();
        let shares = scheme.share(&mut rng, &secrets, d).unwrap();
        let subset: Vec<usize> = (0..=d).collect();
        let got = scheme.reconstruct(&shares.select(&subset), d).unwrap();
        prop_assert_eq!(got, secrets);
    }

    #[test]
    fn packed_linearity((n, k, d) in params(), seed in any::<u64>(), c in felt()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scheme = PackedSharing::<F61>::new(n, k).unwrap();
        let a: Vec<F61> = (0..k).map(|_| F61::random(&mut rng)).collect();
        let b: Vec<F61> = (0..k).map(|_| F61::random(&mut rng)).collect();
        let sa = scheme.share(&mut rng, &a, d).unwrap();
        let sb = scheme.share(&mut rng, &b, d).unwrap();
        let combo = sa.scale(c).add(&sb);
        let subset: Vec<usize> = (0..=d).collect();
        let got = scheme.reconstruct(&combo.select(&subset), d).unwrap();
        let expect: Vec<F61> = a.iter().zip(&b).map(|(&x, &y)| c * x + y).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn packed_multiplication(seed in any::<u64>(), n in 5usize..20) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = 2;
        let d = (n - 1) / 2; // so 2d < n
        prop_assume!(d + 1 >= k);
        let scheme = PackedSharing::<F61>::new(n, k).unwrap();
        let a: Vec<F61> = (0..k).map(|_| F61::random(&mut rng)).collect();
        let b: Vec<F61> = (0..k).map(|_| F61::random(&mut rng)).collect();
        let sa = scheme.share(&mut rng, &a, d).unwrap();
        let sb = scheme.share(&mut rng, &b, d).unwrap();
        let prod = sa.mul_elementwise(&sb);
        let subset: Vec<usize> = (0..=2 * d).collect();
        let got = scheme.reconstruct(&prod.select(&subset), 2 * d).unwrap();
        let expect: Vec<F61> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn corrupting_any_single_surplus_share_is_detected(
        seed in any::<u64>(), victim in 0usize..8, delta in 1u64..1000
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scheme = PackedSharing::<F61>::new(8, 2).unwrap();
        let shares = scheme.share(&mut rng, &[F61::from(1u64), F61::from(2u64)], 3).unwrap();
        let all: Vec<usize> = (0..8).collect();
        let mut subset = shares.select(&all);
        subset[victim].value += F61::from(delta);
        prop_assert!(scheme.reconstruct(&subset, 3).is_err());
    }

    #[test]
    fn shamir_roundtrip(secret in felt(), seed in any::<u64>(), n in 2usize..20) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = (n - 1) / 2;
        let shares = shamir::share(&mut rng, secret, n, t).unwrap();
        prop_assert_eq!(shamir::reconstruct(&shares[..t + 1], t).unwrap(), secret);
        prop_assert_eq!(shamir::reconstruct(&shares[n - t - 1..], t).unwrap(), secret);
    }

    /// Three handovers of the key's re-share: deal each share, recombine
    /// the first `t + 1` providers' subshares at zero.
    #[test]
    fn shamir_reshare_chain_preserves_secret(secret in felt(), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (n, t) = (7usize, 2usize);
        let mut shares = shamir::share(&mut rng, secret, n, t).unwrap();
        let providers: Vec<usize> = (0..t + 1).collect();
        let weights = ZeroWeights::<F61>::new(&providers).unwrap();
        for _ in 0..3 {
            let subs: Vec<Vec<_>> =
                shares.iter().map(|s| shamir::share(&mut rng, s.value, n, t).unwrap()).collect();
            shares = (0..n)
                .map(|j| {
                    let vals: Vec<F61> = providers.iter().map(|&p| subs[p][j].value).collect();
                    yoso_pss_sharing::Share { party: j, value: weights.combine(&vals) }
                })
                .collect();
        }
        prop_assert_eq!(shamir::reconstruct(&shares[..t + 1], t).unwrap(), secret);
    }
}

/// Per-point Horner at `i + 1`: what every dealing must equal, bit for
/// bit.
fn horner_at_every_party<F: PrimeField>(coeffs: &[F], n: usize) -> Vec<F> {
    (1..=n as u64)
        .map(|x| coeffs.iter().rev().fold(F::ZERO, |acc, &c| acc * F::from_u64(x) + c))
        .collect()
}

fn dealing_equals_horner<F: PrimeField>(n: usize, t: usize, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let coeffs: Vec<F> = (0..=t).map(|_| F::random(&mut rng)).collect();
    let dealt = PowerTable::<F>::new(n, t).eval_all(&coeffs);
    assert_eq!(dealt, horner_at_every_party(&coeffs, n), "n = {n}, t = {t}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // n below, at and above t + 1, odd and even, and (over F_97) past
    // the modulus, where the points wrap.
    #[test]
    fn dealing_by_differences_equals_horner(n in 1usize..=130, t in 0usize..=48, seed in any::<u64>()) {
        dealing_equals_horner::<F61>(n, t, seed);
        dealing_equals_horner::<yoso_field::Fp<97>>(n, t, seed);
    }

    #[test]
    fn shamir_shares_are_horner_of_the_draws(secret in felt(), seed in any::<u64>(), n in 1usize..40) {
        let t = (n - 1) / 2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shares = shamir::share(&mut rng, secret, n, t).unwrap();
        let mut replay = rand::rngs::StdRng::seed_from_u64(seed);
        let mut coeffs = vec![secret];
        coeffs.extend((0..t).map(|_| F61::random(&mut replay)));
        let values: Vec<F61> = shares.iter().map(|s| s.value).collect();
        prop_assert_eq!(values, horner_at_every_party(&coeffs, n));
        prop_assert!(shares.iter().enumerate().all(|(i, s)| s.party == i));
    }
}

#[test]
fn dealing_by_differences_at_the_corners() {
    for (n, t) in [(1, 0), (1, 7), (2, 7), (8, 7), (9, 7), (7, 0), (33, 1), (512, 127), (97, 96)] {
        dealing_equals_horner::<F61>(n, t, 24);
        dealing_equals_horner::<yoso_field::Fp<97>>(n, t, 24);
    }
}

/// A packed deal and a public sharing against their definition: replay
/// the draws (the secrets, then `d + 1 − k` tail values), interpolate
/// through the nodes with [`lagrange::interpolate`] and evaluate that
/// polynomial at every party point by Horner.
fn packed_sharing_equals_interpolation<F: PrimeField>(
    n: usize,
    k: usize,
    d: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let scheme = PackedSharing::<F>::new(n, k).unwrap();
    let mut srng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5a5a);
    let secrets: Vec<F> = (0..k).map(|_| F::random(&mut srng)).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dealt = scheme.share(&mut rng, &secrets, d).unwrap();
    let mut replay = rand::rngs::StdRng::seed_from_u64(seed);
    let mut xs: Vec<F> = (0..k).map(|j| scheme.secret_point(j)).collect();
    let mut ys = secrets.clone();
    for i in 0..d + 1 - k {
        xs.push(scheme.party_point(i));
        ys.push(F::random(&mut replay));
    }
    let horner = |xs: &[F], ys: &[F]| -> Vec<F> {
        let poly = lagrange::interpolate(xs, ys).unwrap();
        (0..n).map(|i| poly.eval(scheme.party_point(i))).collect()
    };
    prop_assert_eq!(dealt.values(), &horner(&xs, &ys)[..], "deal, (n, k, d) = ({}, {}, {})", n, k, d);
    let public = scheme.share_public(&secrets).unwrap();
    prop_assert_eq!(public.values(), &horner(&xs[..k], &secrets)[..], "public, (n, k) = ({}, {})", n, k);
    Ok(())
}

/// (n, k, degree) over `F_97`: `n + k` up to 96, the most points the
/// field holds apart.
fn small_field_params() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=48).prop_flat_map(|k| {
        (k..=96 - k).prop_flat_map(move |n| ((k - 1)..n).prop_map(move |d| (n, k, d)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_sharing_by_differences_equals_interpolation(
        (n, k, d) in params(), (sn, sk, sd) in small_field_params(), seed in any::<u64>()
    ) {
        packed_sharing_equals_interpolation::<F61>(n, k, d, seed)?;
        packed_sharing_equals_interpolation::<Fp<97>>(sn, sk, sd, seed)?;
    }
}

#[test]
fn packed_sharing_by_differences_at_the_corners() {
    // Over F_97 the last three fill the field: n + k = 96.
    for (n, k, d) in [(1, 1, 0), (9, 9, 8), (64, 16, 47), (64, 16, 63), (90, 6, 89), (48, 48, 47), (95, 1, 94)] {
        packed_sharing_equals_interpolation::<Fp<97>>(n, k, d, 3).unwrap();
        packed_sharing_equals_interpolation::<F61>(n, k, d, 3).unwrap();
    }
}
