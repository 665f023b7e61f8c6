//! Property tests for the threshold-encryption layer: homomorphism
//! under random linear combinations, re-share chains, simulatability
//! and NIZK soundness surfaces.

use proptest::prelude::*;
use rand::SeedableRng;
use yoso_field::{lagrange, F61, PrimeField};
use yoso_the::mock::{LinearPke, MockTe, PartialDec, ReshareMsg};
use yoso_the::{nizk, TeError};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn felt() -> impl Strategy<Value = F61> {
    any::<u64>().prop_map(F61::from_u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn homomorphism_random_linear_combination(
        seed in any::<u64>(),
        ms in prop::collection::vec(felt(), 1..10),
        cs in prop::collection::vec(felt(), 1..10),
    ) {
        let len = ms.len().min(cs.len());
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, 7, 3).unwrap();
        let cts: Vec<_> = ms[..len].iter().map(|&m| MockTe::encrypt(&mut r, &pk, m).0).collect();
        let combined = MockTe::eval(&cts, &cs[..len]).unwrap();
        let expect: F61 = ms[..len].iter().zip(&cs[..len]).map(|(&m, &c)| m * c).sum();
        prop_assert_eq!(MockTe::decrypt_with_shares(&pk, &combined, &shares).unwrap(), expect);
    }

    #[test]
    fn any_t_plus_one_subset_agrees(seed in any::<u64>(), m in felt(), subset_seed in any::<u64>()) {
        let mut r = rng(seed);
        let n = 9;
        let t = 4;
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        // Pick a pseudorandom (t+1)-subset.
        let mut idx: Vec<usize> = (0..n).collect();
        let mut sr = rng(subset_seed);
        use rand::seq::SliceRandom;
        idx.shuffle(&mut sr);
        let partials: Vec<_> =
            idx[..t + 1].iter().map(|&i| MockTe::partial_decrypt(&shares[i], &ct)).collect();
        prop_assert_eq!(MockTe::combine(&pk, &ct, &partials).unwrap(), m);
    }

    #[test]
    fn reshare_chain_arbitrary_providers(seed in any::<u64>(), m in felt(), epochs in 1usize..4) {
        let mut r = rng(seed);
        let n = 6;
        let t = 2;
        let (mut pk, mut shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        for e in 0..epochs {
            let msgs: Vec<ReshareMsg<F61>> =
                shares.iter().map(|s| MockTe::reshare(&mut r, &pk, s)).collect();
            // Rotate the provider subset each epoch.
            let providers: Vec<&ReshareMsg<F61>> =
                (0..t + 1).map(|j| &msgs[(j + e) % n]).collect();
            shares = (0..n)
                .map(|j| MockTe::recombine_key(&pk, j, &providers).unwrap())
                .collect();
            pk = MockTe::next_public_key(&pk, &providers).unwrap();
        }
        prop_assert_eq!(MockTe::decrypt_with_shares(&pk, &ct, &shares).unwrap(), m);
        // vks stay consistent with the shares.
        for (j, s) in shares.iter().enumerate() {
            prop_assert_eq!(pk.vks[j], s.value * pk.g);
        }
    }

    #[test]
    fn sim_tpdec_perfect_for_any_target(seed in any::<u64>(), m in felt(), target in felt()) {
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, 7, 3).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        let corrupt: Vec<_> =
            shares[..3].iter().map(|s| MockTe::partial_decrypt(s, &ct)).collect();
        let honest = MockTe::sim_partial_decrypt(
            &mut r, &pk, &ct, target, &corrupt, &[3, 4, 5, 6],
        ).unwrap();
        let mut all = corrupt.clone();
        all.extend_from_slice(&honest);
        prop_assert_eq!(MockTe::combine(&pk, &ct, &all).unwrap(), target);
    }

    #[test]
    fn enc_proof_sound_against_mutation(seed in any::<u64>(), m in felt(), delta in 1u64..1000) {
        let mut r = rng(seed);
        let (pk, _) = MockTe::<F61>::keygen(&mut r, 5, 2).unwrap();
        let (ct, rand_r) = MockTe::encrypt(&mut r, &pk, m);
        let proof = nizk::enc_proof(&mut r, &pk, &ct, m, rand_r);
        prop_assert!(nizk::verify_enc_proof(&pk, &ct, &proof));
        // Any ciphertext mutation invalidates the proof.
        let mut bad = ct;
        bad.v += F61::from_u64(delta);
        prop_assert!(!nizk::verify_enc_proof(&pk, &bad, &proof));
        let mut bad2 = ct;
        bad2.u += F61::from_u64(delta);
        prop_assert!(!nizk::verify_enc_proof(&pk, &bad2, &proof));
    }

    #[test]
    fn pke_roundtrip_and_homomorphism(seed in any::<u64>(), a in felt(), b in felt(), c in felt()) {
        let mut r = rng(seed);
        let kp = LinearPke::<F61>::keygen(&mut r);
        let (ct_a, _) = LinearPke::encrypt(&mut r, &kp.public, a);
        let (ct_b, _) = LinearPke::encrypt(&mut r, &kp.public, b);
        prop_assert_eq!(LinearPke::decrypt(&kp.secret, &ct_a), a);
        // c·ct_a + ct_b decrypts to c·a + b.
        let combo = yoso_the::mock::Ciphertext {
            u: c * ct_a.u + ct_b.u,
            v: c * ct_a.v + ct_b.v,
        };
        prop_assert_eq!(LinearPke::decrypt(&kp.secret, &combo), c * a + b);
    }

    #[test]
    fn share_proof_binds_published_value(seed in any::<u64>(), slope in felt(), offset in felt()) {
        let mut r = rng(seed);
        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = offset - kp.secret.scalar * slope;
        let proof =
            nizk::share_proof(&mut r, &kp.public, slope, offset, published, kp.secret.scalar);
        prop_assert!(nizk::verify_share_proof(&kp.public, slope, offset, published, &proof));
        prop_assert!(!nizk::verify_share_proof(
            &kp.public, slope, offset, published + F61::ONE, &proof
        ));
        // A different key's proof does not transfer.
        let other = LinearPke::<F61>::keygen(&mut r);
        prop_assert!(!nizk::verify_share_proof(&other.public, slope, offset, published, &proof));
    }
}

// ---------------------------------------------------------------------
// The shared-weights recombination against the per-item formulas it
// replaced: a full `lagrange::interpolate` per value and a Horner chain
// per evaluation. Field arithmetic is exact, so agreement is equality.
// ---------------------------------------------------------------------

/// The value at zero of the polynomial through `(party + 1, y)`.
fn interpolated_at_zero(parties: &[usize], ys: &[F61]) -> F61 {
    let xs: Vec<F61> = parties.iter().map(|&p| F61::from_u64(p as u64 + 1)).collect();
    lagrange::interpolate(&xs, ys).unwrap().eval(F61::ZERO)
}

fn horner(coeffs: &[F61], x: F61) -> F61 {
    coeffs.iter().rev().fold(F61::ZERO, |acc, &c| acc * x + c)
}

/// A random `(n, t)` with `t < n` and a random order of the members.
fn committee_shape() -> impl Strategy<Value = (usize, usize, Vec<usize>)> {
    (2usize..14).prop_flat_map(|n| (Just(n), 0..n, any::<u64>())).prop_map(|(n, t, order_seed)| {
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng(order_seed));
        (n, t, order)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combine_agrees_with_per_item_interpolation(
        seed in any::<u64>(),
        (n, t, order) in committee_shape(),
        surplus in 0usize..4,
        m in felt(),
    ) {
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        let take = (t + 1 + surplus).min(n);
        let partials: Vec<PartialDec<F61>> =
            order[..take].iter().map(|&i| MockTe::partial_decrypt(&shares[i], &ct)).collect();
        let ys: Vec<F61> = partials[..t + 1].iter().map(|p| p.value).collect();
        let expect = ct.v - interpolated_at_zero(&order[..t + 1], &ys);
        prop_assert_eq!(MockTe::combine(&pk, &ct, &partials), Ok(expect));
        prop_assert_eq!(expect, m);

        // One wrong surplus partial is still caught by the consistency check.
        if take > t + 1 {
            let mut bad = partials.clone();
            bad[take - 1].value += F61::ONE;
            prop_assert_eq!(MockTe::combine(&pk, &ct, &bad), Err(TeError::InconsistentPartials));
        }
        // Duplicate and out-of-range parties, in the head or the surplus.
        let mut dup = partials.clone();
        dup.push(partials[0]);
        prop_assert_eq!(MockTe::combine(&pk, &ct, &dup), Err(TeError::BadParty(partials[0].party)));
        let mut far = partials.clone();
        far[0].party = n;
        prop_assert_eq!(MockTe::combine(&pk, &ct, &far), Err(TeError::BadParty(n)));
        prop_assert_eq!(
            MockTe::combine(&pk, &ct, &partials[..t]),
            Err(TeError::NotEnoughPartials { got: t, need: t + 1 })
        );
    }

    #[test]
    fn reshare_and_recombination_agree_with_horner_and_per_item_interpolation(
        seed in any::<u64>(),
        (n, t, order) in committee_shape(),
    ) {
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();

        // Dealing: the same `t` draws, evaluated by Horner.
        let msgs: Vec<ReshareMsg<F61>> = shares
            .iter()
            .map(|s| {
                let mut reference = r.clone();
                let msg = MockTe::reshare(&mut r, &pk, s);
                let mut coeffs = vec![s.value];
                coeffs.extend((0..t).map(|_| F61::random(&mut reference)));
                for (j, &sub) in msg.subshares.iter().enumerate() {
                    assert_eq!(sub, horner(&coeffs, F61::from_u64(j as u64 + 1)));
                }
                let committed: Vec<F61> = coeffs.iter().map(|&c| c * pk.g).collect();
                assert_eq!(msg.commitments, committed);
                assert!(MockTe::reshare_is_valid(&pk, &msg));
                msg
            })
            .collect();

        // Recombination and next-vk derivation from an arbitrary subset.
        let providers: Vec<&ReshareMsg<F61>> = order[..t + 1].iter().map(|&i| &msgs[i]).collect();
        let next = MockTe::next_public_key(&pk, &providers).unwrap();
        for j in 0..n {
            let x = F61::from_u64(j as u64 + 1);
            let subs: Vec<F61> = providers.iter().map(|m| m.subshares[j]).collect();
            let share = MockTe::recombine_key(&pk, j, &providers).unwrap();
            prop_assert_eq!(share.value, interpolated_at_zero(&order[..t + 1], &subs));
            let committed: Vec<F61> = providers.iter().map(|m| horner(&m.commitments, x)).collect();
            prop_assert_eq!(next.vks[j], interpolated_at_zero(&order[..t + 1], &committed));
        }

        // A tampered subshare fails the Feldman check wherever it sits.
        let mut bad = msgs[0].clone();
        bad.subshares[n - 1] += F61::ONE;
        prop_assert!(!MockTe::reshare_is_valid(&pk, &bad));
        // Duplicate providers are still refused.
        let mut twice = providers.clone();
        twice[t] = twice[0];
        if t > 0 {
            prop_assert_eq!(
                MockTe::recombine_key(&pk, 0, &twice),
                Err(TeError::BadParty(twice[0].from))
            );
        }
    }
}
