//! Dealer-free distributed key generation for the threshold key.
//!
//! The paper assumes a trusted setup for `(tpk, tsk₁…tskₙ)` (§5.1) and
//! points to Braun et al. (CRYPTO'23) for removing it. This module
//! implements the YOSO-friendly joint-Feldman DKG over the mock
//! threshold scheme, removing the dealer for the *threshold key* — the
//! cryptographically sensitive part (the KFF key material is generated
//! per future role and is not a shared secret; see §5.1):
//!
//! - every member of the first committee deals a Feldman VSS of a
//!   random contribution (commitments on the board, subshares
//!   encrypted to the committee's role keys, one re-share-style NIZK);
//! - the *qualified set* is the members whose proofs verify (under
//!   `t < n/2` it always has ≥ n − t ≥ t + 1 members);
//! - the threshold public key, the verification keys and each member's
//!   share are public linear combinations of the qualified deals.
//!
//! The classic rushing-bias caveat (Gennaro et al.): a rushing
//! adversary can bias the *distribution* of `tpk` (not learn the key).
//! As in most deployed DKGs this bias is benign for encryption keys;
//! eliminating it (e.g. with Pedersen commitments + extraction) is
//! orthogonal to the protocol reproduced here.

use rand::Rng;

use yoso_crypto::Domain;
use yoso_field::PrimeField;
use yoso_pss_sharing::shamir::PowerTable;
use yoso_runtime::{BulletinBoard, Committee};
use yoso_the::mock::{KeyShare, LinearPke, PkeKeyPair, PkePublicKey, PublicKey};
use yoso_the::nizk::{self, DealMap};

use crate::messages::{self, Post};
use crate::step::Step;
use crate::tsk::{deal, Dealt, PostedReshare, TskChain};
use crate::{ExecutionConfig, ProtocolError};

/// The deal proof is the tsk re-share relation ([`DealMap`]) with the
/// base `g` fixed by the DKG domain instead of an existing threshold
/// key.
static DOMAIN_DKG: Domain = Domain::new(b"yoso-pss/nizk/dkg-deal/v3");

/// Runs the DKG among `committee` (whose members hold `role_keys`),
/// producing a threshold key custody chain equivalent to `TKGen`'s —
/// with no dealer.
///
/// # Errors
///
/// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
/// `t + 1` deals verify (impossible under the corruption model).
pub fn run_dkg<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    board: &BulletinBoard<Post>,
    committee: &Committee,
    role_keys: &[PkeKeyPair<F>],
    t: usize,
    cfg: &ExecutionConfig,
) -> Result<TskChain<F>, ProtocolError> {
    let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
    run_dkg_in(rng, &sb, committee, role_keys, t, cfg)
}

/// [`run_dkg`] posting through an existing sharded board: one
/// [`Step`] over the committee, each member dealing a random constant
/// term ([`deal`] — the handover's dealing, with no held share and no
/// prior key to bind to).
pub(crate) fn run_dkg_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &crate::workitem::ShardedBoard<'_>,
    committee: &Committee,
    role_keys: &[PkeKeyPair<F>],
    t: usize,
    cfg: &ExecutionConfig,
) -> Result<TskChain<F>, ProtocolError> {
    let n = committee.n();
    if role_keys.len() != n {
        return Err(ProtocolError::BadParameters(format!(
            "a DKG among a committee of {n} needs exactly that many role keys"
        )));
    }
    // The base g is a public constant derived from the DKG domain.
    let g = derive_base::<F>();
    let recipient_pks: Vec<PkePublicKey<F>> = role_keys.iter().map(|kp| kp.public).collect();
    // The handover's kernels: one power table evaluates every dealer's
    // polynomial (and, below, the summed commitments) at all n points,
    // and one deal map serves the committee's n proofs.
    let table = PowerTable::new(n, t);
    let deal_map = cfg.produce_proofs.then(|| DealMap::new(g, &recipient_pks, &table));

    let mut deals: Vec<PostedReshare<F>> = Vec::new();
    let mut posts = crate::parallel::PostBuffer::new();
    let elements = messages::reshare_elements(n as u64, t as u64);
    let step = Step::new(committee, cfg, "setup/dkg", Post::TskReshare, elements);
    step.run(rng, &mut posts, deal_map.as_ref(), step.everyone(), |turn, ()| {
        let relation = |map: &DealMap<F>, rng: &mut _, targets: &[F], witness: Dealt<'_, F>| {
            let map = map.map();
            let proof = match witness {
                Some((coeffs, rands)) => {
                    nizk::prove_linear(rng, &DOMAIN_DKG, map, targets, &[coeffs, rands].concat())
                }
                None => nizk::LinearProof::garbage(rng, map.row_count(), map.witness_len()),
            };
            nizk::verify_linear(&DOMAIN_DKG, map, targets, &proof)
        };
        deals.push(deal(turn, g, F::random, &table, &recipient_pks, relation));
    });
    sb.flush_buffer(posts)?;

    let qualified: Vec<&PostedReshare<F>> = deals.iter().filter(|d| d.valid).collect();
    if qualified.len() < t + 1 {
        return Err(ProtocolError::NotEnoughContributions {
            step: "dkg qualified set",
            got: qualified.len(),
            need: t + 1,
        });
    }

    // tpk: h = Σ C_{i,0}; vk_j = Σ_i Σ_l (j+1)^l C_{i,l} — summed over
    // the dealers first, Σ_i C_i(X), then evaluated once per recipient;
    // share_j = Σ_i f_i(j+1).
    let mut summed = vec![F::ZERO; t + 1];
    for d in &qualified {
        for (acc, &c) in summed.iter_mut().zip(&d.commitments) {
            *acc += c;
        }
    }
    let h = summed[0];
    let vks = table.eval_all(&summed);
    let shares: Vec<Option<KeyShare<F>>> = (0..n)
        .map(|j| {
            let value: F = qualified
                .iter()
                .map(|d| LinearPke::decrypt(&role_keys[j].secret, &d.enc_subshares[j]))
                .sum();
            Some(KeyShare { party: j, value })
        })
        .collect();

    let pk = PublicKey { n, t, g, h, vks };
    TskChain::with_table(pk, shares, table)
}

/// Derives the public base `g ≠ 0` from the DKG domain separator.
fn derive_base<F: PrimeField>() -> F {
    let mut tr = yoso_crypto::Transcript::new(b"yoso-pss/dkg/base/v1");
    loop {
        let g: F = tr.challenge_field(b"g");
        if !g.is_zero() {
            return g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;
    use yoso_runtime::{ActiveAttack, Adversary, Behavior};
    use yoso_the::mock::MockTe;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(888)
    }

    fn role_keys(r: &mut rand::rngs::StdRng, n: usize) -> Vec<PkeKeyPair<F61>> {
        (0..n).map(|_| LinearPke::keygen(r)).collect()
    }

    #[test]
    fn dkg_key_encrypts_and_decrypts() {
        let mut r = rng();
        let (n, t) = (7usize, 3usize);
        let board = BulletinBoard::new();
        let committee = Committee::honest("dkg", n);
        let keys = role_keys(&mut r, n);
        let cfg = ExecutionConfig::default();
        let chain = run_dkg::<F61, _>(&mut r, &board, &committee, &keys, t, &cfg).unwrap();

        let m = F61::from(31_337u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let dec = Committee::honest("d", n);
        assert_eq!(chain.decrypt(&mut r, &board, &dec, &cfg, "x", &[ct]).unwrap(), vec![m]);
        // Feldman consistency: vk_j = share_j · g.
        for j in 0..n {
            assert_eq!(chain.pk.vks[j], chain.share_of(j).unwrap().value * chain.pk.g);
        }
        // DKG traffic was metered.
        let phases = board.phases().unwrap();
        let dkg = phases.iter().find(|(k, _)| k == "setup/dkg").map(|(_, s)| s.messages);
        assert_eq!(dkg, Some(n as u64));
    }

    #[test]
    fn dkg_survives_malicious_dealers() {
        let mut r = rng();
        let (n, t) = (9usize, 3usize);
        let board = BulletinBoard::new();
        let adv = Adversary::active(t, ActiveAttack::WrongValue);
        let committee = adv.sample_committee(&mut r, "dkg", n);
        let keys = role_keys(&mut r, n);
        let cfg = ExecutionConfig::default();
        let chain = run_dkg::<F61, _>(&mut r, &board, &committee, &keys, t, &cfg).unwrap();
        let m = F61::from(5u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let dec = Committee::honest("d", n);
        assert_eq!(chain.decrypt(&mut r, &board, &dec, &cfg, "x", &[ct]).unwrap(), vec![m]);
    }

    /// The key, the shares and the postings, against the
    /// straightforward evaluation this module used to run: Horner per
    /// (dealer, recipient) for the subshares, Horner per (recipient,
    /// dealer) over the commitments for the verification keys.
    #[test]
    fn dkg_agrees_with_per_recipient_horner_evaluation() {
        use rand::RngCore;
        fn horner(coeffs: &[F61], x: F61) -> F61 {
            coeffs.iter().rev().fold(F61::ZERO, |acc, &c| acc * x + c)
        }
        let (n, t) = (9usize, 3usize);
        for (seed, produce_proofs) in [(7u64, true), (8, true), (9, false)] {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let adv = Adversary::active(t, ActiveAttack::WrongValue);
            let committee = adv.sample_committee(&mut r, "dkg", n);
            let keys = role_keys(&mut r, n);
            let cfg = ExecutionConfig { produce_proofs, ..ExecutionConfig::default() };

            // Replay the honest dealers' draws: one child seed a
            // member, `t + 1` coefficients from the child.
            let mut replay = r.clone();
            let polys: Vec<Vec<F61>> = (0..n)
                .filter_map(|i| {
                    let mut mrng = rand::rngs::StdRng::seed_from_u64(replay.next_u64());
                    (*committee.behavior(i) == Behavior::Honest)
                        .then(|| (0..=t).map(|_| F61::random(&mut mrng)).collect())
                })
                .collect();
            assert_eq!(polys.len(), n - t);

            let board = BulletinBoard::new();
            let chain = run_dkg::<F61, _>(&mut r, &board, &committee, &keys, t, &cfg).unwrap();
            let g = chain.pk.g;
            assert_eq!(chain.pk.h, polys.iter().map(|p| p[0] * g).sum::<F61>());
            for j in 0..n {
                let x = F61::from_u64(j as u64 + 1);
                let share: F61 = polys.iter().map(|p| horner(p, x)).sum();
                assert_eq!(chain.share_of(j).unwrap().value, share, "seed {seed}, share {j}");
                let vk: F61 = polys
                    .iter()
                    .map(|p| horner(&p.iter().map(|&a| a * g).collect::<Vec<_>>(), x))
                    .sum();
                assert_eq!(chain.pk.vks[j], vk, "seed {seed}, vk {j}");
            }
            // One deal a member, malicious ones included, each metered
            // as a re-share message.
            let phases = board.phases().unwrap();
            let [(phase, stats)] = &phases[..] else { panic!("{phases:?}") };
            assert_eq!(phase, "setup/dkg");
            assert_eq!(stats.messages, n as u64);
            assert_eq!(stats.elements, n as u64 * messages::reshare_elements(n as u64, t as u64));
            assert_eq!(board.len().unwrap(), n);
        }
    }

    #[test]
    fn a_deal_proof_binds_its_domain_and_garbage_is_rejected() {
        let mut r = rng();
        let (n, t) = (5usize, 2usize);
        let keys = role_keys(&mut r, n);
        let recipient_pks: Vec<_> = keys.iter().map(|kp| kp.public).collect();
        let g = derive_base::<F61>();
        let table = PowerTable::new(n, t);
        let map = DealMap::new(g, &recipient_pks, &table);
        let coeffs: Vec<F61> = (0..=t).map(|_| F61::random(&mut r)).collect();
        let commitments: Vec<F61> = coeffs.iter().map(|&a| a * g).collect();
        let (enc, rands): (Vec<_>, Vec<_>) = table
            .eval_all(&coeffs)
            .into_iter()
            .zip(&recipient_pks)
            .map(|(sub, rpk)| LinearPke::encrypt(&mut r, rpk, sub))
            .unzip();
        let targets = map.targets(&commitments, &enc).unwrap();
        let witness = [&coeffs[..], &rands[..]].concat();
        let proof = nizk::prove_linear(&mut r, &DOMAIN_DKG, map.map(), &targets, &witness);
        assert!(nizk::verify_linear(&DOMAIN_DKG, map.map(), &targets, &proof));

        // The retired separators, and the handover's: the same relation
        // under another name is another proof.
        for label in ["dkg-deal/v1", "dkg-deal/v2", "reshare/v3"] {
            let other = Domain::new(format!("yoso-pss/nizk/{label}").as_bytes());
            let old = nizk::prove_linear(&mut r, &other, map.map(), &targets, &witness);
            assert!(nizk::verify_linear(&other, map.map(), &targets, &old));
            assert!(!nizk::verify_linear(&DOMAIN_DKG, map.map(), &targets, &old), "{label}");
        }

        // What a malicious dealer posts: verified, and rejected.
        let mut r = rand::rngs::StdRng::seed_from_u64(20261003);
        let (rows, witness_len) = (map.map().row_count(), map.map().witness_len());
        let garbage = nizk::LinearProof::<F61>::garbage(&mut r, rows, witness_len);
        assert_ne!(garbage.commitment[0], garbage.commitment[1]);
        assert!(!nizk::verify_linear(&DOMAIN_DKG, map.map(), &targets, &garbage));
    }

    #[test]
    fn dkg_chain_supports_handover_and_reencrypt() {
        let mut r = rng();
        let (n, t) = (6usize, 2usize);
        let board = BulletinBoard::new();
        let committee = Committee::honest("dkg", n);
        let keys = role_keys(&mut r, n);
        let cfg = ExecutionConfig::default();
        let mut chain = run_dkg::<F61, _>(&mut r, &board, &committee, &keys, t, &cfg).unwrap();

        let m = F61::from(777u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        // Handover to a fresh committee, then re-encrypt to a target.
        let next = role_keys(&mut r, n);
        chain.handover(&mut r, &board, &committee, &cfg, "offline/handover", &next).unwrap();
        let target = LinearPke::<F61>::keygen(&mut r);
        let vals = chain.reencrypt(
            &mut r,
            &board,
            &Committee::honest("c2", n),
            &cfg,
            "x",
            &[(target.public, ct)],
        )
        .unwrap();
        assert_eq!(vals[0].open(target.secret.scalar).unwrap(), m);
    }

    #[test]
    fn all_silent_dealers_starve_the_dkg() {
        let mut r = rng();
        let (n, t) = (5usize, 2usize);
        let board = BulletinBoard::new();
        let committee = Committee::with_behaviors(
            "dkg",
            vec![Behavior::Malicious(ActiveAttack::Silent); n],
        );
        let keys = role_keys(&mut r, n);
        let cfg = ExecutionConfig::default();
        let err = run_dkg::<F61, _>(&mut r, &board, &committee, &keys, t, &cfg).unwrap_err();
        assert!(matches!(err, ProtocolError::NotEnoughContributions { .. }));
    }

    #[test]
    fn wrong_role_key_count_is_a_typed_error() {
        let mut r = rng();
        let (n, t) = (5usize, 2usize);
        let board = BulletinBoard::new();
        let committee = Committee::honest("dkg", n);
        let cfg = ExecutionConfig::default();
        for count in [n - 1, n + 1] {
            let keys = role_keys(&mut r, count);
            let err = run_dkg::<F61, _>(&mut r, &board, &committee, &keys, t, &cfg).unwrap_err();
            assert!(matches!(err, ProtocolError::BadParameters(_)), "{err}");
        }
        assert!(board.phases().unwrap().is_empty());
    }
}
