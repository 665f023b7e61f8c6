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

use yoso_field::PrimeField;
use yoso_runtime::{Behavior, BulletinBoard, Committee};
use yoso_the::mock::{Ciphertext, KeyShare, LinearPke, PkeKeyPair, PkePublicKey, PublicKey};
use yoso_the::nizk;

use crate::messages::{self, Post};
use crate::tsk::TskChain;
use crate::{ExecutionConfig, ProtocolError};

/// The deal proof is the tsk re-share relation
/// ([`nizk::feldman_deal_statement`]) with the base `g` fixed by the DKG
/// domain instead of an existing threshold key.
const DOMAIN_DKG: &[u8] = b"yoso-pss/nizk/dkg-deal/v2";

/// One member's posted deal.
struct Deal<F: PrimeField> {
    commitments: Vec<F>,
    enc_subshares: Vec<Ciphertext<F>>,
    valid: bool,
}

/// Runs the DKG among `committee` (whose members hold `role_keys`),
/// producing a threshold key custody chain equivalent to `TKGen`'s —
/// with no dealer.
///
/// # Errors
///
/// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
/// `t + 1` deals verify (impossible under the corruption model).
#[allow(clippy::needless_range_loop)]
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

/// [`run_dkg`] posting through an existing sharded board, with
/// per-member child RNGs (same sharding contract as the tsk
/// operations: values are drawn identically on every worker, proofs
/// run only for owned members).
#[allow(clippy::needless_range_loop)]
pub(crate) fn run_dkg_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &crate::workitem::ShardedBoard<'_>,
    committee: &Committee,
    role_keys: &[PkeKeyPair<F>],
    t: usize,
    cfg: &ExecutionConfig,
) -> Result<TskChain<F>, ProtocolError> {
    use rand::SeedableRng;

    let n = committee.n();
    if role_keys.len() != n {
        return Err(ProtocolError::BadParameters(format!(
            "a DKG among a committee of {n} needs exactly that many role keys"
        )));
    }
    // The base g is a public constant derived from the DKG domain.
    let g = derive_base::<F>();
    let recipient_pks: Vec<PkePublicKey<F>> = role_keys.iter().map(|kp| kp.public).collect();

    let phase = "setup/dkg";
    let mut deals: Vec<Deal<F>> = Vec::new();
    let mut posts = crate::parallel::PostBuffer::new();
    for i in 0..n {
        let behavior = committee.behavior(i);
        if !behavior.participates_at(crate::engine::phase_index(phase)) {
            continue;
        }
        let mut mrng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
        let owned = cfg.partition.owns(i);
        let prove = cfg.produce_proofs && owned;
        let deal = match behavior {
            Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => {
                let coeffs: Vec<F> = (0..=t).map(|_| F::random(&mut mrng)).collect();
                let commitments: Vec<F> = coeffs.iter().map(|&a| a * g).collect();
                let mut enc = Vec::with_capacity(n);
                let mut rands = Vec::with_capacity(n);
                for j in 0..n {
                    let x = F::from_u64(j as u64 + 1);
                    let mut acc = F::ZERO;
                    for &a in coeffs.iter().rev() {
                        acc = acc * x + a;
                    }
                    let (ct, r) = LinearPke::encrypt(&mut mrng, &recipient_pks[j], acc);
                    enc.push(ct);
                    rands.push(r);
                }
                let valid = if prove {
                    let st = nizk::feldman_deal_statement(g, &commitments, &recipient_pks, &enc);
                    let mut witness = coeffs.clone();
                    witness.extend_from_slice(&rands);
                    let proof = nizk::prove_linear(&mut mrng, DOMAIN_DKG, &st, &witness);
                    nizk::verify_linear(DOMAIN_DKG, &st, &proof)
                } else {
                    true
                };
                Deal { commitments, enc_subshares: enc, valid }
            }
            Behavior::Malicious(_) => {
                let commitments: Vec<F> = (0..=t).map(|_| F::random(&mut mrng)).collect();
                let enc: Vec<Ciphertext<F>> = (0..n)
                    .map(|j| {
                        let junk = F::random(&mut mrng);
                        LinearPke::encrypt(&mut mrng, &recipient_pks[j], junk).0
                    })
                    .collect();
                let valid = if prove {
                    let st = nizk::feldman_deal_statement(g, &commitments, &recipient_pks, &enc);
                    let proof = nizk::LinearProof::<F> {
                        commitment: (0..st.targets().len()).map(|_| F::random(&mut mrng)).collect(),
                        response: (0..st.witness_len()).map(|_| F::random(&mut mrng)).collect(),
                    };
                    nizk::verify_linear(DOMAIN_DKG, &st, &proof)
                } else {
                    false
                };
                Deal { commitments, enc_subshares: enc, valid }
            }
        };
        let elements = messages::reshare_elements(n as u64, t as u64);
        posts.record(owned, &committee.name, i, Post::TskReshare, phase, elements);
        deals.push(deal);
    }
    sb.flush_buffer(posts)?;

    let qualified: Vec<&Deal<F>> = deals.iter().filter(|d| d.valid).collect();
    if qualified.len() < t + 1 {
        return Err(ProtocolError::NotEnoughContributions {
            step: "dkg qualified set",
            got: qualified.len(),
            need: t + 1,
        });
    }

    // tpk: h = Σ C_{i,0}; vk_j = Σ_i Σ_l (j+1)^l C_{i,l};
    // share_j = Σ_i f_i(j+1).
    let h: F = qualified.iter().map(|d| d.commitments[0]).sum();
    let mut vks = Vec::with_capacity(n);
    for j in 0..n {
        let x = F::from_u64(j as u64 + 1);
        let mut vk = F::ZERO;
        for d in &qualified {
            let mut acc = F::ZERO;
            for &c in d.commitments.iter().rev() {
                acc = acc * x + c;
            }
            vk += acc;
        }
        vks.push(vk);
    }
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
    TskChain::from_parts(pk, shares)
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
    use yoso_runtime::{ActiveAttack, Adversary};
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
        assert!(board.meter().phase("setup/dkg").messages == n as u64);
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
        assert_eq!(board.meter().phase("setup/dkg").messages, 0);
    }
}
