//! Sigma-protocol NIZKs for threshold Paillier (Fiat–Shamir).
//!
//! Two proofs are needed by the CDN-style offline phase:
//!
//! - [`EncProof`]: knowledge of `(m, r)` with
//!   `c = (1+N)^m · r^N mod N²` (a valid encryption, and the prover
//!   knows the plaintext). Statistical honest-verifier ZK via integer
//!   masking.
//! - [`PdecProof`]: correctness of a partial decryption — a
//!   discrete-log-equality proof that
//!   `log_{c^4}(d_i²) = log_v(v_i) = Δ·s_i` against the public
//!   verification key `v_i`.

use rand::Rng;

use yoso_bignum::{Int, MontgomeryCtx, Nat, Sign};
use yoso_crypto::Transcript;

use super::{multi_exp, pow_signed, Ciphertext, KeyShare, PartialDec, PublicKey};

const DOMAIN_ENC: &[u8] = b"yoso-pss/paillier/enc/v1";
const DOMAIN_PDEC: &[u8] = b"yoso-pss/paillier/pdec/v1";

/// Challenge bit-length (statistical soundness `2^{-64}`).
const CHALLENGE_BITS: usize = 64;
/// Extra masking bits for statistical zero-knowledge.
const MASK_BITS: usize = 80;

/// Proof of knowledge of plaintext and randomness for a Paillier
/// ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncProof {
    /// Commitment `A = (1+N)^x · u^N mod N²`.
    pub a: Nat,
    /// Response `z_m = x + e·m` over the integers.
    pub z_m: Nat,
    /// Response `z_r = u · r^e mod N²`.
    pub z_r: Nat,
}

impl EncProof {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.a.to_bytes_be().len() + self.z_m.to_bytes_be().len() + self.z_r.to_bytes_be().len()
    }
}

fn enc_challenge(pk: &PublicKey, ct: &Ciphertext, a: &Nat) -> Nat {
    let mut t = Transcript::new(DOMAIN_ENC);
    t.absorb_nat(b"N", &pk.n_mod);
    t.absorb_nat(b"c", &ct.value);
    t.absorb_nat(b"A", a);
    t.challenge_nat(b"e", &(Nat::one() << CHALLENGE_BITS))
}

/// Proves knowledge of `(m, r)` for `ct = Enc(m; r)`.
pub fn prove_enc<R: Rng + ?Sized>(
    rng: &mut R,
    pk: &PublicKey,
    ct: &Ciphertext,
    m: &Nat,
    r: &Nat,
) -> EncProof {
    // x masks e·m statistically: e < 2^64, m < N.
    let x_bound = &pk.n_mod << (CHALLENGE_BITS + MASK_BITS);
    let x = Nat::random_below(rng, &x_bound);
    let u = loop {
        let cand = Nat::random_below(rng, &pk.n_mod);
        if !cand.is_zero() && cand.gcd(&pk.n_mod).is_one() {
            break cand;
        }
    };
    // A = (1+N)^x · u^N; (1+N)^x = 1 + (x mod N)·N mod N².
    let g_x = (&Nat::one() + &(x.mod_mul(&pk.n_mod, &pk.n_sq))) % &pk.n_sq;
    let a = g_x.mod_mul(&u.mod_pow(&pk.n_mod, &pk.n_sq), &pk.n_sq);
    let e = enc_challenge(pk, ct, &a);
    let z_m = &x + &(&e * m);
    let z_r = u.mod_mul(&r.mod_pow(&e, &pk.n_sq), &pk.n_sq);
    EncProof { a, z_m, z_r }
}

/// Verifies an [`EncProof`].
pub fn verify_enc(pk: &PublicKey, ct: &Ciphertext, proof: &EncProof) -> bool {
    let e = enc_challenge(pk, ct, &proof.a);
    // (1+N)^{z_m} · z_r^N =? A · c^e  (mod N²).
    let g_zm = (&Nat::one() + &(proof.z_m.mod_mul(&pk.n_mod, &pk.n_sq))) % &pk.n_sq;
    let lhs = g_zm.mod_mul(&proof.z_r.mod_pow(&pk.n_mod, &pk.n_sq), &pk.n_sq);
    let rhs = proof.a.mod_mul(&ct.value.mod_pow(&e, &pk.n_sq), &pk.n_sq);
    lhs == rhs
}

/// Discrete-log-equality proof that a partial decryption used the
/// committed key share: `d_i² = (c⁴)^σ` and `v_i = v^σ` for
/// `σ = Δ·s_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdecProof {
    /// Commitment `A = (c⁴)^ρ`.
    pub a: Nat,
    /// Commitment `B = v^ρ`.
    pub b: Nat,
    /// Response `z = ρ + e·σ` over the integers (signed — shares can
    /// go negative after re-sharing).
    pub z: Int,
}

impl PdecProof {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.a.to_bytes_be().len()
            + self.b.to_bytes_be().len()
            + self.z.magnitude().to_bytes_be().len()
            + 1
    }
}

fn pdec_challenge(pk: &PublicKey, ct: &Ciphertext, pd: &PartialDec, a: &Nat, b: &Nat) -> Nat {
    let mut t = Transcript::new(DOMAIN_PDEC);
    t.absorb_nat(b"N", &pk.n_mod);
    t.absorb_nat(b"c", &ct.value);
    t.absorb_u64(b"party", pd.party as u64);
    t.absorb_nat(b"d", &pd.value);
    t.absorb_nat(b"A", a);
    t.absorb_nat(b"B", b);
    t.challenge_nat(b"e", &(Nat::one() << CHALLENGE_BITS))
}

/// Proves that `pd` is the correct partial decryption of `ct` by the
/// holder of `share`.
pub fn prove_pdec<R: Rng + ?Sized>(
    rng: &mut R,
    pk: &PublicKey,
    ct: &Ciphertext,
    share: &KeyShare,
    pd: &PartialDec,
) -> PdecProof {
    let sigma = share.value.mul_nat(&pk.delta);
    // ρ masks e·σ: bound |σ| by its magnitude with statistical slack.
    let sigma_bits = sigma.magnitude().bit_len().max(1);
    let rho_bound = Nat::one() << (sigma_bits + CHALLENGE_BITS + MASK_BITS);
    let rho = Nat::random_below(rng, &rho_bound);
    let c4 = ct.value.mod_pow(&Nat::from(4u64), &pk.n_sq);
    let a = c4.mod_pow(&rho, &pk.n_sq);
    let b = pk.v.mod_pow(&rho, &pk.n_sq);
    let e = pdec_challenge(pk, ct, pd, &a, &b);
    let z = &Int::from_nat(rho) + &sigma.mul_nat(&e);
    PdecProof { a, b, z }
}

/// Verifies a [`PdecProof`] against the verification key of
/// `pd.party`.
pub fn verify_pdec(pk: &PublicKey, ct: &Ciphertext, pd: &PartialDec, proof: &PdecProof) -> bool {
    if pd.party >= pk.vks.len() {
        return false;
    }
    let e = pdec_challenge(pk, ct, pd, &proof.a, &proof.b);
    let c4 = ct.value.mod_pow(&Nat::from(4u64), &pk.n_sq);
    let d_sq = pd.value.mod_mul(&pd.value, &pk.n_sq);
    // (c⁴)^z =? A · (d²)^e  and  v^z =? B · v_i^e.
    let lhs1 = pow_signed(&c4, &proof.z, &pk.n_sq);
    let rhs1 = proof.a.mod_mul(&d_sq.mod_pow(&e, &pk.n_sq), &pk.n_sq);
    if lhs1 != rhs1 {
        return false;
    }
    let lhs2 = pow_signed(&pk.v, &proof.z, &pk.n_sq);
    let rhs2 = proof.b.mod_mul(&pk.vks[pd.party].mod_pow(&e, &pk.n_sq), &pk.n_sq);
    lhs2 == rhs2
}

/// Verifies a batch of [`PdecProof`]s at once via a random linear
/// combination: each item is assigned a fresh nonzero 64-bit scalar
/// `ρ_i` and the two per-item product equalities are checked *once*
/// over the whole batch,
///
/// ```text
/// Π (c_i⁴)^{z_i·ρ_i} == Π A_i^{ρ_i} · (d_i²)^{e_i·ρ_i}
/// v^{Σ z_i·ρ_i}      == Π B_i^{ρ_i} · v_i^{e_i·ρ_i}
/// ```
///
/// each as a single Straus/Pippenger multi-exponentiation sharing one
/// squaring chain ([`multi_exp`]). Negative `z_i` terms move to the
/// other side of their equality instead of inverting bases. A batch
/// with any invalid proof passes with probability ≤ `2^{-64}` (the
/// chance the ρ-combination cancels); an empty batch verifies.
///
/// On `false`, fall back to per-item [`verify_pdec`] to identify the
/// culprits.
pub fn verify_pdec_batch<R: Rng + ?Sized>(
    rng: &mut R,
    pk: &PublicKey,
    items: &[(&Ciphertext, &PartialDec, &PdecProof)],
) -> bool {
    if items.is_empty() {
        return true;
    }
    if items.iter().any(|(_, pd, _)| pd.party >= pk.vks.len()) {
        return false;
    }
    let ctx = MontgomeryCtx::new(&pk.n_sq);
    let mut lhs1_b = Vec::new();
    let mut lhs1_e = Vec::new();
    let mut rhs1_b = Vec::with_capacity(2 * items.len());
    let mut rhs1_e = Vec::with_capacity(2 * items.len());
    let mut rhs2_b = Vec::with_capacity(2 * items.len() + 1);
    let mut rhs2_e = Vec::with_capacity(2 * items.len() + 1);
    // v's merged exponents: Σ|z_i|ρ_i split by the sign of z_i.
    let mut v_pos = Nat::zero();
    let mut v_neg = Nat::zero();
    for (ct, pd, proof) in items {
        let rho = Nat::from(loop {
            let r: u64 = rng.gen();
            if r != 0 {
                break r;
            }
        });
        let e = pdec_challenge(pk, ct, pd, &proof.a, &proof.b);
        let c4 = ct.value.mod_pow(&Nat::from(4u64), &pk.n_sq);
        let d_sq = pd.value.mod_mul(&pd.value, &pk.n_sq);
        let z_rho = proof.z.magnitude() * &rho;
        match proof.z.sign() {
            Sign::Negative => {
                // (c⁴)^{z} with z < 0: move to the RHS product.
                rhs1_b.push(c4);
                rhs1_e.push(z_rho.clone());
                v_neg = &v_neg + &z_rho;
            }
            _ => {
                lhs1_b.push(c4);
                lhs1_e.push(z_rho.clone());
                v_pos = &v_pos + &z_rho;
            }
        }
        rhs1_b.push(proof.a.clone());
        rhs1_e.push(rho.clone());
        rhs1_b.push(d_sq);
        rhs1_e.push(&e * &rho);
        rhs2_b.push(proof.b.clone());
        rhs2_e.push(rho.clone());
        rhs2_b.push(pk.vks[pd.party].clone());
        rhs2_e.push(&e * &rho);
    }
    let (Ok(l1), Ok(r1)) = (
        multi_exp::multi_exp_nat(&ctx, &lhs1_b, &lhs1_e),
        multi_exp::multi_exp_nat(&ctx, &rhs1_b, &rhs1_e),
    ) else {
        return false;
    };
    if l1 != r1 {
        return false;
    }
    // v^{Σ_{z≥0}|z_i|ρ_i} == Π B_i^{ρ_i} · v_i^{e_i·ρ_i} · v^{Σ_{z<0}|z_i|ρ_i}.
    rhs2_b.push(pk.v.clone());
    rhs2_e.push(v_neg);
    let (Ok(l2), Ok(r2)) = (
        multi_exp::multi_exp_nat(&ctx, std::slice::from_ref(&pk.v), &[v_pos]),
        multi_exp::multi_exp_nat(&ctx, &rhs2_b, &rhs2_e),
    ) else {
        return false;
    };
    l2 == r2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::ThresholdPaillier;
    use rand::SeedableRng;

    fn setup() -> (PublicKey, Vec<KeyShare>, rand::rngs::StdRng) {
        let mut r = rand::rngs::StdRng::seed_from_u64(555);
        let (pk, shares) = ThresholdPaillier::keygen(&mut r, 128, 3, 1).unwrap();
        (pk, shares, r)
    }

    #[test]
    fn enc_proof_roundtrip() {
        let (pk, _, mut r) = setup();
        let m = Nat::from(12345u64);
        let (ct, rand_r) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
        let proof = prove_enc(&mut r, &pk, &ct, &m, &rand_r);
        assert!(verify_enc(&pk, &ct, &proof));
    }

    #[test]
    fn enc_proof_rejects_other_ciphertext() {
        let (pk, _, mut r) = setup();
        let m = Nat::from(12345u64);
        let (ct, rand_r) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
        let proof = prove_enc(&mut r, &pk, &ct, &m, &rand_r);
        let (other, _) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
        assert!(!verify_enc(&pk, &other, &proof));
    }

    #[test]
    fn enc_proof_rejects_tampering() {
        let (pk, _, mut r) = setup();
        let m = Nat::from(7u64);
        let (ct, rand_r) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
        let mut proof = prove_enc(&mut r, &pk, &ct, &m, &rand_r);
        proof.z_m = &proof.z_m + &Nat::one();
        assert!(!verify_enc(&pk, &ct, &proof));
    }

    #[test]
    fn pdec_proof_roundtrip() {
        let (pk, shares, mut r) = setup();
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &Nat::from(99u64));
        for share in &shares {
            let pd = ThresholdPaillier::partial_decrypt(&pk, share, &ct);
            let proof = prove_pdec(&mut r, &pk, &ct, share, &pd);
            assert!(verify_pdec(&pk, &ct, &pd, &proof));
        }
    }

    #[test]
    fn pdec_proof_rejects_wrong_partial() {
        let (pk, shares, mut r) = setup();
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &Nat::from(99u64));
        let pd = ThresholdPaillier::partial_decrypt(&pk, &shares[0], &ct);
        let proof = prove_pdec(&mut r, &pk, &ct, &shares[0], &pd);
        // Claiming the same partial came from party 1 fails.
        let forged = PartialDec { party: 1, value: pd.value.clone() };
        assert!(!verify_pdec(&pk, &ct, &forged, &proof));
        // Tampered value fails.
        let bad = PartialDec { party: 0, value: pd.value.mod_mul(&pd.value, &pk.n_sq) };
        assert!(!verify_pdec(&pk, &ct, &bad, &proof));
    }

    #[test]
    fn pdec_batch_verifies_honest_proofs() {
        let (pk, shares, mut r) = setup();
        let cts: Vec<Ciphertext> = (0..4u64)
            .map(|m| ThresholdPaillier::encrypt(&mut r, &pk, &Nat::from(m)).0)
            .collect();
        let mut pds = Vec::new();
        let mut proofs = Vec::new();
        for ct in &cts {
            for share in &shares {
                let pd = ThresholdPaillier::partial_decrypt(&pk, share, ct);
                let proof = prove_pdec(&mut r, &pk, ct, share, &pd);
                pds.push((ct, pd));
                proofs.push(proof);
            }
        }
        let items: Vec<(&Ciphertext, &PartialDec, &PdecProof)> = pds
            .iter()
            .zip(&proofs)
            .map(|(&(ct, ref pd), proof)| (ct, pd, proof))
            .collect();
        assert!(verify_pdec_batch(&mut r, &pk, &items));
        assert!(verify_pdec_batch(&mut r, &pk, &[]), "empty batch verifies");
    }

    #[test]
    fn pdec_batch_rejects_one_bad_proof() {
        let (pk, shares, mut r) = setup();
        let cts: Vec<Ciphertext> = (0..3u64)
            .map(|m| ThresholdPaillier::encrypt(&mut r, &pk, &Nat::from(m)).0)
            .collect();
        let mut pds = Vec::new();
        let mut proofs = Vec::new();
        for ct in &cts {
            let pd = ThresholdPaillier::partial_decrypt(&pk, &shares[0], ct);
            let proof = prove_pdec(&mut r, &pk, ct, &shares[0], &pd);
            pds.push((ct, pd));
            proofs.push(proof);
        }
        // Tamper with the middle partial only.
        pds[1].1.value = pds[1].1.value.mod_mul(&pds[1].1.value, &pk.n_sq);
        let items: Vec<(&Ciphertext, &PartialDec, &PdecProof)> = pds
            .iter()
            .zip(&proofs)
            .map(|(&(ct, ref pd), proof)| (ct, pd, proof))
            .collect();
        assert!(!verify_pdec_batch(&mut r, &pk, &items));
        // Out-of-range party index is rejected outright.
        let forged = PartialDec { party: pk.vks.len(), value: pds[0].1.value.clone() };
        assert!(!verify_pdec_batch(&mut r, &pk, &[(&cts[0], &forged, &proofs[0])]));
    }

    #[test]
    fn pdec_batch_matches_per_item_verdict_after_reshare() {
        // Re-shared shares can be negative → exercises the negative-z
        // side-switching in the batched checks.
        let (pk, shares, mut r) = setup();
        let msgs: Vec<_> =
            shares.iter().map(|s| ThresholdPaillier::reshare(&mut r, &pk, s)).collect();
        let chosen: Vec<&_> = vec![&msgs[0], &msgs[2]];
        let new_vks = ThresholdPaillier::next_verification_keys(&pk, &chosen).unwrap();
        let mut pk2 = pk.clone();
        pk2.vks = new_vks;
        let new_shares: Vec<_> = (0..pk.parties)
            .map(|j| ThresholdPaillier::recombine_key(&pk, j, &chosen, &Nat::one()).unwrap())
            .collect();
        let cts: Vec<Ciphertext> = (0..3u64)
            .map(|m| ThresholdPaillier::encrypt(&mut r, &pk2, &Nat::from(m)).0)
            .collect();
        let mut pds = Vec::new();
        let mut proofs = Vec::new();
        for ct in &cts {
            for share in &new_shares {
                let pd = ThresholdPaillier::partial_decrypt(&pk2, share, ct);
                let proof = prove_pdec(&mut r, &pk2, ct, share, &pd);
                assert!(verify_pdec(&pk2, ct, &pd, &proof));
                pds.push((ct, pd));
                proofs.push(proof);
            }
        }
        let items: Vec<(&Ciphertext, &PartialDec, &PdecProof)> = pds
            .iter()
            .zip(&proofs)
            .map(|(&(ct, ref pd), proof)| (ct, pd, proof))
            .collect();
        assert!(verify_pdec_batch(&mut r, &pk2, &items));
    }

    #[test]
    fn pdec_proof_after_reshare() {
        let (pk, shares, mut r) = setup();
        let msgs: Vec<_> =
            shares.iter().map(|s| ThresholdPaillier::reshare(&mut r, &pk, s)).collect();
        let chosen: Vec<&_> = vec![&msgs[0], &msgs[2]];
        let new_share = ThresholdPaillier::recombine_key(&pk, 1, &chosen, &Nat::one()).unwrap();
        let new_vks = ThresholdPaillier::next_verification_keys(&pk, &chosen).unwrap();
        let mut pk2 = pk.clone();
        pk2.vks = new_vks;
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk2, &Nat::from(5u64));
        let pd = ThresholdPaillier::partial_decrypt(&pk2, &new_share, &ct);
        let proof = prove_pdec(&mut r, &pk2, &ct, &new_share, &pd);
        assert!(verify_pdec(&pk2, &ct, &pd, &proof));
    }
}
