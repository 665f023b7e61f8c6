//! Concrete NIZKs for the mock threshold scheme, built on the generic
//! linear sigma protocol ([`super::linear`]).
//!
//! Domain separators keep the proof types mutually unforgeable. They are
//! at `/v2`: the Fiat–Shamir input format changed (see
//! [`super::linear`]), and a proof hashed the `/v1` way must not verify.

use rand::Rng;
use serde::{Deserialize, Serialize};

use yoso_field::PrimeField;

use super::linear::{self, Statement};
use crate::mock::{Ciphertext, PkePublicKey, PublicKey};

const DOMAIN_ENC: &[u8] = b"yoso-pss/nizk/enc/v2";
const DOMAIN_PDEC: &[u8] = b"yoso-pss/nizk/pdec/v2";
const DOMAIN_RESHARE: &[u8] = b"yoso-pss/nizk/reshare/v2";
const DOMAIN_SHARE: &[u8] = b"yoso-pss/nizk/share/v2";

/// Proof of correct encryption: knowledge of `(m, r)` with
/// `ct = (r·g, m + r·h)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(bound = "")]
pub struct EncProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> EncProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
}

fn enc_statement<F: PrimeField>(g: F, h: F, ct: &Ciphertext<F>) -> Statement<F> {
    // Witness (m, r): u = g·r; v = 1·m + h·r.
    Statement::canonical(2, vec![vec![(1, g)], vec![(0, F::ONE), (1, h)]], vec![ct.u, ct.v])
}

/// Proves correct encryption under the threshold public key.
pub fn enc_proof<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    pk: &PublicKey<F>,
    ct: &Ciphertext<F>,
    m: F,
    r: F,
) -> EncProof<F> {
    let st = enc_statement(pk.g, pk.h, ct);
    EncProof { inner: linear::prove(rng, DOMAIN_ENC, &st, &[m, r]) }
}

/// Verifies an encryption proof.
pub fn verify_enc_proof<F: PrimeField>(
    pk: &PublicKey<F>,
    ct: &Ciphertext<F>,
    proof: &EncProof<F>,
) -> bool {
    linear::verify(DOMAIN_ENC, &enc_statement(pk.g, pk.h, ct), &proof.inner)
}

/// Proof of correct partial decryption: knowledge of `s_i` with
/// `vk_i = s_i·g` and `d_i = s_i·u`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(bound = "")]
pub struct PdecProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> PdecProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
}

fn pdec_statement<F: PrimeField>(g: F, vk: F, u: F, d: F) -> Statement<F> {
    Statement::canonical(1, vec![vec![(0, g)], vec![(0, u)]], vec![vk, d])
}

/// Proves correct partial decryption by party `party`.
pub fn pdec_proof<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    pk: &PublicKey<F>,
    ct: &Ciphertext<F>,
    party: usize,
    share_value: F,
    d: F,
) -> PdecProof<F> {
    let st = pdec_statement(pk.g, pk.vks[party], ct.u, d);
    PdecProof { inner: linear::prove(rng, DOMAIN_PDEC, &st, &[share_value]) }
}

/// Verifies a partial-decryption proof for party `party`.
pub fn verify_pdec_proof<F: PrimeField>(
    pk: &PublicKey<F>,
    ct: &Ciphertext<F>,
    party: usize,
    d: F,
    proof: &PdecProof<F>,
) -> bool {
    if party >= pk.vks.len() {
        return false;
    }
    linear::verify(DOMAIN_PDEC, &pdec_statement(pk.g, pk.vks[party], ct.u, d), &proof.inner)
}

/// Proof of correct key re-sharing with encrypted subshares: knowledge
/// of the sub-sharing polynomial coefficients `(a_0 … a_t)` and the
/// encryption randomness `(r_1 … r_n)` consistent with the published
/// Feldman commitments and the recipients' subshare ciphertexts.
///
/// The verifier additionally checks `C_0 = vk_from` (the constant term
/// really is the sender's key share) outside the sigma protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(bound = "")]
pub struct ReshareProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> ReshareProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
}

/// The statement of a Feldman deal with encrypted evaluations:
/// knowledge of polynomial coefficients `(a_0 … a_t)` and encryption
/// randomness `(r_1 … r_n)` with `C_j = a_j·g` and
/// `ct_m = Enc(pk_m, f(m + 1); r_m)`. Both the tsk re-share proof
/// (`g` = the threshold key's base) and the DKG deal proof are this
/// relation.
///
/// `t + 3` non-zeros per recipient and one per commitment, instead of
/// a dense `(t + 1 + 2n) × (t + 1 + n)` matrix.
pub fn feldman_deal_statement<F: PrimeField>(
    g: F,
    commitments: &[F],
    recipient_pks: &[PkePublicKey<F>],
    encrypted_subshares: &[Ciphertext<F>],
) -> Statement<F> {
    let t1 = commitments.len(); // t + 1 coefficients
    let n = recipient_pks.len();
    let mut rows = Vec::with_capacity(t1 + 2 * n);
    let mut targets = Vec::with_capacity(t1 + 2 * n);
    // Commitments: C_j = a_j · g.
    for (j, &c) in commitments.iter().enumerate() {
        rows.push(vec![(j, g)]);
        targets.push(c);
    }
    // Subshare ciphertexts to recipient m (point x = m + 1):
    //   u_m = r_m · g_m;   v_m = Σ_j x^j a_j + r_m · h_m.
    for (m, (rpk, ct)) in recipient_pks.iter().zip(encrypted_subshares).enumerate() {
        rows.push(vec![(t1 + m, rpk.g)]);
        targets.push(ct.u);

        let x = F::from_u64(m as u64 + 1);
        let mut row_v = Vec::with_capacity(t1 + 1);
        let mut xp = F::ONE;
        for j in 0..t1 {
            row_v.push((j, xp));
            xp *= x;
        }
        row_v.push((t1 + m, rpk.h));
        rows.push(row_v);
        targets.push(ct.v);
    }
    // Witness (a_0 … a_t, r_1 … r_n).
    Statement::canonical(t1 + n, rows, targets)
}

/// Proves a re-share message correct with respect to encrypted
/// subshares.
///
/// `coeffs` are the sub-sharing polynomial coefficients (`a_0 = s_i`),
/// `enc_randomness[m]` the randomness used to encrypt subshare `m`.
pub fn reshare_proof<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    pk: &PublicKey<F>,
    msg_commitments: &[F],
    recipient_pks: &[PkePublicKey<F>],
    encrypted_subshares: &[Ciphertext<F>],
    coeffs: &[F],
    enc_randomness: &[F],
) -> ReshareProof<F> {
    let st = feldman_deal_statement(pk.g, msg_commitments, recipient_pks, encrypted_subshares);
    let mut witness = coeffs.to_vec();
    witness.extend_from_slice(enc_randomness);
    ReshareProof { inner: linear::prove(rng, DOMAIN_RESHARE, &st, &witness) }
}

/// Verifies a re-share proof, including the `C_0 = vk_from` binding.
pub fn verify_reshare_proof<F: PrimeField>(
    pk: &PublicKey<F>,
    from: usize,
    msg_commitments: &[F],
    recipient_pks: &[PkePublicKey<F>],
    encrypted_subshares: &[Ciphertext<F>],
    proof: &ReshareProof<F>,
) -> bool {
    if from >= pk.vks.len()
        || msg_commitments.len() != pk.t + 1
        || msg_commitments.first() != Some(&pk.vks[from])
        || recipient_pks.len() != encrypted_subshares.len()
    {
        return false;
    }
    let st = feldman_deal_statement(pk.g, msg_commitments, recipient_pks, encrypted_subshares);
    linear::verify(DOMAIN_RESHARE, &st, &proof.inner)
}

/// Proof attached to an online μ-share publication: knowledge of the
/// KFF secret key `k` with `kff_pk.h = k · kff_pk.g` and
/// `published = offset − k · slope` (where `offset`/`slope` are public
/// functions of the on-board ciphertexts and the public μ values; see
/// `yoso-core::online` for the construction).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(bound = "")]
pub struct ShareProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> ShareProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
}

fn share_statement<F: PrimeField>(
    kff_pk: &PkePublicKey<F>,
    slope: F,
    offset: F,
    published: F,
) -> Statement<F> {
    // Witness (k): h = k·g; published − offset = −slope·k.
    Statement::canonical(
        1,
        vec![vec![(0, kff_pk.g)], vec![(0, -slope)]],
        vec![kff_pk.h, published - offset],
    )
}

/// Proves a published value was computed from the KFF-decrypted shares.
pub fn share_proof<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    kff_pk: &PkePublicKey<F>,
    slope: F,
    offset: F,
    published: F,
    kff_sk: F,
) -> ShareProof<F> {
    let st = share_statement(kff_pk, slope, offset, published);
    ShareProof { inner: linear::prove(rng, DOMAIN_SHARE, &st, &[kff_sk]) }
}

/// Verifies a μ-share publication proof.
pub fn verify_share_proof<F: PrimeField>(
    kff_pk: &PkePublicKey<F>,
    slope: F,
    offset: F,
    published: F,
    proof: &ShareProof<F>,
) -> bool {
    linear::verify(DOMAIN_SHARE, &share_statement(kff_pk, slope, offset, published), &proof.inner)
}

fn garbage_inner<F: PrimeField, R: Rng + ?Sized>(rng: &mut R, rows: usize, wit: usize) -> linear::Proof<F> {
    linear::Proof {
        commitment: (0..rows).map(|_| F::random(rng)).collect(),
        response: (0..wit).map(|_| F::random(rng)).collect(),
    }
}

impl<F: PrimeField> EncProof<F> {
    /// A random non-verifying proof — used by the adversary simulation
    /// to model a malicious role posting garbage.
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R) -> Self {
        EncProof { inner: garbage_inner(rng, 2, 2) }
    }
}

impl<F: PrimeField> PdecProof<F> {
    /// A random non-verifying proof (adversary simulation).
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R) -> Self {
        PdecProof { inner: garbage_inner(rng, 2, 1) }
    }
}

impl<F: PrimeField> ReshareProof<F> {
    /// A random non-verifying proof (adversary simulation) for
    /// committee size `n`, threshold `t`.
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R, n: usize, t: usize) -> Self {
        ReshareProof { inner: garbage_inner(rng, (t + 1) + 2 * n, (t + 1) + n) }
    }
}

impl<F: PrimeField> ShareProof<F> {
    /// A random non-verifying proof (adversary simulation).
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ShareProof { inner: garbage_inner(rng, 2, 1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{LinearPke, MockTe};
    use rand::SeedableRng;
    use yoso_field::F61;

    type Te = MockTe<F61>;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(314)
    }

    #[test]
    fn enc_proof_roundtrip() {
        let mut r = rng();
        let (pk, _) = Te::keygen(&mut r, 5, 2).unwrap();
        let m = f(42);
        let (ct, rand_r) = Te::encrypt(&mut r, &pk, m);
        let proof = enc_proof(&mut r, &pk, &ct, m, rand_r);
        assert!(verify_enc_proof(&pk, &ct, &proof));
    }

    #[test]
    fn enc_proof_rejects_wrong_ciphertext() {
        let mut r = rng();
        let (pk, _) = Te::keygen(&mut r, 5, 2).unwrap();
        let (ct, rand_r) = Te::encrypt(&mut r, &pk, f(42));
        let proof = enc_proof(&mut r, &pk, &ct, f(42), rand_r);
        let (other_ct, _) = Te::encrypt(&mut r, &pk, f(43));
        assert!(!verify_enc_proof(&pk, &other_ct, &proof));
    }

    #[test]
    fn pdec_proof_roundtrip_and_rejection() {
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, 5, 2).unwrap();
        let (ct, _) = Te::encrypt(&mut r, &pk, f(7));
        let pd = Te::partial_decrypt(&shares[2], &ct);
        let proof = pdec_proof(&mut r, &pk, &ct, 2, shares[2].value, pd.value);
        assert!(verify_pdec_proof(&pk, &ct, 2, pd.value, &proof));
        // Wrong value rejected.
        assert!(!verify_pdec_proof(&pk, &ct, 2, pd.value + F61::ONE, &proof));
        // Wrong party rejected.
        assert!(!verify_pdec_proof(&pk, &ct, 3, pd.value, &proof));
        assert!(!verify_pdec_proof(&pk, &ct, 99, pd.value, &proof));
    }

    #[test]
    fn reshare_proof_roundtrip() {
        let mut r = rng();
        let n = 4;
        let t = 1;
        let (pk, shares) = Te::keygen(&mut r, n, t).unwrap();
        // Party 0 re-shares with explicit coefficients so we can prove.
        let coeffs = vec![shares[0].value, f(777)];
        let recipient_kps: Vec<_> = (0..n).map(|_| LinearPke::<F61>::keygen(&mut r)).collect();
        let recipient_pks: Vec<_> = recipient_kps.iter().map(|kp| kp.public).collect();
        let commitments: Vec<F61> = coeffs.iter().map(|&a| a * pk.g).collect();
        let mut cts = Vec::new();
        let mut rands = Vec::new();
        for (m, rpk) in recipient_pks.iter().enumerate() {
            let x = F61::from(m as u64 + 1);
            let sub = coeffs[0] + coeffs[1] * x;
            let (ct, rr) = LinearPke::encrypt(&mut r, rpk, sub);
            cts.push(ct);
            rands.push(rr);
        }
        let proof =
            reshare_proof(&mut r, &pk, &commitments, &recipient_pks, &cts, &coeffs, &rands);
        assert!(verify_reshare_proof(&pk, 0, &commitments, &recipient_pks, &cts, &proof));
        // Tampered subshare ciphertext rejected.
        let mut bad_cts = cts.clone();
        bad_cts[1].v += F61::ONE;
        assert!(!verify_reshare_proof(&pk, 0, &commitments, &recipient_pks, &bad_cts, &proof));
        // Wrong sender (C_0 != vk) rejected.
        assert!(!verify_reshare_proof(&pk, 1, &commitments, &recipient_pks, &cts, &proof));
    }

    #[test]
    fn share_proof_roundtrip() {
        let mut r = rng();
        let kp = LinearPke::<F61>::keygen(&mut r);
        // published = offset − k·slope.
        let slope = f(17);
        let offset = f(1000);
        let published = offset - kp.secret.scalar * slope;
        let proof = share_proof(&mut r, &kp.public, slope, offset, published, kp.secret.scalar);
        assert!(verify_share_proof(&kp.public, slope, offset, published, &proof));
        assert!(!verify_share_proof(&kp.public, slope, offset, published + F61::ONE, &proof));
    }

    #[test]
    fn proofs_are_domain_separated() {
        // A pdec proof must not verify as an enc proof even with a
        // statement of matching shape.
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, 5, 2).unwrap();
        let (ct, _) = Te::encrypt(&mut r, &pk, f(7));
        let pd = Te::partial_decrypt(&shares[0], &ct);
        let proof = pdec_proof(&mut r, &pk, &ct, 0, shares[0].value, pd.value);
        // Craft an enc-shaped check from the same numbers: shapes differ
        // (witness length 1 vs 2), so this must fail.
        let fake = EncProof { inner: proof.inner.clone() };
        assert!(!verify_enc_proof(&pk, &ct, &fake));
    }

    #[test]
    fn v1_domain_proofs_do_not_verify() {
        // The same sigma protocol run under the retired `/v1`
        // separators: correct statement, correct witness, wrong domain.
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, 5, 2).unwrap();
        let (ct, enc_r) = Te::encrypt(&mut r, &pk, f(7));
        let st = enc_statement(pk.g, pk.h, &ct);
        let inner = linear::prove(&mut r, b"yoso-pss/nizk/enc/v1", &st, &[f(7), enc_r]);
        assert!(linear::verify(b"yoso-pss/nizk/enc/v1", &st, &inner));
        assert!(!verify_enc_proof(&pk, &ct, &EncProof { inner }));

        let d = Te::partial_decrypt(&shares[1], &ct).value;
        let st = pdec_statement(pk.g, pk.vks[1], ct.u, d);
        let inner = linear::prove(&mut r, b"yoso-pss/nizk/pdec/v1", &st, &[shares[1].value]);
        assert!(!verify_pdec_proof(&pk, &ct, 1, d, &PdecProof { inner }));

        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = f(1000) - kp.secret.scalar * f(17);
        let st = share_statement(&kp.public, f(17), f(1000), published);
        let inner = linear::prove(&mut r, b"yoso-pss/nizk/share/v1", &st, &[kp.secret.scalar]);
        assert!(!verify_share_proof(&kp.public, f(17), f(1000), published, &ShareProof { inner }));

        let coeffs = [shares[0].value, f(5), f(6)];
        let commitments: Vec<F61> = coeffs.iter().map(|&a| a * pk.g).collect();
        let rpks: Vec<_> = (0..5).map(|_| LinearPke::<F61>::keygen(&mut r).public).collect();
        let (cts, rands): (Vec<_>, Vec<_>) = rpks
            .iter()
            .zip(1u64..)
            .map(|(rpk, x)| {
                LinearPke::encrypt(&mut r, rpk, coeffs[0] + coeffs[1] * f(x) + coeffs[2] * f(x * x))
            })
            .unzip();
        let st = feldman_deal_statement(pk.g, &commitments, &rpks, &cts);
        let witness = [&coeffs[..], &rands[..]].concat();
        let inner = linear::prove(&mut r, b"yoso-pss/nizk/reshare/v1", &st, &witness);
        assert!(!verify_reshare_proof(&pk, 0, &commitments, &rpks, &cts, &ReshareProof { inner }));
        let inner = linear::prove(&mut r, DOMAIN_RESHARE, &st, &witness);
        assert!(verify_reshare_proof(&pk, 0, &commitments, &rpks, &cts, &ReshareProof { inner }));
    }
}
