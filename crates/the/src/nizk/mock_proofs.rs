//! Concrete NIZKs for the mock threshold scheme, built on the generic
//! linear sigma protocol ([`super::linear`]).
//!
//! Each relation comes as a typed map — [`EncMap`], [`PdecMap`],
//! [`DealMap`], [`ShareMap`] — built once from the public data its
//! proofs share (a key, a ciphertext, a committee's recipient keys) and
//! then borrowed by every prover and verifier over it, and as a
//! per-proof function pair (`enc_proof` / `verify_enc_proof`, …) that
//! builds the map for one call.
//!
//! Domain separators keep the proof types mutually unforgeable. They are
//! at `/v3`: how the challenge is derived changed again (see
//! [`super::linear`]), and a proof hashed the `/v1` or `/v2` way must
//! not verify.

use rand::Rng;

use yoso_crypto::Domain;
use yoso_field::PrimeField;
use yoso_pss_sharing::shamir::PowerTable;

use super::linear::{self, LinearMap};
use crate::mock::{Ciphertext, PkePublicKey, PublicKey};

static DOMAIN_ENC: Domain = Domain::new(b"yoso-pss/nizk/enc/v3");
static DOMAIN_PDEC: Domain = Domain::new(b"yoso-pss/nizk/pdec/v3");
static DOMAIN_RESHARE: Domain = Domain::new(b"yoso-pss/nizk/reshare/v3");
static DOMAIN_SHARE: Domain = Domain::new(b"yoso-pss/nizk/share/v3");

/// Unwraps a map whose rows this module laid out itself.
fn laid_out<F: PrimeField>(map: Result<LinearMap<F>, linear::MapError>) -> LinearMap<F> {
    // lint:allow(panic): infallible — every caller below writes its
    // columns out in increasing order and below the `witness_len` it
    // passes; only coefficients come from outside.
    map.expect("columns in range and increasing by construction")
}

/// Proof of correct encryption: knowledge of `(m, r)` with
/// `ct = (r·g, m + r·h)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> EncProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    /// A random non-verifying proof — used by the adversary simulation
    /// to model a malicious role posting garbage.
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R) -> Self {
        EncProof { inner: linear::Proof::garbage(rng, 2, 2) }
    }
}

/// The encryption relation under one threshold key: witness `(m, r)`,
/// `u = g·r`, `v = m + h·r`. `g` and `h` survive every handover, so one
/// map serves every ciphertext of a run.
#[derive(Debug, Clone)]
pub struct EncMap<F: PrimeField>(LinearMap<F>);

impl<F: PrimeField> EncMap<F> {
    /// The map for ciphertexts under `pk`.
    pub fn new(pk: &PublicKey<F>) -> Self {
        EncMap(laid_out(LinearMap::new(2, [&[(1, pk.g)][..], &[(0, F::ONE), (1, pk.h)]])))
    }

    /// Proves that `ct` encrypts `m` with randomness `r`.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        ct: &Ciphertext<F>,
        m: F,
        r: F,
    ) -> EncProof<F> {
        EncProof { inner: linear::prove(rng, &DOMAIN_ENC, &self.0, &[ct.u, ct.v], &[m, r]) }
    }

    /// Verifies an encryption proof for `ct`.
    pub fn verify(&self, ct: &Ciphertext<F>, proof: &EncProof<F>) -> bool {
        linear::verify(&DOMAIN_ENC, &self.0, &[ct.u, ct.v], &proof.inner)
    }
}

/// Proves correct encryption under the threshold public key.
pub fn enc_proof<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    pk: &PublicKey<F>,
    ct: &Ciphertext<F>,
    m: F,
    r: F,
) -> EncProof<F> {
    EncMap::new(pk).prove(rng, ct, m, r)
}

/// Verifies an encryption proof.
pub fn verify_enc_proof<F: PrimeField>(
    pk: &PublicKey<F>,
    ct: &Ciphertext<F>,
    proof: &EncProof<F>,
) -> bool {
    EncMap::new(pk).verify(ct, proof)
}

/// Proof of correct partial decryption: knowledge of `s_i` with
/// `vk_i = s_i·g` and `d_i = s_i·u`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdecProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> PdecProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    /// A random non-verifying proof (adversary simulation).
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R) -> Self {
        PdecProof { inner: linear::Proof::garbage(rng, 2, 1) }
    }
}

/// The partial-decryption relation of one ciphertext: witness `(s)`,
/// `vk = g·s`, `d = u·s`. Shared by the partials of every committee
/// member; who is proving enters through the target `vk`.
#[derive(Debug, Clone)]
pub struct PdecMap<F: PrimeField>(LinearMap<F>);

impl<F: PrimeField> PdecMap<F> {
    /// The map for partial decryptions of `ct` under `pk`.
    pub fn new(pk: &PublicKey<F>, ct: &Ciphertext<F>) -> Self {
        PdecMap(laid_out(LinearMap::new(1, [[(0, pk.g)], [(0, ct.u)]])))
    }

    /// Proves that `d` is the partial decryption under the key share
    /// `share_value` behind the verification key `vk`.
    pub fn prove<R: Rng + ?Sized>(&self, rng: &mut R, vk: F, share_value: F, d: F) -> PdecProof<F> {
        PdecProof { inner: linear::prove(rng, &DOMAIN_PDEC, &self.0, &[vk, d], &[share_value]) }
    }

    /// Verifies a partial-decryption proof against the prover's
    /// verification key.
    pub fn verify(&self, vk: F, d: F, proof: &PdecProof<F>) -> bool {
        linear::verify(&DOMAIN_PDEC, &self.0, &[vk, d], &proof.inner)
    }
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
    PdecMap::new(pk, ct).prove(rng, pk.vks[party], share_value, d)
}

/// Verifies a partial-decryption proof for party `party`.
pub fn verify_pdec_proof<F: PrimeField>(
    pk: &PublicKey<F>,
    ct: &Ciphertext<F>,
    party: usize,
    d: F,
    proof: &PdecProof<F>,
) -> bool {
    pk.vks.get(party).is_some_and(|&vk| PdecMap::new(pk, ct).verify(vk, d, proof))
}

/// Proof of correct key re-sharing with encrypted subshares: knowledge
/// of the sub-sharing polynomial coefficients `(a_0 … a_t)` and the
/// encryption randomness `(r_1 … r_n)` consistent with the published
/// Feldman commitments and the recipients' subshare ciphertexts.
///
/// The verifier additionally checks `C_0 = vk_from` (the constant term
/// really is the sender's key share) outside the sigma protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshareProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> ReshareProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    /// A random non-verifying proof (adversary simulation) for
    /// committee size `n`, threshold `t`.
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R, n: usize, t: usize) -> Self {
        ReshareProof { inner: linear::Proof::garbage(rng, (t + 1) + 2 * n, (t + 1) + n) }
    }
}

/// The relation of a Feldman deal with encrypted evaluations, for one
/// base `g` and one committee of recipients: witness
/// `(a_0 … a_t, r_1 … r_n)` with `C_j = a_j·g` and
/// `ct_m = Enc(pk_m, f(m + 1); r_m)`. Both the tsk re-share proof
/// (`g` = the threshold key's base) and the DKG deal proof are this
/// relation, and all `n` dealers of a handover or a DKG share one map:
/// what differs between them — commitments and ciphertexts — is the
/// targets ([`DealMap::targets`]).
///
/// `t + 3` non-zeros per recipient and one per commitment, instead of
/// a dense `(t + 1 + 2n) × (t + 1 + n)` matrix.
#[derive(Debug, Clone)]
pub struct DealMap<F: PrimeField> {
    map: LinearMap<F>,
    /// `t + 1`: coefficients dealt, commitments posted.
    coeffs: usize,
}

impl<F: PrimeField> DealMap<F> {
    /// The map for deals of degree `table.degree()` to `recipient_pks`,
    /// recipient `m` holding the evaluation at `m + 1`. `table` must
    /// tabulate (at least) that many parties.
    pub fn new(g: F, recipient_pks: &[PkePublicKey<F>], table: &PowerTable<F>) -> Self {
        let t1 = table.degree() + 1;
        // One row shape for all three kinds: a run of low columns, then
        // one column of the row's own.
        fn row<F: PrimeField>(
            powers: Vec<F>,
            last: (usize, F),
        ) -> impl Iterator<Item = (usize, F)> {
            powers.into_iter().enumerate().chain(std::iter::once(last))
        }
        // Commitments: C_j = a_j · g.
        let commitments = (0..t1).map(|j| row(Vec::new(), (j, g)));
        // Subshare ciphertexts to recipient m (point x = m + 1):
        //   u_m = r_m · g_m;   v_m = Σ_j x^j a_j + r_m · h_m.
        let ciphertexts = recipient_pks.iter().zip(table.rows()).enumerate().flat_map(
            |(m, (rpk, powers))| [row(Vec::new(), (t1 + m, rpk.g)), row(powers, (t1 + m, rpk.h))],
        );
        // Witness (a_0 … a_t, r_1 … r_n).
        let witness_len = t1 + recipient_pks.len();
        let map = laid_out(LinearMap::new(witness_len, commitments.chain(ciphertexts)));
        DealMap { map, coeffs: t1 }
    }

    /// The underlying map, for a deal proved under another domain (the
    /// DKG's).
    pub fn map(&self) -> &LinearMap<F> {
        &self.map
    }

    /// The targets of one dealer's message — `C_0 … C_t`, then
    /// `(u_m, v_m)` per recipient — or `None` if it does not have
    /// `t + 1` commitments and one ciphertext per recipient.
    pub fn targets(&self, commitments: &[F], enc_subshares: &[Ciphertext<F>]) -> Option<Vec<F>> {
        (commitments.len() == self.coeffs
            && self.coeffs + enc_subshares.len() == self.map.witness_len())
        .then(|| deal_targets(commitments, enc_subshares))
    }

    /// Proves a re-share message (given as its [`DealMap::targets`])
    /// correct: `coeffs` are the sub-sharing polynomial coefficients
    /// (`a_0 = s_i`), `enc_randomness[m]` the randomness used to encrypt
    /// subshare `m`.
    pub fn prove_reshare<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        targets: &[F],
        coeffs: &[F],
        enc_randomness: &[F],
    ) -> ReshareProof<F> {
        let witness = [coeffs, enc_randomness].concat();
        ReshareProof { inner: linear::prove(rng, &DOMAIN_RESHARE, &self.map, targets, &witness) }
    }

    /// Verifies a re-share proof by member `from` of the committee
    /// holding `pk`, including the `C_0 = vk_from` binding.
    pub fn verify_reshare(
        &self,
        pk: &PublicKey<F>,
        from: usize,
        targets: &[F],
        proof: &ReshareProof<F>,
    ) -> bool {
        self.coeffs == pk.t + 1
            && pk.vks.get(from).is_some_and(|vk| targets.first() == Some(vk))
            && linear::verify(&DOMAIN_RESHARE, &self.map, targets, &proof.inner)
    }
}

fn deal_targets<F: PrimeField>(commitments: &[F], enc_subshares: &[Ciphertext<F>]) -> Vec<F> {
    let mut targets = Vec::with_capacity(commitments.len() + 2 * enc_subshares.len());
    targets.extend_from_slice(commitments);
    targets.extend(enc_subshares.iter().flat_map(|ct| [ct.u, ct.v]));
    targets
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
    let degree = msg_commitments.len().saturating_sub(1);
    let table = PowerTable::new(recipient_pks.len(), degree);
    DealMap::new(pk.g, recipient_pks, &table).prove_reshare(
        rng,
        &deal_targets(msg_commitments, encrypted_subshares),
        coeffs,
        enc_randomness,
    )
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
    let deal = DealMap::new(pk.g, recipient_pks, &PowerTable::new(recipient_pks.len(), pk.t));
    deal.targets(msg_commitments, encrypted_subshares)
        .is_some_and(|targets| deal.verify_reshare(pk, from, &targets, proof))
}

/// Proof attached to an online μ-share publication: knowledge of the
/// KFF secret key `k` with `kff_pk.h = k · kff_pk.g` and
/// `published = offset − k · slope` (where `offset`/`slope` are public
/// functions of the on-board ciphertexts and the public μ values; see
/// `yoso-core::online` for the construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareProof<F: PrimeField> {
    inner: linear::Proof<F>,
}

impl<F: PrimeField> ShareProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    /// A random non-verifying proof (adversary simulation).
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ShareProof { inner: linear::Proof::garbage(rng, 2, 1) }
    }
}

/// The μ-share relation of one member and one batch: witness `(k)`,
/// `h = g·k`, `published − offset = −slope·k`. Key and slope are the
/// member's own, so there is nobody to share the map with — one is
/// built per posting, for its prover and its verifier.
#[derive(Debug, Clone)]
pub struct ShareMap<F: PrimeField> {
    map: LinearMap<F>,
    h: F,
}

impl<F: PrimeField> ShareMap<F> {
    /// The map for a share published under `kff_pk` with this `slope`.
    pub fn new(kff_pk: &PkePublicKey<F>, slope: F) -> Self {
        let map = laid_out(LinearMap::new(1, [[(0, kff_pk.g)], [(0, -slope)]]));
        ShareMap { map, h: kff_pk.h }
    }

    /// Proves a published value was computed from the KFF-decrypted
    /// shares.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        offset: F,
        published: F,
        kff_sk: F,
    ) -> ShareProof<F> {
        let targets = [self.h, published - offset];
        ShareProof { inner: linear::prove(rng, &DOMAIN_SHARE, &self.map, &targets, &[kff_sk]) }
    }

    /// Verifies a μ-share publication proof.
    pub fn verify(&self, offset: F, published: F, proof: &ShareProof<F>) -> bool {
        linear::verify(&DOMAIN_SHARE, &self.map, &[self.h, published - offset], &proof.inner)
    }
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
    ShareMap::new(kff_pk, slope).prove(rng, offset, published, kff_sk)
}

/// Verifies a μ-share publication proof.
pub fn verify_share_proof<F: PrimeField>(
    kff_pk: &PkePublicKey<F>,
    slope: F,
    offset: F,
    published: F,
    proof: &ShareProof<F>,
) -> bool {
    ShareMap::new(kff_pk, slope).verify(offset, published, proof)
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

    /// A re-share message by party 0 of `pk`'s committee to `n` fresh
    /// recipients, with its witness.
    #[allow(clippy::type_complexity)]
    fn deal(
        r: &mut rand::rngs::StdRng,
        pk: &PublicKey<F61>,
        s0: F61,
    ) -> (Vec<F61>, Vec<PkePublicKey<F61>>, Vec<Ciphertext<F61>>, Vec<F61>, Vec<F61>) {
        let mut coeffs = vec![s0];
        coeffs.extend((0..pk.t).map(|_| F61::random(r)));
        let commitments: Vec<F61> = coeffs.iter().map(|&a| a * pk.g).collect();
        let rpks: Vec<_> = (0..pk.n).map(|_| LinearPke::<F61>::keygen(r).public).collect();
        let (cts, rands): (Vec<_>, Vec<_>) = rpks
            .iter()
            .zip(1u64..)
            .map(|(rpk, x)| {
                let sub = coeffs.iter().rev().fold(F61::ZERO, |acc, &a| acc * f(x) + a);
                LinearPke::encrypt(r, rpk, sub)
            })
            .unzip();
        (commitments, rpks, cts, coeffs, rands)
    }

    #[test]
    fn v1_domain_proofs_do_not_verify() {
        // The same sigma protocol run under the retired `/v1` and `/v2`
        // separators: correct map, correct targets, correct witness,
        // wrong domain.
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, 5, 2).unwrap();
        let (ct, enc_r) = Te::encrypt(&mut r, &pk, f(7));
        let d = Te::partial_decrypt(&shares[1], &ct).value;
        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = f(1000) - kp.secret.scalar * f(17);
        let (commitments, rpks, cts, coeffs, rands) = deal(&mut r, &pk, shares[0].value);
        let table = PowerTable::new(5, 2);
        let deal_map = DealMap::new(pk.g, &rpks, &table);
        let deal_targets = deal_map.targets(&commitments, &cts).unwrap();
        let deal_witness = [&coeffs[..], &rands[..]].concat();

        for v in ["v1", "v2"] {
            let retired = |kind: &str| Domain::new(format!("yoso-pss/nizk/{kind}/{v}").as_bytes());

            let map = EncMap::new(&pk);
            let inner =
                linear::prove(&mut r, &retired("enc"), &map.0, &[ct.u, ct.v], &[f(7), enc_r]);
            assert!(linear::verify(&retired("enc"), &map.0, &[ct.u, ct.v], &inner));
            let proof = EncProof { inner };
            assert!(!map.verify(&ct, &proof) && !verify_enc_proof(&pk, &ct, &proof), "enc/{v}");

            let map = PdecMap::new(&pk, &ct);
            let inner =
                linear::prove(&mut r, &retired("pdec"), &map.0, &[pk.vks[1], d], &[shares[1].value]);
            let proof = PdecProof { inner };
            assert!(!map.verify(pk.vks[1], d, &proof), "pdec/{v}");
            assert!(!verify_pdec_proof(&pk, &ct, 1, d, &proof), "pdec/{v}");

            let map = ShareMap::new(&kp.public, f(17));
            let targets = [kp.public.h, published - f(1000)];
            let inner =
                linear::prove(&mut r, &retired("share"), &map.map, &targets, &[kp.secret.scalar]);
            let proof = ShareProof { inner };
            assert!(!map.verify(f(1000), published, &proof), "share/{v}");
            assert!(!verify_share_proof(&kp.public, f(17), f(1000), published, &proof), "share/{v}");

            let inner = linear::prove(
                &mut r,
                &retired("reshare"),
                &deal_map.map,
                &deal_targets,
                &deal_witness,
            );
            let proof = ReshareProof { inner };
            assert!(!deal_map.verify_reshare(&pk, 0, &deal_targets, &proof), "reshare/{v}");
            assert!(!verify_reshare_proof(&pk, 0, &commitments, &rpks, &cts, &proof), "reshare/{v}");
        }
        let proof = deal_map.prove_reshare(&mut r, &deal_targets, &coeffs, &rands);
        assert!(deal_map.verify_reshare(&pk, 0, &deal_targets, &proof));
        assert!(verify_reshare_proof(&pk, 0, &commitments, &rpks, &cts, &proof));
    }

    /// The `/v2` engine's challenge, hand-rolled from `Sha256` as
    /// DESIGN §8 documented it: domain hash, one bulk absorb of the
    /// whole statement and commitment as field elements, squeeze.
    fn v2_challenge(
        domain: &[u8],
        witness_len: usize,
        rows: &[&[(usize, F61)]],
        targets: &[F61],
        commitment: &[F61],
    ) -> F61 {
        use yoso_crypto::Sha256;
        let mut elems = vec![rows.len() as u64, witness_len as u64];
        for row in rows {
            elems.push(row.len() as u64);
            elems.extend(row.iter().flat_map(|&(col, coeff)| [col as u64, coeff.as_u64()]));
        }
        elems.extend(targets.iter().chain(commitment).map(F61::as_u64));

        let mut h = Sha256::new();
        h.update(b"yoso-pss/transcript/v1");
        h.update(&(domain.len() as u64).to_le_bytes());
        h.update(domain);
        let state0 = h.finalize();

        let mut h = Sha256::new();
        h.update(&state0);
        h.update(b"absorb-fields");
        h.update(&20u64.to_le_bytes());
        h.update(b"statement,commitment");
        h.update(&(elems.len() as u64).to_le_bytes());
        for e in elems {
            h.update(&e.to_le_bytes());
        }
        let state1 = h.finalize();

        let mut h = Sha256::new();
        h.update(&state1);
        h.update(b"squeeze");
        h.update(&1u64.to_le_bytes());
        h.update(b"e");
        h.update(&0u64.to_le_bytes());
        let out = h.finalize();
        F61::from_u64(u64::from_le_bytes(out[..8].try_into().unwrap()))
    }

    #[test]
    fn a_proof_hashed_by_the_v2_engine_does_not_verify() {
        let pk = PublicKey { n: 1, t: 0, g: f(5), h: f(7), vks: vec![f(0)] };
        let (m, r) = (f(42), f(9));
        let ct = Te::encrypt_with(&pk, m, r);
        let rows: [&[(usize, F61)]; 2] = [&[(1, pk.g)], &[(0, F61::ONE), (1, pk.h)]];
        // The layout above is the retired engine's: these are the
        // challenges the parent commit derives for this statement under
        // an all-zero commitment.
        let zeros = [F61::ZERO; 2];
        for (label, known) in [
            (&b"yoso-pss/nizk/enc/v2"[..], 0x96cdb65eefdfef4),
            (b"yoso-pss/nizk/enc/v3", 0x1ae1b8e04410c4d6),
        ] {
            assert_eq!(v2_challenge(label, 2, &rows, &[ct.u, ct.v], &zeros).as_u64(), known);
        }

        let map = EncMap::new(&pk);
        let mut rng = rng();
        for label in [&b"yoso-pss/nizk/enc/v2"[..], b"yoso-pss/nizk/enc/v3"] {
            let rho = [F61::random(&mut rng), F61::random(&mut rng)];
            let a = [pk.g * rho[1], rho[0] + pk.h * rho[1]];
            let e = v2_challenge(label, 2, &rows, &[ct.u, ct.v], &a);
            let z = [rho[0] + e * m, rho[1] + e * r];
            // A sound transcript of the sigma protocol for that `e` …
            assert_eq!(pk.g * z[1], a[0] + e * ct.u);
            assert_eq!(z[0] + pk.h * z[1], a[1] + e * ct.v);
            // … that today's verifier, deriving `e` its own way, refuses.
            let proof =
                EncProof { inner: linear::Proof { commitment: a.to_vec(), response: z.to_vec() } };
            assert!(!map.verify(&ct, &proof));
            assert!(!verify_enc_proof(&pk, &ct, &proof));
        }
    }

    #[test]
    fn typed_garbage_is_rejected_with_independent_entries() {
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, 5, 2).unwrap();
        let (ct, _) = Te::encrypt(&mut r, &pk, f(7));
        let d = Te::partial_decrypt(&shares[0], &ct).value;
        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = f(1000) - kp.secret.scalar * f(17);
        let (commitments, rpks, cts, ..) = deal(&mut r, &pk, shares[0].value);

        let mut r = rand::rngs::StdRng::seed_from_u64(20261003);
        let enc = EncProof::<F61>::garbage(&mut r);
        let pdec = PdecProof::<F61>::garbage(&mut r);
        let share = ShareProof::<F61>::garbage(&mut r);
        let reshare = ReshareProof::<F61>::garbage(&mut r, 5, 2);
        assert!(!verify_enc_proof(&pk, &ct, &enc));
        assert!(!verify_pdec_proof(&pk, &ct, 0, d, &pdec));
        assert!(!verify_share_proof(&kp.public, f(17), f(1000), published, &share));
        assert!(!verify_reshare_proof(&pk, 0, &commitments, &rpks, &cts, &reshare));
        for inner in [&enc.inner, &pdec.inner, &share.inner, &reshare.inner] {
            assert_ne!(inner.commitment[0], inner.commitment[1]);
        }
        assert_eq!((reshare.inner.commitment.len(), reshare.inner.response.len()), (13, 8));
    }

    #[test]
    fn a_deal_map_refuses_messages_of_another_shape() {
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, 5, 2).unwrap();
        let (commitments, rpks, cts, coeffs, rands) = deal(&mut r, &pk, shares[0].value);
        let deal_map = DealMap::new(pk.g, &rpks, &PowerTable::new(5, 2));
        assert_eq!((deal_map.map().row_count(), deal_map.map().witness_len()), (3 + 10, 3 + 5));
        assert!(deal_map.targets(&commitments[..2], &cts).is_none());
        assert!(deal_map.targets(&commitments, &cts[..4]).is_none());
        // One commitment too many and a ciphertext short is the right
        // number of targets, but not a deal.
        let mut shifted = commitments.clone();
        shifted.extend([cts[0].u, cts[0].v]);
        assert!(deal_map.targets(&shifted, &cts[1..]).is_none());

        let targets = deal_map.targets(&commitments, &cts).unwrap();
        let proof = deal_map.prove_reshare(&mut r, &targets, &coeffs, &rands);
        assert!(deal_map.verify_reshare(&pk, 0, &targets, &proof));
        // Wrong sender, unknown sender, a key of another threshold.
        assert!(!deal_map.verify_reshare(&pk, 1, &targets, &proof));
        assert!(!deal_map.verify_reshare(&pk, 5, &targets, &proof));
        let other_t = PublicKey { t: 1, ..pk.clone() };
        assert!(!deal_map.verify_reshare(&other_t, 0, &targets, &proof));
        assert!(!verify_reshare_proof(&other_t, 0, &commitments, &rpks, &cts, &proof));
    }

    /// Exact and host-independent: every small proof is two blocks to
    /// prove and two to verify over a map somebody already built, four
    /// through the per-proof functions (which digest a map of their own,
    /// two blocks more); a deal proof is its targets and commitment,
    /// ⌈(49 + 16·(t + 1 + 2n)) / 64⌉ blocks, and the committee's `n`
    /// proofs digest their one map once.
    #[cfg(debug_assertions)]
    #[test]
    fn small_proofs_cost_two_blocks_and_a_committee_digests_its_deal_map_once() {
        use yoso_crypto::sha256::compressions_of;
        let (n, t) = (16usize, 7usize);
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, n, t).unwrap();
        let (ct, enc_r) = Te::encrypt(&mut r, &pk, f(7));

        let (map, building) = compressions_of(|| EncMap::new(&pk));
        assert_eq!(building, 2);
        let (proof, proving) = compressions_of(|| map.prove(&mut r, &ct, f(7), enc_r));
        let (ok, verifying) = compressions_of(|| map.verify(&ct, &proof));
        assert_eq!((ok, proving, verifying), (true, 2, 2), "enc");
        assert_eq!(compressions_of(|| enc_proof(&mut r, &pk, &ct, f(7), enc_r)).1, 4);
        assert_eq!(compressions_of(|| verify_enc_proof(&pk, &ct, &proof)).1, 4);

        let d = Te::partial_decrypt(&shares[2], &ct).value;
        let map = PdecMap::new(&pk, &ct);
        let (proof, proving) =
            compressions_of(|| map.prove(&mut r, pk.vks[2], shares[2].value, d));
        let (ok, verifying) = compressions_of(|| map.verify(pk.vks[2], d, &proof));
        assert_eq!((ok, proving, verifying), (true, 2, 2), "pdec");
        assert_eq!(compressions_of(|| verify_pdec_proof(&pk, &ct, 2, d, &proof)).1, 4);

        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = f(1000) - kp.secret.scalar * f(17);
        let map = ShareMap::new(&kp.public, f(17));
        let (proof, proving) =
            compressions_of(|| map.prove(&mut r, f(1000), published, kp.secret.scalar));
        let (ok, verifying) = compressions_of(|| map.verify(f(1000), published, &proof));
        assert_eq!((ok, proving, verifying), (true, 2, 2), "share");

        // A handover: n dealers, one map.
        let per_challenge = (49 + 16 * (t + 1 + 2 * n) as u64).div_ceil(64);
        assert_eq!(per_challenge, 11);
        let rpks: Vec<_> = (0..n).map(|_| LinearPke::<F61>::keygen(&mut r).public).collect();
        let table = PowerTable::new(n, t);
        let (deal_map, digesting) = compressions_of(|| DealMap::new(pk.g, &rpks, &table));
        // 16 bytes of shape, 8 a row, 16 a non-zero, 9 of padding.
        let nnz = (t + 1) + n + n * (t + 2);
        assert_eq!(digesting, (16 + 8 * (t + 1 + 2 * n) as u64 + 16 * nnz as u64 + 9).div_ceil(64));
        let (_, handover) = compressions_of(|| {
            for share in &shares {
                let (msg, coeffs) = Te::reshare_with(&mut r, &pk, share, &table);
                let (cts, rands): (Vec<_>, Vec<_>) = msg
                    .subshares
                    .iter()
                    .zip(&rpks)
                    .map(|(&sub, rpk)| LinearPke::encrypt(&mut r, rpk, sub))
                    .unzip();
                let targets = deal_map.targets(&msg.commitments, &cts).unwrap();
                let proof = deal_map.prove_reshare(&mut r, &targets, &coeffs, &rands);
                assert!(deal_map.verify_reshare(&pk, share.party, &targets, &proof));
            }
        });
        assert_eq!(handover, 2 * n as u64 * per_challenge);
    }
}
