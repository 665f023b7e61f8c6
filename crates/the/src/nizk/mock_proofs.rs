//! Concrete NIZKs for the mock threshold scheme, built on the generic
//! linear sigma protocol ([`super::linear`]).
//!
//! Each relation comes as a typed map — [`EncMap`], [`PdecMap`],
//! [`DealMap`], [`ShareMap`] — built once from the public data its
//! proofs share (a key, a ciphertext, a committee's recipient keys) and
//! then borrowed by every prover and verifier over it, and as a
//! per-proof function pair (`enc_proof` / `verify_enc_proof`, …) that
//! builds the map for one call. A role whose message is many partial
//! decryptions or many μ-shares over one witness proves them as one
//! combined statement ([`PdecBatch`], [`ShareBatch`]; see
//! [`super::combine`]), and so does a contribution member its many
//! encryptions ([`EncBatch`]).
//!
//! Domain separators keep the proof types mutually unforgeable. A map
//! is bound to its type's separator when it is built, so its proofs
//! are made and checked under that one. They are at `/v4`: how the
//! challenge is derived changed again (see [`super::linear`]), and a
//! proof hashed the `/v1`, `/v2` or `/v3` way must not verify.

use rand::Rng;

use yoso_crypto::Domain;
use yoso_field::PrimeField;
use yoso_pss_sharing::shamir::PowerTable;

use super::combine::{combine, Combiner};
use super::linear::{self, LinearMap};
use crate::mock::{Ciphertext, PkePublicKey, PublicKey};

static DOMAIN_ENC: Domain = Domain::new(b"yoso-pss/nizk/enc/v4");
static DOMAIN_PDEC: Domain = Domain::new(b"yoso-pss/nizk/pdec/v4");
static DOMAIN_RESHARE: Domain = Domain::new(b"yoso-pss/nizk/reshare/v4");
static DOMAIN_SHARE: Domain = Domain::new(b"yoso-pss/nizk/share/v4");
/// The combination coefficients of a `Decrypt` and of a `3-mult`
/// message: hashes of their own, so a `ρ` is never a challenge.
static DOMAIN_PDEC_RHO: Domain = Domain::new(b"yoso-pss/nizk/pdec-rho/v1");
static DOMAIN_SHARE_RHO: Domain = Domain::new(b"yoso-pss/nizk/share-rho/v1");

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
        let rows = [&[(1, pk.g)][..], &[(0, F::ONE), (1, pk.h)]];
        EncMap(laid_out(LinearMap::new(&DOMAIN_ENC, 2, rows)))
    }

    /// Proves that `ct` encrypts `m` with randomness `r`.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        ct: &Ciphertext<F>,
        m: F,
        r: F,
    ) -> EncProof<F> {
        EncProof { inner: linear::prove(rng, &self.0, &[ct.u, ct.v], &[m, r]) }
    }

    /// Verifies an encryption proof for `ct`.
    pub fn verify(&self, ct: &Ciphertext<F>, proof: &EncProof<F>) -> bool {
        linear::verify(&self.0, &[ct.u, ct.v], &proof.inner)
    }
}

/// A contribution step's encryptions, as a member's one proof over all
/// of them reads them. Member `role` posts its `m` ciphertexts and one
/// [`EncProof`] of `Σ ρ^j·ct_j`, with witness `(Σ ρ^j·m_j, Σ ρ^j·r_j)`;
/// `ρ` is hashed under the step kind's `domain` from the key's `(g, h)`,
/// the role's index and its ciphertexts (see [`super::combine`]). The
/// index is in `ρ` because nothing else in the statement names the role:
/// without it, a copy of another role's message and proof would verify.
/// `m` forks on `ρ` give an invertible Vandermonde system, so the one
/// proof shows knowledge of every `(m_j, r_j)` (DESIGN §8).
#[derive(Debug, Clone)]
pub struct EncBatch<F: PrimeField> {
    map: EncMap<F>,
    combiner: Combiner,
}

impl<F: PrimeField> EncBatch<F> {
    /// The contributions of one step kind (its `ρ` under `domain`) under
    /// `pk`.
    pub fn new(domain: &Domain, pk: &PublicKey<F>) -> Self {
        EncBatch { map: EncMap::new(pk), combiner: Combiner::new(domain, &[pk.g, pk.h]) }
    }

    /// `role`'s `ρ` over `cts`.
    fn rho(&self, role: usize, cts: &[Ciphertext<F>]) -> F {
        let message = cts.iter().flat_map(|ct| [ct.u, ct.v]);
        self.combiner.rho(std::iter::once(F::from_u64(role as u64)).chain(message))
    }

    /// `Σ ρ^j·ct_j`.
    fn combined(rho: F, cts: &[Ciphertext<F>]) -> Ciphertext<F> {
        let part = |part: fn(&Ciphertext<F>) -> F| combine(rho, cts.iter().map(part));
        Ciphertext { u: part(|ct| ct.u), v: part(|ct| ct.v) }
    }

    /// Proves that `role` knows the plaintext `ms[j]` and randomness
    /// `rs[j]` of every `cts[j]`.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        role: usize,
        cts: &[Ciphertext<F>],
        ms: &[F],
        rs: &[F],
    ) -> EncProof<F> {
        let rho = self.rho(role, cts);
        let (m, r) = (combine(rho, ms.iter().copied()), combine(rho, rs.iter().copied()));
        self.map.prove(rng, &Self::combined(rho, cts), m, r)
    }

    /// Verifies `role`'s message — its ciphertexts and the proof.
    pub fn verify(&self, role: usize, cts: &[Ciphertext<F>], proof: &EncProof<F>) -> bool {
        self.map.verify(&Self::combined(self.rho(role, cts), cts), proof)
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
        Self::over(pk.g, ct.u)
    }

    /// The map for partial decryptions of a `u` component under base `g`.
    fn over(g: F, u: F) -> Self {
        PdecMap(laid_out(LinearMap::new(&DOMAIN_PDEC, 1, [[(0, g)], [(0, u)]])))
    }

    /// Proves that `d` is the partial decryption under the key share
    /// `share_value` behind the verification key `vk`.
    pub fn prove<R: Rng + ?Sized>(&self, rng: &mut R, vk: F, share_value: F, d: F) -> PdecProof<F> {
        PdecProof { inner: linear::prove(rng, &self.0, &[vk, d], &[share_value]) }
    }

    /// Verifies a partial-decryption proof against the prover's
    /// verification key.
    pub fn verify(&self, vk: F, d: F, proof: &PdecProof<F>) -> bool {
        linear::verify(&self.0, &[vk, d], &proof.inner)
    }
}

/// The ciphertexts of one `Decrypt` step, as a holder's one proof over
/// all of them reads them. The holder posts its partial `d_c = s·u_c`
/// of each ciphertext and one proof, over a [`PdecMap`] of its own, of
/// `Σ ρ^c·d_c = s·Σ ρ^c·u_c` beside `vk = s·g`, with `ρ` hashed from
/// the ciphertexts, `vk` and the partials (see [`super::combine`]): a
/// message with one wrong partial passes with probability at most
/// `m/p` for `m` ciphertexts.
#[derive(Debug, Clone)]
pub struct PdecBatch<F: PrimeField> {
    g: F,
    us: Vec<F>,
    combiner: Combiner,
}

impl<F: PrimeField> PdecBatch<F> {
    /// The step that decrypts `cts` under `pk`.
    pub fn new(pk: &PublicKey<F>, cts: &[Ciphertext<F>]) -> Self {
        let us: Vec<F> = cts.iter().map(|ct| ct.u).collect();
        let public: Vec<F> = std::iter::once(pk.g).chain(us.iter().copied()).collect();
        PdecBatch { g: pk.g, us, combiner: Combiner::new(&DOMAIN_PDEC_RHO, &public) }
    }

    /// The combined statement of `vk`'s `partials`: its map and its
    /// combined partial `D`.
    fn combined(&self, vk: F, partials: &[F]) -> (PdecMap<F>, F) {
        let rho = self.combiner.rho(std::iter::once(vk).chain(partials.iter().copied()));
        let u = combine(rho, self.us.iter().copied());
        (PdecMap::over(self.g, u), combine(rho, partials.iter().copied()))
    }

    /// Proves that `partials` are the partial decryptions of the step's
    /// ciphertexts under the key share `share_value` behind `vk`.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        vk: F,
        share_value: F,
        partials: &[F],
    ) -> PdecProof<F> {
        let (map, d) = self.combined(vk, partials);
        map.prove(rng, vk, share_value, d)
    }

    /// Verifies a holder's message — one partial per ciphertext, and
    /// the proof — against its verification key.
    pub fn verify(&self, vk: F, partials: &[F], proof: &PdecProof<F>) -> bool {
        partials.len() == self.us.len() && {
            let (map, d) = self.combined(vk, partials);
            map.verify(vk, d, proof)
        }
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

/// Proof of a correct deal with encrypted subshares: knowledge of the
/// sub-sharing polynomial coefficients `(a_0 … a_t)` and the encryption
/// randomness `(r_1 … r_n)` consistent with the published Feldman
/// commitments and the recipients' subshare ciphertexts.
///
/// As a key re-share proof, the verifier additionally checks
/// `C_0 = vk_from` (the constant term really is the sender's key share)
/// outside the sigma protocol ([`DealMap::verify_reshare`]).
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
/// base `g`, one committee of recipients and one domain: witness
/// `(a_0 … a_t, r_1 … r_n)` with `C_j = a_j·g` and
/// `ct_m = Enc(pk_m, f(m + 1); r_m)`. Both the tsk re-share proof
/// ([`DealMap::reshare`]: `g` = the threshold key's base) and the DKG
/// deal proof (its own domain) are this relation, and all `n` dealers
/// of a handover or a DKG share one map: what differs between them —
/// commitments and ciphertexts — is the targets ([`DealMap::targets`]).
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
    /// recipient `m` holding the evaluation at `m + 1`, proved under
    /// `domain`. `table` must tabulate (at least) that many parties.
    pub fn new(
        domain: &Domain,
        g: F,
        recipient_pks: &[PkePublicKey<F>],
        table: &PowerTable<F>,
    ) -> Self {
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
        let map = laid_out(LinearMap::new(domain, witness_len, commitments.chain(ciphertexts)));
        DealMap { map, coeffs: t1 }
    }

    /// [`DealMap::new`] under the key re-share domain: the map of a
    /// handover of the threshold key with base `g`.
    pub fn reshare(g: F, recipient_pks: &[PkePublicKey<F>], table: &PowerTable<F>) -> Self {
        Self::new(&DOMAIN_RESHARE, g, recipient_pks, table)
    }

    /// The targets of one dealer's message — `C_0 … C_t`, then
    /// `(u_m, v_m)` per recipient — or `None` if it does not have
    /// `t + 1` commitments and one ciphertext per recipient.
    pub fn targets(&self, commitments: &[F], enc_subshares: &[Ciphertext<F>]) -> Option<Vec<F>> {
        (commitments.len() == self.coeffs
            && self.coeffs + enc_subshares.len() == self.map.witness_len())
        .then(|| deal_targets(commitments, enc_subshares))
    }

    /// Proves a deal (given as its [`DealMap::targets`]) correct:
    /// `coeffs` are the sub-sharing polynomial coefficients (`a_0 = s_i`
    /// in a re-share), `enc_randomness[m]` the randomness used to
    /// encrypt subshare `m`.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        targets: &[F],
        coeffs: &[F],
        enc_randomness: &[F],
    ) -> ReshareProof<F> {
        let witness = [coeffs, enc_randomness].concat();
        ReshareProof { inner: linear::prove(rng, &self.map, targets, &witness) }
    }

    /// What a malicious dealer posts: a random proof of the map's shape.
    pub fn garbage<R: Rng + ?Sized>(&self, rng: &mut R) -> ReshareProof<F> {
        ReshareProof { inner: self.map.garbage(rng) }
    }

    /// Verifies a deal proof: the relation alone, with no key to bind
    /// its constant term to (the DKG's).
    pub fn verify(&self, targets: &[F], proof: &ReshareProof<F>) -> bool {
        linear::verify(&self.map, targets, &proof.inner)
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
            && self.verify(targets, proof)
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
    DealMap::reshare(pk.g, recipient_pks, &table).prove(
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
    let deal = DealMap::reshare(pk.g, recipient_pks, &PowerTable::new(recipient_pks.len(), pk.t));
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

/// The μ-share relation of one member and one batch — or of the
/// `ρ`-combination of a member's batches ([`ShareBatch`]): witness
/// `(k)`, `h = g·k`, `published − offset = −slope·k`. Key and slope are
/// the member's own, so there is nobody to share the map with — one is
/// built per message, for its prover and its verifier.
#[derive(Debug, Clone)]
pub struct ShareMap<F: PrimeField> {
    map: LinearMap<F>,
    h: F,
}

impl<F: PrimeField> ShareMap<F> {
    /// The map for a share published under `kff_pk` with this `slope`.
    pub fn new(kff_pk: &PkePublicKey<F>, slope: F) -> Self {
        let map = laid_out(LinearMap::new(&DOMAIN_SHARE, 1, [[(0, kff_pk.g)], [(0, -slope)]]));
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
        ShareProof { inner: linear::prove(rng, &self.map, &targets, &[kff_sk]) }
    }

    /// Verifies a μ-share publication proof.
    pub fn verify(&self, offset: F, published: F, proof: &ShareProof<F>) -> bool {
        linear::verify(&self.map, &[self.h, published - offset], &proof.inner)
    }
}

/// One batch's μ-share as its member posts it: `published` should be
/// `offset − k·slope` for the member's KFF secret `k`, where `offset`
/// and `slope` are public.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharePosting<F: PrimeField> {
    /// The public offset.
    pub offset: F,
    /// The public slope.
    pub slope: F,
    /// The posted share.
    pub published: F,
}

/// A `3-mult` layer's μ-shares, as a member's one proof over all of its
/// batches reads them. The member posts one share per batch and one
/// proof, over a [`ShareMap`] of its own, of the `ρ`-combination of its
/// postings' statements, `ρ` hashed from its key and its postings (see
/// [`super::combine`]).
#[derive(Debug, Clone)]
pub struct ShareBatch {
    combiner: Combiner,
}

impl ShareBatch {
    /// A layer's combination: its public data are the postings, so one
    /// hash prefix serves every layer.
    pub fn new<F: PrimeField>() -> Self {
        ShareBatch { combiner: Combiner::new::<F>(&DOMAIN_SHARE_RHO, &[]) }
    }

    /// The combined statement of `postings` under `kff_pk`: its map,
    /// its offset and its published value.
    fn combined<F: PrimeField>(
        &self,
        kff_pk: &PkePublicKey<F>,
        postings: &[SharePosting<F>],
    ) -> (ShareMap<F>, F, F) {
        let rho = self.combiner.rho(
            [kff_pk.g, kff_pk.h]
                .into_iter()
                .chain(postings.iter().flat_map(|p| [p.offset, p.slope, p.published])),
        );
        let sum = |part: fn(&SharePosting<F>) -> F| combine(rho, postings.iter().map(part));
        (ShareMap::new(kff_pk, sum(|p| p.slope)), sum(|p| p.offset), sum(|p| p.published))
    }

    /// Proves that every posting's share was computed with the KFF
    /// secret `kff_sk` behind `kff_pk`.
    pub fn prove<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        kff_pk: &PkePublicKey<F>,
        postings: &[SharePosting<F>],
        kff_sk: F,
    ) -> ShareProof<F> {
        let (map, offset, published) = self.combined(kff_pk, postings);
        map.prove(rng, offset, published, kff_sk)
    }

    /// Verifies a member's postings under one proof.
    pub fn verify<F: PrimeField>(
        &self,
        kff_pk: &PkePublicKey<F>,
        postings: &[SharePosting<F>],
        proof: &ShareProof<F>,
    ) -> bool {
        let (map, offset, published) = self.combined(kff_pk, postings);
        map.verify(offset, published, proof)
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

    /// `m` ciphertexts under `pk` and party 2's honest partials of them.
    fn partials(
        r: &mut rand::rngs::StdRng,
        m: usize,
    ) -> (PublicKey<F61>, F61, Vec<Ciphertext<F61>>, Vec<F61>) {
        let (pk, shares) = Te::keygen(r, 5, 2).unwrap();
        let cts: Vec<_> = (0..m)
            .map(|_| {
                let value = F61::random(r);
                Te::encrypt(r, &pk, value).0
            })
            .collect();
        let ds = cts.iter().map(|ct| Te::partial_decrypt(&shares[2], ct).value).collect();
        (pk, shares[2].value, cts, ds)
    }

    #[test]
    fn a_pdec_batch_proof_rejects_one_wrong_partial_anywhere() {
        let mut r = rng();
        let (pk, s, cts, ds) = partials(&mut r, 6);
        let batch = PdecBatch::new(&pk, &cts);
        let proof = batch.prove(&mut r, pk.vks[2], s, &ds);
        assert!(batch.verify(pk.vks[2], &ds, &proof));
        assert!(!batch.verify(pk.vks[3], &ds, &proof));
        for c in 0..ds.len() {
            let mut lie = ds.clone();
            lie[c] += F61::ONE;
            assert!(!batch.verify(pk.vks[2], &lie, &proof), "partial {c}");
        }
        // Another step's ciphertexts, a partial short, and a swap.
        let other = PdecBatch::new(&pk, &[&cts[1..], &cts[..1]].concat());
        assert!(!other.verify(pk.vks[2], &ds, &proof));
        assert!(!batch.verify(pk.vks[2], &ds[..5], &proof));
        let mut swapped = ds.clone();
        swapped.swap(0, 1);
        assert!(!batch.verify(pk.vks[2], &swapped, &proof));
        // One ciphertext: the combined statement is the per-ciphertext one.
        let one = PdecBatch::new(&pk, &cts[..1]);
        let proof = one.prove(&mut r, pk.vks[2], s, &ds[..1]);
        assert!(one.verify(pk.vks[2], &ds[..1], &proof));
        assert!(!one.verify(pk.vks[2], &[ds[0] + F61::ONE], &proof));
    }

    #[test]
    fn a_share_batch_proof_rejects_one_wrong_share_anywhere() {
        let mut r = rng();
        let kp = LinearPke::<F61>::keygen(&mut r);
        let postings: Vec<SharePosting<F61>> = (0..4)
            .map(|_| {
                let (offset, slope) = (F61::random(&mut r), F61::random(&mut r));
                SharePosting { offset, slope, published: offset - kp.secret.scalar * slope }
            })
            .collect();
        let batch = ShareBatch::new::<F61>();
        let proof = batch.prove(&mut r, &kp.public, &postings, kp.secret.scalar);
        assert!(batch.verify(&kp.public, &postings, &proof));
        for b in 0..postings.len() {
            let mut lie = postings.clone();
            lie[b].published += F61::ONE;
            assert!(!batch.verify(&kp.public, &lie, &proof), "batch {b}");
        }
        let other = LinearPke::<F61>::keygen(&mut r).public;
        assert!(!batch.verify(&other, &postings, &proof));
        assert!(!batch.verify(&kp.public, &postings[..3], &proof));
    }

    static WIRE: Domain = Domain::new(b"test/wire-rho");
    static PACK: Domain = Domain::new(b"test/pack-rho");

    /// `m` encryptions under `pk` with their plaintexts and randomness.
    fn encryptions(
        r: &mut rand::rngs::StdRng,
        pk: &PublicKey<F61>,
        m: usize,
    ) -> (Vec<Ciphertext<F61>>, Vec<F61>, Vec<F61>) {
        let ms: Vec<F61> = (0..m).map(|_| F61::random(r)).collect();
        let (cts, rs) = ms.iter().map(|&v| Te::encrypt(r, pk, v)).unzip();
        (cts, ms, rs)
    }

    #[test]
    fn an_enc_batch_proof_rejects_a_changed_item_another_role_and_another_kind() {
        let mut r = rng();
        let (pk, _) = Te::keygen(&mut r, 5, 2).unwrap();
        let (cts, ms, rs) = encryptions(&mut r, &pk, 6);
        let wire = EncBatch::new(&WIRE, &pk);
        let proof = wire.prove(&mut r, 3, &cts, &ms, &rs);
        assert!(wire.verify(3, &cts, &proof));
        // Another role posting the same message and proof.
        assert!(!wire.verify(2, &cts, &proof));
        // Another kind's step reading it.
        assert!(!EncBatch::new(&PACK, &pk).verify(3, &cts, &proof));
        for j in 0..cts.len() {
            let mut lie = cts.clone();
            lie[j].v += F61::ONE;
            assert!(!wire.verify(3, &lie, &proof), "item {j}");
        }
        // A ciphertext short, and a swap.
        assert!(!wire.verify(3, &cts[..5], &proof));
        let mut swapped = cts.clone();
        swapped.swap(0, 1);
        assert!(!wire.verify(3, &swapped, &proof));
        // One item: the combined statement is the item's own.
        let proof = wire.prove(&mut r, 0, &cts[..1], &ms[..1], &rs[..1]);
        assert!(wire.verify(0, &cts[..1], &proof));
    }

    /// A member that posts `−ct` of another's item plus `Enc(x)` does not
    /// know that item's opening: the best it can prove is the message it
    /// knows, which is not the one it posts.
    #[test]
    fn an_enc_batch_proof_does_not_cover_a_negated_item() {
        let mut r = rng();
        let (pk, _) = Te::keygen(&mut r, 5, 2).unwrap();
        let batch = EncBatch::new(&WIRE, &pk);
        let (honest, ..) = encryptions(&mut r, &pk, 3);
        let (mut cts, ms, rs) = encryptions(&mut r, &pk, 3);
        let proof = batch.prove(&mut r, 1, &cts, &ms, &rs);
        cts[2] = Ciphertext { u: cts[2].u - honest[2].u, v: cts[2].v - honest[2].v };
        assert!(!batch.verify(1, &cts, &proof));
    }

    /// Exact and host-independent: a step absorbs its public data once;
    /// a combined proof then costs its `ρ` — the message and the padding
    /// — the member's own map (two blocks of digest, one of prefix) and
    /// its challenge (one), to prove and again to verify; a contribution
    /// message's map is the step's, so it costs its `ρ` and its challenge.
    #[cfg(debug_assertions)]
    #[test]
    fn a_combined_proof_costs_its_rho_its_map_and_one_challenge() {
        use yoso_crypto::sha256::compressions_of;
        let mut r = rng();
        for m in [1usize, 7, 52] {
            let (pk, s, cts, ds) = partials(&mut r, m);
            let (batch, building) = compressions_of(|| PdecBatch::new(&pk, &cts));
            assert_eq!(building, (8 * (2 + m) as u64).div_ceil(64));
            let per_message = (8 * (m + 1) as u64 + 9).div_ceil(64) + 3 + 1;
            let (proof, proving) = compressions_of(|| batch.prove(&mut r, pk.vks[2], s, &ds));
            let (ok, verifying) = compressions_of(|| batch.verify(pk.vks[2], &ds, &proof));
            assert_eq!((ok, proving, verifying), (true, per_message, per_message), "pdec, {m}");
        }
        // A contribution message: its map (three blocks) and its `ρ`
        // prefix (one) once per step; then `ρ` over the index and `m`
        // ciphertexts and one challenge, to prove and again to verify.
        let (pk, _) = Te::keygen(&mut r, 5, 2).unwrap();
        let (batch, building) = compressions_of(|| EncBatch::new(&WIRE, &pk));
        assert_eq!(building, 3 + 1);
        for m in [1usize, 3, 4, 107] {
            let (cts, ms, rs) = encryptions(&mut r, &pk, m);
            let per_message = (8 * (1 + 2 * m) as u64 + 9).div_ceil(64) + 1;
            let (proof, proving) = compressions_of(|| batch.prove(&mut r, 7, &cts, &ms, &rs));
            let (ok, verifying) = compressions_of(|| batch.verify(7, &cts, &proof));
            assert_eq!((ok, proving, verifying), (true, per_message, per_message), "enc, {m}");
        }
        let kp = LinearPke::<F61>::keygen(&mut r);
        let (batch, building) = compressions_of(ShareBatch::new::<F61>);
        assert_eq!(building, 1);
        for batches in [1usize, 2, 4] {
            let postings: Vec<_> = (0..batches)
                .map(|_| SharePosting {
                    offset: f(9),
                    slope: f(4),
                    published: f(9) - kp.secret.scalar * f(4),
                })
                .collect();
            let per_message = (16 + 24 * batches as u64 + 9).div_ceil(64) + 3 + 1;
            let (proof, proving) =
                compressions_of(|| batch.prove(&mut r, &kp.public, &postings, kp.secret.scalar));
            let (ok, verifying) = compressions_of(|| batch.verify(&kp.public, &postings, &proof));
            assert_eq!(
                (ok, proving, verifying),
                (true, per_message, per_message),
                "share, {batches}"
            );
        }
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

    /// `map`'s rows under another domain.
    fn under(domain: &Domain, map: &LinearMap<F61>) -> LinearMap<F61> {
        LinearMap::new(domain, map.witness_len(), map.rows()).unwrap()
    }

    #[test]
    fn v1_domain_proofs_do_not_verify() {
        // The same sigma protocol run under the retired `/v1`, `/v2` and
        // `/v3` separators: correct map, correct targets, correct
        // witness, wrong domain.
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, 5, 2).unwrap();
        let (ct, enc_r) = Te::encrypt(&mut r, &pk, f(7));
        let d = Te::partial_decrypt(&shares[1], &ct).value;
        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = f(1000) - kp.secret.scalar * f(17);
        let (commitments, rpks, cts, coeffs, rands) = deal(&mut r, &pk, shares[0].value);
        let table = PowerTable::new(5, 2);
        let deal_map = DealMap::reshare(pk.g, &rpks, &table);
        let deal_targets = deal_map.targets(&commitments, &cts).unwrap();
        let deal_witness = [&coeffs[..], &rands[..]].concat();

        for v in ["v1", "v2", "v3"] {
            let retired = |kind: &str| Domain::new(format!("yoso-pss/nizk/{kind}/{v}").as_bytes());

            let map = EncMap::new(&pk);
            let old = under(&retired("enc"), &map.0);
            let inner = linear::prove(&mut r, &old, &[ct.u, ct.v], &[f(7), enc_r]);
            assert!(linear::verify(&old, &[ct.u, ct.v], &inner));
            let proof = EncProof { inner };
            assert!(!map.verify(&ct, &proof) && !verify_enc_proof(&pk, &ct, &proof), "enc/{v}");

            let map = PdecMap::new(&pk, &ct);
            let old = under(&retired("pdec"), &map.0);
            let inner = linear::prove(&mut r, &old, &[pk.vks[1], d], &[shares[1].value]);
            let proof = PdecProof { inner };
            assert!(!map.verify(pk.vks[1], d, &proof), "pdec/{v}");
            assert!(!verify_pdec_proof(&pk, &ct, 1, d, &proof), "pdec/{v}");

            let map = ShareMap::new(&kp.public, f(17));
            let targets = [kp.public.h, published - f(1000)];
            let old = under(&retired("share"), &map.map);
            let inner = linear::prove(&mut r, &old, &targets, &[kp.secret.scalar]);
            let proof = ShareProof { inner };
            assert!(!map.verify(f(1000), published, &proof), "share/{v}");
            assert!(!verify_share_proof(&kp.public, f(17), f(1000), published, &proof), "share/{v}");

            let old = under(&retired("reshare"), &deal_map.map);
            let inner = linear::prove(&mut r, &old, &deal_targets, &deal_witness);
            let proof = ReshareProof { inner };
            assert!(!deal_map.verify_reshare(&pk, 0, &deal_targets, &proof), "reshare/{v}");
            assert!(!verify_reshare_proof(&pk, 0, &commitments, &rpks, &cts, &proof), "reshare/{v}");
        }
        let proof = deal_map.prove(&mut r, &deal_targets, &coeffs, &rands);
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

    /// The `/v3` engine's challenge, hand-rolled as DESIGN §8 documented
    /// it: the domain's pre-hashed block(s), then `H′(M)`, the row count,
    /// the targets and the commitment, all hashed per challenge.
    fn v3_challenge(
        domain: &[u8],
        map: &LinearMap<F61>,
        targets: &[F61],
        commitment: &[F61],
    ) -> F61 {
        let mut h = Domain::new(domain).hasher();
        h.update(&map.digest());
        h.update(&(map.row_count() as u64).to_le_bytes());
        for v in targets.iter().chain(commitment) {
            h.update(&v.to_bytes());
        }
        F61::from_u64(u64::from_le_bytes(h.finalize()[..8].try_into().unwrap()))
    }

    #[test]
    fn a_proof_hashed_by_the_v3_engine_does_not_verify() {
        let pk = PublicKey { n: 1, t: 0, g: f(5), h: f(7), vks: vec![f(0)] };
        let (m, r) = (f(42), f(9));
        let ct = Te::encrypt_with(&pk, m, r);
        let map = EncMap::new(&pk);
        // The layout above is the retired engine's: these are the
        // challenges the parent commit derives for this statement under
        // an all-zero commitment.
        let zeros = [F61::ZERO; 2];
        for (label, known) in [
            (&b"yoso-pss/nizk/enc/v3"[..], 0x698de4a5a7aaa2e),
            (b"yoso-pss/nizk/enc/v4", 0x1bbfc90d69de2a17),
        ] {
            assert_eq!(v3_challenge(label, &map.0, &[ct.u, ct.v], &zeros).as_u64(), known);
        }

        let mut rng = rng();
        for label in [&b"yoso-pss/nizk/enc/v3"[..], b"yoso-pss/nizk/enc/v4"] {
            let rho = [F61::random(&mut rng), F61::random(&mut rng)];
            let a = [pk.g * rho[1], rho[0] + pk.h * rho[1]];
            let e = v3_challenge(label, &map.0, &[ct.u, ct.v], &a);
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
        let deal_map = DealMap::reshare(pk.g, &rpks, &PowerTable::new(5, 2));
        assert_eq!((deal_map.map.row_count(), deal_map.map.witness_len()), (3 + 10, 3 + 5));
        assert!(deal_map.targets(&commitments[..2], &cts).is_none());
        assert!(deal_map.targets(&commitments, &cts[..4]).is_none());
        // One commitment too many and a ciphertext short is the right
        // number of targets, but not a deal.
        let mut shifted = commitments.clone();
        shifted.extend([cts[0].u, cts[0].v]);
        assert!(deal_map.targets(&shifted, &cts[1..]).is_none());

        let targets = deal_map.targets(&commitments, &cts).unwrap();
        let proof = deal_map.prove(&mut r, &targets, &coeffs, &rands);
        assert!(deal_map.verify_reshare(&pk, 0, &targets, &proof));
        // Wrong sender, unknown sender, a key of another threshold.
        assert!(!deal_map.verify_reshare(&pk, 1, &targets, &proof));
        assert!(!deal_map.verify_reshare(&pk, 5, &targets, &proof));
        let other_t = PublicKey { t: 1, ..pk.clone() };
        assert!(!deal_map.verify_reshare(&other_t, 0, &targets, &proof));
        assert!(!verify_reshare_proof(&other_t, 0, &commitments, &rpks, &cts, &proof));
    }

    /// Exact and host-independent: every small proof is one block to
    /// prove and one to verify over a map somebody already built, four
    /// through the per-proof functions (which build a map of their own:
    /// two blocks of digest, one of prefix); a deal proof is its targets
    /// and commitment, ⌈(9 + 16·(t + 1 + 2n)) / 64⌉ blocks, and the
    /// committee's `n` proofs build their one map once.
    #[cfg(debug_assertions)]
    #[test]
    fn small_proofs_cost_two_blocks_and_a_committee_digests_its_deal_map_once() {
        use yoso_crypto::sha256::compressions_of;
        let (n, t) = (16usize, 7usize);
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, n, t).unwrap();
        let (ct, enc_r) = Te::encrypt(&mut r, &pk, f(7));

        let (map, building) = compressions_of(|| EncMap::new(&pk));
        assert_eq!(building, 3);
        let (proof, proving) = compressions_of(|| map.prove(&mut r, &ct, f(7), enc_r));
        let (ok, verifying) = compressions_of(|| map.verify(&ct, &proof));
        assert_eq!((ok, proving, verifying), (true, 1, 1), "enc");
        assert_eq!(compressions_of(|| enc_proof(&mut r, &pk, &ct, f(7), enc_r)).1, 4);
        assert_eq!(compressions_of(|| verify_enc_proof(&pk, &ct, &proof)).1, 4);

        let d = Te::partial_decrypt(&shares[2], &ct).value;
        let map = PdecMap::new(&pk, &ct);
        let (proof, proving) =
            compressions_of(|| map.prove(&mut r, pk.vks[2], shares[2].value, d));
        let (ok, verifying) = compressions_of(|| map.verify(pk.vks[2], d, &proof));
        assert_eq!((ok, proving, verifying), (true, 1, 1), "pdec");
        assert_eq!(compressions_of(|| verify_pdec_proof(&pk, &ct, 2, d, &proof)).1, 4);

        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = f(1000) - kp.secret.scalar * f(17);
        let map = ShareMap::new(&kp.public, f(17));
        let (proof, proving) =
            compressions_of(|| map.prove(&mut r, f(1000), published, kp.secret.scalar));
        let (ok, verifying) = compressions_of(|| map.verify(f(1000), published, &proof));
        assert_eq!((ok, proving, verifying), (true, 1, 1), "share");

        // A handover: n dealers, one map.
        let per_challenge = (9 + 16 * (t + 1 + 2 * n) as u64).div_ceil(64);
        assert_eq!(per_challenge, 11);
        let rpks: Vec<_> = (0..n).map(|_| LinearPke::<F61>::keygen(&mut r).public).collect();
        let table = PowerTable::new(n, t);
        let (deal_map, building) = compressions_of(|| DealMap::reshare(pk.g, &rpks, &table));
        // 16 bytes of shape, 8 a row, 16 a non-zero, 9 of padding; then
        // the prefix block.
        let nnz = (t + 1) + n + n * (t + 2);
        let digesting = (16 + 8 * (t + 1 + 2 * n) as u64 + 16 * nnz as u64 + 9).div_ceil(64);
        assert_eq!(building, digesting + 1);
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
                let proof = deal_map.prove(&mut r, &targets, &coeffs, &rands);
                assert!(deal_map.verify_reshare(&pk, share.party, &targets, &proof));
            }
        });
        assert_eq!(handover, 2 * n as u64 * per_challenge);
    }
}
