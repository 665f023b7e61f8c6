//! A linearly homomorphic key-rerandomizable threshold encryption
//! scheme over a prime field.
//!
//! The scheme is ElGamal written additively over `(F, +)`:
//!
//! - Key generation picks a random non-zero base `g`, a secret `s`, and
//!   publishes `h = s·g`. The secret `s` is Shamir-shared with
//!   threshold `t`; Feldman-style verification keys `vk_i = s_i·g` are
//!   published.
//! - `TEnc(m; r) = (u, v) = (r·g, m + r·h)`.
//! - `TPDec` by party `i`: `d_i = s_i · u`.
//! - `TDec` from `t + 1` partials: Lagrange-combine the `d_i` at point
//!   0 to get `s·u = r·h`, output `m = v − s·u`.
//! - `TEval`: ciphertexts combine linearly component-wise.
//! - `TKRes`/`TKRec`: each member deals a degree-`t` sub-sharing of its
//!   share together with Feldman commitments; the next committee
//!   Lagrange-combines received subshares into fresh shares of the same
//!   `s`, and anyone can derive the next verification keys from the
//!   commitments.
//! - `SimTPDec`: *perfect* partial-decryption simulatability — honest
//!   partials are interpolated through the corrupt partials and the
//!   target value.
//!
//! **Security caveat (by design):** in a 61-bit field, `s = h/g` is
//! trivially computable, and the scheme is only one-time hiding. This
//! instantiation exists to drive large-scale *simulations* of the YOSO
//! protocol where the quantities of interest are communication counts,
//! robustness and protocol structure (see DESIGN.md §3). The faithful
//! cryptographic instantiation is [`crate::paillier`].

use rand::Rng;

use yoso_field::{lagrange, PrimeField};
use yoso_pss_sharing::shamir::{self, PowerTable, ZeroWeights};
use yoso_pss_sharing::{PssError, Share};

use crate::TeError;

/// Public key of the mock threshold scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey<F: PrimeField> {
    /// Committee size.
    pub n: usize,
    /// Corruption threshold (any `t + 1` partials decrypt).
    pub t: usize,
    /// The base `g ≠ 0`.
    pub g: F,
    /// `h = s · g`.
    pub h: F,
    /// Feldman verification keys `vk_i = s_i · g`.
    pub vks: Vec<F>,
}

/// A party's share of the threshold secret key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct KeyShare<F: PrimeField> {
    /// 0-based party index.
    pub party: usize,
    /// The Shamir share `s_i = f(party + 1)`.
    pub value: F,
}

// lint:redact: prints the party index only, never the share value.
impl<F: PrimeField> std::fmt::Debug for KeyShare<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyShare")
            .field("party", &self.party)
            .field("value", &"<redacted>")
            .finish()
    }
}

/// A ciphertext `(u, v) = (r·g, m + r·h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ciphertext<F: PrimeField> {
    /// The ephemeral component `r·g`.
    pub u: F,
    /// The payload component `m + r·h`.
    pub v: F,
}

impl<F: PrimeField> Ciphertext<F> {
    /// Serialized size in bytes (two field elements).
    pub const SIZE_BYTES: usize = 16;
}

/// A partial decryption `d_i = s_i · u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialDec<F: PrimeField> {
    /// 0-based party index.
    pub party: usize,
    /// The value `s_i · u`.
    pub value: F,
}

/// The message a re-sharing party broadcasts: Feldman commitments to
/// its sub-sharing polynomial plus one subshare per recipient.
///
/// In the YOSO protocol the subshares are additionally encrypted to the
/// recipients; encryption happens at the protocol layer so that this
/// module stays a clean algebra layer.
#[derive(Clone, PartialEq, Eq)]
pub struct ReshareMsg<F: PrimeField> {
    /// 0-based index of the re-sharing (previous-committee) party.
    pub from: usize,
    /// Feldman commitments `C_j = a_j · g` to the polynomial
    /// `g_i(X) = Σ a_j X^j` with `a_0 = s_i`.
    pub commitments: Vec<F>,
    /// `subshares[m] = g_i(m + 1)`, the subshare for recipient `m`.
    pub subshares: Vec<F>,
}

// lint:redact: prints the sender, the (public) Feldman commitments and
// the subshare count — never the subshares themselves.
impl<F: PrimeField> std::fmt::Debug for ReshareMsg<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReshareMsg")
            .field("from", &self.from)
            .field("commitments", &self.commitments)
            .field("subshares", &format_args!("<{} redacted>", self.subshares.len()))
            .finish()
    }
}

/// The mock threshold encryption scheme with fixed `(n, t)`.
///
/// # Example
///
/// ```rust
/// use rand::SeedableRng;
/// use yoso_field::F61;
/// use yoso_the::mock::MockTe;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let (pk, shares) = MockTe::<F61>::keygen(&mut rng, 5, 2)?;
/// let (ct, _r) = MockTe::encrypt(&mut rng, &pk, F61::from(42u64));
/// let partials: Vec<_> = shares[..3]
///     .iter()
///     .map(|s| MockTe::partial_decrypt(s, &ct))
///     .collect();
/// assert_eq!(MockTe::combine(&pk, &ct, &partials)?, F61::from(42u64));
/// # Ok::<(), yoso_the::TeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MockTe<F: PrimeField> {
    _marker: std::marker::PhantomData<F>,
}

impl<F: PrimeField> MockTe<F> {
    /// `TKGen`: samples the key pair and Shamir-shares the secret.
    ///
    /// # Errors
    ///
    /// Returns [`TeError::BadParameters`] if `t >= n` or `n = 0`.
    pub fn keygen<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        t: usize,
    ) -> Result<(PublicKey<F>, Vec<KeyShare<F>>), TeError> {
        Self::keygen_with_table(rng, n, t).map(|(pk, shares, _)| (pk, shares))
    }

    /// [`Self::keygen`], also returning the committee's power table at
    /// degree `t` that the secret was dealt through, for a caller that
    /// deals again over the same points.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::keygen`].
    #[allow(clippy::type_complexity)]
    pub fn keygen_with_table<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        t: usize,
    ) -> Result<(PublicKey<F>, Vec<KeyShare<F>>, PowerTable<F>), TeError> {
        if n == 0 || t >= n {
            return Err(TeError::BadParameters { n, t });
        }
        let mut g = F::random(rng);
        while g.is_zero() {
            g = F::random(rng);
        }
        let s = F::random(rng);
        let table = PowerTable::new(n, t);
        let shares =
            shamir::share_with(rng, s, &table).map_err(|_| TeError::BadParameters { n, t })?;
        let vks = shares.iter().map(|sh| sh.value * g).collect();
        let key_shares = shares
            .iter()
            .map(|sh| KeyShare { party: sh.party, value: sh.value })
            .collect();
        Ok((PublicKey { n, t, g, h: s * g, vks }, key_shares, table))
    }

    /// `TEnc`: encrypts `m`, returning the ciphertext and the
    /// encryption randomness (needed by the prover of
    /// [`crate::nizk::enc_proof`]).
    pub fn encrypt<R: Rng + ?Sized>(rng: &mut R, pk: &PublicKey<F>, m: F) -> (Ciphertext<F>, F) {
        let r = F::random(rng);
        (Self::encrypt_with(pk, m, r), r)
    }

    /// Deterministic encryption with caller-chosen randomness.
    pub fn encrypt_with(pk: &PublicKey<F>, m: F, r: F) -> Ciphertext<F> {
        Ciphertext { u: r * pk.g, v: m + r * pk.h }
    }

    /// `TPDec`: computes party `i`'s partial decryption of `ct`.
    pub fn partial_decrypt(share: &KeyShare<F>, ct: &Ciphertext<F>) -> PartialDec<F> {
        PartialDec { party: share.party, value: share.value * ct.u }
    }

    /// Verifies a partial decryption against the Feldman verification
    /// keys *without* a NIZK: checks `d_i · g == vk_i · u`.
    ///
    /// This algebraic check is possible because the scheme is linear;
    /// the NIZK variant ([`crate::nizk::pdec_proof`]) is what the
    /// protocol uses on the bulletin board, since it also proves
    /// *knowledge* of the share.
    pub fn partial_is_valid(pk: &PublicKey<F>, ct: &Ciphertext<F>, pd: &PartialDec<F>) -> bool {
        pd.party < pk.n && pd.value * pk.g == pk.vks[pd.party] * ct.u
    }

    /// The Lagrange-at-zero weights of the first `t + 1` of `parties`
    /// — the canonical subset every recombination in the scheme uses.
    /// One weight vector serves every value those providers recombine.
    ///
    /// # Errors
    ///
    /// - [`TeError::NotEnoughPartials`] with fewer than `t + 1`.
    /// - [`TeError::BadParty`] on out-of-range or duplicate indices.
    pub fn zero_weights(pk: &PublicKey<F>, parties: &[usize]) -> Result<ZeroWeights<F>, TeError> {
        let Some(head) = parties.get(..pk.t + 1) else {
            return Err(TeError::NotEnoughPartials { got: parties.len(), need: pk.t + 1 });
        };
        if let Some(&p) = head.iter().find(|&&p| p >= pk.n) {
            return Err(TeError::BadParty(p));
        }
        ZeroWeights::new(head).map_err(|e| match e {
            PssError::DuplicateParty(p) => TeError::BadParty(p),
            _ => TeError::InconsistentPartials,
        })
    }

    /// `TDec`: combines at least `t + 1` partial decryptions.
    ///
    /// Surplus partials are used for consistency checking.
    ///
    /// # Errors
    ///
    /// - [`TeError::NotEnoughPartials`] with fewer than `t + 1`.
    /// - [`TeError::BadParty`] on out-of-range or duplicate indices.
    /// - [`TeError::InconsistentPartials`] if the partials do not lie
    ///   on a single degree-`t` polynomial.
    pub fn combine(
        pk: &PublicKey<F>,
        ct: &Ciphertext<F>,
        partials: &[PartialDec<F>],
    ) -> Result<F, TeError> {
        if partials.len() < pk.t + 1 {
            return Err(TeError::NotEnoughPartials { got: partials.len(), need: pk.t + 1 });
        }
        let mut seen = vec![false; pk.n];
        for p in partials {
            if p.party >= pk.n || seen[p.party] {
                return Err(TeError::BadParty(p.party));
            }
            seen[p.party] = true;
        }
        let (head, surplus) = partials.split_at(pk.t + 1);
        let parties: Vec<usize> = head.iter().map(|p| p.party).collect();
        let ys: Vec<F> = head.iter().map(|p| p.value).collect();
        if !surplus.is_empty() {
            // Only the consistency check needs the whole polynomial.
            let xs: Vec<F> = parties.iter().map(|&p| F::from_u64(p as u64 + 1)).collect();
            let poly =
                lagrange::interpolate(&xs, &ys).map_err(|_| TeError::InconsistentPartials)?;
            for p in surplus {
                if poly.eval(F::from_u64(p.party as u64 + 1)) != p.value {
                    return Err(TeError::InconsistentPartials);
                }
            }
        }
        // d_i = s_i·u lie on the degree-t polynomial u·f(X); its value
        // at 0 is u·f(0) = s·u.
        let su = Self::zero_weights(pk, &parties)?.combine(&ys);
        Ok(ct.v - su)
    }

    /// `TEval`: the linear combination `Σ coeffs_i · cts_i` of
    /// ciphertexts, which encrypts `Σ coeffs_i · m_i`.
    ///
    /// # Errors
    ///
    /// Returns [`TeError::LengthMismatch`] if the slices differ in
    /// length or are empty.
    pub fn eval(cts: &[Ciphertext<F>], coeffs: &[F]) -> Result<Ciphertext<F>, TeError> {
        if cts.len() != coeffs.len() || cts.is_empty() {
            return Err(TeError::LengthMismatch { a: cts.len(), b: coeffs.len() });
        }
        let mut u = F::ZERO;
        let mut v = F::ZERO;
        for (ct, &c) in cts.iter().zip(coeffs) {
            u += c * ct.u;
            v += c * ct.v;
        }
        Ok(Ciphertext { u, v })
    }

    /// Adds a public plaintext constant to a ciphertext.
    pub fn add_plain(ct: &Ciphertext<F>, m: F) -> Ciphertext<F> {
        Ciphertext { u: ct.u, v: ct.v + m }
    }

    /// A trivial (randomness-zero) encryption of a public constant.
    pub fn plain_ciphertext(m: F) -> Ciphertext<F> {
        Ciphertext { u: F::ZERO, v: m }
    }

    /// `TKRes`: party `i` deals a degree-`t` sub-sharing of its key
    /// share for the `n` members of the next committee, with Feldman
    /// commitments.
    pub fn reshare<R: Rng + ?Sized>(
        rng: &mut R,
        pk: &PublicKey<F>,
        share: &KeyShare<F>,
    ) -> ReshareMsg<F> {
        Self::reshare_with(rng, pk, share, &PowerTable::new(pk.n, pk.t)).0
    }

    /// [`Self::reshare`] through a caller-built
    /// `PowerTable::new(pk.n, pk.t)` (one table serves a whole
    /// committee of dealers). Also returns the sub-sharing polynomial's
    /// coefficients, the witness of [`crate::nizk::reshare_proof`].
    ///
    /// Draws exactly `t` field elements from `rng`; evaluation draws
    /// nothing.
    pub fn reshare_with<R: Rng + ?Sized>(
        rng: &mut R,
        pk: &PublicKey<F>,
        share: &KeyShare<F>,
        table: &PowerTable<F>,
    ) -> (ReshareMsg<F>, Vec<F>) {
        let mut coeffs = Vec::with_capacity(pk.t + 1);
        coeffs.push(share.value);
        for _ in 0..pk.t {
            coeffs.push(F::random(rng));
        }
        let commitments = coeffs.iter().map(|&a| a * pk.g).collect();
        let subshares = table.eval_all(&coeffs);
        (ReshareMsg { from: share.party, commitments, subshares }, coeffs)
    }

    /// Verifies the Feldman consistency of a re-share message: every
    /// subshare must match the committed polynomial, and the committed
    /// constant term must equal the sender's verification key.
    pub fn reshare_is_valid(pk: &PublicKey<F>, msg: &ReshareMsg<F>) -> bool {
        if msg.from >= pk.n
            || msg.commitments.len() != pk.t + 1
            || msg.subshares.len() != pk.n
            || msg.commitments[0] != pk.vks[msg.from]
        {
            return false;
        }
        // Committed evaluation: Σ_j x^j C_j should equal sub · g.
        let committed = PowerTable::new(pk.n, pk.t).eval_all(&msg.commitments);
        committed.iter().zip(&msg.subshares).all(|(&committed, &sub)| committed == sub * pk.g)
    }

    /// `TKRec`: recipient `j` combines the subshares addressed to it
    /// from a set of at least `t + 1` verified re-share messages into
    /// its fresh key share.
    ///
    /// # Errors
    ///
    /// - [`TeError::NotEnoughPartials`] with fewer than `t + 1`
    ///   providers.
    /// - [`TeError::BadParty`] on duplicate or out-of-range providers.
    pub fn recombine_key(
        pk: &PublicKey<F>,
        recipient: usize,
        msgs: &[&ReshareMsg<F>],
    ) -> Result<KeyShare<F>, TeError> {
        let weights = Self::reshare_weights(pk, msgs)?;
        let subs: Vec<F> = msgs.iter().take(pk.t + 1).map(|m| m.subshares[recipient]).collect();
        Ok(KeyShare { party: recipient, value: weights.combine(&subs) })
    }

    /// Derives the next committee's verification keys and public key
    /// from a set of `t + 1` verified re-share messages — a public
    /// computation any observer can perform.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::recombine_key`].
    pub fn next_public_key(pk: &PublicKey<F>, msgs: &[&ReshareMsg<F>]) -> Result<PublicKey<F>, TeError> {
        let weights = Self::reshare_weights(pk, msgs)?;
        let vks = Self::next_verification_keys(
            &weights,
            msgs.iter().map(|m| m.commitments.as_slice()),
            &PowerTable::new(pk.n, pk.t),
        );
        Ok(PublicKey { n: pk.n, t: pk.t, g: pk.g, h: pk.h, vks })
    }

    /// The recombination weights of the first `t + 1` senders.
    fn reshare_weights(
        pk: &PublicKey<F>,
        msgs: &[&ReshareMsg<F>],
    ) -> Result<ZeroWeights<F>, TeError> {
        let providers: Vec<usize> = msgs.iter().map(|m| m.from).collect();
        Self::zero_weights(pk, &providers)
    }

    /// The next verification keys `vk_j = Σ_i w_i · C_i(j + 1)` from
    /// the providers' Feldman commitment vectors (`commitments` in
    /// weight order, `table` a `PowerTable::new(pk.n, pk.t)`).
    ///
    /// The sum is taken over the polynomials first — one collapsed
    /// `Σ_i w_i · C_i(X)` — and that is evaluated once per recipient:
    /// `(t + 1)² + n·(t + 1)` multiplications instead of `n·(t + 1)²`.
    pub fn next_verification_keys<'a>(
        weights: &ZeroWeights<F>,
        commitments: impl Iterator<Item = &'a [F]>,
        table: &PowerTable<F>,
    ) -> Vec<F> {
        let mut collapsed = vec![F::ZERO; table.degree() + 1];
        for (&w, poly) in weights.weights().iter().zip(commitments) {
            for (acc, &c) in collapsed.iter_mut().zip(poly) {
                *acc += w * c;
            }
        }
        table.eval_all(&collapsed)
    }

    /// `SimTPDec`: given a ciphertext, a target plaintext `m`, and at
    /// most `t` corrupt partial decryptions, produces partials for the
    /// requested honest parties such that [`Self::combine`] over any
    /// mix returns `m`. Perfect simulation.
    ///
    /// # Errors
    ///
    /// Returns [`TeError::BadParty`] if more than `t` corrupt partials
    /// are supplied or indices collide.
    pub fn sim_partial_decrypt<R: Rng + ?Sized>(
        rng: &mut R,
        pk: &PublicKey<F>,
        ct: &Ciphertext<F>,
        target: F,
        corrupt: &[PartialDec<F>],
        honest_parties: &[usize],
    ) -> Result<Vec<PartialDec<F>>, TeError> {
        if corrupt.len() > pk.t {
            return Err(TeError::BadParty(corrupt.len()));
        }
        // The partials lie on a degree-t polynomial D with D(0) = v − m.
        // Fix D by the corrupt points, the virtual point 0, and random
        // padding; then evaluate at the honest parties.
        let mut xs = vec![F::ZERO];
        let mut ys = vec![ct.v - target];
        let mut used: std::collections::HashSet<u64> = std::collections::HashSet::new();
        used.insert(0);
        for p in corrupt {
            if p.party >= pk.n || !used.insert(p.party as u64 + 1) {
                return Err(TeError::BadParty(p.party));
            }
            xs.push(F::from_u64(p.party as u64 + 1));
            ys.push(p.value);
        }
        // Pad with random evaluations at points beyond n to reach t+1 nodes.
        let mut pad = pk.n as u64 + 2;
        while xs.len() < pk.t + 1 {
            xs.push(F::from_u64(pad));
            ys.push(F::random(rng));
            pad += 1;
        }
        let poly = lagrange::interpolate(&xs, &ys).map_err(|_| TeError::InconsistentPartials)?;
        Ok(honest_parties
            .iter()
            .map(|&j| PartialDec { party: j, value: poly.eval(F::from_u64(j as u64 + 1)) })
            .collect())
    }

    /// Decrypts directly with a full set of key shares (test helper).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::combine`] errors.
    pub fn decrypt_with_shares(
        pk: &PublicKey<F>,
        ct: &Ciphertext<F>,
        shares: &[KeyShare<F>],
    ) -> Result<F, TeError> {
        let partials: Vec<PartialDec<F>> =
            shares.iter().take(pk.t + 1).map(|s| Self::partial_decrypt(s, ct)).collect();
        Self::combine(pk, ct, &partials)
    }
}

/// Converts key shares to the `yoso-pss-sharing` share type (used by
/// tests that cross-check against the generic Shamir module).
impl<F: PrimeField> From<KeyShare<F>> for Share<F> {
    fn from(ks: KeyShare<F>) -> Share<F> {
        Share { party: ks.party, value: ks.value }
    }
}

/// A single-key linearly homomorphic PKE over the field — the same
/// additive ElGamal as [`MockTe`] but with an unshared key.
///
/// This is the PKE used for YOSO role keys and keys-for-future in the
/// mock world. Because it is linear, every statement about its
/// plaintexts ("this ciphertext re-encrypts that partial decryption")
/// is a linear relation provable with [`crate::nizk::linear`].
///
/// # Example
///
/// ```rust
/// use rand::SeedableRng;
/// use yoso_field::F61;
/// use yoso_the::mock::LinearPke;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let kp = LinearPke::<F61>::keygen(&mut rng);
/// let (ct, _r) = LinearPke::encrypt(&mut rng, &kp.public, F61::from(9u64));
/// assert_eq!(LinearPke::decrypt(&kp.secret, &ct), F61::from(9u64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearPke<F: PrimeField> {
    _marker: std::marker::PhantomData<F>,
}

/// Public key of [`LinearPke`]: base `g` and `h = sk·g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PkePublicKey<F: PrimeField> {
    /// The base `g ≠ 0`.
    pub g: F,
    /// `h = sk · g`.
    pub h: F,
}

/// Secret key of [`LinearPke`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PkeSecretKey<F: PrimeField> {
    /// The secret scalar.
    pub scalar: F,
}

// lint:redact: the secret scalar is never printed.
impl<F: PrimeField> std::fmt::Debug for PkeSecretKey<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PkeSecretKey").field("scalar", &"<redacted>").finish()
    }
}

/// A [`LinearPke`] key pair.
// lint:redact: the derived Debug delegates to PkeSecretKey's redacted
// impl, so no secret scalar is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PkeKeyPair<F: PrimeField> {
    /// The public portion.
    pub public: PkePublicKey<F>,
    /// The secret portion.
    pub secret: PkeSecretKey<F>,
}

impl<F: PrimeField> LinearPke<F> {
    /// Generates a key pair.
    pub fn keygen<R: Rng + ?Sized>(rng: &mut R) -> PkeKeyPair<F> {
        let mut g = F::random(rng);
        while g.is_zero() {
            g = F::random(rng);
        }
        let scalar = F::random(rng);
        PkeKeyPair { public: PkePublicKey { g, h: scalar * g }, secret: PkeSecretKey { scalar } }
    }

    /// Encrypts `m`, returning the ciphertext and the randomness (for
    /// NIZK provers).
    pub fn encrypt<R: Rng + ?Sized>(
        rng: &mut R,
        pk: &PkePublicKey<F>,
        m: F,
    ) -> (Ciphertext<F>, F) {
        let r = F::random(rng);
        (Self::encrypt_with(pk, m, r), r)
    }

    /// Deterministic encryption with caller-chosen randomness.
    pub fn encrypt_with(pk: &PkePublicKey<F>, m: F, r: F) -> Ciphertext<F> {
        Ciphertext { u: r * pk.g, v: m + r * pk.h }
    }

    /// Decrypts a ciphertext.
    pub fn decrypt(sk: &PkeSecretKey<F>, ct: &Ciphertext<F>) -> F {
        ct.v - sk.scalar * ct.u
    }
}

#[cfg(test)]
mod pke_tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;

    #[test]
    fn pke_roundtrip_and_linearity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let kp = LinearPke::<F61>::keygen(&mut rng);
        let (c1, _) = LinearPke::encrypt(&mut rng, &kp.public, F61::from(10u64));
        let (c2, _) = LinearPke::encrypt(&mut rng, &kp.public, F61::from(32u64));
        assert_eq!(LinearPke::decrypt(&kp.secret, &c1), F61::from(10u64));
        // Component-wise sum decrypts to the plaintext sum.
        let sum = Ciphertext { u: c1.u + c2.u, v: c1.v + c2.v };
        assert_eq!(LinearPke::decrypt(&kp.secret, &sum), F61::from(42u64));
    }

    #[test]
    fn pke_wrong_key_gives_wrong_plaintext() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let kp1 = LinearPke::<F61>::keygen(&mut rng);
        let kp2 = LinearPke::<F61>::keygen(&mut rng);
        let (ct, _) = LinearPke::encrypt(&mut rng, &kp1.public, F61::from(7u64));
        assert_ne!(LinearPke::decrypt(&kp2.secret, &ct), F61::from(7u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;

    type Te = MockTe<F61>;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn setup(n: usize, t: usize) -> (PublicKey<F61>, Vec<KeyShare<F61>>, rand::rngs::StdRng) {
        let mut r = rng();
        let (pk, shares) = Te::keygen(&mut r, n, t).unwrap();
        (pk, shares, r)
    }

    #[test]
    fn keygen_validates() {
        let mut r = rng();
        assert!(Te::keygen(&mut r, 5, 5).is_err());
        assert!(Te::keygen(&mut r, 0, 0).is_err());
        assert!(Te::keygen(&mut r, 1, 0).is_ok());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (pk, shares, mut r) = setup(7, 3);
        for m in [f(0), f(1), f(123_456), F61::from_i64(-5)] {
            let (ct, _) = Te::encrypt(&mut r, &pk, m);
            let partials: Vec<_> =
                shares.iter().take(4).map(|s| Te::partial_decrypt(s, &ct)).collect();
            assert_eq!(Te::combine(&pk, &ct, &partials).unwrap(), m);
        }
    }

    #[test]
    fn any_t_plus_one_subset_decrypts() {
        let (pk, shares, mut r) = setup(7, 3);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(77));
        for subset in [[0usize, 1, 2, 3], [3, 4, 5, 6], [0, 2, 4, 6]] {
            let partials: Vec<_> =
                subset.iter().map(|&i| Te::partial_decrypt(&shares[i], &ct)).collect();
            assert_eq!(Te::combine(&pk, &ct, &partials).unwrap(), f(77));
        }
    }

    #[test]
    fn t_partials_insufficient() {
        let (pk, shares, mut r) = setup(7, 3);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(1));
        let partials: Vec<_> = shares.iter().take(3).map(|s| Te::partial_decrypt(s, &ct)).collect();
        assert!(matches!(
            Te::combine(&pk, &ct, &partials),
            Err(TeError::NotEnoughPartials { got: 3, need: 4 })
        ));
    }

    #[test]
    fn corrupt_partial_detected_with_surplus() {
        let (pk, shares, mut r) = setup(7, 2);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(1));
        let mut partials: Vec<_> =
            shares.iter().take(5).map(|s| Te::partial_decrypt(s, &ct)).collect();
        partials[4].value += F61::ONE;
        assert_eq!(Te::combine(&pk, &ct, &partials), Err(TeError::InconsistentPartials));
    }

    #[test]
    fn feldman_check_catches_bad_partial() {
        let (pk, shares, mut r) = setup(5, 2);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(9));
        let good = Te::partial_decrypt(&shares[0], &ct);
        assert!(Te::partial_is_valid(&pk, &ct, &good));
        let bad = PartialDec { party: 0, value: good.value + F61::ONE };
        assert!(!Te::partial_is_valid(&pk, &ct, &bad));
    }

    #[test]
    fn homomorphism_linear_combination() {
        let (pk, shares, mut r) = setup(5, 2);
        let ms = [f(10), f(20), f(30)];
        let cts: Vec<_> = ms.iter().map(|&m| Te::encrypt(&mut r, &pk, m).0).collect();
        let coeffs = [f(1), f(2), f(3)];
        let combined = Te::eval(&cts, &coeffs).unwrap();
        let expect = f(10) + f(40) + f(90);
        assert_eq!(Te::decrypt_with_shares(&pk, &combined, &shares).unwrap(), expect);
    }

    #[test]
    fn eval_rejects_mismatch() {
        let (pk, _, mut r) = setup(5, 2);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(1));
        assert!(Te::eval(&[ct], &[]).is_err());
        assert!(Te::eval(&[], &[]).is_err());
    }

    #[test]
    fn add_plain_and_plain_ciphertext() {
        let (pk, shares, mut r) = setup(5, 2);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(5));
        let shifted = Te::add_plain(&ct, f(10));
        assert_eq!(Te::decrypt_with_shares(&pk, &shifted, &shares).unwrap(), f(15));
        let plain = Te::plain_ciphertext(f(33));
        assert_eq!(Te::decrypt_with_shares(&pk, &plain, &shares).unwrap(), f(33));
    }

    #[test]
    fn reshare_preserves_key_and_vks() {
        let (pk, shares, mut r) = setup(6, 2);
        let msgs: Vec<_> = shares.iter().map(|s| Te::reshare(&mut r, &pk, s)).collect();
        for m in &msgs {
            assert!(Te::reshare_is_valid(&pk, m));
        }
        // Next committee uses providers {1, 3, 5}.
        let chosen: Vec<&ReshareMsg<F61>> = vec![&msgs[1], &msgs[3], &msgs[5]];
        let new_shares: Vec<_> =
            (0..6).map(|j| Te::recombine_key(&pk, j, &chosen).unwrap()).collect();
        let new_pk = Te::next_public_key(&pk, &chosen).unwrap();
        // Same h and g, new consistent vks.
        assert_eq!(new_pk.h, pk.h);
        for (j, s) in new_shares.iter().enumerate() {
            assert_eq!(new_pk.vks[j], s.value * pk.g);
        }
        // Fresh shares still decrypt old ciphertexts.
        let (ct, _) = Te::encrypt(&mut r, &pk, f(4242));
        assert_eq!(Te::decrypt_with_shares(&new_pk, &ct, &new_shares).unwrap(), f(4242));
    }

    #[test]
    fn reshare_tampering_detected() {
        let (pk, shares, mut r) = setup(5, 2);
        let mut msg = Te::reshare(&mut r, &pk, &shares[0]);
        assert!(Te::reshare_is_valid(&pk, &msg));
        msg.subshares[2] += F61::ONE;
        assert!(!Te::reshare_is_valid(&pk, &msg));
        let mut msg2 = Te::reshare(&mut r, &pk, &shares[1]);
        msg2.commitments[0] += F61::ONE; // no longer matches vk
        assert!(!Te::reshare_is_valid(&pk, &msg2));
    }

    #[test]
    fn sim_partial_decrypt_is_consistent_with_corrupt_shares() {
        let (pk, shares, mut r) = setup(7, 3);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(1000));
        let target = f(5555); // simulate decryption to a *different* value
        let corrupt: Vec<_> =
            shares[..3].iter().map(|s| Te::partial_decrypt(s, &ct)).collect();
        let honest =
            Te::sim_partial_decrypt(&mut r, &pk, &ct, target, &corrupt, &[3, 4, 5, 6]).unwrap();
        // Mixing corrupt partials with simulated honest ones yields the target.
        let mut all = corrupt.clone();
        all.extend_from_slice(&honest);
        assert_eq!(Te::combine(&pk, &ct, &all).unwrap(), target);
        // Any t+1 subset too.
        let mix = vec![corrupt[0], corrupt[2], honest[1], honest[3]];
        assert_eq!(Te::combine(&pk, &ct, &mix).unwrap(), target);
    }

    #[test]
    fn sim_partial_decrypt_rejects_too_many_corrupt() {
        let (pk, shares, mut r) = setup(5, 1);
        let (ct, _) = Te::encrypt(&mut r, &pk, f(1));
        let corrupt: Vec<_> =
            shares[..2].iter().map(|s| Te::partial_decrypt(s, &ct)).collect();
        assert!(Te::sim_partial_decrypt(&mut r, &pk, &ct, f(0), &corrupt, &[3]).is_err());
    }

    #[test]
    fn debug_output_redacts_key_material() {
        let (pk, shares, mut r) = setup(4, 1);
        // Key shares are random 61-bit field elements: their decimal
        // rendering is ~19 digits, far too long to collide with the
        // party index or struct framing.
        let rendered = format!("{:?}", shares[0]);
        assert!(rendered.contains("redacted"), "{rendered}");
        let digits = shares[0].value.as_u64().to_string();
        assert!(!rendered.contains(&digits), "Debug leaks the share value: {rendered}");

        let msg = Te::reshare(&mut r, &pk, &shares[0]);
        let rendered = format!("{:?}", msg);
        assert!(rendered.contains("redacted"), "{rendered}");
        for sub in &msg.subshares {
            let digits = sub.as_u64().to_string();
            assert!(!rendered.contains(&digits), "Debug leaks a subshare: {rendered}");
        }

        let kp = LinearPke::<F61>::keygen(&mut r);
        let rendered = format!("{:?}", kp);
        assert!(rendered.contains("redacted"), "{rendered}");
        let digits = kp.secret.scalar.as_u64().to_string();
        assert!(!rendered.contains(&digits), "Debug leaks the PKE scalar: {rendered}");
    }
}
