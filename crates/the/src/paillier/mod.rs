//! Threshold Paillier encryption (Damgård–Jurik style).
//!
//! The faithful cryptographic instantiation of the paper's TE scheme
//! (§4.1), built entirely on the from-scratch `yoso-bignum`:
//!
//! - **Key generation** samples an RSA modulus `N = p·q`, sets
//!   `λ = lcm(p−1, q−1)` and the decryption exponent `d` with
//!   `d ≡ 0 (mod λ)`, `d ≡ 1 (mod N)`. `d` is Shamir-shared with a
//!   degree-`t` *integer* polynomial; the classic `Δ = n!` scaling
//!   makes Lagrange combining integral.
//! - **Encryption**: `c = (1+N)^m · r^N mod N²` (the `(1+N)^m` power is
//!   computed as `1 + mN mod N²`).
//! - **Partial decryption** by party `i`: `d_i = c^{2Δ·s_i} mod N²`,
//!   with a discrete-log-equality NIZK against the verification key
//!   `v_i = v^{Δ·s_i}` ([`nizk`]).
//! - **Combining** `t+1` partials with `Δ`-scaled integer Lagrange
//!   coefficients yields `(1+N)^{4Δ²·scale·m}`; the plaintext is
//!   recovered as `L(c′)·(4Δ²·scale)^{-1} mod N` where
//!   `L(u) = (u−1)/N`.
//! - **Key re-sharing** (`TKRes`/`TKRec`): each member deals a
//!   degree-`t` integer sub-sharing of `Δ·s_i` with verification
//!   values `v^{b_l}`; recipients combine with `Δ`-scaled Lagrange
//!   coefficients. Every handover multiplies the tracked `scale`
//!   factor by `Δ²`, which [`ThresholdPaillier::combine`] divides out.
//!   (This is the `n!`-growth the paper mentions when discussing class
//!   groups in §7 — inherent to integer secret sharing.)
//!
//! Partial-decryption *simulatability* holds statistically for this
//! scheme (Damgård–Jurik); the executable `SimTPDec` oracle used by the
//! security tests is implemented on the mock scheme, where simulation
//! is perfect — see DESIGN.md §3.

pub mod fixed_base;
pub mod multi_exp;
pub mod nizk;
pub mod packing;

pub use fixed_base::{EncryptionContext, FixedBaseTable};
pub use multi_exp::{multi_exp, multi_exp_nat};

use rand::Rng;

use yoso_bignum::{prime, Int, MontgomeryCtx, Nat, Sign};

use crate::TeError;

/// Public key and threshold parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    /// The modulus `N = p·q`.
    pub n_mod: Nat,
    /// `N²` (cached).
    pub n_sq: Nat,
    /// Committee size.
    pub parties: usize,
    /// Corruption threshold (any `t+1` partials decrypt).
    pub threshold: usize,
    /// `Δ = parties!`.
    pub delta: Nat,
    /// Verification base `v` (a random square in `Z_{N²}^*`).
    pub v: Nat,
    /// Verification keys `v_i = v^{Δ·s_i} mod N²`.
    pub vks: Vec<Nat>,
}

/// A party's share of the decryption exponent.
///
/// `value` is `f(party+1)` for the current integer sharing polynomial
/// `f` with `f(0) = scale·d`. Freshly generated keys have `scale = 1`;
/// each re-sharing multiplies `scale` by `Δ²`.
#[derive(Clone, PartialEq, Eq)]
pub struct KeyShare {
    /// 0-based party index.
    pub party: usize,
    /// The (signed) integer share.
    pub value: Int,
    /// The accumulated scaling factor of the shared secret.
    pub scale: Nat,
}

// lint:redact: prints the party index and share width only — never the
// share limbs themselves.
impl std::fmt::Debug for KeyShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyShare")
            .field("party", &self.party)
            .field("value", &format_args!("<redacted {} bits>", self.value.magnitude().bit_len()))
            .field("scale_bits", &self.scale.bit_len())
            .finish()
    }
}

/// A Paillier ciphertext (an element of `Z_{N²}^*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    /// The ciphertext value.
    pub value: Nat,
}

/// A partial decryption `d_i = c^{2Δ·s_i} mod N²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialDec {
    /// 0-based party index.
    pub party: usize,
    /// The partial value.
    pub value: Nat,
}

/// A key re-share message: verification values for the sub-sharing
/// polynomial plus one integer subshare per recipient.
///
/// In a real deployment the subshares travel encrypted to their
/// recipients; this algebra layer exposes them in the clear and the
/// protocol layer handles confidentiality.
#[derive(Clone, PartialEq, Eq)]
pub struct ReshareMsg {
    /// 0-based index of the re-sharing party.
    pub from: usize,
    /// Verification values `V_l = v^{b_l} mod N²` for the sub-sharing
    /// polynomial `g(X) = Σ b_l X^l` with `b_0 = Δ·s_i`.
    pub commitments: Vec<Nat>,
    /// `subshares[j] = g(j+1)` for recipient `j`.
    pub subshares: Vec<Int>,
}

// lint:redact: prints the sender, commitment count and subshare count —
// the commitments are public verification values, the subshares are not
// printed.
impl std::fmt::Debug for ReshareMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReshareMsg")
            .field("from", &self.from)
            .field("commitments", &self.commitments.len())
            .field("subshares", &format_args!("<{} redacted>", self.subshares.len()))
            .finish()
    }
}

/// The threshold Paillier scheme (stateless; all state in keys).
#[derive(Debug, Clone, Copy)]
pub struct ThresholdPaillier;

/// Raises `base` to a signed exponent modulo `m` (negative exponents
/// use the modular inverse of the base).
///
/// # Panics
///
/// Panics if the exponent is negative and the base is not invertible.
pub(crate) fn pow_signed(base: &Nat, e: &Int, m: &Nat) -> Nat {
    match e.sign() {
        Sign::Zero => Nat::one(),
        Sign::Positive => base.mod_pow(e.magnitude(), m),
        Sign::Negative => base
            .mod_inv(m)
            // lint:allow(panic): documented `# Panics` contract — callers
            // pass bases in Z_{N²}^*, where inversion cannot fail unless
            // the caller has already factored N.
            .expect("pow_signed: base not invertible")
            .mod_pow(e.magnitude(), m),
    }
}

/// Computes the `Δ`-scaled integer Lagrange coefficient
/// `μ_j = Δ·λ^S_{0,j}` for the node set `points` (1-based x values) at
/// target 0. The `Δ = n!` factor clears all denominators.
pub(crate) fn delta_lagrange_at_zero(delta: &Nat, points: &[u64], j: usize) -> Int {
    let mut num = Int::from_nat(delta.clone());
    let mut den = Int::one();
    let xj = points[j] as i64;
    for (idx, &xm) in points.iter().enumerate() {
        if idx == j {
            continue;
        }
        num = &num * &Int::from(-(xm as i64));
        den = &den * &Int::from(xj - xm as i64);
    }
    num.div_exact(&den)
}

/// Evaluates the polynomial with signed integer coefficients at `x`.
fn poly_eval_int(coeffs: &[Int], x: u64) -> Int {
    let xn = Nat::from(x);
    let mut acc = Int::zero();
    for c in coeffs.iter().rev() {
        acc = &acc.mul_nat(&xn) + c;
    }
    acc
}

impl ThresholdPaillier {
    /// `TKGen`: generates an `N` of `2·prime_bits` bits and shares the
    /// decryption exponent among `parties` with threshold `threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`TeError::BadParameters`] if `threshold >= parties` or
    /// `parties == 0`.
    pub fn keygen<R: Rng + ?Sized>(
        rng: &mut R,
        prime_bits: usize,
        parties: usize,
        threshold: usize,
    ) -> Result<(PublicKey, Vec<KeyShare>), TeError> {
        if parties == 0 || threshold >= parties {
            return Err(TeError::BadParameters { n: parties, t: threshold });
        }
        let (p, q) = prime::generate_paillier_primes(rng, prime_bits);
        let n_mod = &p * &q;
        let n_sq = &n_mod * &n_mod;
        let one = Nat::one();
        let lambda = (&p - &one).lcm(&(&q - &one));
        // d ≡ 0 mod λ, d ≡ 1 mod N:  d = λ·(λ^{-1} mod N).
        // lint:allow(panic): gcd(λ, N) = 1 by construction — λ divides
        // (p−1)(q−1) and N = p·q for distinct primes p, q just generated.
        let lambda_inv = lambda.mod_inv(&n_mod).expect("gcd(λ, N) = 1 by construction");
        let d = &lambda * &lambda_inv;

        // Integer Shamir sharing of d with coefficients below N·λ.
        let coeff_bound = &n_mod * &lambda;
        let mut coeffs: Vec<Int> = vec![Int::from_nat(d)];
        for _ in 0..threshold {
            coeffs.push(Int::from_nat(Nat::random_below(rng, &coeff_bound)));
        }
        let delta = Nat::factorial(parties as u64);
        let shares: Vec<KeyShare> = (0..parties)
            .map(|i| KeyShare {
                party: i,
                value: poly_eval_int(&coeffs, i as u64 + 1),
                scale: Nat::one(),
            })
            .collect();

        // Verification base: a random square in Z_{N²}^*.
        let v = loop {
            let r = Nat::random_below(rng, &n_sq);
            if r.gcd(&n_mod).is_one() {
                break r.mod_mul(&r, &n_sq);
            }
        };
        let vks = shares
            .iter()
            .map(|s| {
                let exp = s.value.mul_nat(&delta);
                pow_signed(&v, &exp, &n_sq)
            })
            .collect();

        Ok((PublicKey { n_mod, n_sq, parties, threshold, delta, v, vks }, shares))
    }

    /// `TEnc`: encrypts `m ∈ [0, N)`, returning the ciphertext and the
    /// randomness `r ∈ Z_N^*` (needed by the NIZK prover).
    ///
    /// # Panics
    ///
    /// Panics if `m >= N`.
    pub fn encrypt<R: Rng + ?Sized>(rng: &mut R, pk: &PublicKey, m: &Nat) -> (Ciphertext, Nat) {
        assert!(m < &pk.n_mod, "plaintext out of range");
        let r = loop {
            let cand = Nat::random_below(rng, &pk.n_mod);
            if !cand.is_zero() && cand.gcd(&pk.n_mod).is_one() {
                break cand;
            }
        };
        (Self::encrypt_with(pk, m, &r), r)
    }

    /// Deterministic encryption with caller-chosen randomness.
    pub fn encrypt_with(pk: &PublicKey, m: &Nat, r: &Nat) -> Ciphertext {
        // (1+N)^m = 1 + mN (mod N²).
        let g_m = (&Nat::one() + &(m.mod_mul(&pk.n_mod, &pk.n_sq))) % &pk.n_sq;
        let r_n = r.mod_pow(&pk.n_mod, &pk.n_sq);
        Ciphertext { value: g_m.mod_mul(&r_n, &pk.n_sq) }
    }

    /// `TEval`: homomorphic linear combination `Σ coeffs_i · m_i`
    /// computed as `Π c_i^{coeff_i} mod N²` — one Straus/Pippenger
    /// multi-exponentiation sharing a single squaring chain across all
    /// terms ([`multi_exp()`]), instead of one full ladder per term.
    ///
    /// # Errors
    ///
    /// Returns [`TeError::LengthMismatch`] on malformed input.
    pub fn eval(pk: &PublicKey, cts: &[&Ciphertext], coeffs: &[Int]) -> Result<Ciphertext, TeError> {
        if cts.len() != coeffs.len() || cts.is_empty() {
            return Err(TeError::LengthMismatch { a: cts.len(), b: coeffs.len() });
        }
        let ctx = MontgomeryCtx::new(&pk.n_sq);
        let bases: Vec<Nat> = cts.iter().map(|ct| ct.value.clone()).collect();
        let value = multi_exp::multi_exp(&ctx, &bases, coeffs)?;
        Ok(Ciphertext { value })
    }

    /// Adds a public constant to the plaintext: `c · (1+N)^m`.
    pub fn add_plain(pk: &PublicKey, ct: &Ciphertext, m: &Nat) -> Ciphertext {
        let g_m = (&Nat::one() + &(m.mod_mul(&pk.n_mod, &pk.n_sq))) % &pk.n_sq;
        Ciphertext { value: ct.value.mod_mul(&g_m, &pk.n_sq) }
    }

    /// `TPDec`: `d_i = c^{2Δ·s_i} mod N²`.
    pub fn partial_decrypt(pk: &PublicKey, share: &KeyShare, ct: &Ciphertext) -> PartialDec {
        let exp = share.value.mul_nat(&(&pk.delta * &Nat::from(2u64)));
        PartialDec { party: share.party, value: pow_signed(&ct.value, &exp, &pk.n_sq) }
    }

    /// `TPDec` over a batch of ciphertexts: computes the (large) shared
    /// exponent `2Δ·s_i`, its sign, its window decomposition, and the
    /// Montgomery context for `N²` once, then drives every ciphertext
    /// through [`multi_exp::fixed_exponent_powers`] (shared digit
    /// schedule + dedicated Montgomery squaring).
    pub fn partial_decrypt_batch(
        pk: &PublicKey,
        share: &KeyShare,
        cts: &[Ciphertext],
    ) -> Vec<PartialDec> {
        let exp = share.value.mul_nat(&(&pk.delta * &Nat::from(2u64)));
        let ctx = MontgomeryCtx::new(&pk.n_sq);
        // Resolve the exponent's sign once for the whole batch: a
        // negative share exponentiates the ciphertext *inverses*.
        let bases: Vec<Nat> = match exp.sign() {
            Sign::Zero => return cts.iter().map(|_| PartialDec { party: share.party, value: Nat::one() }).collect(),
            Sign::Positive => cts.iter().map(|ct| ct.value.clone()).collect(),
            Sign::Negative => cts
                .iter()
                .map(|ct| {
                    ct.value
                        .mod_inv(&pk.n_sq)
                        // lint:allow(panic): same contract as `pow_signed` —
                        // ciphertexts live in Z_{N²}^*, so inversion fails
                        // only if N is factored.
                        .expect("partial_decrypt_batch: ciphertext not invertible")
                })
                .collect(),
        };
        multi_exp::fixed_exponent_powers(&ctx, &bases, exp.magnitude())
            .into_iter()
            .map(|value| PartialDec { party: share.party, value })
            .collect()
    }

    /// `TDec`: combines at least `t+1` partial decryptions produced by
    /// shares at the given `scale`.
    ///
    /// # Errors
    ///
    /// - [`TeError::NotEnoughPartials`] with fewer than `t+1`.
    /// - [`TeError::BadParty`] on duplicates / out-of-range.
    /// - [`TeError::MalformedCiphertext`] if the combination does not
    ///   land in the `1 + kN` subgroup (some partial was wrong).
    pub fn combine(
        pk: &PublicKey,
        partials: &[PartialDec],
        scale: &Nat,
    ) -> Result<Nat, TeError> {
        let ctx = MontgomeryCtx::new(&pk.n_sq);
        let inv = Self::combine_scale_inv(pk, scale)?;
        Self::combine_inner(pk, &ctx, partials, None, &inv)
    }

    /// `TDec` over a batch of partial-decryption sets (one set per
    /// ciphertext of an epoch, each holding ≥ `t+1` partials).
    ///
    /// Amortizes across the batch everything `combine` recomputes per
    /// call: the Montgomery context for `N²`, the inverse of
    /// `4Δ²·scale`, and — whenever consecutive sets list the same
    /// parties in the same order, the common case for an epoch's
    /// decryption committee — the `Δ`-scaled Lagrange exponents
    /// `2μ_j`. Each set then costs one Straus multi-exponentiation.
    ///
    /// # Errors
    ///
    /// Same per-set errors as [`Self::combine`].
    pub fn combine_batch(
        pk: &PublicKey,
        partial_sets: &[Vec<PartialDec>],
        scale: &Nat,
    ) -> Result<Vec<Nat>, TeError> {
        let ctx = MontgomeryCtx::new(&pk.n_sq);
        let inv = Self::combine_scale_inv(pk, scale)?;
        let mut cached: Option<(Vec<u64>, Vec<Int>)> = None;
        let mut out = Vec::with_capacity(partial_sets.len());
        for partials in partial_sets {
            let need = pk.threshold + 1;
            if partials.len() >= need {
                let points: Vec<u64> =
                    partials[..need].iter().map(|p| p.party as u64 + 1).collect();
                let reuse = cached.as_ref().is_some_and(|(pts, _)| *pts == points);
                if !reuse {
                    let exps: Vec<Int> = (0..need)
                        .map(|j| &delta_lagrange_at_zero(&pk.delta, &points, j) * &Int::from(2i64))
                        .collect();
                    cached = Some((points, exps));
                }
            }
            let exps = cached.as_ref().map(|(_, e)| e.as_slice());
            out.push(Self::combine_inner(pk, &ctx, partials, exps, &inv)?);
        }
        Ok(out)
    }

    /// `(4Δ²·scale)^{-1} mod N` — the final unscaling factor shared by
    /// every combine of an epoch.
    fn combine_scale_inv(pk: &PublicKey, scale: &Nat) -> Result<Nat, TeError> {
        let four_delta_sq =
            (&(&pk.delta * &pk.delta) * &Nat::from(4u64)).mod_mul(scale, &pk.n_mod);
        four_delta_sq.mod_inv(&pk.n_mod).ok_or(TeError::MalformedCiphertext)
    }

    /// Validates one partial set and combines it. `cached_exps`, when
    /// given, must be the `2μ_j` exponents for exactly this set's first
    /// `t+1` party points (the caller checks).
    fn combine_inner(
        pk: &PublicKey,
        ctx: &MontgomeryCtx,
        partials: &[PartialDec],
        cached_exps: Option<&[Int]>,
        scale_inv: &Nat,
    ) -> Result<Nat, TeError> {
        let need = pk.threshold + 1;
        if partials.len() < need {
            return Err(TeError::NotEnoughPartials { got: partials.len(), need });
        }
        let mut seen = vec![false; pk.parties];
        for p in partials {
            if p.party >= pk.parties || seen[p.party] {
                return Err(TeError::BadParty(p.party));
            }
            seen[p.party] = true;
        }
        let subset = &partials[..need];
        let owned_exps: Vec<Int>;
        let exps: &[Int] = match cached_exps {
            Some(e) => e,
            None => {
                let points: Vec<u64> = subset.iter().map(|p| p.party as u64 + 1).collect();
                owned_exps = (0..need)
                    .map(|j| &delta_lagrange_at_zero(&pk.delta, &points, j) * &Int::from(2i64))
                    .collect();
                &owned_exps
            }
        };
        // acc = Π dⱼ^{2μⱼ} = (1+N)^{4Δ²·scale·m} in one multi-exp.
        let bases: Vec<Nat> = subset.iter().map(|p| p.value.clone()).collect();
        let acc = multi_exp::multi_exp(ctx, &bases, exps)?;
        // Recover via L(u) = (u−1)/N.
        let minus_one = acc.checked_sub(&Nat::one()).ok_or(TeError::MalformedCiphertext)?;
        let (l, rem) = minus_one.div_rem(&pk.n_mod);
        if !rem.is_zero() {
            return Err(TeError::MalformedCiphertext);
        }
        Ok(l.mod_mul(scale_inv, &pk.n_mod))
    }

    /// Verifies a partial decryption against the verification keys via
    /// the DLEQ NIZK. See [`nizk::PdecProof`].
    pub fn partial_is_valid(
        pk: &PublicKey,
        ct: &Ciphertext,
        pd: &PartialDec,
        proof: &nizk::PdecProof,
    ) -> bool {
        nizk::verify_pdec(pk, ct, pd, proof)
    }

    /// `TKRes`: deals a degree-`t` integer sub-sharing of `Δ·s_i` with
    /// verification values.
    pub fn reshare<R: Rng + ?Sized>(
        rng: &mut R,
        pk: &PublicKey,
        share: &KeyShare,
    ) -> ReshareMsg {
        // Coefficient bound: statistically hides Δ·s_i at each point.
        let bound = &(&pk.n_sq * &pk.delta) << 64;
        let mut coeffs: Vec<Int> = vec![share.value.mul_nat(&pk.delta)];
        for _ in 0..pk.threshold {
            coeffs.push(Int::from_nat(Nat::random_below(rng, &bound)));
        }
        let commitments = coeffs.iter().map(|b| pow_signed(&pk.v, b, &pk.n_sq)).collect();
        let subshares = (0..pk.parties).map(|j| poly_eval_int(&coeffs, j as u64 + 1)).collect();
        ReshareMsg { from: share.party, commitments, subshares }
    }

    /// `TKRes` for a whole committee handover: every member of `shares`
    /// deals its sub-sharing, with one fixed-base table for the
    /// verification base `v` shared across all `(t+1)·|shares|`
    /// commitments.
    ///
    /// Draws randomness in the same order as sequential [`Self::reshare`]
    /// calls, so under the same RNG stream the messages are identical.
    pub fn reshare_batch<R: Rng + ?Sized>(
        rng: &mut R,
        pk: &PublicKey,
        shares: &[KeyShare],
    ) -> Vec<ReshareMsg> {
        let bound = &(&pk.n_sq * &pk.delta) << 64;
        // The constant term Δ·s_i can outgrow the random coefficients
        // after repeated handovers (scale grows by Δ² each time); size
        // the table generously and let `pow` fall back beyond it.
        let exp_bits = bound.bit_len()
            + shares.iter().map(|s| s.value.magnitude().bit_len()).max().unwrap_or(0);
        let v_table = FixedBaseTable::new(&pk.v, &pk.n_sq, exp_bits);
        shares
            .iter()
            .map(|share| {
                let mut coeffs: Vec<Int> = vec![share.value.mul_nat(&pk.delta)];
                for _ in 0..pk.threshold {
                    coeffs.push(Int::from_nat(Nat::random_below(rng, &bound)));
                }
                let commitments = coeffs.iter().map(|b| v_table.pow_signed(b)).collect();
                let subshares =
                    (0..pk.parties).map(|j| poly_eval_int(&coeffs, j as u64 + 1)).collect();
                ReshareMsg { from: share.party, commitments, subshares }
            })
            .collect()
    }

    /// Verifies the Feldman-style consistency of a subshare received
    /// from a re-share message: `v^{subshare} == Π V_l^{x^l}` and
    /// `V_0 == vk_from` (the constant term is really `Δ·s_i`).
    pub fn reshare_subshare_is_valid(pk: &PublicKey, msg: &ReshareMsg, recipient: usize) -> bool {
        if msg.from >= pk.parties
            || msg.commitments.len() != pk.threshold + 1
            || msg.subshares.len() != pk.parties
            || recipient >= pk.parties
            || msg.commitments[0] != pk.vks[msg.from]
        {
            return false;
        }
        // Π V_l^{x^l} as one Straus multi-exp over the shared context.
        let ctx = MontgomeryCtx::new(&pk.n_sq);
        let x = Nat::from(recipient as u64 + 1);
        let mut xps = Vec::with_capacity(msg.commitments.len());
        let mut xp = Nat::one();
        for _ in &msg.commitments {
            xps.push(xp.clone());
            xp = &xp * &x;
        }
        let Ok(expected) = multi_exp::multi_exp_nat(&ctx, &msg.commitments, &xps) else {
            return false;
        };
        pow_signed(&pk.v, &msg.subshares[recipient], &pk.n_sq) == expected
    }

    /// `TKRec`: combines the subshares addressed to `recipient` from
    /// `t+1` re-share messages into a fresh key share. The new share's
    /// `scale` is the old scale times `Δ²`.
    ///
    /// # Errors
    ///
    /// - [`TeError::NotEnoughPartials`] with fewer than `t+1` messages.
    /// - [`TeError::BadParty`] on duplicate providers.
    pub fn recombine_key(
        pk: &PublicKey,
        recipient: usize,
        msgs: &[&ReshareMsg],
        old_scale: &Nat,
    ) -> Result<KeyShare, TeError> {
        let need = pk.threshold + 1;
        if msgs.len() < need {
            return Err(TeError::NotEnoughPartials { got: msgs.len(), need });
        }
        let head = &msgs[..need];
        let points: Vec<u64> = head.iter().map(|m| m.from as u64 + 1).collect();
        let mut seen = std::collections::HashSet::new();
        for &p in &points {
            if !seen.insert(p) {
                return Err(TeError::BadParty(p as usize - 1));
            }
        }
        let mut value = Int::zero();
        for (j, msg) in head.iter().enumerate() {
            let mu = delta_lagrange_at_zero(&pk.delta, &points, j);
            value = &value + &(&mu * &msg.subshares[recipient]);
        }
        let scale = &(&pk.delta * &pk.delta) * old_scale;
        Ok(KeyShare { party: recipient, value, scale })
    }

    /// Derives the next committee's verification keys from `t+1`
    /// verified re-share messages — a public computation.
    ///
    /// # Errors
    ///
    /// Returns [`TeError::NotEnoughPartials`] with fewer than `t+1`.
    pub fn next_verification_keys(
        pk: &PublicKey,
        msgs: &[&ReshareMsg],
    ) -> Result<Vec<Nat>, TeError> {
        let need = pk.threshold + 1;
        if msgs.len() < need {
            return Err(TeError::NotEnoughPartials { got: msgs.len(), need });
        }
        let head = &msgs[..need];
        let points: Vec<u64> = head.iter().map(|m| m.from as u64 + 1).collect();
        let ctx = MontgomeryCtx::new(&pk.n_sq);
        let outer_exps: Vec<Int> = (0..need)
            .map(|i| delta_lagrange_at_zero(&pk.delta, &points, i).mul_nat(&pk.delta))
            .collect();
        let mut vks = Vec::with_capacity(pk.parties);
        for j in 0..pk.parties {
            // v^{Δ·s'_j} = Π_i ( Π_l V_{i,l}^{(j+1)^l} )^{Δ·μ_i}
            // where s'_j = Σ μ_i·g_i(j+1); note the extra Δ: the new vks
            // correspond to the new shares at their own scale. Both the
            // inner Feldman evaluations and the outer Lagrange product
            // are Straus multi-exps over the shared context.
            let x = Nat::from(j as u64 + 1);
            let mut inners = Vec::with_capacity(need);
            for msg in head {
                let mut xps = Vec::with_capacity(msg.commitments.len());
                let mut xp = Nat::one();
                for _ in &msg.commitments {
                    xps.push(xp.clone());
                    xp = &xp * &x;
                }
                inners.push(multi_exp::multi_exp_nat(&ctx, &msg.commitments, &xps)?);
            }
            vks.push(multi_exp::multi_exp(&ctx, &inners, &outer_exps)?);
        }
        Ok(vks)
    }

    /// Test helper: decrypts with the first `t+1` shares.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::combine`] errors.
    pub fn decrypt_with_shares(
        pk: &PublicKey,
        ct: &Ciphertext,
        shares: &[KeyShare],
    ) -> Result<Nat, TeError> {
        let partials: Vec<PartialDec> = shares
            .iter()
            .take(pk.threshold + 1)
            .map(|s| Self::partial_decrypt(pk, s, ct))
            .collect();
        let scale = shares.first().map(|s| s.scale.clone()).unwrap_or_else(Nat::one);
        Self::combine(pk, &partials, &scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const BITS: usize = 128; // small primes: fast tests, same algebra

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    fn setup(n: usize, t: usize) -> (PublicKey, Vec<KeyShare>, rand::rngs::StdRng) {
        let mut r = rng();
        let (pk, shares) = ThresholdPaillier::keygen(&mut r, BITS, n, t).unwrap();
        (pk, shares, r)
    }

    #[test]
    fn keygen_validates() {
        let mut r = rng();
        assert!(ThresholdPaillier::keygen(&mut r, BITS, 3, 3).is_err());
        assert!(ThresholdPaillier::keygen(&mut r, BITS, 0, 0).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (pk, shares, mut r) = setup(4, 1);
        for m in [Nat::zero(), Nat::one(), Nat::from(123_456_789u64)] {
            let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
            let got = ThresholdPaillier::decrypt_with_shares(&pk, &ct, &shares).unwrap();
            assert_eq!(got, m);
        }
    }

    #[test]
    fn large_plaintext_near_modulus() {
        let (pk, shares, mut r) = setup(3, 1);
        let m = &pk.n_mod - &Nat::from(7u64);
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
        assert_eq!(ThresholdPaillier::decrypt_with_shares(&pk, &ct, &shares).unwrap(), m);
    }

    #[test]
    fn any_subset_decrypts() {
        let (pk, shares, mut r) = setup(5, 2);
        let m = Nat::from(424_242u64);
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
        for subset in [[0usize, 1, 2], [2, 3, 4], [0, 2, 4]] {
            let partials: Vec<_> = subset
                .iter()
                .map(|&i| ThresholdPaillier::partial_decrypt(&pk, &shares[i], &ct))
                .collect();
            assert_eq!(ThresholdPaillier::combine(&pk, &partials, &Nat::one()).unwrap(), m);
        }
    }

    #[test]
    fn too_few_partials_rejected() {
        let (pk, shares, mut r) = setup(5, 2);
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &Nat::one());
        let partials: Vec<_> = shares[..2]
            .iter()
            .map(|s| ThresholdPaillier::partial_decrypt(&pk, s, &ct))
            .collect();
        assert!(matches!(
            ThresholdPaillier::combine(&pk, &partials, &Nat::one()),
            Err(TeError::NotEnoughPartials { got: 2, need: 3 })
        ));
    }

    #[test]
    fn homomorphic_linear_combination() {
        let (pk, shares, mut r) = setup(3, 1);
        let m1 = Nat::from(100u64);
        let m2 = Nat::from(23u64);
        let (c1, _) = ThresholdPaillier::encrypt(&mut r, &pk, &m1);
        let (c2, _) = ThresholdPaillier::encrypt(&mut r, &pk, &m2);
        // 3·m1 − 2·m2 = 254 (mod N).
        let combo =
            ThresholdPaillier::eval(&pk, &[&c1, &c2], &[Int::from(3i64), Int::from(-2i64)])
                .unwrap();
        let got = ThresholdPaillier::decrypt_with_shares(&pk, &combo, &shares).unwrap();
        assert_eq!(got, Nat::from(254u64));
    }

    #[test]
    fn add_plain_works() {
        let (pk, shares, mut r) = setup(3, 1);
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &Nat::from(5u64));
        let shifted = ThresholdPaillier::add_plain(&pk, &ct, &Nat::from(37u64));
        assert_eq!(
            ThresholdPaillier::decrypt_with_shares(&pk, &shifted, &shares).unwrap(),
            Nat::from(42u64)
        );
    }

    #[test]
    fn reshare_preserves_key() {
        let (pk, shares, mut r) = setup(4, 1);
        let msgs: Vec<_> =
            shares.iter().map(|s| ThresholdPaillier::reshare(&mut r, &pk, s)).collect();
        for (i, m) in msgs.iter().enumerate() {
            for j in 0..4 {
                assert!(
                    ThresholdPaillier::reshare_subshare_is_valid(&pk, m, j),
                    "msg {i} recipient {j}"
                );
            }
        }
        let chosen: Vec<&ReshareMsg> = vec![&msgs[1], &msgs[3]];
        let new_shares: Vec<_> = (0..4)
            .map(|j| ThresholdPaillier::recombine_key(&pk, j, &chosen, &Nat::one()).unwrap())
            .collect();
        // New shares decrypt ciphertexts produced under the same pk.
        let m = Nat::from(777u64);
        let (ct, _) = ThresholdPaillier::encrypt(&mut r, &pk, &m);
        let got = ThresholdPaillier::decrypt_with_shares(&pk, &ct, &new_shares).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn reshare_tampering_detected() {
        let (pk, shares, mut r) = setup(3, 1);
        let mut msg = ThresholdPaillier::reshare(&mut r, &pk, &shares[0]);
        assert!(ThresholdPaillier::reshare_subshare_is_valid(&pk, &msg, 1));
        msg.subshares[1] = &msg.subshares[1] + &Int::one();
        assert!(!ThresholdPaillier::reshare_subshare_is_valid(&pk, &msg, 1));
    }

    #[test]
    fn partial_decrypt_batch_matches_single() {
        let (pk, shares, mut r) = setup(4, 1);
        let cts: Vec<Ciphertext> = (0..5u64)
            .map(|m| ThresholdPaillier::encrypt(&mut r, &pk, &Nat::from(m)).0)
            .collect();
        for share in &shares {
            let batch = ThresholdPaillier::partial_decrypt_batch(&pk, share, &cts);
            for (ct, pd) in cts.iter().zip(&batch) {
                assert_eq!(pd, &ThresholdPaillier::partial_decrypt(&pk, share, ct));
            }
        }
    }

    #[test]
    fn reshare_batch_matches_sequential() {
        let (pk, shares, r) = setup(4, 1);
        let mut r_a = r.clone();
        let mut r_b = r;
        let batch = ThresholdPaillier::reshare_batch(&mut r_a, &pk, &shares);
        for (share, msg) in shares.iter().zip(&batch) {
            assert_eq!(msg, &ThresholdPaillier::reshare(&mut r_b, &pk, share));
        }
        // And the batched messages drive a full handover.
        let chosen: Vec<&ReshareMsg> = vec![&batch[0], &batch[2]];
        let new_shares: Vec<_> = (0..4)
            .map(|j| ThresholdPaillier::recombine_key(&pk, j, &chosen, &Nat::one()).unwrap())
            .collect();
        let m = Nat::from(31_337u64);
        let (ct, _) = ThresholdPaillier::encrypt(&mut r_a, &pk, &m);
        assert_eq!(ThresholdPaillier::decrypt_with_shares(&pk, &ct, &new_shares).unwrap(), m);
    }

    #[test]
    fn delta_lagrange_interpolates_integer_polynomials() {
        // f(x) = 7 + 3x + 2x², nodes {1, 2, 3}: Δ·f(0) = Σ μ_j f(x_j).
        let delta = Nat::factorial(5);
        let points = [1u64, 2, 3];
        let f = |x: i64| Int::from(7 + 3 * x + 2 * x * x);
        let mut acc = Int::zero();
        for j in 0..3 {
            let mu = delta_lagrange_at_zero(&delta, &points, j);
            acc = &acc + &(&mu * &f(points[j] as i64));
        }
        assert_eq!(acc, Int::from(7i64).mul_nat(&delta));
    }

    #[test]
    fn debug_output_redacts_key_material() {
        let (pk, shares, mut r) = setup(3, 1);
        let rendered = format!("{:?}", shares[0]);
        assert!(rendered.contains("redacted"), "{rendered}");
        // The share value has >= 128 bits, so its decimal rendering is
        // far too long to appear by coincidence.
        let digits = format!("{}", shares[0].value.magnitude());
        assert!(!rendered.contains(&digits), "Debug leaks the share value: {rendered}");

        let msg = ThresholdPaillier::reshare(&mut r, &pk, &shares[0]);
        let rendered = format!("{:?}", msg);
        assert!(rendered.contains("redacted"), "{rendered}");
        for sub in &msg.subshares {
            let digits = format!("{}", sub.magnitude());
            assert!(!rendered.contains(&digits), "Debug leaks a subshare: {rendered}");
        }
    }
}
