//! Custody of the threshold secret key across committees.
//!
//! The threshold key `tsk` is Shamir-shared among the current
//! committee. A committee holding it can, each role speaking once:
//!
//! - **decrypt** ciphertexts publicly ([`TskChain::decrypt`], the
//!   paper's `Decrypt` / Protocol 2): each role posts cleartext
//!   partial decryptions with correctness NIZKs;
//! - **re-encrypt** ciphertexts to a target public key
//!   ([`TskChain::reencrypt`], the paper's `Re-encrypt` / Protocol 1):
//!   each role posts its partial decryptions *encrypted* under the
//!   target key, again with NIZKs — only the target learns the value;
//! - **hand over** the key to the next committee
//!   ([`TskChain::handover`], `TKRes`/`TKRec`): each role posts
//!   Feldman commitments plus subshares encrypted to the next
//!   committee's role keys, with a re-share NIZK; everyone derives the
//!   next verification keys publicly.
//!
//! Malicious roles post garbage (their proofs fail), silent/crashed
//! roles post nothing; all consumers filter to proof-verified
//! contributions, which under `t < n/2` always suffice — this is where
//! guaranteed output delivery comes from.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use yoso_crypto::Domain;
use yoso_field::PrimeField;
use yoso_pss_sharing::shamir::{PowerTable, ZeroWeights};
use yoso_runtime::{ActiveAttack, Behavior, BulletinBoard, Committee, LeakLog};
use yoso_the::mock::{Ciphertext, KeyShare, LinearPke, MockTe, PkeKeyPair, PkePublicKey, PublicKey};
use yoso_the::nizk::{self, DealMap, LinearMap, PdecMap, PdecProof, ReshareProof};

use crate::messages::{
    self, Post, CT_ELEMENTS, ENC_PDEC_PROOF_ELEMENTS, PDEC_ELEMENTS, PDEC_PROOF_ELEMENTS,
};
use crate::parallel::PostBuffer;
use crate::step::{Step, Turn};
use crate::{ExecutionConfig, ProtocolError};

/// One provider's encrypted partial decryption for a re-encrypted
/// value.
#[derive(Debug, Clone)]
pub struct ProviderPost<F: PrimeField> {
    /// 0-based index of the providing committee member.
    pub provider: usize,
    /// The partial decryption, encrypted under the target's key.
    pub ct: Ciphertext<F>,
    /// Whether the provider's NIZK verified.
    pub valid: bool,
}

/// A value re-encrypted from `tpk` to a target public key: the
/// collection of encrypted partial decryptions posted on the board.
///
/// The target opens it with its secret key; *anyone* can compute the
/// public opening coefficients `(a, b)` with `value = a − sk·b`, which
/// is what the online μ-share NIZK binds against.
#[derive(Debug, Clone)]
pub struct ReencryptedValue<F: PrimeField> {
    /// The target public key the partials are encrypted under.
    pub target: PkePublicKey<F>,
    /// The `v` component of the source ciphertext (public on the
    /// board): the opened value is `source_v − s·u_source`.
    pub source_v: F,
    /// Provider posts (all of them; consumers filter by `valid`).
    pub posts: Vec<ProviderPost<F>>,
    /// Threshold: `t + 1` valid posts are needed to open.
    pub t: usize,
    /// Recombination weights of the canonical subset, shared by every
    /// value of the batch opened by the same providers (`None` when
    /// fewer than `t + 1` posts are valid).
    weights: Option<Arc<ZeroWeights<F>>>,
}

impl<F: PrimeField> ReencryptedValue<F> {
    /// The canonical opening subset: the first `t + 1` valid posts.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` posts are valid.
    pub fn canonical_subset(&self) -> Result<Vec<&ProviderPost<F>>, ProtocolError> {
        let subset: Vec<&ProviderPost<F>> =
            self.posts.iter().filter(|p| p.valid).take(self.t + 1).collect();
        if subset.len() < self.t + 1 {
            return Err(ProtocolError::NotEnoughContributions {
                step: "re-encrypt opening",
                got: subset.len(),
                need: self.t + 1,
            });
        }
        Ok(subset)
    }

    /// The public opening coefficients `(a, b)` such that the
    /// underlying value equals `a − sk·b` for the target's secret
    /// key `sk`.
    ///
    /// The Lagrange recombination of the partial decryptions happens
    /// *inside* the ciphertexts: combining `(u_j, v_j)` with
    /// coefficients `w_j` yields an encryption of the combined partial
    /// `s·u_ct`, so `value = v_ct − (a_v − sk·a_u)` … folded into
    /// `(a, b)` below.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::canonical_subset`] errors.
    pub fn opening_coefficients(&self) -> Result<(F, F), ProtocolError> {
        let subset = self.canonical_subset()?;
        let w = self
            .weights
            .as_deref()
            .filter(|w| w.parties().iter().copied().eq(subset.iter().map(|p| p.provider)))
            .ok_or(ProtocolError::Invariant("opening weights do not match the canonical subset"))?;
        // Combined encrypted partial: Σ w_j (u_j, v_j) encrypts s·u_ct.
        let us: Vec<F> = subset.iter().map(|p| p.ct.u).collect();
        let vs: Vec<F> = subset.iter().map(|p| p.ct.v).collect();
        let (a_u, a_v) = (w.combine(&us), w.combine(&vs));
        // s·u_ct = a_v − sk·a_u; value = source_v − s·u_ct
        //        = (source_v − a_v) + sk·a_u  =  a − sk·b
        Ok((self.source_v - a_v, -a_u))
    }

    /// Opens the value with the target's secret key.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::opening_coefficients`] errors.
    pub fn open(&self, sk_scalar: F) -> Result<F, ProtocolError> {
        let (a, b) = self.opening_coefficients()?;
        Ok(a - sk_scalar * b)
    }
}

/// One committee's posted `tsk` re-share (handover) message.
#[derive(Debug, Clone)]
pub struct PostedReshare<F: PrimeField> {
    /// The providing member of the outgoing committee.
    pub from: usize,
    /// Feldman commitments to the sub-sharing polynomial.
    pub commitments: Vec<F>,
    /// Subshares encrypted to the next committee's role keys.
    pub enc_subshares: Vec<Ciphertext<F>>,
    /// Whether the re-share NIZK verified.
    pub valid: bool,
}

/// Recombination weights by canonical provider subset. A batch has one
/// entry unless some member's posts verify on only some of its items.
type WeightCache<F> = BTreeMap<Vec<usize>, Arc<ZeroWeights<F>>>;

/// The threshold key's custody state: the public key (with the current
/// committee's verification keys) plus each current member's share.
// lint:redact: the derived Debug delegates to KeyShare's redacted impl
// (party index only), so no share values are printed.
#[derive(Debug, Clone)]
pub struct TskChain<F: PrimeField> {
    /// The threshold public key (vks track the current committee).
    pub pk: PublicKey<F>,
    /// The current committee's shares (`None` = member never received
    /// or lost its share — e.g. crashed during handover).
    shares: Vec<Option<KeyShare<F>>>,
    /// Custody epoch (increments at each handover; used to label which
    /// sharing of `tsk` a corrupted member exposes).
    epoch: u64,
    /// The committee's points at degree `t`: `n` and `t` are the
    /// chain's for life, so every handover deals through this one.
    table: PowerTable<F>,
    /// Adversarial-view recorder (empty by default).
    leak: LeakLog,
}

impl<F: PrimeField> TskChain<F> {
    /// Initializes the chain by running `TKGen`, giving the shares to
    /// the first committee.
    ///
    /// # Errors
    ///
    /// Propagates key-generation errors.
    pub fn keygen<R: Rng + ?Sized>(rng: &mut R, n: usize, t: usize) -> Result<Self, ProtocolError> {
        let (pk, shares) = MockTe::keygen(rng, n, t)?;
        Self::from_parts(pk, shares.into_iter().map(Some).collect())
    }

    /// Builds a chain from an externally generated key (e.g. the
    /// dealer-free DKG of [`crate::dkg`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] unless `shares` has one
    /// slot per committee member.
    pub fn from_parts(
        pk: PublicKey<F>,
        shares: Vec<Option<KeyShare<F>>>,
    ) -> Result<Self, ProtocolError> {
        if shares.len() != pk.n {
            return Err(ProtocolError::BadParameters(format!(
                "a committee of {} needs exactly that many share slots",
                pk.n
            )));
        }
        let table = PowerTable::new(pk.n, pk.t);
        Ok(TskChain { pk, shares, epoch: 0, table, leak: LeakLog::new() })
    }

    /// Attaches an adversarial-view recorder: corrupted (malicious or
    /// leaky) committee members will log their exposure of `tsk`
    /// shares, labelled by custody epoch.
    pub fn set_leak_log(&mut self, log: LeakLog) {
        self.leak = log;
    }

    /// Records the `tsk`-share exposures of a committee's corrupted
    /// members (called once per operation the committee performs).
    fn record_leaks(&self, committee: &Committee) {
        for i in 0..committee.n() {
            if matches!(committee.behavior(i), Behavior::Malicious(_) | Behavior::Leaky)
                && self.shares[i].is_some()
            {
                self.leak.record(committee.role(i), format!("tsk/epoch{}", self.epoch), i);
            }
        }
    }

    /// The threshold `t`.
    pub fn t(&self) -> usize {
        self.pk.t
    }

    /// Test/diagnostic access to a member's share.
    pub fn share_of(&self, i: usize) -> Option<&KeyShare<F>> {
        self.shares.get(i).and_then(|s| s.as_ref())
    }

    /// The members of `committee` that hold a share, with it: the
    /// candidates of every step the key's custodians take.
    fn holders<'s>(
        &'s self,
        committee: &Committee,
    ) -> impl Iterator<Item = (usize, &'s KeyShare<F>)> + 's {
        let shares = self.shares.iter().take(committee.n()).enumerate();
        shares.filter_map(|(i, share)| Some((i, share.as_ref()?)))
    }

    /// The recombination weights of a batch item's canonical subset,
    /// computed on the subset's first appearance in the batch.
    fn shared_weights<'c>(
        &self,
        cache: &'c mut WeightCache<F>,
        parties: Vec<usize>,
    ) -> Result<&'c Arc<ZeroWeights<F>>, ProtocolError> {
        Ok(match cache.entry(parties) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let w = Arc::new(MockTe::zero_weights(&self.pk, e.key())?);
                e.insert(w)
            }
        })
    }

    /// Public `Decrypt` of a batch of ciphertexts by `committee`
    /// (paper Protocol 2, minus the handover — call
    /// [`Self::handover`] separately once per committee).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` partials verify for some ciphertext.
    pub fn decrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Vec<F>, ProtocolError> {
        let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
        self.decrypt_in(rng, &sb, committee, cfg, phase, cts)
    }

    /// [`Self::decrypt`] posting through an existing sharded board:
    /// one [`Step`] over the share holders, one posting per ciphertext.
    pub(crate) fn decrypt_in<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &crate::workitem::ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Vec<F>, ProtocolError> {
        self.record_leaks(committee);
        // One map per ciphertext, shared by the committee's partials.
        let maps: Option<Vec<PdecMap<F>>> = cfg
            .produce_proofs
            .then(|| cts.iter().map(|ct| PdecMap::new(&self.pk, ct)).collect());
        let mut partials: Vec<Vec<(usize, F, bool)>> = vec![Vec::new(); cts.len()];
        let mut posts = PostBuffer::new();
        let elements = PDEC_ELEMENTS + PDEC_PROOF_ELEMENTS;
        let step =
            Step::new(committee, cfg, phase, Post::PartialDec, elements).with_postings(cts.len());
        step.run(rng, &mut posts, maps.as_ref(), self.holders(committee), |mut turn, share| {
            let vk = self.pk.vks[turn.index];
            for (c_idx, ct) in cts.iter().enumerate() {
                let (value, valid) = match turn.attack() {
                    None => {
                        let pd = MockTe::partial_decrypt(share, ct).value;
                        let ok = turn.honest(|maps, rng| {
                            let proof = maps[c_idx].prove(rng, vk, share.value, pd);
                            maps[c_idx].verify(vk, pd, &proof)
                        });
                        (pd, ok)
                    }
                    Some(attack) => {
                        let wrong = match attack {
                            ActiveAttack::BadProof => MockTe::partial_decrypt(share, ct).value,
                            _ => F::random(&mut turn.rng),
                        };
                        let ok = turn.forged(|maps, rng| {
                            maps[c_idx].verify(vk, wrong, &PdecProof::garbage(rng))
                        });
                        (wrong, ok)
                    }
                };
                partials[c_idx].push((turn.index, value, valid));
            }
        });
        sb.flush_buffer(posts)?;

        self.combine_partials(cts, &partials)
    }

    /// Recombines each ciphertext's first `t + 1` verified partials
    /// (`(party, value, verified)`, in posting order).
    fn combine_partials(
        &self,
        cts: &[Ciphertext<F>],
        partials: &[Vec<(usize, F, bool)>],
    ) -> Result<Vec<F>, ProtocolError> {
        let need = self.pk.t + 1;
        let mut weights = WeightCache::new();
        cts.iter()
            .zip(partials)
            .map(|(ct, posts)| {
                let (parties, values): (Vec<usize>, Vec<F>) = posts
                    .iter()
                    .filter(|(_, _, ok)| *ok)
                    .take(need)
                    .map(|&(party, value, _)| (party, value))
                    .unzip();
                if parties.len() < need {
                    return Err(ProtocolError::NotEnoughContributions {
                        step: "threshold decrypt",
                        got: parties.len(),
                        need,
                    });
                }
                Ok(ct.v - self.shared_weights(&mut weights, parties)?.combine(&values))
            })
            .collect()
    }

    /// `Re-encrypt` of a batch of `(target, ciphertext)` pairs by
    /// `committee` (paper Protocol 1, minus the handover).
    ///
    /// Items are independent, so each one runs from its own child RNG
    /// (seeds drawn sequentially from `rng`, one per item) on up to
    /// `cfg.num_threads` workers — the same buffer-and-replay shape as
    /// Beaver triple generation. Each worker owns a
    /// [`crate::parallel::PostBuffer`]; buffers are flushed in item
    /// order, so the board transcript is byte-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Transport`] if replaying the buffered
    /// posts onto the board fails (remote backends only).
    pub fn reencrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        items: &[(PkePublicKey<F>, Ciphertext<F>)],
    ) -> Result<Vec<ReencryptedValue<F>>, ProtocolError> {
        let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
        self.reencrypt_in(rng, &sb, committee, cfg, phase, items)
    }

    /// [`Self::reencrypt`] posting through an existing sharded board:
    /// per item, one [`Step`] over the share holders from the item's
    /// own RNG.
    pub(crate) fn reencrypt_in<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &crate::workitem::ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        items: &[(PkePublicKey<F>, Ciphertext<F>)],
    ) -> Result<Vec<ReencryptedValue<F>>, ProtocolError> {
        self.record_leaks(committee);
        let elements = CT_ELEMENTS + ENC_PDEC_PROOF_ELEMENTS;
        let step = Step::new(committee, cfg, phase, Post::EncryptedPartial, elements);
        let seeds: Vec<u64> = items.iter().map(|_| rng.next_u64()).collect();
        let worker_out = crate::parallel::par_map(cfg.num_threads, &seeds, |item_idx, &seed| {
            let mut irng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut posts = PostBuffer::new();
            let (target, ct) = &items[item_idx];
            // One map per item, shared by the committee's postings.
            let map = cfg
                .produce_proofs
                .then(|| EncryptedPartialMap::new(&self.pk, target))
                .transpose()?;
            let mut val = ReencryptedValue {
                target: *target,
                source_v: ct.v,
                posts: Vec::new(),
                t: self.pk.t,
                weights: None,
            };
            let holders = self.holders(committee);
            step.run(&mut irng, &mut posts, map.as_ref(), holders, |mut turn, share| {
                let vk = self.pk.vks[turn.index];
                let attack = turn.attack();
                let d = match attack {
                    None | Some(ActiveAttack::BadProof) => share.value * ct.u,
                    Some(_) => F::random(&mut turn.rng),
                };
                let (enc, r) = LinearPke::encrypt(&mut turn.rng, target, d);
                let valid = match attack {
                    None => turn.honest(|map, rng| {
                        let proof = map.prove(rng, vk, ct, &enc, d, r);
                        map.verify(vk, ct, &enc, &proof)
                    }),
                    Some(_) => turn.forged(|map, rng| {
                        map.verify(vk, ct, &enc, &nizk::LinearProof::garbage(rng, 3, 2))
                    }),
                };
                val.posts.push(ProviderPost { provider: turn.index, ct: enc, valid });
            });
            Ok::<_, ProtocolError>((val, posts))
        });
        let mut weights = WeightCache::new();
        let mut out = Vec::with_capacity(items.len());
        for item in worker_out {
            let (mut val, posts) = item?;
            sb.flush_buffer(posts)?;
            self.attach_opening_weights(&mut weights, &mut val)?;
            out.push(val);
        }
        Ok(out)
    }

    /// Gives `val` the weights of its canonical subset. A starved value
    /// keeps `None`: the shortage is reported when (and only if)
    /// somebody opens it.
    fn attach_opening_weights(
        &self,
        cache: &mut WeightCache<F>,
        val: &mut ReencryptedValue<F>,
    ) -> Result<(), ProtocolError> {
        let need = val.t + 1;
        let parties: Vec<usize> =
            val.posts.iter().filter(|p| p.valid).take(need).map(|p| p.provider).collect();
        if parties.len() == need {
            val.weights = Some(Arc::clone(self.shared_weights(cache, parties)?));
        }
        Ok(())
    }

    /// Hands the key over to `next` (whose members' role key pairs are
    /// `next_keys`): `TKRes` + `TKRec` + public derivation of the next
    /// verification keys.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` re-share messages verify.
    pub fn handover<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        outgoing: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        next_keys: &[PkeKeyPair<F>],
    ) -> Result<(), ProtocolError> {
        let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
        self.handover_in(rng, &sb, outgoing, cfg, phase, next_keys)
    }

    /// [`Self::handover`] posting through an existing sharded board:
    /// one [`Step`] over the share holders, each dealing its share
    /// ([`deal`]).
    pub(crate) fn handover_in<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        sb: &crate::workitem::ShardedBoard<'_>,
        outgoing: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        next_keys: &[PkeKeyPair<F>],
    ) -> Result<(), ProtocolError> {
        self.record_leaks(outgoing);
        let n = self.pk.n;
        let t = self.pk.t;
        if next_keys.len() != n {
            return Err(ProtocolError::BadParameters(format!(
                "handover from a committee of {n} needs exactly that many next role keys"
            )));
        }
        let recipient_pks: Vec<PkePublicKey<F>> = next_keys.iter().map(|kp| kp.public).collect();
        let table = &self.table;
        // One map per handover, shared by its dealers.
        let map = cfg.produce_proofs.then(|| DealMap::new(self.pk.g, &recipient_pks, table));

        let mut msgs: Vec<PostedReshare<F>> = Vec::new();
        let mut posts = PostBuffer::new();
        let elements = messages::reshare_elements(n as u64, t as u64);
        let step = Step::new(outgoing, cfg, phase, Post::TskReshare, elements);
        step.run(rng, &mut posts, map.as_ref(), self.holders(outgoing), |turn, share| {
            let from = turn.index;
            // The re-share relation binds C_0 to the dealer's
            // verification key.
            let relation = |map: &DealMap<F>, rng: &mut _, targets: &[F], witness: Dealt<'_, F>| {
                let proof = match witness {
                    Some((coeffs, rands)) => map.prove_reshare(rng, targets, coeffs, rands),
                    None => ReshareProof::garbage(rng, n, t),
                };
                map.verify_reshare(&self.pk, from, targets, &proof)
            };
            msgs.push(deal(turn, self.pk.g, |_| share.value, table, &recipient_pks, relation));
        });
        sb.flush_buffer(posts)?;

        let providers: Vec<&PostedReshare<F>> =
            msgs.iter().filter(|m| m.valid).take(t + 1).collect();
        if providers.len() < t + 1 {
            return Err(ProtocolError::NotEnoughContributions {
                step: "tsk handover",
                got: providers.len(),
                need: t + 1,
            });
        }
        let provider_indices: Vec<usize> = providers.iter().map(|m| m.from).collect();
        let weights = MockTe::zero_weights(&self.pk, &provider_indices)?;

        // Each next-committee member decrypts its subshares and
        // recombines.
        let mut new_shares = Vec::with_capacity(n);
        let mut subs = Vec::with_capacity(t + 1);
        for (j, kp) in next_keys.iter().enumerate() {
            subs.clear();
            subs.extend(
                providers.iter().map(|m| LinearPke::decrypt(&kp.secret, &m.enc_subshares[j])),
            );
            new_shares.push(Some(KeyShare { party: j, value: weights.combine(&subs) }));
        }

        // Public derivation of the next verification keys from the
        // Feldman commitments.
        let vks = MockTe::next_verification_keys(
            &weights,
            providers.iter().map(|m| m.commitments.as_slice()),
            table,
        );
        self.pk.vks = vks;
        self.shares = new_shares;
        self.epoch += 1;
        Ok(())
    }
}

/// An honest dealer's witness, `(coefficients, encryption randomness)`;
/// a malicious dealer has none.
pub(crate) type Dealt<'a, F> = Option<(&'a [F], &'a [F])>;

/// One dealer's turn, for the handover and the DKG alike. An honest
/// dealer posts the Feldman commitments under `g` of the polynomial
/// (`constant`, then `table.degree()` coefficients from its RNG) and the
/// polynomial's value for each recipient encrypted to that recipient; a
/// malicious one posts random commitments and encryptions of junk.
/// `verified(map, rng, targets, witness)` is the caller's relation: it
/// makes the proof the dealer posts — from the witness, or garbage when
/// there is none — and verifies it.
pub(crate) fn deal<F: PrimeField>(
    mut turn: Turn<'_, DealMap<F>>,
    g: F,
    constant: impl FnOnce(&mut StdRng) -> F,
    table: &PowerTable<F>,
    recipient_pks: &[PkePublicKey<F>],
    verified: impl FnOnce(&DealMap<F>, &mut StdRng, &[F], Dealt<'_, F>) -> bool,
) -> PostedReshare<F> {
    let malicious = turn.attack().is_some();
    let rng = &mut turn.rng;
    let (commitments, enc_subshares, witness): (Vec<F>, Vec<Ciphertext<F>>, _) = if malicious {
        let commitments = (0..=table.degree()).map(|_| F::random(rng)).collect();
        let junk = recipient_pks.iter().map(|rpk| {
            let junk = F::random(rng);
            LinearPke::encrypt(rng, rpk, junk).0
        });
        (commitments, junk.collect(), None)
    } else {
        let mut coeffs = Vec::with_capacity(table.degree() + 1);
        coeffs.push(constant(rng));
        coeffs.extend((0..table.degree()).map(|_| F::random(rng)));
        let commitments = coeffs.iter().map(|&a| a * g).collect();
        let mut enc_subshares = Vec::with_capacity(recipient_pks.len());
        let mut rands = Vec::with_capacity(recipient_pks.len());
        for (sub, rpk) in table.eval_all(&coeffs).into_iter().zip(recipient_pks) {
            let (ct, r) = LinearPke::encrypt(rng, rpk, sub);
            enc_subshares.push(ct);
            rands.push(r);
        }
        (commitments, enc_subshares, Some((coeffs, rands)))
    };
    let check = |map: &DealMap<F>, rng: &mut StdRng| {
        let witness = witness.as_ref().map(|(coeffs, rands)| (&coeffs[..], &rands[..]));
        map.targets(&commitments, &enc_subshares)
            .is_some_and(|targets| verified(map, rng, &targets, witness))
    };
    let valid = if malicious { turn.forged(check) } else { turn.honest(check) };
    PostedReshare { from: turn.index, commitments, enc_subshares, valid }
}

static DOMAIN_ENC_PDEC: Domain = Domain::new(b"yoso-pss/nizk/enc-pdec/v3");

/// The `Re-encrypt` posting relation of one item: the published
/// ciphertext encrypts the *correct* partial decryption of the source
/// ciphertext (bound to the provider's Feldman verification key).
///
/// Witness `(d, r)`; rows: `d·g = vk_i·u_ct`, `enc.u = r·g_T`,
/// `enc.v = d + r·h_T`. The map holds only the threshold key's base and
/// the target key, so one serves all `n` providers of an item; provider
/// and ciphertexts enter through the targets.
#[derive(Debug, Clone)]
pub struct EncryptedPartialMap<F: PrimeField>(LinearMap<F>);

impl<F: PrimeField> EncryptedPartialMap<F> {
    /// The map for re-encryptions from `tpk` to `target`.
    ///
    /// # Errors
    ///
    /// None in practice: the map's shape is fixed, so its construction
    /// cannot fail.
    pub fn new(tpk: &PublicKey<F>, target: &PkePublicKey<F>) -> Result<Self, ProtocolError> {
        LinearMap::new(2, [&[(0, tpk.g)][..], &[(1, target.g)], &[(0, F::ONE), (1, target.h)]])
            .map(EncryptedPartialMap)
            .map_err(|_| ProtocolError::Invariant("the fixed-shape enc-pdec map was refused"))
    }

    fn targets(vk: F, ct: &Ciphertext<F>, enc: &Ciphertext<F>) -> [F; 3] {
        [vk * ct.u, enc.u, enc.v]
    }

    /// Proves that `enc` encrypts, with randomness `r`, the partial
    /// decryption `d` of `ct` under the key share behind `vk`.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        vk: F,
        ct: &Ciphertext<F>,
        enc: &Ciphertext<F>,
        d: F,
        r: F,
    ) -> nizk::LinearProof<F> {
        nizk::prove_linear(rng, &DOMAIN_ENC_PDEC, &self.0, &Self::targets(vk, ct, enc), &[d, r])
    }

    /// Verifies a `Re-encrypt` posting proof against the provider's
    /// verification key.
    pub fn verify(
        &self,
        vk: F,
        ct: &Ciphertext<F>,
        enc: &Ciphertext<F>,
        proof: &nizk::LinearProof<F>,
    ) -> bool {
        nizk::verify_linear(&DOMAIN_ENC_PDEC, &self.0, &Self::targets(vk, ct, enc), proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use yoso_field::F61;
    use yoso_runtime::Adversary;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4242)
    }

    fn cfg() -> ExecutionConfig {
        ExecutionConfig::default()
    }

    #[test]
    fn decrypt_honest_committee() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let committee = Committee::honest("d1", 7);
        let m = F61::from(777u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let got = chain.decrypt(&mut r, &board, &committee, &cfg(), "offline/dep", &[ct]).unwrap();
        assert_eq!(got, vec![m]);
        // All 7 members posted one partial each.
        assert_eq!(board.len().unwrap(), 7);
    }

    #[test]
    fn decrypt_with_malicious_members() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let committee = adv.sample_committee(&mut r, "d1", 7);
        let m = F61::from(31337u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let got = chain.decrypt(&mut r, &board, &committee, &cfg(), "offline/dep", &[ct]).unwrap();
        assert_eq!(got, vec![m], "bad partials must be filtered by proofs");
    }

    #[test]
    fn reencrypt_and_open() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let committee = Committee::honest("r1", 7);
        let target = LinearPke::<F61>::keygen(&mut r);
        let m = F61::from(99u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let vals = chain.reencrypt(
            &mut r,
            &board,
            &committee,
            &cfg(),
            "offline/reenc",
            &[(target.public, ct)],
        )
        .unwrap();
        let got = vals[0].open(target.secret.scalar).unwrap();
        assert_eq!(got, m);
        // Opening coefficients satisfy value = a − sk·b.
        let (a, b) = vals[0].opening_coefficients().unwrap();
        assert_eq!(a - target.secret.scalar * b, m);
    }

    #[test]
    fn reencrypt_survives_malicious_providers() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 3).unwrap();
        let adv = Adversary::active(3, ActiveAttack::WrongValue);
        let committee = adv.sample_committee(&mut r, "r1", 7);
        let target = LinearPke::<F61>::keygen(&mut r);
        let m = F61::from(5u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let vals = chain
            .reencrypt(&mut r, &board, &committee, &cfg(), "x", &[(target.public, ct)])
            .unwrap();
        assert_eq!(vals[0].open(target.secret.scalar).unwrap(), m);
    }

    /// One honest `Re-encrypt` posting by member 1 of a committee of 5.
    #[allow(clippy::type_complexity)]
    fn posting(
        r: &mut rand::rngs::StdRng,
    ) -> (TskChain<F61>, PkePublicKey<F61>, Ciphertext<F61>, Ciphertext<F61>, F61, F61) {
        let chain = TskChain::<F61>::keygen(r, 5, 2).unwrap();
        let target = LinearPke::<F61>::keygen(r).public;
        let (ct, _) = MockTe::encrypt(r, &chain.pk, F61::from(9u64));
        let d = chain.share_of(1).unwrap().value * ct.u;
        let (enc, enc_r) = LinearPke::encrypt(r, &target, d);
        (chain, target, ct, enc, d, enc_r)
    }

    #[test]
    fn an_enc_pdec_proof_binds_provider_ciphertexts_and_domain() {
        let mut r = rng();
        let (chain, target, ct, enc, d, enc_r) = posting(&mut r);
        let map = EncryptedPartialMap::new(&chain.pk, &target).unwrap();
        let vk = chain.pk.vks[1];
        let proof = map.prove(&mut r, vk, &ct, &enc, d, enc_r);
        assert!(map.verify(vk, &ct, &enc, &proof));
        // One map serves the whole committee: the provider is a target.
        assert!(!map.verify(chain.pk.vks[2], &ct, &enc, &proof));
        let (other, _) = MockTe::encrypt(&mut r, &chain.pk, F61::from(9u64));
        assert!(!map.verify(vk, &other, &enc, &proof));
        assert!(!map.verify(vk, &ct, &other, &proof));
        let elsewhere = LinearPke::<F61>::keygen(&mut r).public;
        let other_map = EncryptedPartialMap::new(&chain.pk, &elsewhere).unwrap();
        assert!(!other_map.verify(vk, &ct, &enc, &proof));

        // The retired separators: right map, right targets, right
        // witness, rejected.
        let targets = EncryptedPartialMap::targets(vk, &ct, &enc);
        for v in ["v1", "v2"] {
            let retired = Domain::new(format!("yoso-pss/nizk/enc-pdec/{v}").as_bytes());
            let old = nizk::prove_linear(&mut r, &retired, &map.0, &targets, &[d, enc_r]);
            assert!(nizk::verify_linear(&retired, &map.0, &targets, &old));
            assert!(!map.verify(vk, &ct, &enc, &old), "enc-pdec/{v}");
        }

        // What a malicious provider posts: verified, and rejected.
        let mut r = rand::rngs::StdRng::seed_from_u64(20261003);
        let garbage = nizk::LinearProof::<F61>::garbage(&mut r, 3, 2);
        assert_ne!(garbage.commitment[0], garbage.commitment[1]);
        assert!(!map.verify(vk, &ct, &enc, &garbage));
    }

    /// Exact and host-independent: two SHA-256 blocks to derive a
    /// `Re-encrypt` posting's challenge, and a committee's `n` postings
    /// of an item digest their map once.
    #[cfg(debug_assertions)]
    #[test]
    fn an_item_digests_its_enc_pdec_map_once_and_each_challenge_costs_two_blocks() {
        use yoso_crypto::sha256::compressions_of;
        let mut r = rng();
        let (chain, target, ct, ..) = posting(&mut r);
        let (map, digesting) =
            compressions_of(|| EncryptedPartialMap::new(&chain.pk, &target).unwrap());
        assert_eq!(digesting, 2);
        let (_, committee) = compressions_of(|| {
            for i in 0..5 {
                let d = chain.share_of(i).unwrap().value * ct.u;
                let (enc, enc_r) = LinearPke::encrypt(&mut r, &target, d);
                let proof = map.prove(&mut r, chain.pk.vks[i], &ct, &enc, d, enc_r);
                assert!(map.verify(chain.pk.vks[i], &ct, &enc, &proof));
            }
        });
        assert_eq!(committee, 5 * (2 + 2));
    }

    #[test]
    fn handover_chain_preserves_key() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let m = F61::from(123u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);

        for epoch in 0..3 {
            let outgoing = Committee::honest(format!("h{epoch}"), 6);
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..6).map(|_| LinearPke::keygen(&mut r)).collect();
            chain
                .handover(&mut r, &board, &outgoing, &cfg(), "offline/handover", &next_keys)
                .unwrap();
        }
        let committee = Committee::honest("final", 6);
        let got = chain.decrypt(&mut r, &board, &committee, &cfg(), "x", &[ct]).unwrap();
        assert_eq!(got, vec![m]);
    }

    #[test]
    fn handover_with_malicious_outgoing_members() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let m = F61::from(4242u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let outgoing = adv.sample_committee(&mut r, "h0", 7);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..7).map(|_| LinearPke::keygen(&mut r)).collect();
        chain.handover(&mut r, &board, &outgoing, &cfg(), "x", &next_keys).unwrap();
        let committee = Committee::honest("final", 7);
        assert_eq!(chain.decrypt(&mut r, &board, &committee, &cfg(), "x", &[ct]).unwrap(), vec![m]);
    }

    // -----------------------------------------------------------------
    // The shared-weights recombination against the per-item formulas it
    // replaced (one `lagrange::interpolate` per value, Horner per
    // evaluation). Exact arithmetic: agreement is equality.
    // -----------------------------------------------------------------

    /// The value at zero of the polynomial through `(party + 1, y)`.
    fn interpolated_at_zero(parties: &[usize], ys: &[F61]) -> F61 {
        let xs: Vec<F61> = parties.iter().map(|&p| F61::from_u64(p as u64 + 1)).collect();
        yoso_field::lagrange::interpolate(&xs, ys).unwrap().eval(F61::ZERO)
    }

    fn horner(coeffs: &[F61], x: F61) -> F61 {
        coeffs.iter().rev().fold(F61::ZERO, |acc, &c| acc * x + c)
    }

    /// A random `(n, t)` with `t < n/2` and a committee of at most `t`
    /// members that post garbage or nothing.
    fn random_committee(r: &mut rand::rngs::StdRng) -> (usize, usize, Committee) {
        let n = r.gen_range(3..14);
        let t = r.gen_range(0..n.div_ceil(2));
        let mut behaviors = vec![Behavior::Honest; n as usize];
        for _ in 0..r.gen_range(0..t + 1) {
            let attack =
                if r.gen() { ActiveAttack::WrongValue } else { ActiveAttack::Silent };
            behaviors[r.gen_range(0..n) as usize] = Behavior::Malicious(attack);
        }
        (n as usize, t as usize, Committee::with_behaviors("c", behaviors))
    }

    #[test]
    fn batch_with_differing_canonical_subsets_decrypts() {
        let mut r = rng();
        let (n, t) = (7, 2);
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let ms: Vec<F61> = (0..6).map(|_| F61::random(&mut r)).collect();
        let cts: Vec<_> = ms.iter().map(|&m| MockTe::encrypt(&mut r, &chain.pk, m).0).collect();
        // Member 1 fails verification on even items, member 0 on item 3:
        // the canonical subsets are {0,2,3}, {0,1,2} and {1,2,3}.
        let partials: Vec<Vec<(usize, F61, bool)>> = cts
            .iter()
            .enumerate()
            .map(|(c, ct)| {
                (0..n)
                    .map(|i| {
                        let ok = !((i == 1 && c % 2 == 0) || (i == 0 && c == 3));
                        let good = MockTe::partial_decrypt(chain.share_of(i).unwrap(), ct).value;
                        (i, if ok { good } else { F61::random(&mut r) }, ok)
                    })
                    .collect()
            })
            .collect();
        let got = chain.combine_partials(&cts, &partials).unwrap();
        assert_eq!(got, ms);
        for ((ct, posts), &value) in cts.iter().zip(&partials).zip(&got) {
            let (parties, ys): (Vec<usize>, Vec<F61>) =
                posts.iter().filter(|p| p.2).take(t + 1).map(|&(i, y, _)| (i, y)).unzip();
            assert_eq!(value, ct.v - interpolated_at_zero(&parties, &ys));
        }
        // A starved item fails the batch with the typed shortage.
        let mut starved = partials;
        for post in &mut starved[4][..n - t] {
            post.2 = false;
        }
        assert!(matches!(
            chain.combine_partials(&cts, &starved),
            Err(ProtocolError::NotEnoughContributions {
                step: "threshold decrypt",
                got: 2,
                need: 3
            })
        ));
    }

    #[test]
    fn openings_agree_with_per_item_interpolation() {
        for seed in 0..24 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, t, committee) = random_committee(&mut r);
            let board = BulletinBoard::new();
            let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
            let items: Vec<_> = (0..3)
                .map(|_| {
                    let target = LinearPke::<F61>::keygen(&mut r);
                    let m = F61::random(&mut r);
                    (target, m, MockTe::encrypt(&mut r, &chain.pk, m).0)
                })
                .collect();
            let pairs: Vec<_> = items.iter().map(|(kp, _, ct)| (kp.public, *ct)).collect();
            let vals = chain.reencrypt(&mut r, &board, &committee, &cfg(), "x", &pairs).unwrap();
            for (val, (kp, m, _)) in vals.iter().zip(&items) {
                let subset = val.canonical_subset().unwrap();
                let parties: Vec<usize> = subset.iter().map(|p| p.provider).collect();
                let us: Vec<F61> = subset.iter().map(|p| p.ct.u).collect();
                let vs: Vec<F61> = subset.iter().map(|p| p.ct.v).collect();
                let expect = (
                    val.source_v - interpolated_at_zero(&parties, &vs),
                    -interpolated_at_zero(&parties, &us),
                );
                assert_eq!(val.opening_coefficients().unwrap(), expect, "seed {seed}");
                assert_eq!(val.open(kp.secret.scalar).unwrap(), *m, "seed {seed}");
            }
        }
    }

    #[test]
    fn values_of_one_batch_with_differing_subsets_open() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let committee = Committee::honest("r", 7);
        let target = LinearPke::<F61>::keygen(&mut r);
        let ms = [F61::from(11u64), F61::from(22u64), F61::from(33u64)];
        let pairs: Vec<_> =
            ms.iter().map(|&m| (target.public, MockTe::encrypt(&mut r, &chain.pk, m).0)).collect();
        let mut vals = chain.reencrypt(&mut r, &board, &committee, &cfg(), "x", &pairs).unwrap();
        let shared = vals[0].weights.clone().unwrap();
        assert!(vals.iter().all(|v| Arc::ptr_eq(v.weights.as_ref().unwrap(), &shared)));

        // Provider 0's post on the middle value turns out invalid: the
        // stale weights are refused, fresh ones open all three.
        vals[1].posts[0].valid = false;
        assert!(matches!(vals[1].open(target.secret.scalar), Err(ProtocolError::Invariant(_))));
        let mut cache = WeightCache::new();
        for val in &mut vals {
            chain.attach_opening_weights(&mut cache, val).unwrap();
        }
        assert_eq!(cache.len(), 2);
        for (val, m) in vals.iter().zip(ms) {
            assert_eq!(val.open(target.secret.scalar).unwrap(), m);
        }
    }

    #[test]
    fn starved_reencryption_fails_at_open_not_at_reencrypt() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let (n, t) = (5, 2);
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let mut behaviors = vec![Behavior::Malicious(ActiveAttack::WrongValue); n];
        behaviors[0] = Behavior::Honest;
        behaviors[1] = Behavior::Honest;
        let committee = Committee::with_behaviors("starved", behaviors);
        let target = LinearPke::<F61>::keygen(&mut r);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, F61::ONE);
        let vals = chain
            .reencrypt(&mut r, &board, &committee, &cfg(), "x", &[(target.public, ct)])
            .unwrap();
        assert!(matches!(
            vals[0].opening_coefficients(),
            Err(ProtocolError::NotEnoughContributions {
                step: "re-encrypt opening",
                got: 2,
                need: 3
            })
        ));
    }

    #[test]
    fn handover_agrees_with_horner_and_per_item_interpolation() {
        for seed in 0..24 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, t, outgoing) = random_committee(&mut r);
            let board = BulletinBoard::new();
            let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..n).map(|_| LinearPke::keygen(&mut r)).collect();

            // Replay the dealers' draws: one child seed per posting
            // member, `t` coefficients from the child.
            let mut replay = r.clone();
            let mut polys: Vec<(usize, Vec<F61>)> = Vec::new();
            for i in 0..n {
                if !outgoing.behavior(i).participates_at(crate::engine::phase_index("x")) {
                    continue;
                }
                let mut mrng = rand::rngs::StdRng::seed_from_u64(replay.next_u64());
                if *outgoing.behavior(i) == Behavior::Honest && polys.len() <= t {
                    let mut coeffs = vec![chain.share_of(i).unwrap().value];
                    coeffs.extend((0..t).map(|_| F61::random(&mut mrng)));
                    polys.push((i, coeffs));
                }
            }
            let providers: Vec<usize> = polys.iter().map(|(i, _)| *i).collect();
            let g = chain.pk.g;

            chain.handover(&mut r, &board, &outgoing, &cfg(), "x", &next_keys).unwrap();
            for j in 0..n {
                let x = F61::from_u64(j as u64 + 1);
                let subs: Vec<F61> = polys.iter().map(|(_, c)| horner(c, x)).collect();
                let share = interpolated_at_zero(&providers, &subs);
                assert_eq!(chain.share_of(j).unwrap().value, share, "seed {seed}, share {j}");
                let committed: Vec<F61> = subs.iter().map(|&s| s * g).collect();
                assert_eq!(
                    chain.pk.vks[j],
                    interpolated_at_zero(&providers, &committed),
                    "seed {seed}, vk {j}"
                );
            }
        }
    }

    #[test]
    fn mismatched_committee_sizes_are_typed_errors() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 5, 1).unwrap();
        let next_keys: Vec<PkeKeyPair<F61>> = (0..4).map(|_| LinearPke::keygen(&mut r)).collect();
        let outgoing = Committee::honest("h0", 5);
        assert!(matches!(
            chain.handover(&mut r, &board, &outgoing, &cfg(), "x", &next_keys),
            Err(ProtocolError::BadParameters(_))
        ));
        assert_eq!(board.len().unwrap(), 0, "refused before anything is posted");
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, 5, 1).unwrap();
        let slots = shares.into_iter().take(4).map(Some).collect();
        assert!(matches!(TskChain::from_parts(pk, slots), Err(ProtocolError::BadParameters(_))));
    }

    /// Fifty handovers at (n, t) = (64, 15) with proofs off: the final
    /// key shares and verification keys, pinned at the commit before
    /// dealing moved from per-point dots to differences.
    #[test]
    fn fifty_handovers_end_in_the_pinned_key_shares() {
        let mut r = rand::rngs::StdRng::seed_from_u64(20261005);
        let (n, t) = (64usize, 15usize);
        let board = BulletinBoard::new();
        let cfg = ExecutionConfig { produce_proofs: false, ..ExecutionConfig::default() };
        let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        for epoch in 0..50 {
            let outgoing = Committee::honest(format!("h{epoch}"), n);
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..n).map(|_| LinearPke::keygen(&mut r)).collect();
            chain.handover(&mut r, &board, &outgoing, &cfg, "x", &next_keys).unwrap();
        }
        let mut hasher = yoso_crypto::sha256::Sha256::new();
        for j in 0..n {
            hasher.update(&chain.share_of(j).unwrap().value.to_bytes());
            hasher.update(&chain.pk.vks[j].to_bytes());
        }
        let got: String = hasher.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, "d4f02e038719cc984e7651d442c99fac83dd09a300facdbcbe149b13ce1ff2a8");
    }

    #[test]
    fn vks_stay_consistent_after_handover() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 5, 1).unwrap();
        let outgoing = Committee::honest("h0", 5);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..5).map(|_| LinearPke::keygen(&mut r)).collect();
        chain.handover(&mut r, &board, &outgoing, &cfg(), "x", &next_keys).unwrap();
        for j in 0..5 {
            let share = chain.share_of(j).unwrap();
            assert_eq!(chain.pk.vks[j], share.value * chain.pk.g);
        }
    }
}
