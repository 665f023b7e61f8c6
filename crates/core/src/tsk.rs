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

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use yoso_crypto::Domain;
use yoso_field::PrimeField;
use yoso_pss_sharing::shamir::{PowerTable, ZeroWeights};
use yoso_runtime::{ActiveAttack, Behavior, Committee, LeakLog};
use yoso_the::mock::{Ciphertext, KeyShare, LinearPke, MockTe, PkeKeyPair, PkePublicKey, PublicKey};
use yoso_the::nizk::{self, DealMap, LinearMap, PdecMap, PdecProof, ReshareProof};

use crate::messages::{
    self, Post, CT_ELEMENTS, ENC_PDEC_PROOF_ELEMENTS, PDEC_ELEMENTS, PDEC_PROOF_ELEMENTS,
};
use crate::parallel::PostBuffer;
use crate::step::{Proved, Step, Turn};
use crate::workitem::ShardedBoard;
use crate::{ExecutionConfig, ProtocolError};

/// A `Decrypt` partial's proof, over its ciphertexts' maps.
type PdecProved<'m, F> = Proved<&'m Vec<PdecMap<F>>, PdecProof<F>>;

/// Offers member `member`'s (verification key `vk`) partial `d` of
/// ciphertext `c_idx` to the ciphertext's kept set: its first `t + 1`
/// valid partials, verified only until it has them.
fn keep_partial<F: PrimeField>(
    kept: &mut FirstValid<F>,
    member: usize,
    vk: F,
    c_idx: usize,
    d: F,
    proof: &PdecProved<'_, F>,
) {
    let valid = || proof.verify(|maps, proof| maps[c_idx].verify(vk, d, proof));
    kept.offer(member, valid, || [d]);
}

/// A value re-encrypted from `tpk` to a target public key, folded to
/// its public opening when its `Re-encrypt` step ends.
///
/// The target opens it with its secret key; *anyone* can compute the
/// public opening coefficients `(a, b)` with `value = a − sk·b` from the
/// board, which is what the online μ-share NIZK binds against. That
/// pair is all a value keeps of its providers' postings, so its size
/// does not grow with the committee.
#[derive(Debug, Clone)]
pub struct ReencryptedValue<F: PrimeField> {
    /// The target public key the partials are encrypted under.
    pub target: PkePublicKey<F>,
    /// The `v` component of the source ciphertext (public on the
    /// board): the opened value is `source_v − s·u_source`.
    pub source_v: F,
    /// Threshold: `t + 1` valid posts are needed to open.
    pub t: usize,
    /// The folded `(a, b)`, or how many posts verified when fewer than
    /// `t + 1` did.
    opening: Result<(F, F), usize>,
}

impl<F: PrimeField> ReencryptedValue<F> {
    /// The public opening coefficients `(a, b)` such that the
    /// underlying value equals `a − sk·b` for the target's secret
    /// key `sk`.
    ///
    /// They are folded from the first `t + 1` verified posts. The
    /// Lagrange recombination of the partial decryptions happens
    /// *inside* the ciphertexts: combining `(u_j, v_j)` with
    /// coefficients `w_j` yields an encryption of the combined partial
    /// `s·u_ct`, so `value = v_ct − (a_v − sk·a_u)` … folded into
    /// `(a, b)` when the item's step ends.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` posts verified.
    pub fn opening_coefficients(&self) -> Result<(F, F), ProtocolError> {
        self.opening.map_err(|got| ProtocolError::NotEnoughContributions {
            step: "re-encrypt opening",
            got,
            need: self.t + 1,
        })
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

/// One dealer's posted dealing: a handover's `tsk` re-share, or a DKG
/// deal.
pub(crate) struct PostedReshare<'t, F: PrimeField> {
    /// Feldman commitments to the sub-sharing polynomial.
    pub(crate) commitments: Vec<F>,
    /// Subshares encrypted to the recipients' role keys.
    pub(crate) enc_subshares: Vec<Ciphertext<F>>,
    /// The deal proof, for the reader to check.
    proof: Proved<&'t DealMap<F>, ReshareProof<F>>,
}

impl<F: PrimeField> PostedReshare<'_, F> {
    /// Whether the dealing is valid: `check(map, targets, proof)` where
    /// this worker proved it, the prediction elsewhere.
    pub(crate) fn verify(
        &self,
        check: impl FnOnce(&DealMap<F>, &[F], &ReshareProof<F>) -> bool,
    ) -> bool {
        self.proof.verify(|map, proof| {
            map.targets(&self.commitments, &self.enc_subshares)
                .is_some_and(|targets| check(map, &targets, proof))
        })
    }
}

/// Recombination weights by canonical provider subset. A batch has one
/// entry unless some member's posts verify on only some of its items.
type WeightCache<F> = BTreeMap<Vec<usize>, Arc<ZeroWeights<F>>>;

/// The first `t + 1` verified contributions to one threshold opening, in
/// posting order: all that its recombination reads of a step's postings.
/// Every step that opens from `t + 1` keeps one as it runs — a
/// `Decrypt` ciphertext, a `Re-encrypt` item, a handover — and drops
/// each later contribution as soon as it is posted, unverified.
///
/// A contribution is `width` field elements. Value `k` of the `p`-th
/// kept contribution sits at `columns[k·(t + 1) + p]`, so column `k` is
/// the vector the recombination weights apply to.
#[derive(Debug)]
struct FirstValid<F: PrimeField> {
    need: usize,
    parties: Vec<usize>,
    columns: Vec<F>,
}

impl<F: PrimeField> FirstValid<F> {
    fn new(t: usize, width: usize) -> Self {
        let need = t + 1;
        FirstValid { need, parties: Vec::with_capacity(need), columns: vec![F::ZERO; width * need] }
    }

    /// How many contributions are kept.
    fn kept(&self) -> usize {
        self.parties.len()
    }

    /// Keeps `party`'s contribution if `t + 1` are not kept yet and it
    /// verifies; only then is `valid` asked, and only then are its
    /// `values` computed.
    fn offer<I: IntoIterator<Item = F>>(
        &mut self,
        party: usize,
        valid: impl FnOnce() -> bool,
        values: impl FnOnce() -> I,
    ) {
        let p = self.kept();
        if p == self.need || !valid() {
            return;
        }
        self.parties.push(party);
        for (slot, value) in self.columns.iter_mut().skip(p).step_by(self.need).zip(values()) {
            *slot = value;
        }
    }

    /// Column `k`: value `k` of every kept contribution, in posting
    /// order.
    fn column(&self, k: usize) -> &[F] {
        self.columns.chunks_exact(self.need).nth(k).unwrap_or_default()
    }

    /// The kept parties' recombination weights, looked up in `cache`
    /// (built on the set's first appearance; they depend only on the
    /// parties, so they do not depend on who fills an entry).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotEnoughContributions`], named after `step`,
    /// when fewer than `t + 1` contributions verified.
    fn weights(
        &self,
        step: &'static str,
        chain: &TskChain<F>,
        cache: &mut WeightCache<F>,
    ) -> Result<Arc<ZeroWeights<F>>, ProtocolError> {
        if self.kept() < self.need {
            return Err(ProtocolError::NotEnoughContributions {
                step,
                got: self.kept(),
                need: self.need,
            });
        }
        chain.shared_weights(cache, &self.parties)
    }
}

impl<F: PrimeField> ReencryptedValue<F> {
    /// Folds an item's kept postings (the encryptions' `u` and `v`
    /// components) into its public opening
    /// `(source_v − Σ w_j v_j, −Σ w_j u_j)`. `cache` is shared by every
    /// worker of one `Re-encrypt` call. A starved item keeps its count;
    /// the shortage is reported when (and only if) somebody opens it.
    fn fold(
        kept: &FirstValid<F>,
        chain: &TskChain<F>,
        cache: &Mutex<WeightCache<F>>,
        target: PkePublicKey<F>,
        source_v: F,
    ) -> Result<Self, ProtocolError> {
        let opening = if kept.kept() < kept.need {
            Err(kept.kept())
        } else {
            let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
            let w = kept.weights("re-encrypt opening", chain, &mut cache)?;
            drop(cache);
            // Combined encrypted partial: Σ w_j (u_j, v_j) encrypts s·u_ct.
            let (a_u, a_v) = (w.combine(kept.column(0)), w.combine(kept.column(1)));
            // s·u_ct = a_v − sk·a_u; value = source_v − s·u_ct
            //        = (source_v − a_v) + sk·a_u  =  a − sk·b
            Ok((source_v - a_v, -a_u))
        };
        Ok(ReencryptedValue { target, source_v, t: kept.need - 1, opening })
    }
}

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
        let (pk, shares, table) = MockTe::keygen_with_table(rng, n, t)?;
        Self::with_table(pk, shares.into_iter().map(Some).collect(), table)
    }

    /// Builds a chain from an externally generated key.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] unless `shares` has one
    /// slot per committee member.
    pub fn from_parts(
        pk: PublicKey<F>,
        shares: Vec<Option<KeyShare<F>>>,
    ) -> Result<Self, ProtocolError> {
        let table = PowerTable::new(pk.n, pk.t);
        Self::with_table(pk, shares, table)
    }

    /// [`Self::from_parts`] keeping the caller's power table for the
    /// committee's points at degree `t` (the key's generator dealt
    /// through it, e.g. the dealer-free DKG of [`crate::dkg`]).
    ///
    /// # Errors
    ///
    /// As [`Self::from_parts`]; [`ProtocolError::Invariant`] if `table`
    /// is not the one for `(pk.n, pk.t)`.
    pub(crate) fn with_table(
        pk: PublicKey<F>,
        shares: Vec<Option<KeyShare<F>>>,
        table: PowerTable<F>,
    ) -> Result<Self, ProtocolError> {
        if shares.len() != pk.n {
            return Err(ProtocolError::BadParameters(format!(
                "a committee of {} needs exactly that many share slots",
                pk.n
            )));
        }
        if (table.parties(), table.degree()) != (pk.n, pk.t) {
            return Err(ProtocolError::Invariant("a key's power table is for another (n, t)"));
        }
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
    fn shared_weights(
        &self,
        cache: &mut WeightCache<F>,
        parties: &[usize],
    ) -> Result<Arc<ZeroWeights<F>>, ProtocolError> {
        if let Some(w) = cache.get(parties) {
            return Ok(Arc::clone(w));
        }
        let w = Arc::new(MockTe::zero_weights(&self.pk, parties)?);
        cache.insert(parties.to_vec(), Arc::clone(&w));
        Ok(w)
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
        sb: &ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Vec<F>, ProtocolError> {
        let kept = self.partials(rng, sb, committee, cfg, phase, cts)?;
        self.combine_partials(cts, &kept)
    }

    /// The postings of a `Decrypt`: one [`Step`] over the share holders,
    /// one posting per ciphertext, each ciphertext keeping its first
    /// `t + 1` verified partials as the step runs.
    fn partials<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Vec<FirstValid<F>>, ProtocolError> {
        self.record_leaks(committee);
        // One map per ciphertext, shared by the committee's partials.
        let maps: Option<Vec<PdecMap<F>>> = cfg
            .produce_proofs
            .then(|| cts.iter().map(|ct| PdecMap::new(&self.pk, ct)).collect());
        let mut kept: Vec<FirstValid<F>> =
            cts.iter().map(|_| FirstValid::new(self.pk.t, 1)).collect();
        let mut posts = PostBuffer::new();
        let elements = PDEC_ELEMENTS + PDEC_PROOF_ELEMENTS;
        let step =
            Step::new(committee, sb, phase, Post::PartialDec, elements).with_postings(cts.len());
        let holders = self.holders(committee);
        if cfg.produce_proofs {
            // Proofs are worth a thread: the members fan out, and each
            // hands its partials to the fold.
            let work = |mut turn: Turn<_>, share| {
                let (vk, attack) = (self.pk.vks[turn.index], turn.attack());
                (cts.iter().enumerate())
                    .map(|(c_idx, ct)| self.partial(&mut turn, share, vk, attack, c_idx, ct))
                    .collect::<Vec<_>>()
            };
            step.run(rng, &mut posts, maps.as_ref(), holders, work, |member, made| {
                let vk = self.pk.vks[member];
                for ((c_idx, (d, proof)), kept) in made.into_iter().enumerate().zip(&mut kept) {
                    keep_partial(kept, member, vk, c_idx, d, &proof);
                }
                Ok(())
            })?;
        } else {
            // A partial is one multiplication: the fold makes each one
            // and offers it in place.
            let work = |turn: Turn<_>, share| (turn, share);
            let fold = |member, (mut turn, share): (Turn<_>, _)| {
                let (vk, attack) = (self.pk.vks[member], turn.attack());
                for ((c_idx, ct), kept) in cts.iter().enumerate().zip(&mut kept) {
                    let (d, proof) = self.partial(&mut turn, share, vk, attack, c_idx, ct);
                    keep_partial(kept, member, vk, c_idx, d, &proof);
                }
                Ok(())
            };
            step.inline().run(rng, &mut posts, maps.as_ref(), holders, work, fold)?;
        }
        sb.flush_buffer(posts)?;
        Ok(kept)
    }

    /// A member's `Decrypt` posting for ciphertext `c_idx`: its partial
    /// and the partial's proof. `vk` and `attack` are the member's.
    fn partial<'m>(
        &self,
        turn: &mut Turn<&'m Vec<PdecMap<F>>>,
        share: &KeyShare<F>,
        vk: F,
        attack: Option<ActiveAttack>,
        c_idx: usize,
        ct: &Ciphertext<F>,
    ) -> (F, PdecProved<'m, F>) {
        let d = match attack {
            None | Some(ActiveAttack::BadProof) => MockTe::partial_decrypt(share, ct).value,
            Some(_) => F::random(&mut turn.rng),
        };
        let proof = turn.prove(|maps, rng| match attack {
            None => maps[c_idx].prove(rng, vk, share.value, d),
            Some(_) => PdecProof::garbage(rng),
        });
        (d, proof)
    }

    /// Recombines each ciphertext's kept partials.
    fn combine_partials(
        &self,
        cts: &[Ciphertext<F>],
        kept: &[FirstValid<F>],
    ) -> Result<Vec<F>, ProtocolError> {
        let mut weights = WeightCache::new();
        cts.iter()
            .zip(kept)
            .map(|(ct, kept)| {
                let w = kept.weights("threshold decrypt", self, &mut weights)?;
                Ok(ct.v - w.combine(kept.column(0)))
            })
            .collect()
    }

    /// `Re-encrypt` of a batch of `(target, ciphertext)` pairs by
    /// `committee` (paper Protocol 1, minus the handover): per item, one
    /// committee step over the share holders, folded to its public opening
    /// when the step ends.
    ///
    /// Items are independent, so each one runs from its own child RNG
    /// (seeds drawn sequentially from `rng`, one per item) on the board
    /// view's threads, and returns its value alone. Which members post
    /// depends on who speaks, never on what they compute, so this thread
    /// records every item's speakers in item order and flushes them
    /// once: the board transcript is byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Transport`] if posting the step onto the
    /// board fails (remote backends only).
    pub fn reencrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        items: &[(PkePublicKey<F>, Ciphertext<F>)],
    ) -> Result<Vec<ReencryptedValue<F>>, ProtocolError> {
        self.record_leaks(committee);
        let elements = CT_ELEMENTS + ENC_PDEC_PROOF_ELEMENTS;
        // Items are the parallel axis; each item's step is light.
        let step = Step::new(committee, sb, phase, Post::EncryptedPartial, elements).inline();
        let seeds: Vec<u64> = items.iter().map(|_| rng.next_u64()).collect();
        let weights = Mutex::new(WeightCache::new());
        let item_turns = committee.n();
        let values = crate::parallel::par_map(sb.threads(), item_turns, &seeds, |item_idx, &seed| {
            let (target, ct) = &items[item_idx];
            // One map per item, shared by the committee's postings.
            let map = cfg.produce_proofs.then(|| EncryptedPartialMap::new(&self.pk, target));
            let mut kept = FirstValid::new(self.pk.t, 2);
            let work = |mut turn: Turn<_>, share: &KeyShare<F>| {
                let vk = self.pk.vks[turn.index];
                let attack = turn.attack();
                let d = match attack {
                    None | Some(ActiveAttack::BadProof) => share.value * ct.u,
                    Some(_) => F::random(&mut turn.rng),
                };
                let (enc, r) = LinearPke::encrypt(&mut turn.rng, target, d);
                let proof = turn.prove(|map: &&EncryptedPartialMap<F>, rng| match attack {
                    None => map.prove(rng, vk, ct, &enc, d, r),
                    Some(_) => map.garbage(rng),
                });
                (vk, enc, proof)
            };
            let fold = |member, (vk, enc, proof): (F, _, Proved<&EncryptedPartialMap<F>, _>)| {
                let valid = || proof.verify(|map, proof| map.verify(vk, ct, &enc, proof));
                kept.offer(member, valid, || [enc.u, enc.v]);
                Ok(())
            };
            let mut irng = StdRng::seed_from_u64(seed);
            step.act(&mut irng, map.as_ref(), self.holders(committee), work, fold)?;
            ReencryptedValue::fold(&kept, self, &weights, *target, ct.v)
        });
        let (mut posts, speakers) =
            (PostBuffer::new(), step.speakers(self.holders(committee).map(|(member, _)| member)));
        for _ in items {
            step.record_speakers(&mut posts, &speakers);
        }
        sb.flush_buffer(posts)?;
        values.into_iter().collect()
    }

    /// Hands the key over to `next` (whose members' role key pairs are
    /// `next_keys`): `TKRes` + `TKRec` + public derivation of the next
    /// verification keys.
    ///
    /// One committee step over the share holders, each dealing its share
    /// (`deal`). The first `t + 1` valid dealings are kept as the
    /// step runs — their commitments and, decrypted, their subshares,
    /// recipient by recipient — and every other dealing is dropped as
    /// soon as it is posted.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` re-share messages verify.
    pub fn handover<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        sb: &ShardedBoard<'_>,
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
        let map = cfg.produce_proofs.then(|| DealMap::reshare(self.pk.g, &recipient_pks, table));

        // A dealing kept is its t + 1 commitments, then the subshare
        // each next-committee member decrypts.
        let mut kept = FirstValid::new(t, t + 1 + n);
        let mut posts = PostBuffer::new();
        let elements = messages::reshare_elements(n as u64, t as u64);
        let step = Step::new(outgoing, sb, phase, Post::TskReshare, elements);
        let (g, pks) = (self.pk.g, &recipient_pks);
        let work = |turn, share: &KeyShare<F>| deal(turn, g, |_| share.value, table, pks);
        let fold = |from, dealt: PostedReshare<'_, F>| {
            // The re-share relation binds C_0 to the dealer's
            // verification key.
            let valid =
                || dealt.verify(|map, targets, proof| map.verify_reshare(&self.pk, from, targets, proof));
            kept.offer(from, valid, || {
                let subshares = (dealt.enc_subshares.iter().zip(next_keys))
                    .map(|(enc, kp)| LinearPke::decrypt(&kp.secret, enc));
                dealt.commitments.iter().copied().chain(subshares)
            });
            Ok(())
        };
        step.run(rng, &mut posts, map.as_ref(), self.holders(outgoing), work, fold)?;
        sb.flush_buffer(posts)?;

        let weights = kept.weights("tsk handover", self, &mut WeightCache::new())?;
        // Public derivation of the next verification keys: the kept
        // commitments collapsed to Σ w_p·C_p(X), evaluated once per
        // recipient.
        let collapsed: Vec<F> = (0..=t).map(|l| weights.combine(kept.column(l))).collect();
        self.pk.vks = table.eval_all(&collapsed);
        // Each next-committee member recombines its decrypted subshares.
        self.shares = (0..n)
            .map(|j| Some(KeyShare { party: j, value: weights.combine(kept.column(t + 1 + j)) }))
            .collect();
        self.epoch += 1;
        Ok(())
    }
}

/// One dealer's turn, for the handover and the DKG alike. An honest
/// dealer posts the Feldman commitments under `g` of the polynomial
/// (`constant`, then `table.degree()` coefficients from its RNG), the
/// polynomial's value for each recipient encrypted to that recipient,
/// and a deal proof over the turn's map; a malicious one posts random
/// commitments, encryptions of junk and a garbage proof.
pub(crate) fn deal<'t, F: PrimeField>(
    mut turn: Turn<&'t DealMap<F>>,
    g: F,
    constant: impl FnOnce(&mut StdRng) -> F,
    table: &PowerTable<F>,
    recipient_pks: &[PkePublicKey<F>],
) -> PostedReshare<'t, F> {
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
    let proof = turn.prove(|map, rng| {
        match (&witness, map.targets(&commitments, &enc_subshares)) {
            (Some((coeffs, rands)), Some(targets)) => map.prove(rng, &targets, coeffs, rands),
            _ => map.garbage(rng),
        }
    });
    PostedReshare { commitments, enc_subshares, proof }
}

static DOMAIN_ENC_PDEC: Domain = Domain::new(b"yoso-pss/nizk/enc-pdec/v4");

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
    pub fn new(tpk: &PublicKey<F>, target: &PkePublicKey<F>) -> Self {
        let rows = [&[(0, tpk.g)][..], &[(1, target.g)], &[(0, F::ONE), (1, target.h)]];
        // lint:allow(panic): infallible — the columns above are fixed,
        // below the witness length and increasing; only coefficients
        // come from outside.
        EncryptedPartialMap(LinearMap::new(&DOMAIN_ENC_PDEC, 2, rows).expect("a fixed-shape map"))
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
        nizk::prove_linear(rng, &self.0, &Self::targets(vk, ct, enc), &[d, r])
    }

    /// What a malicious provider posts: a random proof of the map's
    /// shape.
    pub fn garbage<R: Rng + ?Sized>(&self, rng: &mut R) -> nizk::LinearProof<F> {
        self.0.garbage(rng)
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
        nizk::verify_linear(&self.0, &Self::targets(vk, ct, enc), proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RolePartition;
    use yoso_runtime::BulletinBoard;
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
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let committee = Committee::honest("d1", 7);
        let m = F61::from(777u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let got = chain.decrypt(&mut r, &sb, &committee, &cfg(), "offline/dep", &[ct]).unwrap();
        assert_eq!(got, vec![m]);
        // All 7 members posted one partial each.
        assert_eq!(board.len().unwrap(), 7);
    }

    #[test]
    fn decrypt_with_malicious_members() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let committee = adv.sample_committee(&mut r, "d1", 7);
        let m = F61::from(31337u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let got = chain.decrypt(&mut r, &sb, &committee, &cfg(), "offline/dep", &[ct]).unwrap();
        assert_eq!(got, vec![m], "bad partials must be filtered by proofs");
    }

    #[test]
    fn reencrypt_and_open() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let committee = Committee::honest("r1", 7);
        let target = LinearPke::<F61>::keygen(&mut r);
        let m = F61::from(99u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let vals = chain.reencrypt(
            &mut r,
            &sb,
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
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let chain = TskChain::<F61>::keygen(&mut r, 7, 3).unwrap();
        let adv = Adversary::active(3, ActiveAttack::WrongValue);
        let committee = adv.sample_committee(&mut r, "r1", 7);
        let target = LinearPke::<F61>::keygen(&mut r);
        let m = F61::from(5u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let vals = chain
            .reencrypt(&mut r, &sb, &committee, &cfg(), "x", &[(target.public, ct)])
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
        let map = EncryptedPartialMap::new(&chain.pk, &target);
        let vk = chain.pk.vks[1];
        let proof = map.prove(&mut r, vk, &ct, &enc, d, enc_r);
        assert!(map.verify(vk, &ct, &enc, &proof));
        // One map serves the whole committee: the provider is a target.
        assert!(!map.verify(chain.pk.vks[2], &ct, &enc, &proof));
        let (other, _) = MockTe::encrypt(&mut r, &chain.pk, F61::from(9u64));
        assert!(!map.verify(vk, &other, &enc, &proof));
        assert!(!map.verify(vk, &ct, &other, &proof));
        let elsewhere = LinearPke::<F61>::keygen(&mut r).public;
        let other_map = EncryptedPartialMap::new(&chain.pk, &elsewhere);
        assert!(!other_map.verify(vk, &ct, &enc, &proof));

        // The retired separators: right map, right targets, right
        // witness, rejected.
        let targets = EncryptedPartialMap::targets(vk, &ct, &enc);
        for v in ["v1", "v2", "v3"] {
            let retired = Domain::new(format!("yoso-pss/nizk/enc-pdec/{v}").as_bytes());
            let retired = LinearMap::new(&retired, 2, map.0.rows()).unwrap();
            let old = nizk::prove_linear(&mut r, &retired, &targets, &[d, enc_r]);
            assert!(nizk::verify_linear(&retired, &targets, &old));
            assert!(!map.verify(vk, &ct, &enc, &old), "enc-pdec/{v}");
        }

        // What a malicious provider posts: the map's shape, rejected.
        let mut r = rand::rngs::StdRng::seed_from_u64(20261003);
        let garbage = map.garbage(&mut r);
        assert_eq!((garbage.commitment.len(), garbage.response.len()), (3, 2));
        assert_ne!(garbage.commitment[0], garbage.commitment[1]);
        assert!(!map.verify(vk, &ct, &enc, &garbage));
    }

    /// Exact and host-independent: one SHA-256 block to derive a
    /// `Re-encrypt` posting's challenge, and a committee's `n` postings
    /// of an item build their map (two blocks of digest, one of prefix)
    /// once.
    #[cfg(debug_assertions)]
    #[test]
    fn an_item_digests_its_enc_pdec_map_once_and_each_challenge_costs_two_blocks() {
        use yoso_crypto::sha256::compressions_of;
        let mut r = rng();
        let (chain, target, ct, ..) = posting(&mut r);
        let (map, building) = compressions_of(|| EncryptedPartialMap::new(&chain.pk, &target));
        assert_eq!(building, 3);
        let (_, committee) = compressions_of(|| {
            for i in 0..5 {
                let d = chain.share_of(i).unwrap().value * ct.u;
                let (enc, enc_r) = LinearPke::encrypt(&mut r, &target, d);
                let proof = map.prove(&mut r, chain.pk.vks[i], &ct, &enc, d, enc_r);
                assert!(map.verify(chain.pk.vks[i], &ct, &enc, &proof));
            }
        });
        assert_eq!(committee, 5 * (1 + 1));
    }

    #[test]
    fn handover_chain_preserves_key() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let mut chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let m = F61::from(123u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);

        for epoch in 0..3 {
            let outgoing = Committee::honest(format!("h{epoch}"), 6);
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..6).map(|_| LinearPke::keygen(&mut r)).collect();
            chain
                .handover(&mut r, &sb, &outgoing, &cfg(), "offline/handover", &next_keys)
                .unwrap();
        }
        let committee = Committee::honest("final", 6);
        let got = chain.decrypt(&mut r, &sb, &committee, &cfg(), "x", &[ct]).unwrap();
        assert_eq!(got, vec![m]);
    }

    #[test]
    fn handover_with_malicious_outgoing_members() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let mut chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let m = F61::from(4242u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let outgoing = adv.sample_committee(&mut r, "h0", 7);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..7).map(|_| LinearPke::keygen(&mut r)).collect();
        chain.handover(&mut r, &sb, &outgoing, &cfg(), "x", &next_keys).unwrap();
        let committee = Committee::honest("final", 7);
        assert_eq!(chain.decrypt(&mut r, &sb, &committee, &cfg(), "x", &[ct]).unwrap(), vec![m]);
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
        // What a `Decrypt` keeps of the postings: each ciphertext's first
        // t + 1 verified partials.
        let kept = |partials: &[Vec<(usize, F61, bool)>]| -> Vec<FirstValid<F61>> {
            let mut kept: Vec<_> = partials.iter().map(|_| FirstValid::new(t, 1)).collect();
            for (kept, posts) in kept.iter_mut().zip(partials) {
                for &(i, y, ok) in posts {
                    kept.offer(i, || ok, || [y]);
                }
            }
            kept
        };
        let got = chain.combine_partials(&cts, &kept(&partials)).unwrap();
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
            chain.combine_partials(&cts, &kept(&starved)),
            Err(ProtocolError::NotEnoughContributions {
                step: "threshold decrypt",
                got: 2,
                need: 3
            })
        ));
    }

    /// What a `Re-encrypt` of `pairs` by `committee`, run from `r`,
    /// opens each item to, replayed from its draws: one child seed an
    /// item, one a speaking member, whose encryption comes first from
    /// it; the first `t + 1` honest members provide. Returns the
    /// openings and the providers.
    #[allow(clippy::type_complexity)]
    fn replayed_openings(
        mut r: rand::rngs::StdRng,
        chain: &TskChain<F61>,
        committee: &Committee,
        pairs: &[(PkePublicKey<F61>, Ciphertext<F61>)],
    ) -> (Vec<(F61, F61)>, Vec<Vec<usize>>) {
        let phase = crate::engine::phase_index("x");
        pairs
            .iter()
            .map(|(target, ct)| {
                let mut irng = rand::rngs::StdRng::seed_from_u64(r.next_u64());
                let (mut parties, mut us, mut vs) = (Vec::new(), Vec::new(), Vec::new());
                for i in 0..committee.n() {
                    let behavior = *committee.behavior(i);
                    if !behavior.participates_at(phase) {
                        continue;
                    }
                    let mut mrng = rand::rngs::StdRng::seed_from_u64(irng.next_u64());
                    let honest = behavior == Behavior::Honest;
                    let d = if honest {
                        chain.share_of(i).unwrap().value * ct.u
                    } else {
                        F61::random(&mut mrng)
                    };
                    let (enc, _) = LinearPke::encrypt(&mut mrng, target, d);
                    if honest && parties.len() <= chain.t() {
                        parties.push(i);
                        us.push(enc.u);
                        vs.push(enc.v);
                    }
                }
                let opening =
                    (ct.v - interpolated_at_zero(&parties, &vs), -interpolated_at_zero(&parties, &us));
                (opening, parties)
            })
            .unzip()
    }

    /// `count` values encrypted under `chain`'s key, each to a fresh
    /// target: the target key pairs, the values, and the `Re-encrypt`
    /// items.
    #[allow(clippy::type_complexity)]
    fn reencrypt_items(
        r: &mut rand::rngs::StdRng,
        chain: &TskChain<F61>,
        count: usize,
    ) -> (Vec<PkeKeyPair<F61>>, Vec<F61>, Vec<(PkePublicKey<F61>, Ciphertext<F61>)>) {
        let mut out = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..count {
            let target = LinearPke::<F61>::keygen(r);
            let m = F61::random(r);
            out.2.push((target.public, MockTe::encrypt(r, &chain.pk, m).0));
            out.0.push(target);
            out.1.push(m);
        }
        out
    }

    #[test]
    fn openings_agree_with_per_item_interpolation() {
        for seed in 0..24 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, t, committee) = random_committee(&mut r);
            let board = BulletinBoard::new();
            let sb = ShardedBoard::new(&board, RolePartition::solo());
            let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
            let (targets, ms, pairs) = reencrypt_items(&mut r, &chain, 3);
            let (expected, _) = replayed_openings(r.clone(), &chain, &committee, &pairs);
            let vals = chain.reencrypt(&mut r, &sb, &committee, &cfg(), "x", &pairs).unwrap();
            for (((val, kp), m), expect) in vals.iter().zip(&targets).zip(&ms).zip(expected) {
                assert_eq!(val.opening_coefficients().unwrap(), expect, "seed {seed}");
                assert_eq!(val.open(kp.secret.scalar).unwrap(), *m, "seed {seed}");
            }
        }
    }

    #[test]
    fn values_of_one_batch_with_differing_subsets_open() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let target = LinearPke::<F61>::keygen(&mut r);
        let cache = Mutex::new(WeightCache::new());
        // Provider 0's posting on the middle value does not verify: its
        // subset is {1, 2, 3}, the others' {0, 1, 2}.
        for (item, m) in [11u64, 22, 33].into_iter().map(F61::from).enumerate() {
            let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
            let mut kept = FirstValid::new(chain.t(), 2);
            for i in 0..7 {
                let valid = !(item == 1 && i == 0);
                let d = if valid { chain.share_of(i).unwrap().value * ct.u } else { F61::random(&mut r) };
                let enc = LinearPke::encrypt(&mut r, &target.public, d).0;
                kept.offer(i, || valid, || [enc.u, enc.v]);
            }
            let val = ReencryptedValue::fold(&kept, &chain, &cache, target.public, ct.v).unwrap();
            assert_eq!(val.open(target.secret.scalar).unwrap(), m, "item {item}");
        }
        let cache = cache.into_inner().unwrap();
        assert_eq!(cache.keys().collect::<Vec<_>>(), [&vec![0, 1, 2], &vec![1, 2, 3]]);
    }

    #[test]
    fn openings_are_identical_at_any_thread_count() {
        let mut r = rng();
        let (n, t) = (7, 3);
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let committee = Adversary::active(t, ActiveAttack::WrongValue).sample_committee(
            &mut r,
            "r",
            n,
        );
        // Forced onto 2 and 8 workers below: 256 items give each work.
        let pairs: Vec<_> = (0..256)
            .map(|_| {
                let target = LinearPke::<F61>::keygen(&mut r).public;
                let m = F61::random(&mut r);
                (target, MockTe::encrypt(&mut r, &chain.pk, m).0)
            })
            .collect();
        let openings = |threads: usize| -> Vec<(F61, F61)> {
            let mut r = rand::rngs::StdRng::seed_from_u64(7);
            let board = BulletinBoard::new();
            let sb = ShardedBoard::new(&board, RolePartition::solo()).with_threads(threads);
            let vals = crate::parallel::with_forced_workers(threads, || {
                chain.reencrypt(&mut r, &sb, &committee, &cfg(), "x", &pairs).unwrap()
            });
            vals.iter().map(|v| v.opening_coefficients().unwrap()).collect()
        };
        let solo = openings(1);
        assert_eq!(openings(2), solo);
        assert_eq!(openings(8), solo);
    }

    /// A re-encrypted value holds its target, `source_v`, `t` and the
    /// folded pair, whatever the committee's size.
    #[test]
    fn a_reencrypted_value_is_a_few_words() {
        assert!(std::mem::size_of::<ReencryptedValue<F61>>() <= 64);
    }

    #[test]
    fn starved_reencryption_fails_at_open_not_at_reencrypt() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let (n, t) = (5, 2);
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let mut behaviors = vec![Behavior::Malicious(ActiveAttack::WrongValue); n];
        behaviors[0] = Behavior::Honest;
        behaviors[1] = Behavior::Honest;
        let committee = Committee::with_behaviors("starved", behaviors);
        let target = LinearPke::<F61>::keygen(&mut r);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, F61::ONE);
        let vals = chain
            .reencrypt(&mut r, &sb, &committee, &cfg(), "x", &[(target.public, ct)])
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

    /// Hands `chain` over from `outgoing` and checks every new share and
    /// verification key against Horner evaluation and per-item
    /// interpolation of the first `t + 1` honest dealers' polynomials;
    /// returns those dealers.
    fn handover_against_the_oracle(
        r: &mut rand::rngs::StdRng,
        chain: &mut TskChain<F61>,
        outgoing: &Committee,
        cfg: &ExecutionConfig,
    ) -> Vec<usize> {
        let (n, t) = (chain.pk.n, chain.t());
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let next_keys: Vec<PkeKeyPair<F61>> = (0..n).map(|_| LinearPke::keygen(r)).collect();

        // Replay the dealers' draws: one child seed per posting member,
        // `t` coefficients from the child.
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

        chain.handover(r, &sb, outgoing, cfg, "x", &next_keys).unwrap();
        for j in 0..n {
            let x = F61::from_u64(j as u64 + 1);
            let subs: Vec<F61> = polys.iter().map(|(_, c)| horner(c, x)).collect();
            let share = interpolated_at_zero(&providers, &subs);
            assert_eq!(chain.share_of(j).unwrap().value, share, "share {j}");
            let committed: Vec<F61> = subs.iter().map(|&s| s * g).collect();
            assert_eq!(chain.pk.vks[j], interpolated_at_zero(&providers, &committed), "vk {j}");
        }
        providers
    }

    #[test]
    fn handover_agrees_with_horner_and_per_item_interpolation() {
        for seed in 0..24 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, t, outgoing) = random_committee(&mut r);
            let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
            let providers = handover_against_the_oracle(&mut r, &mut chain, &outgoing, &cfg());
            assert_eq!(providers.len(), t + 1, "seed {seed}");
        }
    }

    /// A committee of `n` whose first `t` members mount `attack`.
    fn first_t_hostile(n: usize, t: usize, attack: ActiveAttack) -> Committee {
        let mut behaviors = vec![Behavior::Honest; n];
        behaviors[..t].fill(Behavior::Malicious(attack));
        Committee::with_behaviors("c", behaviors)
    }

    /// The configurations the first-`t + 1` rule must hold under:
    /// contributions verified, and predicted.
    fn proofs_on_and_off() -> [ExecutionConfig; 2] {
        [cfg(), ExecutionConfig { produce_proofs: false, ..cfg() }]
    }

    #[test]
    fn decrypt_opens_from_members_t_to_2t_when_the_first_t_fail() {
        let (n, t) = (9, 4);
        let providers: Vec<usize> = (t..=2 * t).collect();
        for attack in [ActiveAttack::Silent, ActiveAttack::WrongValue, ActiveAttack::BadProof] {
            for cfg in proofs_on_and_off() {
                let mut r = rng();
                let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
                let ms: Vec<F61> = (0..3).map(|_| F61::random(&mut r)).collect();
                let cts: Vec<_> =
                    ms.iter().map(|&m| MockTe::encrypt(&mut r, &chain.pk, m).0).collect();
                let board = BulletinBoard::new();
                let sb = ShardedBoard::new(&board, RolePartition::solo());
                                let committee = first_t_hostile(n, t, attack);
                let kept = chain.partials(&mut r, &sb, &committee, &cfg, "x", &cts).unwrap();
                let got = chain.combine_partials(&cts, &kept).unwrap();
                assert_eq!(got, ms, "{attack:?}");
                for ((ct, kept), value) in cts.iter().zip(&kept).zip(got) {
                    assert_eq!(kept.parties, providers, "{attack:?}");
                    let honest: Vec<F61> = providers
                        .iter()
                        .map(|&i| MockTe::partial_decrypt(chain.share_of(i).unwrap(), ct).value)
                        .collect();
                    assert_eq!(kept.column(0), honest, "{attack:?}");
                    assert_eq!(value, ct.v - interpolated_at_zero(&providers, &honest));
                }
            }
        }
    }

    #[test]
    fn reencrypt_opens_from_members_t_to_2t_when_the_first_t_fail() {
        let (n, t) = (9, 4);
        let providers: Vec<usize> = (t..=2 * t).collect();
        for attack in [ActiveAttack::Silent, ActiveAttack::WrongValue, ActiveAttack::BadProof] {
            for cfg in proofs_on_and_off() {
                let mut r = rng();
                let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
                let (targets, ms, pairs) = reencrypt_items(&mut r, &chain, 3);
                let board = BulletinBoard::new();
                let sb = ShardedBoard::new(&board, RolePartition::solo());
                let committee = first_t_hostile(n, t, attack);
                let (expected, parties) = replayed_openings(r.clone(), &chain, &committee, &pairs);
                let vals = chain.reencrypt(&mut r, &sb, &committee, &cfg, "x", &pairs).unwrap();
                for (((val, kp), m), (expect, parties)) in
                    vals.iter().zip(&targets).zip(&ms).zip(expected.into_iter().zip(parties))
                {
                    assert_eq!(parties, providers, "{attack:?}");
                    assert_eq!(val.opening_coefficients().unwrap(), expect, "{attack:?}");
                    assert_eq!(val.open(kp.secret.scalar).unwrap(), *m, "{attack:?}");
                }
            }
        }
    }

    /// Exact and host-independent: each of a threshold step's `n`
    /// postings is proved, and its reader verifies postings only until
    /// it keeps `t + 1` — `2t + 1` verifications when the first `t` are
    /// forged (a forgery costs its maker no hash and its reader one
    /// verification). A `Decrypt` ciphertext and a `Re-encrypt` item
    /// pay one block a proof or a verification, a handover
    /// ⌈(9 + 16·(t + 1 + 2n)) / 64⌉; each step builds its one map. A
    /// forged dealing's random `C_0` fails its binding to the dealer's
    /// key before any hash.
    #[cfg(debug_assertions)]
    #[test]
    fn a_threshold_step_proves_every_posting_and_verifies_its_first_t_plus_1_valid_ones() {
        use yoso_crypto::sha256::compressions_of;
        let (n, t) = (9usize, 4usize);
        for (forged, verified) in [(0, t + 1), (t, 2 * t + 1)] {
            let committee = first_t_hostile(n, forged, ActiveAttack::WrongValue);
            let (proved, verified) = ((n - forged) as u64, verified as u64);
            let mut r = rng();
            let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
            let (_, _, pairs) = reencrypt_items(&mut r, &chain, 1);
            let [(target, ct)] = pairs[..] else { unreachable!() };
            let board = BulletinBoard::new();
            let sb = ShardedBoard::new(&board, RolePartition::solo());

            let building = compressions_of(|| PdecMap::new(&chain.pk, &ct)).1;
            let (kept, blocks) = compressions_of(|| {
                chain.partials(&mut r, &sb, &committee, &cfg(), "x", &[ct]).unwrap()
            });
            assert_eq!(kept[0].parties, (forged..=forged + t).collect::<Vec<_>>());
            assert_eq!(blocks, building + proved + verified, "decrypt, {forged} forged");

            let building = compressions_of(|| EncryptedPartialMap::new(&chain.pk, &target)).1;
            let (vals, blocks) = compressions_of(|| {
                chain.reencrypt(&mut r, &sb, &committee, &cfg(), "x", &pairs).unwrap()
            });
            assert!(vals[0].opening_coefficients().is_ok());
            assert_eq!(blocks, building + proved + verified, "re-encrypt, {forged} forged");

            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..n).map(|_| LinearPke::keygen(&mut r)).collect();
            let rpks: Vec<_> = next_keys.iter().map(|kp| kp.public).collect();
            let building = compressions_of(|| DealMap::reshare(chain.pk.g, &rpks, &chain.table)).1;
            let per_challenge = (9 + 16 * (t + 1 + 2 * n) as u64).div_ceil(64);
            let (_, blocks) = compressions_of(|| {
                chain.handover(&mut r, &sb, &committee, &cfg(), "x", &next_keys).unwrap()
            });
            let expected = building + per_challenge * (proved + t as u64 + 1);
            assert_eq!(blocks, expected, "handover, {forged} forged");
        }
    }

    #[test]
    fn handover_deals_from_members_t_to_2t_when_the_first_t_fail() {
        let (n, t) = (9, 4);
        for attack in [ActiveAttack::Silent, ActiveAttack::WrongValue] {
            for cfg in proofs_on_and_off() {
                let mut r = rng();
                let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
                let outgoing = first_t_hostile(n, t, attack);
                let providers = handover_against_the_oracle(&mut r, &mut chain, &outgoing, &cfg);
                assert_eq!(providers, (t..=2 * t).collect::<Vec<_>>(), "{attack:?}");
            }
        }
    }

    #[test]
    fn a_handover_with_t_valid_dealers_is_starved_and_keeps_the_key() {
        let (n, t) = (9, 4);
        for cfg in proofs_on_and_off() {
            let mut r = rng();
            let board = BulletinBoard::new();
            let sb = ShardedBoard::new(&board, RolePartition::solo());
            let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
            let before = chain.clone();
            // Members t…n − 1 mount the attack: t valid dealers are left.
            let mut behaviors = vec![Behavior::Malicious(ActiveAttack::WrongValue); n];
            behaviors[..t].fill(Behavior::Honest);
            let outgoing = Committee::with_behaviors("starved", behaviors);
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..n).map(|_| LinearPke::keygen(&mut r)).collect();
            assert!(matches!(
                chain.handover(&mut r, &sb, &outgoing, &cfg, "x", &next_keys),
                Err(ProtocolError::NotEnoughContributions { step: "tsk handover", got, need })
                    if (got, need) == (t, t + 1)
            ));
            assert_eq!(chain.pk.vks, before.pk.vks);
            for i in 0..n {
                assert_eq!(chain.share_of(i).unwrap().value, before.share_of(i).unwrap().value);
            }
        }
    }

    #[test]
    fn mismatched_committee_sizes_are_typed_errors() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let mut chain = TskChain::<F61>::keygen(&mut r, 5, 1).unwrap();
        let next_keys: Vec<PkeKeyPair<F61>> = (0..4).map(|_| LinearPke::keygen(&mut r)).collect();
        let outgoing = Committee::honest("h0", 5);
        assert!(matches!(
            chain.handover(&mut r, &sb, &outgoing, &cfg(), "x", &next_keys),
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
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let cfg = ExecutionConfig { produce_proofs: false, ..ExecutionConfig::default() };
        let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        for epoch in 0..50 {
            let outgoing = Committee::honest(format!("h{epoch}"), n);
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..n).map(|_| LinearPke::keygen(&mut r)).collect();
            chain.handover(&mut r, &sb, &outgoing, &cfg, "x", &next_keys).unwrap();
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
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let mut chain = TskChain::<F61>::keygen(&mut r, 5, 1).unwrap();
        let outgoing = Committee::honest("h0", 5);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..5).map(|_| LinearPke::keygen(&mut r)).collect();
        chain.handover(&mut r, &sb, &outgoing, &cfg(), "x", &next_keys).unwrap();
        for j in 0..5 {
            let share = chain.share_of(j).unwrap();
            assert_eq!(chain.pk.vks[j], share.value * chain.pk.g);
        }
    }
}
