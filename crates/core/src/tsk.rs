//! Custody of the threshold secret key across committees.
//!
//! The threshold key `tsk` is Shamir-shared among the current
//! committee. A committee holding it can, each role speaking once:
//!
//! - **decrypt** ciphertexts publicly ([`TskChain::decrypt`], the
//!   paper's `Decrypt` / Protocol 2): each role posts its cleartext
//!   partial decryptions with one correctness NIZK for all of them;
//! - **re-encrypt** ciphertexts to a target public key
//!   ([`TskChain::reencrypt`], the paper's `Re-encrypt` / Protocol 1):
//!   each role posts its partial decryptions *encrypted* under the
//!   target keys, again with one NIZK — only a target learns its value;
//! - **hand over** the key to the next committee
//!   ([`TskChain::handover`], `TKRes`/`TKRec`): each role posts
//!   Feldman commitments plus subshares encrypted to the next
//!   committee's role keys, with a re-share NIZK; everyone derives the
//!   next verification keys publicly.
//!
//! Malicious roles post garbage (their proofs fail), silent/crashed
//! roles post nothing; all consumers filter to proof-verified
//! messages, which under `t < n/2` always suffice — this is where
//! guaranteed output delivery comes from. A role's message is kept or
//! dropped whole, so every value of a step opens from the same roles.

use rand::rngs::StdRng;
use rand::Rng;

use yoso_crypto::Domain;
use yoso_field::PrimeField;
use yoso_pss_sharing::shamir::{PowerTable, ZeroWeights};
use yoso_runtime::{ActiveAttack, Behavior, Committee, LeakLog};
use yoso_the::mock::{Ciphertext, KeyShare, LinearPke, MockTe, PkeKeyPair, PkePublicKey, PublicKey};
use yoso_the::nizk::{self, DealMap, LinearMap, PdecBatch, PdecProof, ReshareProof};

use crate::messages::{self, Post};
use crate::parallel::PostBuffer;
use crate::step::{Proved, Step, Turn};
use crate::workitem::ShardedBoard;
use crate::{ExecutionConfig, ProtocolError};

/// A holder's partial decryption of `ct`, as its `attack` has it.
fn partial<F: PrimeField>(
    rng: &mut StdRng,
    share: &KeyShare<F>,
    attack: Option<ActiveAttack>,
    ct: &Ciphertext<F>,
) -> F {
    match attack {
        None | Some(ActiveAttack::BadProof | ActiveAttack::OneLie) => {
            MockTe::partial_decrypt(share, ct).value
        }
        Some(_) => F::random(rng),
    }
}

/// Whether a member mounting `attack` proves its message from its
/// honest witness.
pub(crate) fn proves_honestly(attack: Option<ActiveAttack>) -> bool {
    matches!(attack, None | Some(ActiveAttack::OneLie))
}

/// What a member mounting `attack` does to one value of its message
/// after proving it ([`ActiveAttack::OneLie`]: adds one).
pub(crate) fn lie_once<F: PrimeField>(attack: Option<ActiveAttack>, value: Option<&mut F>) {
    if let (Some(ActiveAttack::OneLie), Some(value)) = (attack, value) {
        *value += F::ONE;
    }
}

/// A holder's `Re-encrypt` of one item: its partial decryption of the
/// source ciphertext `ct`, as its `attack` has it, encrypted to
/// `target`, with the encryption randomness.
fn reencrypted<F: PrimeField>(
    rng: &mut StdRng,
    share: &KeyShare<F>,
    attack: Option<ActiveAttack>,
    (target, ct): &(PkePublicKey<F>, Ciphertext<F>),
) -> (Ciphertext<F>, F) {
    let d = partial(rng, share, attack, ct);
    LinearPke::encrypt(rng, target, d)
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
    /// They are folded from the step's first `t + 1` valid messages.
    /// The Lagrange recombination of the partial decryptions happens
    /// *inside* the ciphertexts: combining `(u_j, v_j)` with
    /// coefficients `w_j` yields an encryption of the combined partial
    /// `s·u_ct`, so `value = v_ct − (a_v − sk·a_u)` … folded into
    /// `(a, b)` when the step ends.
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

/// What a threshold step — a `Decrypt`, a `Re-encrypt`, a handover —
/// reads of its role messages: the first `t + 1` valid ones, recombined
/// value by value into one running sum per value, `Σ_p w_p·x_(p, c)`
/// under the kept roles' weights at zero. A role is kept or dropped
/// whole, so every value of the step opens from the same roles
/// (DESIGN.md §8 "The t + 1 rule").
///
/// Where validity is predicted (proofs off), the kept roles are known
/// before any member computes: each kept message is folded as it comes
/// and every other one is never computed, so the step holds its sums
/// and nothing else. Where proofs are checked, the kept roles are known
/// only once `t + 1` have verified: their messages are held until the
/// step ends, and every later one is dropped unverified.
struct Recombination<F: PrimeField> {
    need: usize,
    /// The kept roles, in posting order.
    parties: Vec<usize>,
    fold: Fold<F>,
    sums: Vec<F>,
}

enum Fold<F: PrimeField> {
    /// The kept roles were predicted; their weights, unless fewer than
    /// `t + 1` were (the step is starved).
    Running(Option<ZeroWeights<F>>),
    /// The kept roles' messages, held until their weights are known.
    Held(Vec<Vec<F>>),
}

impl<F: PrimeField> Recombination<F> {
    /// A step whose kept roles are `predicted` (the first `t + 1`
    /// predicted-valid speakers), over messages of `width` values.
    ///
    /// # Errors
    ///
    /// A weight error for an out-of-range or repeated role.
    fn predicted(
        pk: &PublicKey<F>,
        predicted: Vec<usize>,
        width: usize,
    ) -> Result<Self, ProtocolError> {
        let need = pk.t + 1;
        let weights = if predicted.len() == need {
            Some(MockTe::zero_weights(pk, &predicted)?)
        } else {
            None
        };
        let (fold, sums) = (Fold::Running(weights), vec![F::ZERO; width]);
        Ok(Recombination { need, parties: predicted, fold, sums })
    }

    /// A step whose messages of `width` values are kept as they verify.
    fn verified(pk: &PublicKey<F>, width: usize) -> Self {
        let need = pk.t + 1;
        let (fold, sums) = (Fold::Held(Vec::with_capacity(need)), vec![F::ZERO; width]);
        Recombination { need, parties: Vec::with_capacity(need), fold, sums }
    }

    /// Offers `party`'s message. Where the kept roles were predicted it
    /// is folded if `party` is one of them; otherwise it is kept if
    /// `t + 1` are not kept yet and it verifies. `valid` is asked, and
    /// `values` computed, only for a message that may be kept.
    fn offer<I: IntoIterator<Item = F>>(
        &mut self,
        party: usize,
        valid: impl FnOnce() -> bool,
        values: impl FnOnce() -> I,
    ) {
        match &mut self.fold {
            Fold::Running(weights) => {
                let Some(weights) = weights else { return };
                let Ok(p) = self.parties.binary_search(&party) else { return };
                debug_assert!(valid(), "a predicted-valid role posts a valid message");
                let w = weights.weights()[p];
                for (sum, value) in self.sums.iter_mut().zip(values()) {
                    *sum += w * value;
                }
            }
            Fold::Held(held) => {
                if self.parties.len() < self.need && valid() {
                    self.parties.push(party);
                    held.push(values().into_iter().collect());
                }
            }
        }
    }

    /// The sums, one per value.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotEnoughContributions`], named after `step`,
    /// when fewer than `t + 1` roles were kept.
    fn finish(mut self, pk: &PublicKey<F>, step: &'static str) -> Result<Vec<F>, ProtocolError> {
        let got = self.parties.len();
        if got < self.need {
            return Err(ProtocolError::NotEnoughContributions { step, got, need: self.need });
        }
        if let Fold::Held(held) = &self.fold {
            let weights = MockTe::zero_weights(pk, &self.parties)?;
            for (message, &w) in held.iter().zip(weights.weights()) {
                for (sum, &value) in self.sums.iter_mut().zip(message) {
                    *sum += w * value;
                }
            }
        }
        Ok(self.sums)
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

    /// Public `Decrypt` of a batch of ciphertexts by `committee`
    /// (paper Protocol 2, minus the handover — call
    /// [`Self::handover`] separately once per committee).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` holders' messages verify.
    pub fn decrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Vec<F>, ProtocolError> {
        if cts.is_empty() {
            return Ok(Vec::new());
        }
        let sums = self.partials(rng, sb, committee, cfg, phase, cts)?;
        let sums = sums.finish(&self.pk, "threshold decrypt")?;
        Ok(cts.iter().zip(sums).map(|(ct, combined)| ct.v - combined).collect())
    }

    /// The postings of a `Decrypt`: one [`Step`] over the share holders,
    /// each posting one message — its partial of every ciphertext and
    /// one proof ([`PdecBatch`]) — recombined as the step runs.
    fn partials<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Recombination<F>, ProtocolError> {
        self.record_leaks(committee);
        let mut posts = PostBuffer::new();
        let elements = messages::decrypt_elements(cts.len() as u64);
        let step = Step::new(committee, sb, phase, Post::PartialDec, elements);
        let kept = if cfg.produce_proofs {
            // Proofs are worth a thread: the members fan out, and each
            // hands its message to the fold.
            let batch = PdecBatch::new(&self.pk, cts);
            let mut kept = Recombination::verified(&self.pk, cts.len());
            let work = |mut turn: Turn<_>, share: &KeyShare<F>| {
                let (vk, attack) = (self.pk.vks[turn.index], turn.attack());
                let mut partials: Vec<F> =
                    cts.iter().map(|ct| partial(&mut turn.rng, share, attack, ct)).collect();
                let proof = turn.prove(|batch: &&PdecBatch<F>, rng| {
                    if proves_honestly(attack) {
                        batch.prove(rng, vk, share.value, &partials)
                    } else {
                        PdecProof::garbage(rng)
                    }
                });
                lie_once(attack, partials.last_mut());
                (partials, proof)
            };
            let holders = self.holders(committee);
            step.run(rng, &mut posts, Some(&batch), holders, work, |member, (partials, proof)| {
                let vk = self.pk.vks[member];
                let valid = || proof.verify(|batch, proof| batch.verify(vk, &partials, proof));
                kept.offer(member, valid, || partials.iter().copied());
                Ok(())
            })?;
            kept
        } else {
            let honest = |_: &mut StdRng, share: &KeyShare<F>| {
                cts.iter().map(|ct| MockTe::partial_decrypt(share, ct).value).collect()
            };
            self.predicted(rng, &mut posts, &step.inline(), committee, cts.len(), honest)?
        };
        sb.flush_buffer(posts)?;
        Ok(kept)
    }

    /// A threshold step nobody proves: the kept holders — the first
    /// `t + 1` predicted valid — are known before any computes, so the
    /// fold makes their messages' `width` values in place (`honest`,
    /// from the holder's RNG and share), folds each as it comes, and
    /// nobody else computes.
    fn predicted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        posts: &mut PostBuffer,
        step: &Step<'_>,
        committee: &Committee,
        width: usize,
        honest: impl Fn(&mut StdRng, &KeyShare<F>) -> Vec<F>,
    ) -> Result<Recombination<F>, ProtocolError> {
        let predicted = step.predicted_valid(self.holders(committee).map(|(i, _)| i), self.pk.t + 1);
        let mut kept = Recombination::predicted(&self.pk, predicted, width)?;
        let work = |turn: Turn<_>, share| (turn, share);
        let fold = |member, (mut turn, share): (Turn<_>, &KeyShare<F>)| {
            let follows = turn.attack().is_none();
            kept.offer(member, || follows, || honest(&mut turn.rng, share));
            Ok(())
        };
        step.run(rng, posts, None::<&()>, self.holders(committee), work, fold)?;
        Ok(kept)
    }

    /// `Re-encrypt` of a batch of `(target, ciphertext)` pairs by
    /// `committee` (paper Protocol 1, minus the handover): one committee
    /// step over the share holders, each posting one message — every
    /// item re-encrypted, and one proof over the call's
    /// [`ReencryptMap`] — folded to each item's public opening when the
    /// step ends.
    ///
    /// A holder's turn re-encrypts the items in order from its child
    /// RNG; the members fan out where proofs are made, and only the
    /// kept holders compute where they are predicted.
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
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let mut posts = PostBuffer::new();
        let elements = messages::reencrypt_elements(items.len() as u64);
        let step = Step::new(committee, sb, phase, Post::EncryptedPartial, elements);
        let width = 2 * items.len();
        let kept = if cfg.produce_proofs {
            let map = ReencryptMap::new(&self.pk, items);
            let mut kept = Recombination::verified(&self.pk, width);
            let work = |mut turn: Turn<_>, share: &KeyShare<F>| {
                let (vk, attack) = (self.pk.vks[turn.index], turn.attack());
                let (mut encs, rands): (Vec<_>, Vec<_>) = items
                    .iter()
                    .map(|item| reencrypted(&mut turn.rng, share, attack, item))
                    .unzip();
                let proof = turn.prove(|map: &&ReencryptMap<F>, rng| {
                    if proves_honestly(attack) {
                        map.prove(rng, vk, share.value, &encs, &rands)
                    } else {
                        map.garbage(rng)
                    }
                });
                lie_once(attack, encs.last_mut().map(|enc| &mut enc.v));
                (encs, proof)
            };
            let holders = self.holders(committee);
            step.run(rng, &mut posts, Some(&map), holders, work, |member, (encs, proof)| {
                let vk = self.pk.vks[member];
                let valid = || proof.verify(|map, proof| map.verify(vk, &encs, proof));
                kept.offer(member, valid, || encs.iter().flat_map(|enc| [enc.u, enc.v]));
                Ok(())
            })?;
            kept
        } else {
            let honest = |rng: &mut StdRng, share: &KeyShare<F>| {
                let encs = items.iter().map(|item| reencrypted(rng, share, None, item).0);
                encs.flat_map(|enc| [enc.u, enc.v]).collect()
            };
            self.predicted(rng, &mut posts, &step.inline(), committee, width, honest)?
        };
        sb.flush_buffer(posts)?;
        // A starved step keeps its count: the shortage is reported when
        // (and only if) somebody opens one of its values.
        let sums = match kept.finish(&self.pk, "re-encrypt opening") {
            Ok(sums) => Ok(sums),
            Err(ProtocolError::NotEnoughContributions { got, .. }) => Err(got),
            Err(other) => return Err(other),
        };
        let opened = items.iter().enumerate().map(|(i, &(target, ct))| {
            // Σ w_j (u_j, v_j) encrypts s·u_ct = a_v − sk·a_u, so
            // value = ct.v − s·u_ct = (ct.v − a_v) + sk·a_u = a − sk·b.
            let opening =
                sums.as_ref().map(|s| (ct.v - s[2 * i + 1], -s[2 * i])).map_err(|&got| got);
            ReencryptedValue { target, source_v: ct.v, t: self.pk.t, opening }
        });
        Ok(opened.collect())
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

        let mut posts = PostBuffer::new();
        let elements = messages::reshare_elements(n as u64, t as u64);
        let step = Step::new(outgoing, sb, phase, Post::TskReshare, elements);
        // A dealing kept is its t + 1 commitments, then the subshare
        // each next-committee member decrypts. Where nobody proves, the
        // kept dealers are known before any deals, and nobody else
        // deals.
        let width = t + 1 + n;
        let predicted = (!cfg.produce_proofs)
            .then(|| step.predicted_valid(self.holders(outgoing).map(|(i, _)| i), t + 1));
        let mut kept = match &predicted {
            Some(dealers) => Recombination::predicted(&self.pk, dealers.clone(), width)?,
            None => Recombination::verified(&self.pk, width),
        };
        let (g, pks) = (self.pk.g, &recipient_pks);
        let work = |turn: Turn<_>, share: &KeyShare<F>| {
            let deals = predicted.as_ref().is_none_or(|p| p.binary_search(&turn.index).is_ok());
            deals.then(|| deal(turn, g, |_| share.value, table, pks))
        };
        let fold = |from, dealt: Option<PostedReshare<'_, F>>| {
            let Some(dealt) = dealt else { return Ok(()) };
            // The re-share relation binds C_0 to the dealer's
            // verification key.
            let valid = || {
                dealt.verify(|map, targets, proof| {
                    map.verify_reshare(&self.pk, from, targets, proof)
                })
            };
            kept.offer(from, valid, || {
                let subshares = (dealt.enc_subshares.iter().zip(next_keys))
                    .map(|(enc, kp)| LinearPke::decrypt(&kp.secret, enc));
                dealt.commitments.iter().copied().chain(subshares)
            });
            Ok(())
        };
        step.run(rng, &mut posts, map.as_ref(), self.holders(outgoing), work, fold)?;
        sb.flush_buffer(posts)?;

        // The kept commitments collapsed to Σ w_p·C_p(X), then each
        // next-committee member's recombined subshares.
        let sums = kept.finish(&self.pk, "tsk handover")?;
        let (collapsed, shares) = sums.split_at(t + 1);
        // Public derivation of the next verification keys: the collapsed
        // polynomial evaluated once per recipient.
        self.pk.vks = table.eval_all(collapsed);
        self.shares =
            shares.iter().enumerate().map(|(j, &value)| Some(KeyShare { party: j, value })).collect();
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
    let proof =
        turn.prove(|map, rng| match (&witness, map.targets(&commitments, &enc_subshares)) {
            (Some((coeffs, rands)), Some(targets)) => map.prove(rng, &targets, coeffs, rands),
            _ => map.garbage(rng),
        });
    PostedReshare { commitments, enc_subshares, proof }
}

static DOMAIN_REENCRYPT: Domain = Domain::new(b"yoso-pss/nizk/reencrypt/v1");

/// The `Re-encrypt` message relation of one call: each ciphertext a
/// holder posts encrypts, under its item's target key, the holder's
/// correct partial decryption of the item's source ciphertext, bound to
/// the holder's Feldman verification key.
///
/// Witness `(s, r_1 … r_m)`; rows `s·g = vk`, then for item `i` (target
/// `(g_i, h_i)`, source `u_i`) `r_i·g_i = enc_i.u` and
/// `s·u_i + r_i·h_i = enc_i.v`. The key-share row is shared by every
/// item; each item's randomness keeps its own two rows — combined, an
/// `r_i` would be free and any ciphertext would pass. The map holds the
/// call's public data only, so one serves every holder; who proves
/// enters through `vk`, what it posted through the other targets.
#[derive(Debug, Clone)]
pub struct ReencryptMap<F: PrimeField>(LinearMap<F>);

impl<F: PrimeField> ReencryptMap<F> {
    /// The map for re-encryptions of `items` from `tpk`.
    pub fn new(tpk: &PublicKey<F>, items: &[(PkePublicKey<F>, Ciphertext<F>)]) -> Self {
        let key_row = std::iter::once(vec![(0, tpk.g)]);
        let item_rows = items.iter().zip(1..).flat_map(|((target, ct), col)| {
            [vec![(col, target.g)], vec![(0, ct.u), (col, target.h)]]
        });
        // lint:allow(panic): infallible — column 0 and then each item's
        // own column, in increasing order and below `1 + m`; only
        // coefficients come from outside.
        let map = LinearMap::new(&DOMAIN_REENCRYPT, 1 + items.len(), key_row.chain(item_rows));
        ReencryptMap(map.expect("columns in range and increasing by construction"))
    }

    fn targets(vk: F, encs: &[Ciphertext<F>]) -> Vec<F> {
        std::iter::once(vk).chain(encs.iter().flat_map(|enc| [enc.u, enc.v])).collect()
    }

    /// Proves that `encs` encrypt, with randomness `rands`, the partial
    /// decryptions of the call's items under the key share
    /// `share_value` behind `vk`.
    pub fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        vk: F,
        share_value: F,
        encs: &[Ciphertext<F>],
        rands: &[F],
    ) -> nizk::LinearProof<F> {
        let witness: Vec<F> = std::iter::once(share_value).chain(rands.iter().copied()).collect();
        nizk::prove_linear(rng, &self.0, &Self::targets(vk, encs), &witness)
    }

    /// What a malicious holder posts: a random proof of the map's shape.
    pub fn garbage<R: Rng + ?Sized>(&self, rng: &mut R) -> nizk::LinearProof<F> {
        self.0.garbage(rng)
    }

    /// Verifies a holder's `Re-encrypt` message against its
    /// verification key.
    pub fn verify(&self, vk: F, encs: &[Ciphertext<F>], proof: &nizk::LinearProof<F>) -> bool {
        nizk::verify_linear(&self.0, &Self::targets(vk, encs), proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RolePartition;
    use rand::RngCore;
    use rand::SeedableRng;
    use yoso_field::F61;
    use yoso_runtime::Adversary;
    use yoso_runtime::BulletinBoard;

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
        let vals = chain
            .reencrypt(&mut r, &sb, &committee, &cfg(), "offline/reenc", &[(target.public, ct)])
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

    /// One honest `Re-encrypt` message by member 1 of a committee of 5
    /// over `m` items: the chain, the items, and the member's ciphertexts
    /// with their randomness.
    #[allow(clippy::type_complexity)]
    fn message(
        r: &mut rand::rngs::StdRng,
        m: usize,
    ) -> (TskChain<F61>, Vec<(PkePublicKey<F61>, Ciphertext<F61>)>, Vec<Ciphertext<F61>>, Vec<F61>)
    {
        let chain = TskChain::<F61>::keygen(r, 5, 2).unwrap();
        let (_, _, items) = reencrypt_items(r, &chain, m);
        let s = chain.share_of(1).unwrap().value;
        let (encs, rands) =
            items.iter().map(|(target, ct)| LinearPke::encrypt(r, target, s * ct.u)).unzip();
        (chain, items, encs, rands)
    }

    #[test]
    fn an_enc_pdec_proof_binds_provider_ciphertexts_and_domain() {
        let mut r = rng();
        let (chain, items, encs, rands) = message(&mut r, 3);
        let map = ReencryptMap::new(&chain.pk, &items);
        let (vk, s) = (chain.pk.vks[1], chain.share_of(1).unwrap().value);
        let proof = map.prove(&mut r, vk, s, &encs, &rands);
        assert!(map.verify(vk, &encs, &proof));
        // One map serves the whole committee: the holder is a target.
        assert!(!map.verify(chain.pk.vks[2], &encs, &proof));
        // One lie anywhere in the message, in either component.
        for i in 0..encs.len() {
            for lie in
                [Ciphertext { u: F61::ONE, v: F61::ZERO }, Ciphertext { u: F61::ZERO, v: F61::ONE }]
            {
                let mut lied = encs.clone();
                lied[i] = Ciphertext { u: lied[i].u + lie.u, v: lied[i].v + lie.v };
                assert!(!map.verify(vk, &lied, &proof), "item {i}");
            }
        }
        // A message short of an item, and other items.
        assert!(!map.verify(vk, &encs[..2], &proof));
        let (_, _, others) = reencrypt_items(&mut r, &chain, 3);
        assert!(!ReencryptMap::new(&chain.pk, &others).verify(vk, &encs, &proof));

        // The retired per-item separator and a version never used: right rows,
        // right targets, right witness, rejected.
        let targets = ReencryptMap::targets(vk, &encs);
        let witness: Vec<F61> = std::iter::once(s).chain(rands).collect();
        for label in ["yoso-pss/nizk/enc-pdec/v4", "yoso-pss/nizk/reencrypt/v0"] {
            let other = LinearMap::new(&Domain::new(label.as_bytes()), 4, map.0.rows()).unwrap();
            let old = nizk::prove_linear(&mut r, &other, &targets, &witness);
            assert!(nizk::verify_linear(&other, &targets, &old));
            assert!(!map.verify(vk, &encs, &old), "{label}");
        }

        // What a malicious holder posts: the map's shape, rejected.
        let garbage = map.garbage(&mut rand::rngs::StdRng::seed_from_u64(20261003));
        assert_eq!((garbage.commitment.len(), garbage.response.len()), (7, 4));
        assert_ne!(garbage.commitment[0], garbage.commitment[1]);
        assert!(!map.verify(vk, &encs, &garbage));
    }

    /// Why each item keeps its own randomness rows. Folded by a `ρ` into
    /// one row, `ρ·u + v = r·(ρ·g_T + h_T) + s·u_ct`, an item's `r` is
    /// free: for any ciphertext whatever, the holder solves for an `r`
    /// and proves the folded statement from a true witness.
    #[test]
    fn a_folded_randomness_row_would_pass_any_ciphertext() {
        let mut r = rng();
        let (chain, items, _, _) = message(&mut r, 1);
        let (target, ct) = items[0];
        let (vk, s) = (chain.pk.vks[1], chain.share_of(1).unwrap().value);
        let forged = LinearPke::encrypt(&mut r, &target, s * ct.u + F61::ONE).0;
        let rho = F61::random(&mut r);
        let base = rho * target.g + target.h;
        let rows = [vec![(0, chain.pk.g)], vec![(0, ct.u), (1, base)]];
        let folded = LinearMap::new(&Domain::new(b"folded/v1"), 2, rows).unwrap();
        let targets = [vk, rho * forged.u + forged.v];
        let free_r = (targets[1] - s * ct.u) * base.inv().unwrap();
        let proof = nizk::prove_linear(&mut r, &folded, &targets, &[s, free_r]);
        assert!(nizk::verify_linear(&folded, &targets, &proof));
    }

    /// Exact and host-independent: a call builds its one map — the
    /// digest of `2m + 1` rows with `3m + 1` non-zeros, then the prefix
    /// block — and each holder's challenge hashes its targets and
    /// commitment, ⌈(9 + 16·(2m + 1)) / 64⌉ blocks, to prove and again
    /// to verify.
    #[cfg(debug_assertions)]
    #[test]
    fn a_call_digests_its_reencrypt_map_once_and_a_challenge_costs_its_tail() {
        use yoso_crypto::sha256::compressions_of;
        for m in [1usize, 3, 52, 144] {
            let mut r = rng();
            let (chain, items, ..) = message(&mut r, m);
            let (map, building) = compressions_of(|| ReencryptMap::new(&chain.pk, &items));
            let rows = 2 * m + 1;
            let digesting = (16 + 8 * rows + 16 * (3 * m + 1) + 9).div_ceil(64) as u64;
            assert_eq!(building, digesting + 1, "{m} items");
            let per_challenge = (9 + 16 * rows as u64).div_ceil(64);
            let (_, committee) = compressions_of(|| {
                for i in 0..5 {
                    let s = chain.share_of(i).unwrap().value;
                    let (encs, rands): (Vec<_>, Vec<_>) = (items.iter())
                        .map(|(target, ct)| LinearPke::encrypt(&mut r, target, s * ct.u))
                        .unzip();
                    let proof = map.prove(&mut r, chain.pk.vks[i], s, &encs, &rands);
                    assert!(map.verify(chain.pk.vks[i], &encs, &proof));
                }
            });
            assert_eq!(committee, 5 * 2 * per_challenge, "{m} items");
        }
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

    /// Both ways a step recombines — predicted roles folded as they
    /// come, verified ones held until the step ends — open every value
    /// to the interpolation at zero through the same kept roles' values.
    #[test]
    fn a_recombination_opens_every_value_from_the_same_first_valid_roles() {
        let mut r = rng();
        let (n, t, width) = (9, 3, 5);
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let messages: Vec<Vec<F61>> =
            (0..n).map(|_| (0..width).map(|_| F61::random(&mut r)).collect()).collect();
        // Members 0 and 2 post invalid messages: 1, 3, 4 and 5 are kept.
        let valid = |i: usize| i != 0 && i != 2;
        let parties = vec![1, 3, 4, 5];
        let expect: Vec<F61> = (0..width)
            .map(|c| {
                let ys: Vec<F61> = parties.iter().map(|&p| messages[p][c]).collect();
                interpolated_at_zero(&parties, &ys)
            })
            .collect();
        let mut held = Recombination::verified(&chain.pk, width);
        let mut predicted = Recombination::predicted(&chain.pk, parties.clone(), width).unwrap();
        let mut asked = Vec::new();
        for (i, message) in messages.iter().enumerate() {
            let ask = || {
                asked.push(i);
                valid(i)
            };
            held.offer(i, ask, || message.iter().copied());
            predicted.offer(i, || valid(i), || message.iter().copied());
        }
        // The held fold asks only until it has t + 1.
        assert_eq!(asked, [0, 1, 2, 3, 4, 5]);
        assert_eq!(held.parties, parties);
        assert_eq!(held.finish(&chain.pk, "x").unwrap(), expect);
        assert_eq!(predicted.finish(&chain.pk, "x").unwrap(), expect);

        // Starved either way: the typed shortage, by name.
        let mut held = Recombination::verified(&chain.pk, width);
        for (i, message) in messages.iter().enumerate() {
            held.offer(i, || i < t, || message.iter().copied());
        }
        let predicted = Recombination::predicted(&chain.pk, vec![1, 3], width).unwrap();
        for (starved, got) in [(held, t), (predicted, 2)] {
            assert!(matches!(
                starved.finish(&chain.pk, "x"),
                Err(ProtocolError::NotEnoughContributions { step: "x", got: g, need: 4 }) if g == got
            ));
        }
    }

    /// What a `Re-encrypt` of `pairs` by `committee`, run from `r`,
    /// opens each item to, replayed from its draws: one child seed a
    /// speaking holder, from which it re-encrypts the items in order;
    /// the first `t + 1` honest holders provide. Returns the openings and
    /// the providers.
    fn replayed_openings(
        mut r: rand::rngs::StdRng,
        chain: &TskChain<F61>,
        committee: &Committee,
        pairs: &[(PkePublicKey<F61>, Ciphertext<F61>)],
    ) -> (Vec<(F61, F61)>, Vec<usize>) {
        let phase = crate::engine::phase_index("x");
        let (mut parties, mut encs) = (Vec::new(), Vec::<Vec<Ciphertext<F61>>>::new());
        for i in 0..committee.n() {
            let behavior = *committee.behavior(i);
            if !behavior.participates_at(phase) {
                continue;
            }
            let mut mrng = rand::rngs::StdRng::seed_from_u64(r.next_u64());
            if behavior == Behavior::Honest && parties.len() <= chain.t() {
                let s = chain.share_of(i).unwrap().value;
                parties.push(i);
                let reencrypt = |(target, ct): &(PkePublicKey<F61>, Ciphertext<F61>)| {
                    LinearPke::encrypt(&mut mrng, target, s * ct.u).0
                };
                encs.push(pairs.iter().map(reencrypt).collect());
            }
        }
        let openings = (pairs.iter().enumerate())
            .map(|(item, (_, ct))| {
                let us: Vec<F61> = encs.iter().map(|e| e[item].u).collect();
                let vs: Vec<F61> = encs.iter().map(|e| e[item].v).collect();
                (ct.v - interpolated_at_zero(&parties, &vs), -interpolated_at_zero(&parties, &us))
            })
            .collect();
        (openings, parties)
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
    fn openings_are_identical_at_any_thread_count() {
        let mut r = rng();
        let (n, t) = (7, 3);
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let committee =
            Adversary::active(t, ActiveAttack::WrongValue).sample_committee(&mut r, "r", n);
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

    /// Every attack a holder can mount on a `Decrypt` or `Re-encrypt`
    /// message.
    const MESSAGE_ATTACKS: [ActiveAttack; 4] = [
        ActiveAttack::Silent,
        ActiveAttack::WrongValue,
        ActiveAttack::BadProof,
        ActiveAttack::OneLie,
    ];

    #[test]
    fn decrypt_opens_from_members_t_to_2t_when_the_first_t_fail() {
        let (n, t) = (9, 4);
        let providers: Vec<usize> = (t..=2 * t).collect();
        for attack in MESSAGE_ATTACKS {
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
                assert_eq!(kept.parties, providers, "{attack:?}");
                let combined = kept.finish(&chain.pk, "x").unwrap();
                for ((ct, m), combined) in cts.iter().zip(&ms).zip(combined) {
                    let honest: Vec<F61> = providers
                        .iter()
                        .map(|&i| MockTe::partial_decrypt(chain.share_of(i).unwrap(), ct).value)
                        .collect();
                    assert_eq!(combined, interpolated_at_zero(&providers, &honest), "{attack:?}");
                    assert_eq!(ct.v - combined, *m, "{attack:?}");
                }
            }
        }
    }

    #[test]
    fn reencrypt_opens_from_members_t_to_2t_when_the_first_t_fail() {
        let (n, t) = (9, 4);
        let providers: Vec<usize> = (t..=2 * t).collect();
        for attack in MESSAGE_ATTACKS {
            for cfg in proofs_on_and_off() {
                let mut r = rng();
                let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
                let (targets, ms, pairs) = reencrypt_items(&mut r, &chain, 3);
                let board = BulletinBoard::new();
                let sb = ShardedBoard::new(&board, RolePartition::solo());
                let committee = first_t_hostile(n, t, attack);
                let (expected, parties) = replayed_openings(r.clone(), &chain, &committee, &pairs);
                assert_eq!(parties, providers, "{attack:?}");
                let vals = chain.reencrypt(&mut r, &sb, &committee, &cfg, "x", &pairs).unwrap();
                for (((val, kp), m), expect) in vals.iter().zip(&targets).zip(&ms).zip(expected) {
                    assert_eq!(val.opening_coefficients().unwrap(), expect, "{attack:?}");
                    assert_eq!(val.open(kp.secret.scalar).unwrap(), *m, "{attack:?}");
                }
            }
        }
    }

    /// A holder that posts its honest message under its honest proof and
    /// then changes one value is dropped from every value of the step:
    /// `Decrypt` and `Re-encrypt` open from the next valid holders, the
    /// same at 1, 2 and 8 workers.
    #[test]
    fn one_lie_drops_its_holder_from_every_value_at_any_worker_count() {
        let (n, t) = (9, 4);
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let (targets, ms, pairs) = reencrypt_items(&mut r, &chain, 40);
        let cts: Vec<_> = pairs.iter().map(|&(_, ct)| ct).collect();
        let mut behaviors = vec![Behavior::Honest; n];
        for liar in [1, 3] {
            behaviors[liar] = Behavior::Malicious(ActiveAttack::OneLie);
        }
        let committee = Committee::with_behaviors("c", behaviors);
        let providers = vec![0, 2, 4, 5, 6];
        let (expected, parties) = replayed_openings(r.clone(), &chain, &committee, &pairs);
        assert_eq!(parties, providers);
        for workers in [1, 2, 8] {
            crate::parallel::with_forced_workers(workers, || {
                let board = BulletinBoard::new();
                let sb = ShardedBoard::new(&board, RolePartition::solo()).with_threads(workers);
                let kept = chain.partials(&mut rng(), &sb, &committee, &cfg(), "x", &cts).unwrap();
                assert_eq!(kept.parties, providers, "{workers} workers");
                let opened = chain.decrypt(&mut rng(), &sb, &committee, &cfg(), "x", &cts);
                assert_eq!(opened.unwrap(), ms, "{workers} workers");
                let vals =
                    chain.reencrypt(&mut r.clone(), &sb, &committee, &cfg(), "x", &pairs).unwrap();
                for (((val, kp), m), expect) in vals.iter().zip(&targets).zip(&ms).zip(&expected) {
                    assert_eq!(val.opening_coefficients().unwrap(), *expect, "{workers} workers");
                    assert_eq!(val.open(kp.secret.scalar).unwrap(), *m, "{workers} workers");
                }
            });
        }
    }

    /// Exact and host-independent: each of a threshold step's `n`
    /// holders proves its message once, and the reader verifies messages
    /// only until it keeps `t + 1` — `2t + 1` when the first `t` are
    /// forged (a forgery costs its maker no hash and its reader a whole
    /// verification). A `Decrypt` of `m` ciphertexts absorbs their `u`s
    /// once; a message then costs its `ρ`, ⌈(8·(m + 1) + 9) / 64⌉
    /// blocks, its holder's map (two of digest, one of prefix) and its
    /// challenge (one), to prove and again to verify. A `Re-encrypt` of
    /// `m` items builds its one map, and a message's challenge costs
    /// ⌈(9 + 16·(2m + 1)) / 64⌉; a handover's ⌈(9 + 16·(t + 1 + 2n)) / 64⌉.
    /// A forged dealing's random `C_0` fails its binding to the dealer's
    /// key before any hash.
    #[cfg(debug_assertions)]
    #[test]
    fn a_threshold_step_proves_every_posting_and_verifies_its_first_t_plus_1_valid_ones() {
        use yoso_crypto::sha256::compressions_of;
        let (n, t, m) = (9usize, 4usize, 3usize);
        for (forged, verified) in [(0, t + 1), (t, 2 * t + 1)] {
            let committee = first_t_hostile(n, forged, ActiveAttack::WrongValue);
            let (proved, verified) = ((n - forged) as u64, verified as u64);
            let mut r = rng();
            let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
            let (_, _, pairs) = reencrypt_items(&mut r, &chain, m);
            let cts: Vec<_> = pairs.iter().map(|&(_, ct)| ct).collect();
            let board = BulletinBoard::new();
            let sb = ShardedBoard::new(&board, RolePartition::solo());

            let building = compressions_of(|| PdecBatch::new(&chain.pk, &cts)).1;
            assert_eq!(building, (8 * (2 + m) as u64).div_ceil(64));
            let per_message = (8 * (m + 1) as u64 + 9).div_ceil(64) + 3 + 1;
            let (kept, blocks) = compressions_of(|| {
                chain.partials(&mut r, &sb, &committee, &cfg(), "x", &cts).unwrap()
            });
            assert_eq!(kept.parties, (forged..=forged + t).collect::<Vec<_>>());
            assert_eq!(blocks, building + per_message * (proved + verified), "decrypt, {forged}");

            let building = compressions_of(|| ReencryptMap::new(&chain.pk, &pairs)).1;
            let per_challenge = (9 + 16 * (2 * m + 1) as u64).div_ceil(64);
            let (vals, blocks) = compressions_of(|| {
                chain.reencrypt(&mut r, &sb, &committee, &cfg(), "x", &pairs).unwrap()
            });
            assert!(vals[0].opening_coefficients().is_ok());
            let expected = building + per_challenge * (proved + verified);
            assert_eq!(blocks, expected, "re-encrypt, {forged} forged");

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
