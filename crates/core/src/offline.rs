//! The offline phase `Π_YOSO-Offline` (paper §5.2).
//!
//! Circuit-dependent preprocessing, executed before inputs are known:
//!
//! - **Step 1** — Beaver triples: two committees jointly produce, per
//!   multiplication gate, an encrypted triple `(cᵃ, cᵇ, cᶜ)` with
//!   `c = a·b`. Each `C1` member posts its `a`-side contribution to
//!   every triple under one proof; then each `C2` member posts its
//!   `(cᵇ, cᶜ = b·cᵃ)` for every triple under one proof.
//! - **Step 2** — random wire values: each member of a committee posts
//!   one encrypted random value for every input-gate and
//!   multiplication output wire, under one proof, and the valid ones
//!   are summed into the mask ciphertexts `c^λ`.
//! - **Step 3** — dependent wire values: addition-type masks follow
//!   homomorphically; for each multiplication gate the current
//!   tsk-holding committee `Decrypt`s `ε = λ_α + a` and `δ = λ_β + b`
//!   and everyone computes `c^Γ = ε·c_β − δ·cᵃ + cᶜ − c_γ`
//!   (encrypting `Γ = λ_α·λ_β − λ_γ`). One committee per
//!   multiplication layer, handing `tsk` to the next.
//! - **Step 4** — packing: the helper committee's members each post
//!   `3t` encrypted random helpers per batch of `k` multiplication
//!   gates, under one proof; per batch, `t` summed helpers extend the
//!   `k` masks to a degree-`(t+k−1)` polynomial, and everyone *locally*
//!   evaluates the `n` packed-share ciphertexts via `TEval` with
//!   Lagrange coefficients. Done three times per batch (`λ_α`, `λ_β`
//!   in batch order, and `Γ_γ`) — this is what solves Turbopack's
//!   network-routing problem without online communication.
//! - **Step 5** — per input wire, `Re-encrypt` the mask to the
//!   contributing client's KFF.
//! - **Step 6** — per batch and member, `Re-encrypt` the three packed
//!   shares to the KFF of the online role that will consume them.
//!
//! Steps 1, 2 and 4 are contribution steps: a member speaks once, its
//! message proved by one random combination (DESIGN.md §8 "Contribution
//! steps: one message per member").
//!
//! Total communication: `O(n)` ring elements per gate (measured, not
//! estimated — see experiment E3).

use rand::Rng;

use yoso_circuit::{BatchedCircuit, Gate, MulBatch};
use yoso_crypto::Domain;
use yoso_field::PrimeField;
use yoso_pss_sharing::PackedSharing;
use yoso_runtime::{Adversary, Committee};
use yoso_the::mock::{Ciphertext, MockTe, PkePublicKey, PublicKey};
use yoso_the::nizk::{self, EncBatch, EncProof, LinearMap};

use crate::messages::{self, ContributionStep, Post};
use crate::parallel::PostBuffer;
use crate::setup::SetupArtifacts;
use crate::step::{Proved, Step, Turn};
use crate::tsk::{lie_once, proves_honestly, ReencryptedValue, TskChain};
use crate::workitem::ShardedBoard;
use crate::{ExecutionConfig, ProtocolError};

/// The re-encrypted packed shares of one multiplication batch: entry
/// `i` of each vector targets the KFF of online role `(layer, i)`.
#[derive(Debug, Clone)]
pub struct BatchShares<F: PrimeField> {
    /// Packed shares of `λ_α` (left inputs, batch order).
    pub alpha: Vec<ReencryptedValue<F>>,
    /// Packed shares of `λ_β` (right inputs, batch order).
    pub beta: Vec<ReencryptedValue<F>>,
    /// Packed shares of `Γ = λ_α·λ_β − λ_γ`.
    pub gamma: Vec<ReencryptedValue<F>>,
}

/// Everything the offline phase hands to the online phase.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts<F: PrimeField> {
    /// Per-wire mask ciphertexts `c^λ` (indexed by wire id).
    pub lambda_cts: Vec<Ciphertext<F>>,
    /// Per-batch re-encrypted packed shares (parallel to
    /// `BatchedCircuit::mul_batches`).
    pub batch_shares: Vec<BatchShares<F>>,
    /// Per input wire: `(wire, client, re-encrypted λ targeting the
    /// client's KFF)`.
    pub input_reenc: Vec<(usize, usize, ReencryptedValue<F>)>,
    /// The tsk custody chain (now with the post-offline committee).
    pub tsk: TskChain<F>,
}

/// The combination coefficients of the three kinds of contribution
/// message, each under a domain of its own: a message read as another
/// kind's is read under another `ρ`.
static DOMAIN_BEAVER_A_RHO: Domain = Domain::new(b"yoso-pss/nizk/beaver-a-rho/v1");
static DOMAIN_WIRE_RHO: Domain = Domain::new(b"yoso-pss/nizk/wire-rho/v1");
static DOMAIN_PACK_RHO: Domain = Domain::new(b"yoso-pss/nizk/pack-rho/v1");

/// The combined encryption proofs of a contribution step of `kind` (the
/// Beaver a-side for [`ContributionStep::Beaver`]) under `tpk`.
fn enc_batch<F: PrimeField>(kind: ContributionStep, tpk: &PublicKey<F>) -> EncBatch<F> {
    let domain = match kind {
        ContributionStep::Beaver => &DOMAIN_BEAVER_A_RHO,
        ContributionStep::WireRandom => &DOMAIN_WIRE_RHO,
        ContributionStep::PackHelper => &DOMAIN_PACK_RHO,
    };
    EncBatch::new(domain, tpk)
}

/// The step in which each member of `committee` posts its whole message
/// of `kind` — `ciphertexts` ciphertexts and a proof, `elements` in all.
/// Nobody proves: a light step, its members run inline. Proofs made: the
/// members' elements weigh their turns, as in every step.
fn contribution_step<'c>(
    committee: &'c Committee,
    sb: &ShardedBoard<'_>,
    cfg: &ExecutionConfig,
    phase: &'static str,
    kind: ContributionStep,
    ciphertexts: usize,
    elements: u64,
) -> Result<Step<'c>, ProtocolError> {
    let ciphertexts = u32::try_from(ciphertexts).map_err(|_| {
        ProtocolError::BadParameters(format!("{ciphertexts} ciphertexts in one message"))
    })?;
    let post = Post::Contribution { step: kind, ciphertexts };
    let step = Step::new(committee, sb, phase, post, elements);
    Ok(if cfg.produce_proofs { step } else { step.inline() })
}

/// A member's contribution message as its reader holds it: its
/// ciphertexts, one per item, and its one proof.
type Contribution<'k, F> = (Vec<Ciphertext<F>>, Proved<&'k EncBatch<F>, EncProof<F>>);

/// A member's turn in a contribution step: `m` fresh random values
/// encrypted under `tpk`, and one proof of their combination where this
/// worker proves. A `one-lie` member changes its last ciphertext after
/// proving; any other attacker posts a garbage proof.
fn contribute<'k, F: PrimeField>(
    tpk: &'k PublicKey<F>,
    m: usize,
) -> impl Fn(Turn<&'k EncBatch<F>>, ()) -> Contribution<'k, F> + Sync + 'k {
    move |mut turn, ()| {
        let (index, attack) = (turn.index, turn.attack());
        let (mut cts, mut values, mut rands) =
            (Vec::with_capacity(m), Vec::with_capacity(m), Vec::with_capacity(m));
        for _ in 0..m {
            let value = F::random(&mut turn.rng);
            let (ct, r) = MockTe::encrypt(&mut turn.rng, tpk, value);
            cts.push(ct);
            values.push(value);
            rands.push(r);
        }
        let proof = turn.prove(|batch, rng| {
            if proves_honestly(attack) {
                batch.prove(rng, index, &cts, &values, &rands)
            } else {
                EncProof::garbage(rng)
            }
        });
        lie_once(attack, cts.last_mut().map(|ct| &mut ct.v));
        (cts, proof)
    }
}

/// The running sums of a contribution step, one per item, over the
/// members whose messages are valid, read in member order.
///
/// A malicious member's plaintexts are as random as an honest one's;
/// what it cannot produce is the proof, so its message is dropped from
/// every sum — which is safe: sums of any set of valid messages that
/// includes an honest one are uniform. Every valid message is summed,
/// so every one is verified.
struct ContributionSums<F: PrimeField> {
    sums: Vec<Ciphertext<F>>,
    valid: usize,
}

impl<F: PrimeField> ContributionSums<F> {
    fn new(m: usize) -> Self {
        ContributionSums { sums: vec![Ciphertext { u: F::ZERO, v: F::ZERO }; m], valid: 0 }
    }

    /// Adds `member`'s contribution message to every sum if it is
    /// valid.
    fn offer(&mut self, member: usize, (cts, proof): Contribution<'_, F>) {
        self.add(&cts, || proof.verify(|batch, proof| batch.verify(member, &cts, proof)));
    }

    /// Adds `cts`, one per sum, to the sums if it is a whole message and
    /// `valid`.
    fn add(&mut self, cts: &[Ciphertext<F>], valid: impl FnOnce() -> bool) {
        if cts.len() == self.sums.len() && valid() {
            for (sum, ct) in self.sums.iter_mut().zip(cts) {
                *sum = Ciphertext { u: sum.u + ct.u, v: sum.v + ct.v };
            }
            self.valid += 1;
        }
    }

    fn finish(self, step: &'static str) -> Result<Vec<Ciphertext<F>>, ProtocolError> {
        if self.valid == 0 {
            return Err(ProtocolError::NotEnoughContributions { step, got: 0, need: 1 });
        }
        Ok(self.sums)
    }
}

/// One contribution step of `committee`: each member posts `m` fresh
/// random values encrypted under `tpk` and one proof of their
/// combination ([`EncBatch`], `ρ` under `kind`'s domain), and the valid
/// messages are summed item by item. No item, no step.
///
/// # Errors
///
/// Returns [`ProtocolError::NotEnoughContributions`] if no message is
/// valid, and propagates transport errors.
#[allow(clippy::too_many_arguments)]
fn summed_contributions<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &ShardedBoard<'_>,
    committee: &Committee,
    cfg: &ExecutionConfig,
    tpk: &PublicKey<F>,
    phase: &'static str,
    kind: ContributionStep,
    m: usize,
) -> Result<Vec<Ciphertext<F>>, ProtocolError> {
    if m == 0 {
        return Ok(Vec::new());
    }
    let elements = messages::contribution_elements(m as u64);
    let step = contribution_step(committee, sb, cfg, phase, kind, m, elements)?;
    let batch = cfg.produce_proofs.then(|| enc_batch(kind, tpk));
    let (mut posts, mut sums) = (PostBuffer::new(), ContributionSums::new(m));
    step.run(rng, &mut posts, batch.as_ref(), step.everyone(), contribute(tpk, m), |i, c| {
        sums.offer(i, c);
        Ok(())
    })?;
    sb.flush_buffer(posts)?;
    sums.finish("summed contribution")
}

/// An encrypted Beaver triple.
#[derive(Debug, Clone, Copy)]
pub struct EncryptedTriple<F: PrimeField> {
    /// Encryption of `a`.
    pub a: Ciphertext<F>,
    /// Encryption of `b`.
    pub b: Ciphertext<F>,
    /// Encryption of `c = a·b`.
    pub c: Ciphertext<F>,
}

/// Step 1: two committees produce one encrypted Beaver triple per
/// multiplication gate (`Beaver-Triple` in the paper), in two steps.
///
/// `C1` is a contribution step over every triple: the valid members'
/// `a`-side messages sum to the `cᵃ_j`. Then each `C2` member posts, for
/// every triple, `cᵇ_j = TEnc(b_j)` and `cᶜ_j = b_j·cᵃ_j` under one
/// proof over the step's one `BeaverBMap`, and the valid messages sum
/// to the `(cᵇ_j, cᶜ_j)`.
///
/// # Errors
///
/// Returns [`ProtocolError::NotEnoughContributions`] if a side has no
/// valid message, and propagates transport errors.
pub fn beaver_triples<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &ShardedBoard<'_>,
    c1: &Committee,
    c2: &Committee,
    cfg: &ExecutionConfig,
    tpk: &PublicKey<F>,
    count: usize,
) -> Result<Vec<EncryptedTriple<F>>, ProtocolError> {
    let (phase, kind) = ("offline/1-beaver", ContributionStep::Beaver);
    let c_a = summed_contributions(rng, sb, c1, cfg, tpk, phase, kind, count)?;
    if count == 0 {
        return Ok(Vec::new());
    }
    let elements = messages::beaver_b_elements(count as u64);
    let step = contribution_step(c2, sb, cfg, phase, kind, 2 * count, elements)?;
    // One map for the step, shared by every C2 member.
    let map = cfg.produce_proofs.then(|| BeaverBMap::new(tpk, &c_a));
    // A member's message: (cᵇ_j, cᶜ_j) for each triple, proved at once.
    let work = |mut turn: Turn<_>, ()| {
        let attack = turn.attack();
        let honest = proves_honestly(attack);
        let (mut cts, mut witness) = (Vec::with_capacity(2 * count), Vec::new());
        for c_a in &c_a {
            let b = F::random(&mut turn.rng);
            let (c_b, r) = MockTe::encrypt(&mut turn.rng, tpk, b);
            if honest {
                cts.extend([c_b, Ciphertext { u: b * c_a.u, v: b * c_a.v }]);
                witness.extend([b, r]);
            } else {
                let fake = F::random(&mut turn.rng);
                cts.extend([c_b, Ciphertext { u: fake * c_a.u, v: fake * c_a.v + F::ONE }]);
            }
        }
        let proof = turn.prove(|map: &&BeaverBMap<F>, rng| match honest {
            true => map.prove(rng, &cts, &witness),
            false => map.garbage(rng),
        });
        lie_once(attack, cts.last_mut().map(|ct| &mut ct.v));
        (cts, proof)
    };
    let (mut posts, mut sums) = (PostBuffer::new(), ContributionSums::new(2 * count));
    let fold = |_, (cts, proof): (Vec<_>, Proved<&BeaverBMap<F>, nizk::LinearProof<F>>)| {
        sums.add(&cts, || proof.verify(|map, proof| map.verify(&cts, proof)));
        Ok(())
    };
    step.run(rng, &mut posts, map.as_ref(), step.everyone(), work, fold)?;
    sb.flush_buffer(posts)?;
    let b_c = sums.finish("beaver b-side")?;
    let triples = c_a.into_iter().zip(b_c.chunks_exact(2));
    Ok(triples.map(|(a, b_c)| EncryptedTriple { a, b: b_c[0], c: b_c[1] }).collect())
}

static DOMAIN_BEAVER_B: Domain = Domain::new(b"yoso-pss/nizk/beaver-b/v4");

/// The b-side Beaver relation of a whole step: witness
/// `(b_0, r_0, …, b_{T−1}, r_{T−1})` with `cᵇ_j = TEnc(b_j; r_j)` and
/// `cᶜ_j = b_j·cᵃ_j`, four rows per triple. Each triple keeps its own
/// rows: its witness is its own and `cᶜ_j`'s coefficients are `cᵃ_j`, so
/// a `ρ`-combination would leave the `b_j` free (DESIGN.md §8). The map
/// holds the key and every `cᵃ_j`, so one serves every b-side member of
/// the step; a member's targets are its `(cᵇ_j, cᶜ_j)` in triple order.
struct BeaverBMap<F: PrimeField>(LinearMap<F>);

impl<F: PrimeField> BeaverBMap<F> {
    fn new(tpk: &PublicKey<F>, c_as: &[Ciphertext<F>]) -> Self {
        let rows = c_as.iter().enumerate().flat_map(|(j, c_a)| {
            let (b, r) = (2 * j, 2 * j + 1);
            [vec![(r, tpk.g)], vec![(b, F::ONE), (r, tpk.h)], vec![(b, c_a.u)], vec![(b, c_a.v)]]
        });
        let map = LinearMap::new(&DOMAIN_BEAVER_B, 2 * c_as.len(), rows);
        // lint:allow(panic): infallible — each triple's two columns, in
        // increasing order and below the witness length; only
        // coefficients come from outside.
        BeaverBMap(map.expect("a fixed-shape map"))
    }

    fn targets(cts: &[Ciphertext<F>]) -> Vec<F> {
        cts.iter().flat_map(|ct| [ct.u, ct.v]).collect()
    }

    /// Proves a member's `(cᵇ_j, cᶜ_j)` pairs, `cts` in triple order,
    /// from its `(b_j, r_j)` pairs, `witness` in the same order.
    fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        cts: &[Ciphertext<F>],
        witness: &[F],
    ) -> nizk::LinearProof<F> {
        nizk::prove_linear(rng, &self.0, &Self::targets(cts), witness)
    }

    /// What a malicious member posts: a random proof of the map's shape.
    fn garbage<R: Rng + ?Sized>(&self, rng: &mut R) -> nizk::LinearProof<F> {
        self.0.garbage(rng)
    }

    fn verify(&self, cts: &[Ciphertext<F>], proof: &nizk::LinearProof<F>) -> bool {
        nizk::verify_linear(&self.0, &Self::targets(cts), proof)
    }
}

/// Step 4 packing: given the `k_b` per-wire mask ciphertexts of a
/// batch and `t` summed helper-randomness ciphertexts, computes the
/// `n` packed-share ciphertexts by homomorphic evaluation.
///
/// The implied polynomial has the batch secrets at the scheme's `k_b`
/// secret points and the helpers at its first `t` party points —
/// degree `t + k_b − 1`, exactly the paper's construction. A mock
/// ciphertext is two field elements and `MockTe::eval` is linear in
/// each, so the packing is the scheme's own dealing evaluator
/// ([`PackedSharing::extend_into`]) run once over the inputs' `u`s and
/// once over their `v`s: the same values as evaluating every party's
/// Lagrange row homomorphically, by additions alone. `shares` holds
/// one component's shares in turn; a caller packing many batches passes
/// the same buffer, so it grows once.
pub fn pack_ciphertexts<F: PrimeField>(
    scheme: &PackedSharing<F>,
    t: usize,
    wire_cts: &[Ciphertext<F>],
    helper_cts: &[Ciphertext<F>],
    shares: &mut Vec<F>,
) -> Result<Vec<Ciphertext<F>>, ProtocolError> {
    if helper_cts.len() != t {
        return Err(ProtocolError::Invariant("need exactly t helper ciphertexts for packing"));
    }
    let k_b = wire_cts.len();
    if scheme.k() != k_b {
        return Err(ProtocolError::Invariant("packing scheme width does not match the wire count"));
    }
    let inputs = || wire_cts.iter().chain(helper_cts);
    let mut nodes: Vec<F> = inputs().map(|ct| ct.u).collect();
    scheme.extend_into(&mut nodes, shares)?;
    let mut packed: Vec<Ciphertext<F>> =
        shares.iter().map(|&u| Ciphertext { u, v: F::ZERO }).collect();
    for (node, ct) in nodes.iter_mut().zip(inputs()) {
        *node = ct.v;
    }
    scheme.extend_into(&mut nodes, shares)?;
    for (ct, &v) in packed.iter_mut().zip(shares.iter()) {
        ct.v = v;
    }
    Ok(packed)
}

/// Runs the full offline phase.
///
/// `setup.tsk` must currently be held by the committee this function
/// samples as the first dependent-values committee.
///
/// # Errors
///
/// Propagates sub-step errors; under the declared corruption model
/// none should occur (GOD).
#[allow(clippy::too_many_lines, clippy::needless_range_loop)]
pub fn run_offline<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &crate::ProtocolParams,
    sb: &ShardedBoard<'_>,
    adversary: &Adversary,
    cfg: &ExecutionConfig,
    bc: &BatchedCircuit<F>,
    setup: &SetupArtifacts<F>,
) -> Result<OfflineArtifacts<F>, ProtocolError> {
    let n = params.n;
    let t = params.t;
    let mut tsk = setup.tsk.clone();
    let tpk = tsk.pk.clone();
    let circuit = &bc.circuit;

    // ---- Step 1: Beaver triples, one per multiplication gate.
    let c1 = adversary.sample_committee(rng, "off-beaver-a", n);
    let c2 = adversary.sample_committee(rng, "off-beaver-b", n);
    let mul_wires: Vec<usize> =
        circuit.mul_layers().iter().flat_map(|layer| layer.iter().map(|w| w.0)).collect();
    let triples = beaver_triples(rng, sb, &c1, &c2, cfg, &tpk, mul_wires.len())?;
    sb.advance_round()?;
    // triple_of[wire] = index into `triples`.
    let mut triple_of = vec![usize::MAX; circuit.wire_count()];
    for (idx, &w) in mul_wires.iter().enumerate() {
        triple_of[w] = idx;
    }

    // ---- Step 2: random wire values for input and mul output wires.
    let c3 = adversary.sample_committee(rng, "off-randomness", n);
    let phase2 = "offline/2-wire-rand";
    let zero_ct = Ciphertext { u: F::ZERO, v: F::ZERO };
    let mut lambda_cts: Vec<Ciphertext<F>> = vec![zero_ct; circuit.wire_count()];
    let maskable: Vec<usize> = (circuit.gates().iter().enumerate())
        .filter(|(_, gate)| matches!(gate, Gate::Input { .. } | Gate::Mul(_, _)))
        .map(|(w, _)| w)
        .collect();
    let kind = ContributionStep::WireRandom;
    let masks = summed_contributions(rng, sb, &c3, cfg, &tpk, phase2, kind, maskable.len())?;
    for (w, mask) in maskable.into_iter().zip(masks) {
        lambda_cts[w] = mask;
    }

    sb.advance_round()?;

    // ---- Step 3: dependent wire values (and Γ per mul gate),
    // processed in gate order; one decrypt committee per mul layer.
    let mut gamma_cts: Vec<Option<Ciphertext<F>>> = vec![None; circuit.wire_count()];
    // Propagate masks through linear gates first (mask of a linear gate
    // is the same linear function of its input masks).
    for (w, gate) in circuit.gates().iter().enumerate() {
        match *gate {
            Gate::Add(a, b) => {
                lambda_cts[w] =
                    MockTe::eval(&[lambda_cts[a.0], lambda_cts[b.0]], &[F::ONE, F::ONE])?;
            }
            Gate::Sub(a, b) => {
                lambda_cts[w] =
                    MockTe::eval(&[lambda_cts[a.0], lambda_cts[b.0]], &[F::ONE, -F::ONE])?;
            }
            Gate::MulConst(a, c) => {
                lambda_cts[w] = MockTe::eval(&[lambda_cts[a.0]], &[c])?;
            }
            Gate::Const(_) => {
                lambda_cts[w] = zero_ct; // public constants carry a zero mask
            }
            Gate::Output(a, _) => {
                lambda_cts[w] = lambda_cts[a.0];
            }
            Gate::Input { .. } | Gate::Mul(_, _) => {}
        }
    }
    // Linear propagation is complete before any decryption because the
    // mul-output masks were fixed independently in Step 2; only the Γ
    // values need the ε/δ openings below.
    for (layer_idx, layer) in circuit.mul_layers().iter().enumerate() {
        let committee = adversary.sample_committee(rng, format!("off-dep-{layer_idx}"), n);
        let phase = "offline/3-dependent";
        // Build ε/δ ciphertexts for the layer.
        let mut eps_delta = Vec::with_capacity(layer.len() * 2);
        for &gw in layer {
            let (a, b) = match circuit.gates()[gw.0] {
                Gate::Mul(a, b) => (a, b),
                _ => return Err(ProtocolError::Invariant("mul layer contains a non-mul gate")),
            };
            let tr = &triples[triple_of[gw.0]];
            eps_delta.push(MockTe::eval(&[lambda_cts[a.0], tr.a], &[F::ONE, F::ONE])?);
            eps_delta.push(MockTe::eval(&[lambda_cts[b.0], tr.b], &[F::ONE, F::ONE])?);
        }
        let opened = tsk.decrypt(rng, sb, &committee, cfg, phase, &eps_delta)?;
        for (j, &gw) in layer.iter().enumerate() {
            let (_, b) = match circuit.gates()[gw.0] {
                Gate::Mul(a, b) => (a, b),
                _ => return Err(ProtocolError::Invariant("mul layer contains a non-mul gate")),
            };
            let tr = &triples[triple_of[gw.0]];
            let eps = opened[2 * j];
            let delta = opened[2 * j + 1];
            // c^Γ = ε·c_β − δ·cᵃ + cᶜ − c_γ.
            let gamma = MockTe::eval(
                &[lambda_cts[b.0], tr.a, tr.c, lambda_cts[gw.0]],
                &[eps, -delta, F::ONE, -F::ONE],
            )?;
            gamma_cts[gw.0] = Some(gamma);
        }
        // Hand tsk to the next committee in the chain.
        let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
            (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
        tsk.handover(rng, sb, &committee, cfg, "offline/handover", &next_keys)?;
        sb.advance_round()?;
    }

    // ---- Step 4: packing per batch, the helpers contributed by a
    // committee of their own in one message per member: t each for λ_α,
    // λ_β and Γ of every batch, in batch order.
    let c4 = adversary.sample_committee(rng, "off-pack", n);
    let phase4 = "offline/4-pack";
    let (kind, helpers) = (ContributionStep::PackHelper, 3 * t * bc.mul_batches.len());
    let helpers = summed_contributions(rng, sb, &c4, cfg, &tpk, phase4, kind, helpers)?;
    let mut helpers = helpers.chunks_exact(t.max(1));
    type PackedTriple<F> = (Vec<Ciphertext<F>>, Vec<Ciphertext<F>>, Vec<Ciphertext<F>>);
    let mut packed: Vec<PackedTriple<F>> = Vec::with_capacity(bc.mul_batches.len());
    let mut pack_shares: Vec<F> = Vec::new();
    for batch in &bc.mul_batches {
        let scheme = PackedSharing::new(n, batch.gates.len())?;
        let alpha_wires = batch.left_wires(circuit);
        let beta_wires = batch.right_wires(circuit);
        let alpha_cts: Vec<Ciphertext<F>> = alpha_wires.iter().map(|w| lambda_cts[w.0]).collect();
        let beta_cts: Vec<Ciphertext<F>> = beta_wires.iter().map(|w| lambda_cts[w.0]).collect();
        let gamma_in: Vec<Ciphertext<F>> = batch
            .gates
            .iter()
            .map(|w| {
                gamma_cts[w.0].ok_or(ProtocolError::Invariant(
                    "Γ ciphertext missing for a mul gate after step 3",
                ))
            })
            .collect::<Result<_, _>>()?;
        let mut pack = |wires_cts: &[Ciphertext<F>]| {
            let helpers = helpers.next().unwrap_or_default();
            pack_ciphertexts(&scheme, t, wires_cts, helpers, &mut pack_shares)
        };
        let (alpha, beta, gamma) = (pack(&alpha_cts)?, pack(&beta_cts)?, pack(&gamma_in)?);
        packed.push((alpha, beta, gamma));
    }

    // ---- Step 5: re-encrypt input-wire masks to client KFFs.
    let c5 = adversary.sample_committee(rng, "off-reenc-in", n);
    let phase5 = "offline/5-reenc-inputs";
    let mut input_items: Vec<(PkePublicKey<F>, Ciphertext<F>)> = Vec::new();
    let mut input_meta: Vec<(usize, usize)> = Vec::new();
    for (client, wires) in circuit.inputs_per_client().iter().enumerate() {
        for w in wires {
            input_items.push((setup.client_kff_pairs[client].public, lambda_cts[w.0]));
            input_meta.push((w.0, client));
        }
    }
    let input_vals = tsk.reencrypt(rng, sb, &c5, cfg, phase5, &input_items)?;
    let input_reenc =
        input_meta.into_iter().zip(input_vals).map(|((w, client), v)| (w, client, v)).collect();
    sb.advance_round()?;
    let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
        (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
    tsk.handover(rng, sb, &c5, cfg, "offline/handover", &next_keys)?;

    // ---- Step 6: re-encrypt packed shares to the online roles' KFFs.
    let c6 = adversary.sample_committee(rng, "off-reenc-shares", n);
    let phase6 = "offline/6-reenc-shares";
    let mut batch_shares = Vec::with_capacity(bc.mul_batches.len());
    for (batch, (alpha, beta, gamma)) in bc.mul_batches.iter().zip(&packed) {
        let layer = batch.layer;
        let mut items: Vec<(PkePublicKey<F>, Ciphertext<F>)> = Vec::with_capacity(3 * n);
        for i in 0..n {
            items.push((setup.kff_pairs[layer][i].public, alpha[i]));
        }
        for i in 0..n {
            items.push((setup.kff_pairs[layer][i].public, beta[i]));
        }
        for i in 0..n {
            items.push((setup.kff_pairs[layer][i].public, gamma[i]));
        }
        let mut vals = tsk.reencrypt(rng, sb, &c6, cfg, phase6, &items)?;
        let gamma_v: Vec<ReencryptedValue<F>> = vals.split_off(2 * n);
        let beta_v: Vec<ReencryptedValue<F>> = vals.split_off(n);
        batch_shares.push(BatchShares { alpha: vals, beta: beta_v, gamma: gamma_v });
    }
    let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
        (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
    tsk.handover(rng, sb, &c6, cfg, "offline/handover", &next_keys)?;
    sb.advance_round()?;

    Ok(OfflineArtifacts { lambda_cts, batch_shares, input_reenc, tsk })
}

/// Returns the λ mask implied for a mul batch (test oracle): opens the
/// packed-share re-encryptions with the KFF secrets and reconstructs.
#[doc(hidden)]
pub fn debug_open_batch_lambda<F: PrimeField>(
    params: &crate::ProtocolParams,
    setup: &SetupArtifacts<F>,
    batch: &MulBatch,
    shares: &[ReencryptedValue<F>],
    k_b: usize,
) -> Result<Vec<F>, ProtocolError> {
    let scheme = PackedSharing::<F>::new(params.n, k_b)?;
    let mut opened = Vec::with_capacity(params.n);
    for (i, rv) in shares.iter().enumerate() {
        let sk = setup.kff_pairs[batch.layer][i].secret.scalar;
        opened.push(yoso_pss_sharing::Share { party: i, value: rv.open(sk)? });
    }
    Ok(scheme.reconstruct(&opened[..params.packing_degree() + 1], params.packing_degree())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_forced_workers;
    use crate::RolePartition;
    use rand::SeedableRng;
    use yoso_field::F61;
    use yoso_runtime::{ActiveAttack, Behavior, BulletinBoard, Committee as RtCommittee};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31415)
    }

    fn cfg() -> ExecutionConfig {
        ExecutionConfig::default()
    }

    #[test]
    fn beaver_triples_multiply_correctly() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let c1 = RtCommittee::honest("c1", 6);
        let c2 = RtCommittee::honest("c2", 6);
        let triples = beaver_triples(&mut r, &sb, &c1, &c2, &cfg(), &chain.pk, 3).unwrap();
        let dec = RtCommittee::honest("d", 6);
        for tr in &triples {
            let opened =
                chain.decrypt(&mut r, &sb, &dec, &cfg(), "t", &[tr.a, tr.b, tr.c]).unwrap();
            assert_eq!(opened[0] * opened[1], opened[2]);
        }
    }

    #[test]
    fn beaver_triples_with_malicious_contributors() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let c1 = adv.sample_committee(&mut r, "c1", 7);
        let c2 = adv.sample_committee(&mut r, "c2", 7);
        let triples = beaver_triples(&mut r, &sb, &c1, &c2, &cfg(), &chain.pk, 2).unwrap();
        let dec = RtCommittee::honest("d", 7);
        for tr in &triples {
            let opened =
                chain.decrypt(&mut r, &sb, &dec, &cfg(), "t", &[tr.a, tr.b, tr.c]).unwrap();
            assert_eq!(opened[0] * opened[1], opened[2], "a·b must equal c despite attackers");
        }
    }

    #[test]
    fn a_beaver_b_proof_binds_its_triple_and_domain() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let tpk = &chain.pk;
        let c_as: Vec<_> =
            (3..6u64).map(|a| MockTe::encrypt(&mut r, tpk, F61::from(a)).0).collect();
        let (mut cts, mut witness) = (Vec::new(), Vec::new());
        for (c_a, b) in c_as.iter().zip([5u64, 7, 11].map(F61::from)) {
            let (c_b, b_r) = MockTe::encrypt(&mut r, tpk, b);
            cts.extend([c_b, Ciphertext { u: b * c_a.u, v: b * c_a.v }]);
            witness.extend([b, b_r]);
        }
        let map = BeaverBMap::new(tpk, &c_as);
        assert_eq!((map.0.row_count(), map.0.witness_len()), (12, 6));
        let proof = map.prove(&mut r, &cts, &witness);
        assert!(map.verify(&cts, &proof));
        // Another product in any triple, another a-side, a pair short.
        for j in 0..cts.len() {
            let mut off = cts.clone();
            off[j].v += F61::ONE;
            assert!(!map.verify(&off, &proof), "ciphertext {j}");
        }
        let mut other_as = c_as.clone();
        other_as[1] = MockTe::encrypt(&mut r, tpk, F61::from(4u64)).0;
        assert!(!BeaverBMap::new(tpk, &other_as).verify(&cts, &proof));
        assert!(!map.verify(&cts[..4], &proof));

        // The retired separators: right map, right targets, right
        // witness, rejected.
        let targets = BeaverBMap::targets(&cts);
        for v in ["v1", "v2", "v3"] {
            let retired = Domain::new(format!("yoso-pss/nizk/beaver-b/{v}").as_bytes());
            let retired = nizk::LinearMap::new(&retired, 6, map.0.rows()).unwrap();
            let old = nizk::prove_linear(&mut r, &retired, &targets, &witness);
            assert!(nizk::verify_linear(&retired, &targets, &old));
            assert!(!map.verify(&cts, &old), "beaver-b/{v}");
        }

        // What a malicious b-side member posts: the map's shape,
        // rejected.
        let mut r = rand::rngs::StdRng::seed_from_u64(20261003);
        let garbage = map.garbage(&mut r);
        assert_eq!((garbage.commitment.len(), garbage.response.len()), (12, 6));
        assert_ne!(garbage.commitment[0], garbage.commitment[1]);
        assert!(!map.verify(&cts, &garbage));
    }

    /// Exact and host-independent: the step's one b-side map is
    /// digested once; a member's message then costs one challenge over
    /// its `4T` targets, ⌈(9 + 64·T) / 64⌉ = `T + 1` blocks, to prove
    /// and again to verify.
    #[cfg(debug_assertions)]
    #[test]
    fn a_beaver_b_step_digests_its_map_once_and_a_member_hashes_one_challenge() {
        use yoso_crypto::sha256::compressions_of;
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let tpk = &chain.pk;
        for triples in [1usize, 2, 52] {
            let a: Vec<F61> = (0..triples).map(|_| F61::random(&mut r)).collect();
            let c_as: Vec<_> = a.iter().map(|&a| MockTe::encrypt(&mut r, tpk, a).0).collect();
            let (mut cts, mut witness) = (Vec::new(), Vec::new());
            for c_a in &c_as {
                let b = F61::random(&mut r);
                let (c_b, b_r) = MockTe::encrypt(&mut r, tpk, b);
                cts.extend([c_b, Ciphertext { u: b * c_a.u, v: b * c_a.v }]);
                witness.extend([b, b_r]);
            }
            let (map, building) = compressions_of(|| BeaverBMap::new(tpk, &c_as));
            // 16 bytes of shape, 8 a row and 16 a non-zero (five a
            // triple), 9 of padding; then the prefix block.
            let digest = (16 + 8 * 4 * triples as u64 + 16 * 5 * triples as u64 + 9).div_ceil(64);
            assert_eq!(building, digest + 1, "{triples} triples");
            let members = 4;
            let (_, step) = compressions_of(|| {
                for _ in 0..members {
                    let proof = map.prove(&mut r, &cts, &witness);
                    assert!(map.verify(&cts, &proof));
                }
            });
            assert_eq!(step, 2 * members * (triples as u64 + 1), "{triples} triples");
        }
    }

    /// An honest member's contribution message with its plaintexts and
    /// randomness: ciphertexts, values, randomness, proof.
    type Known = (Vec<Ciphertext<F61>>, Vec<F61>, Vec<F61>, EncProof<F61>);

    /// Members 0 and 1 of a 3-member contribution step under `batch`,
    /// honest, with their messages, plaintexts and randomness.
    fn honest_messages(
        r: &mut rand::rngs::StdRng,
        tpk: &PublicKey<F61>,
        batch: &EncBatch<F61>,
        m: usize,
    ) -> Vec<Known> {
        (0..2)
            .map(|member| {
                let values: Vec<F61> = (0..m).map(|_| F61::random(r)).collect();
                let (cts, rands): (Vec<_>, Vec<_>) =
                    values.iter().map(|&v| MockTe::encrypt(r, tpk, v)).unzip();
                let proof = batch.prove(r, member, &cts, &values, &rands);
                (cts, values, rands, proof)
            })
            .collect()
    }

    /// The sums a reader of `kind` folds from members 0 and 1's honest
    /// messages and member 2's `(cts, proof)`, and its count of valid
    /// messages.
    fn read_three(
        batch: &EncBatch<F61>,
        honest: &[Known],
        third: (Vec<Ciphertext<F61>>, EncProof<F61>),
    ) -> (Vec<Ciphertext<F61>>, usize) {
        let mut sums = ContributionSums::new(third.0.len());
        for (member, (cts, _, _, proof)) in honest.iter().enumerate() {
            sums.offer(member, (cts.clone(), Proved::Made(batch, proof.clone())));
        }
        sums.offer(2, (third.0, Proved::Made(batch, third.1)));
        (sums.sums, sums.valid)
    }

    /// The item-wise sums of members 0 and 1 alone.
    fn honest_sums(honest: &[Known]) -> Vec<Ciphertext<F61>> {
        let zero = Ciphertext { u: F61::ZERO, v: F61::ZERO };
        (0..honest[0].0.len())
            .map(|j| {
                honest
                    .iter()
                    .fold(zero, |s, msg| Ciphertext { u: s.u + msg.0[j].u, v: s.v + msg.0[j].v })
            })
            .collect()
    }

    /// Member 2 posts member 0's item 1 negated plus `Enc(x)` — the
    /// message that would cancel member 0's contribution and let member 2
    /// choose the sum — and proves what it knows: its own items and `x`.
    /// In every kind it is dropped from every sum.
    #[test]
    fn a_negated_honest_item_plus_a_chosen_value_is_dropped_from_every_sum() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 3, 1).unwrap();
        let tpk = &chain.pk;
        for kind in
            [ContributionStep::Beaver, ContributionStep::WireRandom, ContributionStep::PackHelper]
        {
            let batch = enc_batch(kind, tpk);
            let honest = honest_messages(&mut r, tpk, &batch, 3);
            let values: Vec<F61> = (0..3).map(|_| F61::random(&mut r)).collect();
            let (mut cts, rands): (Vec<_>, Vec<_>) =
                values.iter().map(|&v| MockTe::encrypt(&mut r, tpk, v)).unzip();
            let proof = batch.prove(&mut r, 2, &cts, &values, &rands);
            let theirs = honest[0].0[1];
            cts[1] = Ciphertext { u: cts[1].u - theirs.u, v: cts[1].v - theirs.v };
            let (sums, valid) = read_three(&batch, &honest, (cts, proof));
            assert_eq!((sums, valid), (honest_sums(&honest), 2), "{kind:?}");
        }
    }

    /// Member 2 replays member 0's whole message and proof, or member
    /// 0's message of another kind: read under another `ρ`, dropped from
    /// every sum.
    #[test]
    fn a_replayed_message_is_dropped_from_every_sum() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 3, 1).unwrap();
        let tpk = &chain.pk;
        let kinds =
            [ContributionStep::Beaver, ContributionStep::WireRandom, ContributionStep::PackHelper];
        for kind in kinds {
            let batch = enc_batch(kind, tpk);
            let honest = honest_messages(&mut r, tpk, &batch, 4);
            let replay = (honest[0].0.clone(), honest[0].3.clone());
            let (sums, valid) = read_three(&batch, &honest, replay);
            assert_eq!((sums, valid), (honest_sums(&honest), 2), "another role, {kind:?}");
            // Member 2's own message, proved for another kind.
            for other in kinds.into_iter().filter(|&other| other != kind) {
                let (cts, values, rands, _) = &honest_messages(&mut r, tpk, &batch, 4)[0];
                let proof = enc_batch(other, tpk).prove(&mut r, 2, cts, values, rands);
                let (sums, valid) = read_three(&batch, &honest, (cts.clone(), proof));
                assert_eq!((sums, valid), (honest_sums(&honest), 2), "{other:?} read as {kind:?}");
            }
        }
    }

    /// A committee of five whose member 3 mounts `attack`.
    fn with_member_3(name: &str, attack: Option<ActiveAttack>) -> Committee {
        let mut behaviors = vec![Behavior::Honest; 5];
        if let Some(attack) = attack {
            behaviors[3] = Behavior::Malicious(attack);
        }
        Committee::with_behaviors(name, behaviors)
    }

    /// `one-lie` in the wire-randomness and pack-helper steps — the
    /// honest message under its honest proof, then one ciphertext
    /// changed: the liar is dropped from every sum, as a member posting
    /// a garbage proof is, at 1, 2 and 8 workers.
    #[test]
    fn one_lie_in_a_contribution_is_dropped_from_every_sum_at_any_worker_count() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 5, 2).unwrap();
        let sums = |kind, attack, workers| {
            let board = BulletinBoard::new();
            let sb = ShardedBoard::new(&board, RolePartition::solo()).with_threads(workers);
            let committee = with_member_3("c", attack);
            with_forced_workers(workers, || {
                let mut r = rand::rngs::StdRng::seed_from_u64(77);
                summed_contributions(&mut r, &sb, &committee, &cfg(), &chain.pk, "x", kind, 6)
            })
            .unwrap()
        };
        for kind in [ContributionStep::WireRandom, ContributionStep::PackHelper] {
            let (honest, dropped) =
                (sums(kind, None, 1), sums(kind, Some(ActiveAttack::BadProof), 1));
            assert!(honest.iter().zip(&dropped).all(|(h, d)| h != d), "{kind:?}");
            for workers in [1, 2, 8] {
                let lied = sums(kind, Some(ActiveAttack::OneLie), workers);
                assert_eq!(lied, dropped, "{kind:?}, {workers} workers");
            }
        }
    }

    /// `one-lie` on either side of the Beaver step: the liar is dropped
    /// from every triple, as a member posting a garbage proof is, and
    /// every triple still multiplies, at 1, 2 and 8 workers.
    #[test]
    fn one_lie_on_either_beaver_side_is_dropped_and_triples_multiply_at_any_worker_count() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 5, 2).unwrap();
        let triples = |a_side, b_side, workers| {
            let board = BulletinBoard::new();
            let sb = ShardedBoard::new(&board, RolePartition::solo()).with_threads(workers);
            let (c1, c2) = (with_member_3("c1", a_side), with_member_3("c2", b_side));
            let triples = with_forced_workers(workers, || {
                let mut r = rand::rngs::StdRng::seed_from_u64(78);
                beaver_triples(&mut r, &sb, &c1, &c2, &cfg(), &chain.pk, 4)
            });
            let cts = |tr: &EncryptedTriple<F61>| [tr.a, tr.b, tr.c];
            triples.unwrap().iter().map(cts).collect::<Vec<_>>()
        };
        let (lie, garbage) = (Some(ActiveAttack::OneLie), Some(ActiveAttack::BadProof));
        let honest = triples(None, None, 1);
        let dec = RtCommittee::honest("d", 5);
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        for (a_side, b_side) in [(lie, None), (None, lie), (lie, lie)] {
            let dropped = triples(a_side.and(garbage), b_side.and(garbage), 1);
            for (h, d) in honest.iter().zip(&dropped) {
                let side = if a_side.is_some() { 0 } else { 1 };
                assert_ne!(h[side], d[side], "{a_side:?}, {b_side:?}");
            }
            for workers in [1, 2, 8] {
                let lied = triples(a_side, b_side, workers);
                assert_eq!(lied, dropped, "{a_side:?}, {b_side:?}, {workers} workers");
                for tr in &lied {
                    let opened = chain.decrypt(&mut r, &sb, &dec, &cfg(), "t", tr).unwrap();
                    assert_eq!(opened[0] * opened[1], opened[2]);
                }
            }
        }
    }

    #[test]
    fn packing_reconstructs_secrets_at_secret_points() {
        // Encrypt known values, pack, decrypt all shares, interpolate.
        let mut r = rng();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let n = 9;
        let t = 2;
        let k_b = 3;
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let committee = RtCommittee::honest("c", n);
        let values = [F61::from(11u64), F61::from(22u64), F61::from(33u64)];
        let wire_cts: Vec<Ciphertext<F61>> =
            values.iter().map(|&v| MockTe::encrypt(&mut r, &chain.pk, v).0).collect();
        let helper_cts: Vec<Ciphertext<F61>> = (0..t)
            .map(|_| {
                let h: F61 = yoso_field::PrimeField::random(&mut r);
                MockTe::encrypt(&mut r, &chain.pk, h).0
            })
            .collect();
        let scheme = PackedSharing::<F61>::new(n, k_b).unwrap();
        let packed = pack_ciphertexts(&scheme, t, &wire_cts, &helper_cts, &mut Vec::new()).unwrap();
        assert_eq!(packed.len(), n);
        // Decrypt the share ciphertexts and reconstruct via packed Shamir.
        let share_vals = chain.decrypt(&mut r, &sb, &committee, &cfg(), "t", &packed).unwrap();
        let shares: Vec<yoso_pss_sharing::Share<F61>> = share_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| yoso_pss_sharing::Share { party: i, value: v })
            .collect();
        let degree = t + k_b - 1;
        let got = scheme.reconstruct(&shares[..degree + 1], degree).unwrap();
        assert_eq!(got, values.to_vec());
        // Surplus shares are consistent with the packing degree.
        let got_all = scheme.reconstruct(&shares, degree).unwrap();
        assert_eq!(got_all, values.to_vec());
    }

    #[test]
    fn pack_rejects_wrong_helper_count() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 5, 2).unwrap();
        let ct = MockTe::encrypt(&mut r, &chain.pk, F61::from(1u64)).0;
        let scheme = PackedSharing::<F61>::new(5, 1).unwrap();
        assert!(matches!(
            pack_ciphertexts::<F61>(&scheme, 2, &[ct], &[ct], &mut Vec::new()),
            Err(ProtocolError::Invariant(_))
        ));
    }
}
