//! The offline phase `Π_YOSO-Offline` (paper §5.2).
//!
//! Circuit-dependent preprocessing, executed before inputs are known:
//!
//! - **Step 1** — Beaver triples: two committees jointly produce, per
//!   multiplication gate, an encrypted triple `(cᵃ, cᵇ, cᶜ)` with
//!   `c = a·b`, each contribution carrying an encryption NIZK.
//! - **Step 2** — random wire values: a committee sums per-member
//!   encrypted randomness into a mask ciphertext `c^λ` for every
//!   input-gate and multiplication output wire.
//! - **Step 3** — dependent wire values: addition-type masks follow
//!   homomorphically; for each multiplication gate the current
//!   tsk-holding committee `Decrypt`s `ε = λ_α + a` and `δ = λ_β + b`
//!   and everyone computes `c^Γ = ε·c_β − δ·cᵃ + cᶜ − c_γ`
//!   (encrypting `Γ = λ_α·λ_β − λ_γ`). One committee per
//!   multiplication layer, handing `tsk` to the next.
//! - **Step 4** — packing: per batch of `k` multiplication gates, the
//!   helper committee's summed random encryptions extend the `k`
//!   masks to a degree-`(t+k−1)` polynomial; everyone *locally*
//!   evaluates the `n` packed-share ciphertexts via `TEval` with
//!   Lagrange coefficients. Done three times per batch (`λ_α`, `λ_β`
//!   in batch order, and `Γ_γ`) — this is what solves Turbopack's
//!   network-routing problem without online communication.
//! - **Step 5** — per input wire, `Re-encrypt` the mask to the
//!   contributing client's KFF.
//! - **Step 6** — per batch and member, `Re-encrypt` the three packed
//!   shares to the KFF of the online role that will consume them.
//!
//! Total communication: `O(n)` ring elements per gate (measured, not
//! estimated — see experiment E3).

use rand::{Rng, SeedableRng};

use yoso_circuit::{BatchedCircuit, Gate, MulBatch};
use yoso_crypto::Domain;
use yoso_field::{allocstats, PrimeField};
use yoso_pss_sharing::PackedSharing;
use yoso_runtime::{Adversary, BulletinBoard, Committee};
use yoso_the::mock::{Ciphertext, MockTe, PkePublicKey, PublicKey};
use yoso_the::nizk::{self, EncMap, EncProof, LinearMap};

use crate::messages::{self, ContributionStep, Post, CT_ELEMENTS, ENC_PROOF_ELEMENTS};
use crate::parallel::PostBuffer;
use crate::setup::SetupArtifacts;
use crate::step::Step;
use crate::tsk::{ReencryptedValue, TskChain};
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

/// Reusable buffers for [`summed_contribution_into`]. The offline
/// phase calls it once per maskable wire (Step 2) and `3t` times per
/// batch (Step 4 helpers), each call collecting up to `n` ciphertexts
/// — fresh per-call vectors are an allocation cliff at Table-1
/// committee sizes, so the buffers persist across calls.
struct ContribBufs<F: PrimeField> {
    valid: Vec<Ciphertext<F>>,
    ones: Vec<F>,
}

impl<F: PrimeField> ContribBufs<F> {
    fn new() -> Self {
        ContribBufs { valid: Vec::new(), ones: Vec::new() }
    }

    /// Prepares the buffers for one call.
    fn reset(&mut self, capacity: usize) {
        self.valid.clear();
        if self.valid.capacity() < capacity {
            allocstats::bump();
            self.valid.reserve(capacity);
        }
    }
}

/// The threshold key as the contribution steps use it: the key and —
/// when proofs are produced at all — the one `enc` map over its
/// `(g, h)`, which no handover changes, shared by every member's proof
/// of every contribution under the key.
pub(crate) struct ContributionKey<'a, F: PrimeField> {
    tpk: &'a PublicKey<F>,
    enc: Option<EncMap<F>>,
}

impl<'a, F: PrimeField> ContributionKey<'a, F> {
    pub(crate) fn new(tpk: &'a PublicKey<F>, cfg: &ExecutionConfig) -> Self {
        ContributionKey { tpk, enc: cfg.produce_proofs.then(|| EncMap::new(tpk)) }
    }
}

/// Collects one encrypted-randomness contribution per participating
/// member ([`Step`]) and returns the homomorphic sum of the *valid*
/// ones. Posts are appended to `posts` rather than sent, so the caller
/// can run many of these concurrently and replay the posts in order.
///
/// A malicious member's plaintext is as random as an honest one's; what
/// it cannot produce is the proof, so its contribution is filtered —
/// which is safe: sums of any subset of valid contributions that
/// includes at least one honest one are uniform.
#[allow(clippy::too_many_arguments)]
fn summed_contribution_into<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    posts: &mut PostBuffer,
    committee: &Committee,
    cfg: &ExecutionConfig,
    key: &ContributionKey<'_, F>,
    phase: &'static str,
    kind: ContributionStep,
    bufs: &mut ContribBufs<F>,
) -> Result<Ciphertext<F>, ProtocolError> {
    let tpk = key.tpk;
    bufs.reset(committee.n());
    let post = Post::Contribution { step: kind, ciphertexts: 1 };
    let step = Step::new(committee, cfg, phase, post, CT_ELEMENTS + ENC_PROOF_ELEMENTS);
    step.run(rng, posts, key.enc.as_ref(), step.everyone(), |mut turn, ()| {
        let m = F::random(&mut turn.rng);
        let (ct, r) = MockTe::encrypt(&mut turn.rng, tpk, m);
        let valid = match turn.attack() {
            None => turn.honest(|map, rng| {
                let proof = map.prove(rng, &ct, m, r);
                map.verify(&ct, &proof)
            }),
            Some(_) => turn.forged(|map, rng| map.verify(&ct, &EncProof::garbage(rng))),
        };
        if valid {
            bufs.valid.push(ct);
        }
    });
    if bufs.valid.is_empty() {
        return Err(ProtocolError::NotEnoughContributions {
            step: "summed contribution",
            got: 0,
            need: 1,
        });
    }
    allocstats::ensure_filled(&mut bufs.ones, bufs.valid.len(), F::ONE);
    Ok(MockTe::eval(&bufs.valid, &bufs.ones)?)
}

/// [`summed_contribution_into`] posting through the sharded board.
#[allow(clippy::too_many_arguments)]
fn summed_contribution<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &ShardedBoard<'_>,
    committee: &Committee,
    cfg: &ExecutionConfig,
    key: &ContributionKey<'_, F>,
    phase: &'static str,
    kind: ContributionStep,
    bufs: &mut ContribBufs<F>,
) -> Result<Ciphertext<F>, ProtocolError> {
    let mut posts = PostBuffer::new();
    let result =
        summed_contribution_into(rng, &mut posts, committee, cfg, key, phase, kind, bufs);
    sb.flush_buffer(posts)?;
    result
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

/// Produces one encrypted Beaver triple, buffering its board posts.
fn one_triple<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    posts: &mut PostBuffer,
    c1: &Committee,
    c2: &Committee,
    cfg: &ExecutionConfig,
    key: &ContributionKey<'_, F>,
    phase: &'static str,
) -> Result<EncryptedTriple<F>, ProtocolError> {
    let tpk = key.tpk;
    // a-side contributions from C1. Triples are produced in parallel
    // (one child RNG each), so the buffers stay per-call here.
    let mut bufs = ContribBufs::new();
    let c_a = summed_contribution_into(
        rng,
        posts,
        c1,
        cfg,
        key,
        phase,
        ContributionStep::Beaver,
        &mut bufs,
    )?;
    // One b-side map per triple, shared by C2's postings.
    let b_map = cfg.produce_proofs.then(|| BeaverBMap::new(tpk, &c_a)).transpose()?;

    // b-side: each C2 member posts (c_b_i, c_c_i = b_i·c^a) with a
    // proof of the joint relation.
    let mut b_parts: Vec<Ciphertext<F>> = Vec::new();
    let mut c_parts: Vec<Ciphertext<F>> = Vec::new();
    let post = Post::Contribution { step: ContributionStep::Beaver, ciphertexts: 2 };
    let elements = 2 * CT_ELEMENTS + messages::proof_elements(4, 2);
    let step = Step::new(c2, cfg, phase, post, elements);
    step.run(rng, posts, b_map.as_ref(), step.everyone(), |mut turn, ()| {
        let (cb, cc, valid) = match turn.attack() {
            None => {
                let b_i = F::random(&mut turn.rng);
                let (cb, r) = MockTe::encrypt(&mut turn.rng, tpk, b_i);
                let cc = Ciphertext { u: b_i * c_a.u, v: b_i * c_a.v };
                let ok = turn.honest(|map, rng| {
                    let proof = map.prove(rng, &cb, &cc, b_i, r);
                    map.verify(&cb, &cc, &proof)
                });
                (cb, cc, ok)
            }
            Some(_) => {
                let junk = F::random(&mut turn.rng);
                let (cb, _) = MockTe::encrypt(&mut turn.rng, tpk, junk);
                let fake = F::random(&mut turn.rng);
                let cc = Ciphertext { u: fake * c_a.u, v: fake * c_a.v + F::ONE };
                let ok = turn.forged(|map, rng| {
                    map.verify(&cb, &cc, &nizk::LinearProof::garbage(rng, 4, 2))
                });
                (cb, cc, ok)
            }
        };
        if valid {
            b_parts.push(cb);
            c_parts.push(cc);
        }
    });
    if b_parts.is_empty() {
        return Err(ProtocolError::NotEnoughContributions {
            step: "beaver b-side",
            got: 0,
            need: 1,
        });
    }
    let ones = vec![F::ONE; b_parts.len()];
    let c_b = MockTe::eval(&b_parts, &ones)?;
    let c_c = MockTe::eval(&c_parts, &ones)?;
    Ok(EncryptedTriple { a: c_a, b: c_b, c: c_c })
}

/// Step 1: two committees produce one encrypted Beaver triple per
/// multiplication gate (`Beaver-Triple` in the paper).
///
/// Triples are independent, so each one runs from its own child RNG
/// (seeds drawn sequentially from `rng`) on up to `cfg.num_threads`
/// workers; posts are replayed in triple order, making the transcript
/// independent of the thread count.
pub fn beaver_triples<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    board: &BulletinBoard<Post>,
    c1: &Committee,
    c2: &Committee,
    cfg: &ExecutionConfig,
    tpk: &PublicKey<F>,
    count: usize,
) -> Result<Vec<EncryptedTriple<F>>, ProtocolError> {
    let sb = ShardedBoard::new(board, cfg.partition)?;
    beaver_triples_in(rng, &sb, c1, c2, cfg, &ContributionKey::new(tpk, cfg), count)
}

/// [`beaver_triples`] posting through an existing sharded board, so an
/// engine-level caller can keep one position accounting across phases.
pub(crate) fn beaver_triples_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &ShardedBoard<'_>,
    c1: &Committee,
    c2: &Committee,
    cfg: &ExecutionConfig,
    key: &ContributionKey<'_, F>,
    count: usize,
) -> Result<Vec<EncryptedTriple<F>>, ProtocolError> {
    let phase = "offline/1-beaver";
    let seeds: Vec<u64> = (0..count).map(|_| rng.next_u64()).collect();
    let results = crate::parallel::par_map(cfg.num_threads, &seeds, |_, &seed| {
        let mut trng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut posts = PostBuffer::new();
        let triple = one_triple(&mut trng, &mut posts, c1, c2, cfg, key, phase);
        (triple, posts)
    });
    let mut triples = Vec::with_capacity(count);
    for (triple, posts) in results {
        sb.flush_buffer(posts)?;
        triples.push(triple?);
    }
    Ok(triples)
}

static DOMAIN_BEAVER_B: Domain = Domain::new(b"yoso-pss/nizk/beaver-b/v3");

/// The b-side Beaver relation of one triple: witness `(b, r)` with
/// `c_b = TEnc(b; r)` and `c_c = b · c_a`. The map holds the key and
/// `c_a`, so one serves every b-side member of the triple.
struct BeaverBMap<F: PrimeField>(LinearMap<F>);

impl<F: PrimeField> BeaverBMap<F> {
    /// The map's shape is fixed, so the error arm is never taken.
    fn new(tpk: &PublicKey<F>, c_a: &Ciphertext<F>) -> Result<Self, ProtocolError> {
        let rows: [&[(usize, F)]; 4] =
            [&[(1, tpk.g)], &[(0, F::ONE), (1, tpk.h)], &[(0, c_a.u)], &[(0, c_a.v)]];
        LinearMap::new(2, rows)
            .map(BeaverBMap)
            .map_err(|_| ProtocolError::Invariant("the fixed-shape beaver-b map was refused"))
    }

    fn prove<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        c_b: &Ciphertext<F>,
        c_c: &Ciphertext<F>,
        b: F,
        r: F,
    ) -> nizk::LinearProof<F> {
        let targets = [c_b.u, c_b.v, c_c.u, c_c.v];
        nizk::prove_linear(rng, &DOMAIN_BEAVER_B, &self.0, &targets, &[b, r])
    }

    fn verify(
        &self,
        c_b: &Ciphertext<F>,
        c_c: &Ciphertext<F>,
        proof: &nizk::LinearProof<F>,
    ) -> bool {
        nizk::verify_linear(&DOMAIN_BEAVER_B, &self.0, &[c_b.u, c_b.v, c_c.u, c_c.v], proof)
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
    let mut packed: Vec<Ciphertext<F>> = shares.iter().map(|&u| Ciphertext { u, v: F::ZERO }).collect();
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
pub fn run_offline<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &crate::ProtocolParams,
    board: &BulletinBoard<Post>,
    adversary: &Adversary,
    cfg: &ExecutionConfig,
    bc: &BatchedCircuit<F>,
    setup: &SetupArtifacts<F>,
) -> Result<OfflineArtifacts<F>, ProtocolError> {
    let sb = ShardedBoard::new(board, cfg.partition)?;
    run_offline_in(rng, params, &sb, adversary, cfg, bc, setup)
}

/// [`run_offline`] posting through an existing sharded board (the
/// engine keeps one accounting across setup/offline/online so worker
/// processes agree on every canonical board position).
#[allow(clippy::too_many_lines, clippy::too_many_arguments, clippy::needless_range_loop)]
pub(crate) fn run_offline_in<F: PrimeField, R: Rng + ?Sized>(
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
    // One contribution arena for the whole phase: Step 2 runs once per
    // maskable wire, Step 4 `3t` times per batch — all sequential.
    let mut contrib = ContribBufs::new();
    let mut tsk = setup.tsk.clone();
    let tpk = tsk.pk.clone();
    let key = ContributionKey::new(&tpk, cfg);
    let circuit = &bc.circuit;

    // ---- Step 1: Beaver triples, one per multiplication gate.
    let c1 = adversary.sample_committee(rng, "off-beaver-a", n);
    let c2 = adversary.sample_committee(rng, "off-beaver-b", n);
    let mul_wires: Vec<usize> = circuit
        .mul_layers()
        .iter()
        .flat_map(|layer| layer.iter().map(|w| w.0))
        .collect();
    let triples = beaver_triples_in(rng, sb, &c1, &c2, cfg, &key, mul_wires.len())?;
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
    for (w, gate) in circuit.gates().iter().enumerate() {
        if matches!(gate, Gate::Input { .. } | Gate::Mul(_, _)) {
            lambda_cts[w] = summed_contribution(
                rng,
                sb,
                &c3,
                cfg,
                &key,
                phase2,
                ContributionStep::WireRandom,
                &mut contrib,
            )?;
        }
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
                lambda_cts[w] = MockTe::eval(&[lambda_cts[a.0], lambda_cts[b.0]], &[F::ONE, F::ONE])?;
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
                _ => {
                    return Err(ProtocolError::Invariant(
                        "mul layer contains a non-mul gate",
                    ))
                }
            };
            let tr = &triples[triple_of[gw.0]];
            eps_delta.push(MockTe::eval(&[lambda_cts[a.0], tr.a], &[F::ONE, F::ONE])?);
            eps_delta.push(MockTe::eval(&[lambda_cts[b.0], tr.b], &[F::ONE, F::ONE])?);
        }
        let opened = tsk.decrypt_in(rng, sb, &committee, cfg, phase, &eps_delta)?;
        for (j, &gw) in layer.iter().enumerate() {
            let (_, b) = match circuit.gates()[gw.0] {
                Gate::Mul(a, b) => (a, b),
                _ => {
                    return Err(ProtocolError::Invariant(
                        "mul layer contains a non-mul gate",
                    ))
                }
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
        tsk.handover_in(rng, sb, &committee, cfg, "offline/handover", &next_keys)?;
        sb.advance_round()?;
    }

    // ---- Step 4: packing per batch (helpers contributed by c3 as part
    // of its single message; metered under the packing phase).
    let phase4 = "offline/4-pack";
    type PackedTriple<F> = (Vec<Ciphertext<F>>, Vec<Ciphertext<F>>, Vec<Ciphertext<F>>);
    let mut packed: Vec<PackedTriple<F>> = Vec::with_capacity(bc.mul_batches.len());
    let mut pack_shares: Vec<F> = Vec::new();
    for batch in &bc.mul_batches {
        let scheme = PackedSharing::new(n, batch.gates.len())?;
        let alpha_wires = batch.left_wires(circuit);
        let beta_wires = batch.right_wires(circuit);
        let alpha_cts: Vec<Ciphertext<F>> =
            alpha_wires.iter().map(|w| lambda_cts[w.0]).collect();
        let beta_cts: Vec<Ciphertext<F>> =
            beta_wires.iter().map(|w| lambda_cts[w.0]).collect();
        let gamma_in: Vec<Ciphertext<F>> = batch
            .gates
            .iter()
            .map(|w| {
                gamma_cts[w.0].ok_or(ProtocolError::Invariant(
                    "Γ ciphertext missing for a mul gate after step 3",
                ))
            })
            .collect::<Result<_, _>>()?;
        let mut pack_one =
            |rng: &mut R, wires_cts: &[Ciphertext<F>]| -> Result<Vec<Ciphertext<F>>, ProtocolError> {
                let mut helpers = Vec::with_capacity(t);
                for _ in 0..t {
                    helpers.push(summed_contribution(
                        rng,
                        sb,
                        &c3,
                        cfg,
                        &key,
                        phase4,
                        ContributionStep::PackHelper,
                        &mut contrib,
                    )?);
                }
                pack_ciphertexts(&scheme, t, wires_cts, &helpers, &mut pack_shares)
            };
        let alpha = pack_one(rng, &alpha_cts)?;
        let beta = pack_one(rng, &beta_cts)?;
        let gamma = pack_one(rng, &gamma_in)?;
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
    let input_vals = tsk.reencrypt_in(rng, sb, &c5, cfg, phase5, &input_items)?;
    let input_reenc = input_meta
        .into_iter()
        .zip(input_vals)
        .map(|((w, client), v)| (w, client, v))
        .collect();
    sb.advance_round()?;
    let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
        (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
    tsk.handover_in(rng, sb, &c5, cfg, "offline/handover", &next_keys)?;

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
        let mut vals = tsk.reencrypt_in(rng, sb, &c6, cfg, phase6, &items)?;
        let gamma_v: Vec<ReencryptedValue<F>> = vals.split_off(2 * n);
        let beta_v: Vec<ReencryptedValue<F>> = vals.split_off(n);
        batch_shares.push(BatchShares { alpha: vals, beta: beta_v, gamma: gamma_v });
    }
    let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
        (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
    tsk.handover_in(rng, sb, &c6, cfg, "offline/handover", &next_keys)?;
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
    use rand::SeedableRng;
    use yoso_field::F61;
    use yoso_runtime::{ActiveAttack, Committee as RtCommittee};

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
        let chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let c1 = RtCommittee::honest("c1", 6);
        let c2 = RtCommittee::honest("c2", 6);
        let triples =
            beaver_triples(&mut r, &board, &c1, &c2, &cfg(), &chain.pk, 3).unwrap();
        let dec = RtCommittee::honest("d", 6);
        for tr in &triples {
            let opened = chain
                .decrypt(&mut r, &board, &dec, &cfg(), "t", &[tr.a, tr.b, tr.c])
                .unwrap();
            assert_eq!(opened[0] * opened[1], opened[2]);
        }
    }

    #[test]
    fn beaver_triples_with_malicious_contributors() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let c1 = adv.sample_committee(&mut r, "c1", 7);
        let c2 = adv.sample_committee(&mut r, "c2", 7);
        let triples =
            beaver_triples(&mut r, &board, &c1, &c2, &cfg(), &chain.pk, 2).unwrap();
        let dec = RtCommittee::honest("d", 7);
        for tr in &triples {
            let opened = chain
                .decrypt(&mut r, &board, &dec, &cfg(), "t", &[tr.a, tr.b, tr.c])
                .unwrap();
            assert_eq!(opened[0] * opened[1], opened[2], "a·b must equal c despite attackers");
        }
    }

    #[test]
    fn a_beaver_b_proof_binds_its_triple_and_domain() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let tpk = &chain.pk;
        let (c_a, _) = MockTe::encrypt(&mut r, tpk, F61::from(3u64));
        let b = F61::from(5u64);
        let (c_b, b_r) = MockTe::encrypt(&mut r, tpk, b);
        let c_c = Ciphertext { u: b * c_a.u, v: b * c_a.v };
        let map = BeaverBMap::new(tpk, &c_a).unwrap();
        let proof = map.prove(&mut r, &c_b, &c_c, b, b_r);
        assert!(map.verify(&c_b, &c_c, &proof));
        // Another product, another a-side.
        let off = Ciphertext { u: c_c.u, v: c_c.v + F61::ONE };
        assert!(!map.verify(&c_b, &off, &proof));
        let (other_a, _) = MockTe::encrypt(&mut r, tpk, F61::from(3u64));
        assert!(!BeaverBMap::new(tpk, &other_a).unwrap().verify(&c_b, &c_c, &proof));

        // The retired separators: right map, right targets, right
        // witness, rejected.
        let targets = [c_b.u, c_b.v, c_c.u, c_c.v];
        for v in ["v1", "v2"] {
            let retired = Domain::new(format!("yoso-pss/nizk/beaver-b/{v}").as_bytes());
            let old = nizk::prove_linear(&mut r, &retired, &map.0, &targets, &[b, b_r]);
            assert!(nizk::verify_linear(&retired, &map.0, &targets, &old));
            assert!(!map.verify(&c_b, &c_c, &old), "beaver-b/{v}");
        }

        // What a malicious b-side member posts: verified, and rejected.
        let mut r = rand::rngs::StdRng::seed_from_u64(20261003);
        let garbage = nizk::LinearProof::<F61>::garbage(&mut r, 4, 2);
        assert_ne!(garbage.commitment[0], garbage.commitment[1]);
        assert!(!map.verify(&c_b, &c_c, &garbage));

        // Exact and host-independent: two SHA-256 blocks a challenge.
        #[cfg(debug_assertions)]
        {
            let (_, blocks) = yoso_crypto::sha256::compressions_of(|| {
                let proof = map.prove(&mut r, &c_b, &c_c, b, b_r);
                assert!(map.verify(&c_b, &c_c, &proof));
            });
            assert_eq!(blocks, 2 + 2);
        }
    }

    #[test]
    fn packing_reconstructs_secrets_at_secret_points() {
        // Encrypt known values, pack, decrypt all shares, interpolate.
        let mut r = rng();
        let board = BulletinBoard::new();
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
        let share_vals =
            chain.decrypt(&mut r, &board, &committee, &cfg(), "t", &packed).unwrap();
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
