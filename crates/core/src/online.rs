//! The online phase `Π_YOSO-Online` (paper §5.3).
//!
//! Once inputs are known:
//!
//! - **Future key distribution**: the first online committee
//!   `Re-encrypt`s every KFF secret key to the now-known YOSO role key
//!   of its owner, then hands `tsk` to the output committee. After
//!   this, `tsk` is never re-shared again (`Re-encrypt*`).
//! - **Input**: each client opens its re-encrypted wire masks with its
//!   KFF secret and publishes `μ = v − λ` — one element per input
//!   wire.
//! - **Addition** (and all linear gates): `μ` propagates locally, zero
//!   communication.
//! - **Multiplication**: for a batch of `k` gates, member `i` of the
//!   layer committee opens its three packed shares
//!   (`λ_α`, `λ_β`, `Γ`), computes
//!   `μᵢ^γ = μᵢ^α·μᵢ^β + μᵢ^α·λᵢ^β + μᵢ^β·λᵢ^α + Γᵢ`
//!   and publishes it with a NIZK binding it to the on-board
//!   ciphertexts through its KFF public key. Any `t + 2(k−1) + 1`
//!   verified shares reconstruct `μ^γ` — `n/k = O(1/ε)` elements per
//!   gate, **independent of `n`**.
//! - **Output**: the output committee `Re-encrypt*`s each output-wire
//!   mask to the receiving client, who computes `v = μ + λ`.

// BTreeMap (not HashMap): wire and width keys are iterated below, and the
// posting order must never depend on hasher state — the engine promises
// byte-identical transcripts for every `--threads` value.
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use rand::Rng;

use yoso_circuit::{BatchedCircuit, Gate};
use yoso_field::PrimeField;
use yoso_pss_sharing::{PackedSharing, PssScratch, Share};
use yoso_runtime::{ActiveAttack, Adversary, Behavior, BulletinBoard, LeakLog, RoleId};
use yoso_the::mock::{LinearPke, PkeKeyPair, PkePublicKey};
use yoso_the::nizk::{ShareMap, ShareProof};

use crate::messages::{Post, MULSHARE_PROOF_ELEMENTS};
use crate::offline::OfflineArtifacts;
use crate::setup::SetupArtifacts;
use crate::step::Step;
use crate::tsk::ReencryptedValue;
use crate::{ExecutionConfig, ProtocolError};

/// The result of the online phase.
#[derive(Debug, Clone)]
pub struct OnlineResult<F: PrimeField> {
    /// Per-client outputs, in output-gate order.
    pub outputs: Vec<Vec<F>>,
    /// The public `μ` value of every wire (diagnostics / tests).
    pub mu: Vec<F>,
}

/// Runs the full online phase.
///
/// `inputs[c]` are client `c`'s input values in input-gate order.
///
/// # Errors
///
/// Propagates sub-step errors; within the corruption model none occur.
#[allow(clippy::too_many_arguments)]
pub fn run_online<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &crate::ProtocolParams,
    board: &BulletinBoard<Post>,
    adversary: &Adversary,
    cfg: &ExecutionConfig,
    bc: &BatchedCircuit<F>,
    setup: &SetupArtifacts<F>,
    offline: OfflineArtifacts<F>,
    inputs: &[Vec<F>],
    leak: &LeakLog,
) -> Result<OnlineResult<F>, ProtocolError> {
    let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
    run_online_in(rng, params, &sb, adversary, cfg, bc, setup, offline, inputs, leak)
}

/// [`run_online`] posting through an existing sharded board (the
/// engine-level entry point for role-sharded workers).
#[allow(clippy::too_many_lines, clippy::too_many_arguments, clippy::needless_range_loop)]
pub(crate) fn run_online_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &crate::ProtocolParams,
    sb: &crate::workitem::ShardedBoard<'_>,
    adversary: &Adversary,
    cfg: &ExecutionConfig,
    bc: &BatchedCircuit<F>,
    setup: &SetupArtifacts<F>,
    offline: OfflineArtifacts<F>,
    inputs: &[Vec<F>],
    leak: &LeakLog,
) -> Result<OnlineResult<F>, ProtocolError> {
    let n = params.n;
    let circuit = &bc.circuit;
    let layers = circuit.mul_depth();
    let clients = circuit.clients();
    let mut tsk = offline.tsk;

    // Role assignment for the online committees and clients: fresh
    // role keys become known only now.
    let role_keys: Vec<Vec<PkeKeyPair<F>>> = (0..layers)
        .map(|_| (0..n).map(|_| LinearPke::keygen(rng)).collect())
        .collect();
    let client_role_keys: Vec<PkeKeyPair<F>> =
        (0..clients).map(|_| LinearPke::keygen(rng)).collect();

    // ---- Future key distribution.
    let kd = adversary.sample_committee(rng, "on-keydist", n);
    let phase_kd = "online/1-keydist";
    let mut items: Vec<(PkePublicKey<F>, yoso_the::mock::Ciphertext<F>)> = Vec::new();
    for l in 0..layers {
        for i in 0..n {
            items.push((role_keys[l][i].public, setup.kff_cts[l][i]));
        }
    }
    for c in 0..clients {
        items.push((client_role_keys[c].public, setup.client_kff_cts[c]));
    }
    let mut kff_prime = tsk.reencrypt_in(rng, sb, &kd, cfg, phase_kd, &items)?;
    let client_kff_prime: Vec<ReencryptedValue<F>> = kff_prime.split_off(layers * n);
    // kff_prime[l*n + i] targets role (l, i).

    // Hand tsk to the output committee (the last holder; Re-encrypt*
    // afterwards performs no further resharing).
    let output_keys: Vec<PkeKeyPair<F>> = (0..n).map(|_| LinearPke::keygen(rng)).collect();
    tsk.handover_in(rng, sb, &kd, cfg, "online/handover", &output_keys)?;
    sb.advance_round()?;

    // Clients recover their KFF secrets through the protocol path.
    let client_kff_sk: Vec<F> = (0..clients)
        .map(|c| client_kff_prime[c].open(client_role_keys[c].secret.scalar))
        .collect::<Result<_, _>>()?;

    // ---- Input: clients publish μ = v − λ per input wire.
    let phase_in = "online/2-input";
    let mut mu: Vec<Option<F>> = vec![None; circuit.wire_count()];
    let mut input_reenc_by_wire: BTreeMap<usize, &ReencryptedValue<F>> = BTreeMap::new();
    for (w, _client, rv) in &offline.input_reenc {
        input_reenc_by_wire.insert(*w, rv);
    }
    for (client, wires) in circuit.inputs_per_client().iter().enumerate() {
        for (idx, w) in wires.iter().enumerate() {
            let rv = input_reenc_by_wire
                .get(&w.0)
                .ok_or(ProtocolError::Invariant(
                    "offline phase re-encrypted no mask for an input wire",
                ))?;
            let lambda = rv.open(client_kff_sk[client])?;
            let v = inputs[client][idx];
            mu[w.0] = Some(v - lambda);
        }
        if !wires.is_empty() {
            let elements = wires.len() as u64;
            // Client posts are not member-indexed: the leader worker
            // appends them.
            sb.post(
                sb.is_leader(),
                yoso_runtime::RoleId::new("client", client),
                Post::InputMu { wires: wires.len() as u32 },
                phase_in,
                elements,
            )?;
        }
    }

    sb.advance_round()?;

    // ---- Gate-by-gate μ propagation; multiplications per batch.
    // Pre-index batches by layer for the committee loop.
    let phase_mul = "online/3-mult";
    let mut batches_by_layer: Vec<Vec<usize>> = vec![Vec::new(); layers];
    for (b_idx, batch) in bc.mul_batches.iter().enumerate() {
        batches_by_layer[batch.layer].push(b_idx);
    }

    // Propagate linear gates in a single topological pass over the
    // SSA gate list: each linear gate is computable exactly when the
    // deepest mul layer below it has been reconstructed, so bucketing
    // gates by multiplicative depth visits every gate once — stage 0
    // before the first layer, stage l + 1 right after layer l's
    // batches fill their wires. O(gates) total, where resweeping the
    // whole list per layer was O(layers · gates).
    let depths = circuit.depths();
    let mut linear_by_stage: Vec<Vec<usize>> = vec![Vec::new(); layers + 1];
    for (w, gate) in circuit.gates().iter().enumerate() {
        // Input wires are filled by the input phase, mul wires by
        // their batch; neither is propagated.
        if !matches!(gate, Gate::Mul(_, _) | Gate::Input { .. }) {
            linear_by_stage[depths[w]].push(w);
        }
    }
    const MU_MISSING: &str = "linear-gate operand μ missing at its depth stage";
    let propagate_stage = |mu: &mut Vec<Option<F>>, stage: usize| -> Result<(), ProtocolError> {
        for &w in &linear_by_stage[stage] {
            mu[w] = Some(match circuit.gates()[w] {
                Gate::Const(c) => c,
                Gate::Add(a, b) => {
                    mu[a.0].ok_or(ProtocolError::Invariant(MU_MISSING))?
                        + mu[b.0].ok_or(ProtocolError::Invariant(MU_MISSING))?
                }
                Gate::Sub(a, b) => {
                    mu[a.0].ok_or(ProtocolError::Invariant(MU_MISSING))?
                        - mu[b.0].ok_or(ProtocolError::Invariant(MU_MISSING))?
                }
                Gate::MulConst(a, c) => mu[a.0].ok_or(ProtocolError::Invariant(MU_MISSING))? * c,
                Gate::Output(a, _) => mu[a.0].ok_or(ProtocolError::Invariant(MU_MISSING))?,
                Gate::Input { .. } | Gate::Mul(_, _) => {
                    return Err(ProtocolError::Invariant(
                        "non-linear gate bucketed into a propagation stage",
                    ))
                }
            });
        }
        Ok(())
    };

    // One sharing scheme per batch width, shared across layers: the
    // reconstruction-domain cache inside `PackedSharing` makes a
    // repeated `reconstruct` k dot products. The share buffers and the
    // scratch below are the per-batch hot path — they keep their
    // capacity across every batch and layer.
    let mut schemes: BTreeMap<usize, PackedSharing<F>> = BTreeMap::new();
    let mut scratch = PssScratch::new();
    let mut mu_alpha_vals: Vec<F> = Vec::new();
    let mut mu_beta_vals: Vec<F> = Vec::new();
    let mut mu_gamma: Vec<F> = Vec::new();
    for (layer_idx, layer_batches) in batches_by_layer.iter().enumerate() {
        propagate_stage(&mut mu, layer_idx)?;
        let committee = adversary.sample_committee(rng, format!("on-mult-{layer_idx}"), n);
        for &b_idx in layer_batches {
            let batch = &bc.mul_batches[b_idx];
            let shares = &offline.batch_shares[b_idx];
            let k_b = batch.gates.len();
            let scheme = match schemes.entry(k_b) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => v.insert(PackedSharing::<F>::new(n, k_b)?),
            };
            let rec_degree = params.t + 2 * (k_b - 1);

            // Public degree-(k_b − 1) packed sharings of the μ vectors.
            let mu_alpha: Vec<F> = batch
                .left_wires(circuit)
                .iter()
                .map(|w| {
                    mu[w.0].ok_or(ProtocolError::Invariant(
                        "mul-gate left input μ not propagated before its layer",
                    ))
                })
                .collect::<Result<_, _>>()?;
            let mu_beta: Vec<F> = batch
                .right_wires(circuit)
                .iter()
                .map(|w| {
                    mu[w.0].ok_or(ProtocolError::Invariant(
                        "mul-gate right input μ not propagated before its layer",
                    ))
                })
                .collect::<Result<_, _>>()?;
            scheme.share_public_into(&mu_alpha, &mut mu_alpha_vals, &mut scratch)?;
            scheme.share_public_into(&mu_beta, &mut mu_beta_vals, &mut scratch)?;

            // Per-member share computation is independent: fan out on
            // child RNGs seeded sequentially. This step draws a seed
            // for *every* member, speaking or not, so it keeps its own
            // fan-out over the pre-drawn seeds and takes the rest of
            // the member's turn from [`Step`]; posts and leak records
            // follow in member order.
            struct MemberOut<F: PrimeField> {
                /// The member's share, if it posted one that verifies.
                share: Option<Share<F>>,
                leaks: Vec<(RoleId, String, usize)>,
            }
            let step =
                Step::new(&committee, cfg, phase_mul, Post::MulShare, 1 + MULSHARE_PROOF_ELEMENTS);
            let seeds: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let member_results = crate::parallel::par_map(
                cfg.num_threads,
                &seeds,
                |i, &seed| -> Result<MemberOut<F>, ProtocolError> {
                    let mut out = MemberOut { share: None, leaks: Vec::new() };
                    if !step.speaks(i) {
                        return Ok(out);
                    }
                    let kff_pk = setup.kff_pairs[layer_idx][i].public;
                    let ma = mu_alpha_vals[i];
                    let mb = mu_beta_vals[i];
                    // Public opening coefficients of the three
                    // re-encrypted packed shares (value = a − sk·b).
                    let (a_al, b_al) = shares.alpha[i].opening_coefficients()?;
                    let (a_be, b_be) = shares.beta[i].opening_coefficients()?;
                    let (a_ga, b_ga) = shares.gamma[i].opening_coefficients()?;
                    let offset = ma * mb + ma * a_be + mb * a_al + a_ga;
                    let slope = ma * b_be + mb * b_al + b_ga;
                    // Key and slope are this member's alone: one map
                    // per posting, built only where it will be used.
                    let map = (cfg.produce_proofs && cfg.partition.owns(i))
                        .then(|| ShareMap::new(&kff_pk, slope));
                    let mut turn = step.turn(i, seed, map.as_ref());

                    if matches!(turn.behavior, Behavior::Malicious(_) | Behavior::Leaky) {
                        // The corrupted role's KFF opens all three of
                        // its packed shares — record the exposure.
                        for which in ["alpha", "beta", "gamma"] {
                            out.leaks.push((
                                committee.role(i),
                                format!("batch{b_idx}/{which}"),
                                i,
                            ));
                        }
                    }
                    // Recover the KFF secret via the role key; the
                    // honest share follows from it.
                    let kff_sk =
                        kff_prime[layer_idx * n + i].open(role_keys[layer_idx][i].secret.scalar)?;
                    let honest = offset - kff_sk * slope;
                    let (value, valid) = match turn.attack() {
                        None => {
                            let ok = turn.honest(|map, rng| {
                                let proof = map.prove(rng, offset, honest, kff_sk);
                                map.verify(offset, honest, &proof)
                            });
                            (honest, ok)
                        }
                        Some(attack) => {
                            let value = match attack {
                                ActiveAttack::BadProof => honest,
                                ActiveAttack::AdditiveOffset => honest + F::ONE,
                                _ => F::random(&mut turn.rng),
                            };
                            let ok = turn.forged(|map, rng| {
                                map.verify(offset, value, &ShareProof::garbage(rng))
                            });
                            (value, ok)
                        }
                    };
                    if valid {
                        out.share = Some(Share { party: i, value });
                    }
                    Ok(out)
                },
            );
            // One buffer, one flush for the whole batch.
            let mut posts = crate::parallel::PostBuffer::new();
            let mut posted: Vec<Share<F>> = Vec::new();
            for (i, result) in member_results.into_iter().enumerate() {
                let out = result?;
                if step.speaks(i) {
                    step.record(&mut posts, i);
                }
                for (role, object, piece) in out.leaks {
                    leak.record(role, object, piece);
                }
                if let Some(share) = out.share {
                    posted.push(share);
                }
            }
            sb.flush_buffer(posts)?;

            if posted.len() < rec_degree + 1 {
                return Err(ProtocolError::NotEnoughContributions {
                    step: "mul-share reconstruction",
                    got: posted.len(),
                    need: rec_degree + 1,
                });
            }
            scheme.reconstruct_into(&posted[..rec_degree + 1], rec_degree, &mut mu_gamma, &mut scratch)?;
            for (j, gw) in batch.gates.iter().enumerate() {
                mu[gw.0] = Some(mu_gamma[j]);
            }
        }
        sb.advance_round()?;
    }
    propagate_stage(&mut mu, layers)?;

    // ---- Output: Re-encrypt* each output-wire mask to its client.
    let phase_out = "online/4-output";
    let out_committee = adversary.sample_committee(rng, "on-output", n);
    let out_items: Vec<(PkePublicKey<F>, yoso_the::mock::Ciphertext<F>)> = circuit
        .outputs()
        .iter()
        .map(|&(w, client)| (client_role_keys[client].public, offline.lambda_cts[w.0]))
        .collect();
    let out_vals = tsk.reencrypt_in(rng, sb, &out_committee, cfg, phase_out, &out_items)?;

    let mut outputs: Vec<Vec<F>> = vec![Vec::new(); clients];
    for ((&(w, client), rv), _) in circuit.outputs().iter().zip(&out_vals).zip(0..) {
        let lambda = rv.open(client_role_keys[client].secret.scalar)?;
        let mu_w = mu[w.0].ok_or(ProtocolError::Invariant(
            "output-wire μ not propagated by the final sweep",
        ))?;
        outputs[client].push(mu_w + lambda);
    }

    let mu_final: Vec<F> = mu
        .into_iter()
        .map(|m| m.unwrap_or(F::ZERO))
        .collect();
    Ok(OnlineResult { outputs, mu: mu_final })
}
