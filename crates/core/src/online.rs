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
//! - **Multiplication**: for each batch of `k` gates of its layer,
//!   member `i` of the layer committee opens its three packed shares
//!   (`λ_α`, `λ_β`, `Γ`) and computes
//!   `μᵢ^γ = μᵢ^α·μᵢ^β + μᵢ^α·λᵢ^β + μᵢ^β·λᵢ^α + Γᵢ`. It publishes its
//!   shares of all `B` batches as one message with one NIZK binding
//!   them to the on-board ciphertexts through its KFF public key. Any
//!   `t + 2(k−1) + 1` valid members' shares reconstruct a batch's
//!   `μ^γ` — `n/k·(1 + 3/B) = O(1/ε)` elements per gate,
//!   **independent of `n`**.
//! - **Output**: the output committee `Re-encrypt*`s each output-wire
//!   mask to the receiving client, who computes `v = μ + λ`.

// BTreeMap (not HashMap): wire and width keys are iterated below, and the
// posting order must never depend on hasher state — the engine promises
// byte-identical transcripts for every `--threads` value.
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;

use yoso_circuit::{BatchedCircuit, Gate};
use yoso_field::PrimeField;
use yoso_pss_sharing::{PackedSharing, PssScratch, Share};
use yoso_runtime::{ActiveAttack, Adversary, Behavior, LeakLog};
use yoso_the::mock::{LinearPke, PkeKeyPair, PkePublicKey};
use yoso_the::nizk::{ShareBatch, SharePosting, ShareProof};

use crate::messages::{self, Post};
use crate::offline::OfflineArtifacts;
use crate::parallel::{Author, PostBuffer};
use crate::setup::SetupArtifacts;
use crate::step::{Proved, Step, Turn};
use crate::tsk::{lie_once, proves_honestly, ReencryptedValue};
use crate::workitem::ShardedBoard;
use crate::{ExecutionConfig, ProtocolError};

/// The result of the online phase.
#[derive(Debug, Clone)]
pub struct OnlineResult<F: PrimeField> {
    /// Per-client outputs, in output-gate order.
    pub outputs: Vec<Vec<F>>,
    /// The public `μ` value of every wire (diagnostics / tests).
    pub mu: Vec<F>,
}

/// A member's `3-mult` message: its posting of each batch of the layer
/// (the share with the public offset and slope it is checked against),
/// and the one proof for all of them.
type LayerMessage<'b, F> = (Vec<SharePosting<F>>, Proved<&'b ShareBatch, ShareProof<F>>);

/// The reader of a layer's messages: keeps member `i`'s (KFF key
/// `kff_pk`) if fewer than `need` are kept and it verifies. It verifies
/// a message only while it has fewer, and not one message more.
fn keep_valid<F: PrimeField>(
    kept: &mut Vec<(usize, Vec<SharePosting<F>>)>,
    need: usize,
    i: usize,
    kff_pk: &PkePublicKey<F>,
    (postings, proof): LayerMessage<'_, F>,
) {
    if kept.len() < need && proof.verify(|batch, proof| batch.verify(kff_pk, &postings, proof)) {
        kept.push((i, postings));
    }
}

/// Runs the full online phase.
///
/// `inputs[c]` are client `c`'s input values in input-gate order.
///
/// # Errors
///
/// Propagates sub-step errors; within the corruption model none occur.
#[allow(clippy::too_many_lines, clippy::too_many_arguments, clippy::needless_range_loop)]
pub fn run_online<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &crate::ProtocolParams,
    sb: &ShardedBoard<'_>,
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
    let mut kff_prime = tsk.reencrypt(rng, sb, &kd, cfg, phase_kd, &items)?;
    let client_kff_prime: Vec<ReencryptedValue<F>> = kff_prime.split_off(layers * n);
    // kff_prime[l*n + i] targets role (l, i).

    // Hand tsk to the output committee (the last holder; Re-encrypt*
    // afterwards performs no further resharing).
    let output_keys: Vec<PkeKeyPair<F>> = (0..n).map(|_| LinearPke::keygen(rng)).collect();
    tsk.handover(rng, sb, &kd, cfg, "online/handover", &output_keys)?;
    sb.advance_round()?;

    // Clients recover their KFF secrets through the protocol path.
    let client_kff_sk: Vec<F> = (0..clients)
        .map(|c| client_kff_prime[c].open(client_role_keys[c].secret.scalar))
        .collect::<Result<_, _>>()?;

    // ---- Input: clients publish μ = v − λ per input wire. Client
    // postings are not member-indexed: the leader worker appends them.
    let phase_in = "online/2-input";
    let client_committee: Arc<str> = Arc::from("client");
    let mut posts = PostBuffer::new();
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
            let post = Post::InputMu { wires: wires.len() as u32 };
            let elements = wires.len() as u64;
            let run = posts.open_run(Author::Leader, &client_committee, post, phase_in, elements);
            run.push(client);
        }
    }
    sb.flush_buffer(posts)?;
    sb.advance_round()?;

    // ---- Gate-by-gate μ propagation; multiplications one layer at a time.
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
    // repeated `reconstruct` k dot products. The scratch and the output
    // buffer below keep their capacity across every batch and layer.
    let mut schemes: BTreeMap<usize, PackedSharing<F>> = BTreeMap::new();
    let mut scratch = PssScratch::new();
    let mut mu_gamma: Vec<F> = Vec::new();
    let combination = ShareBatch::new::<F>();
    for (layer_idx, layer_batches) in batches_by_layer.iter().enumerate() {
        propagate_stage(&mut mu, layer_idx)?;
        let committee = adversary.sample_committee(rng, format!("on-mult-{layer_idx}"), n);
        // Per batch: the shares a reconstruction needs, and the public
        // degree-(k_b − 1) packed sharings of the μ vectors.
        let mut needs = Vec::with_capacity(layer_batches.len());
        let mut public = Vec::with_capacity(layer_batches.len());
        for &b_idx in layer_batches {
            let batch = &bc.mul_batches[b_idx];
            let k_b = batch.gates.len();
            let scheme = match schemes.entry(k_b) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => v.insert(PackedSharing::<F>::new(n, k_b)?),
            };
            needs.push(params.t + 2 * (k_b - 1) + 1);
            let mu_of = |w: &yoso_circuit::WireId, missing| {
                mu[w.0].ok_or(ProtocolError::Invariant(missing))
            };
            let mu_alpha: Vec<F> = (batch.left_wires(circuit).iter())
                .map(|w| mu_of(w, "mul-gate left input μ not propagated before its layer"))
                .collect::<Result<_, _>>()?;
            let mu_beta: Vec<F> = (batch.right_wires(circuit).iter())
                .map(|w| mu_of(w, "mul-gate right input μ not propagated before its layer"))
                .collect::<Result<_, _>>()?;
            let (mut alpha_vals, mut beta_vals) = (Vec::new(), Vec::new());
            scheme.share_public_into(&mu_alpha, &mut alpha_vals, &mut scratch)?;
            scheme.share_public_into(&mu_beta, &mut beta_vals, &mut scratch)?;
            public.push((alpha_vals, beta_vals));
        }

        // One step per layer: a member's message is its share of every
        // batch and one proof of their combination. Members are
        // independent: the step fans them out and folds in member
        // order. It draws a seed for *every* member, speaking or not;
        // leak records and the first `need` valid messages, verified
        // only until there are that many, follow in member order. A
        // batch opens from the first of them it needs.
        let elements = messages::mulshare_elements(layer_batches.len() as u64);
        let step = Step::new(&committee, sb, phase_mul, Post::MulShare, elements);
        // A share is a few multiplications; only the proof is worth a
        // thread.
        let step = if cfg.produce_proofs { step } else { step.inline() };
        let step = step.drawing_for_everyone();
        let mut posts = PostBuffer::new();
        let need = needs.iter().copied().max().unwrap_or(0);
        let mut kept: Vec<(usize, Vec<SharePosting<F>>)> = Vec::with_capacity(need);
        let work = |mut turn: Turn<_>, ()| {
            let i = turn.index;
            let kff_pk = setup.kff_pairs[layer_idx][i].public;
            // Recover the KFF secret via the role key; the honest shares
            // follow from it.
            let kff_sk =
                kff_prime[layer_idx * n + i].open(role_keys[layer_idx][i].secret.scalar)?;
            let attack = turn.attack();
            let mut postings = Vec::with_capacity(layer_batches.len());
            for (&b_idx, (alpha_vals, beta_vals)) in layer_batches.iter().zip(&public) {
                let shares = &offline.batch_shares[b_idx];
                let (ma, mb) = (alpha_vals[i], beta_vals[i]);
                // Public opening coefficients of the three re-encrypted
                // packed shares (value = a − sk·b).
                let (a_al, b_al) = shares.alpha[i].opening_coefficients()?;
                let (a_be, b_be) = shares.beta[i].opening_coefficients()?;
                let (a_ga, b_ga) = shares.gamma[i].opening_coefficients()?;
                let offset = ma * mb + ma * a_be + mb * a_al + a_ga;
                let slope = ma * b_be + mb * b_al + b_ga;
                let honest = offset - kff_sk * slope;
                let published = match attack {
                    None | Some(ActiveAttack::BadProof | ActiveAttack::OneLie) => honest,
                    Some(ActiveAttack::AdditiveOffset) => honest + F::ONE,
                    Some(_) => F::random(&mut turn.rng),
                };
                postings.push(SharePosting { offset, slope, published });
            }
            let proof = turn.prove(|combination: &&ShareBatch, rng| {
                if proves_honestly(attack) {
                    combination.prove(rng, &kff_pk, &postings, kff_sk)
                } else {
                    ShareProof::garbage(rng)
                }
            });
            lie_once(attack, postings.last_mut().map(|posting| &mut posting.published));
            Ok((postings, proof))
        };
        let everyone = step.everyone();
        let prover = cfg.produce_proofs.then_some(&combination);
        step.run(
            rng,
            &mut posts,
            prover,
            everyone,
            work,
            |i, message: Result<_, ProtocolError>| {
                if matches!(committee.behavior(i), Behavior::Malicious(_) | Behavior::Leaky) {
                    // The corrupted role's KFF opens all three of its packed
                    // shares of every batch — record the exposure.
                    for &b_idx in layer_batches {
                        for which in ["alpha", "beta", "gamma"] {
                            leak.record(committee.role(i), format!("batch{b_idx}/{which}"), i);
                        }
                    }
                }
                keep_valid(&mut kept, need, i, &setup.kff_pairs[layer_idx][i].public, message?);
                Ok(())
            },
        )?;
        sb.flush_buffer(posts)?;
        for ((b, &b_idx), need) in layer_batches.iter().enumerate().zip(needs) {
            if kept.len() < need {
                return Err(ProtocolError::NotEnoughContributions {
                    step: "mul-share reconstruction",
                    got: kept.len(),
                    need,
                });
            }
            let batch = &bc.mul_batches[b_idx];
            let shares: Vec<Share<F>> = (kept[..need].iter())
                .map(|(party, postings)| Share { party: *party, value: postings[b].published })
                .collect();
            let scheme = schemes
                .get(&batch.gates.len())
                .ok_or(ProtocolError::Invariant("no sharing scheme for a batch's width"))?;
            scheme.reconstruct_into(&shares, need - 1, &mut mu_gamma, &mut scratch)?;
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
    let out_vals = tsk.reencrypt(rng, sb, &out_committee, cfg, phase_out, &out_items)?;

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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;

    type Kept = Vec<(usize, Vec<SharePosting<F61>>)>;

    /// The first `need` valid messages of `posted`, read in order.
    fn first_valid(posted: Vec<(PkePublicKey<F61>, LayerMessage<'_, F61>)>, need: usize) -> Kept {
        let mut kept = Vec::with_capacity(need);
        for (i, (kff_pk, message)) in posted.into_iter().enumerate() {
            keep_valid(&mut kept, need, i, &kff_pk, message);
        }
        kept
    }

    /// `n` members' `3-mult` messages over `batches` batches, as the
    /// worker that proves them all posts them (`proofs`) or as one that
    /// predicts them: the first `forged` post a wrong share of every
    /// batch under a garbage proof, and each member in `liars` posts its
    /// honest shares under its honest proof, then adds one to its last.
    fn messages<'b>(
        combination: &'b ShareBatch,
        n: usize,
        batches: usize,
        forged: usize,
        liars: &[usize],
        proofs: bool,
    ) -> Vec<(PkePublicKey<F61>, LayerMessage<'b, F61>)> {
        let mut r = rand::rngs::StdRng::seed_from_u64(20261035);
        (0..n)
            .map(|i| {
                let kp = LinearPke::<F61>::keygen(&mut r);
                let mut postings: Vec<SharePosting<F61>> = (0..batches)
                    .map(|_| {
                        let (offset, slope) = (F61::random(&mut r), F61::random(&mut r));
                        let published = offset - kp.secret.scalar * slope;
                        SharePosting { offset, slope, published }
                    })
                    .collect();
                let lies = liars.contains(&i);
                let valid = i >= forged && !lies;
                if i < forged {
                    postings.iter_mut().for_each(|p| p.published = F61::random(&mut r));
                }
                let proof = if !proofs {
                    Proved::Predicted(valid)
                } else if i < forged {
                    Proved::Made(combination, ShareProof::garbage(&mut r))
                } else {
                    let proof = combination.prove(&mut r, &kp.public, &postings, kp.secret.scalar);
                    Proved::Made(combination, proof)
                };
                if lies {
                    postings.last_mut().unwrap().published += F61::ONE;
                }
                (kp.public, (postings, proof))
            })
            .collect()
    }

    fn parties(kept: &Kept) -> Vec<usize> {
        kept.iter().map(|(i, _)| *i).collect()
    }

    #[test]
    fn a_batch_reconstructs_from_the_first_valid_shares_when_early_members_lie() {
        let combination = ShareBatch::new::<F61>();
        let (n, need) = (12, 5);
        for batches in [1, 3] {
            for forged in [0, 3, need] {
                for proofs in [true, false] {
                    let posted = messages(&combination, n, batches, forged, &[], proofs);
                    let kept = first_valid(posted, need);
                    assert_eq!(parties(&kept), (forged..forged + need).collect::<Vec<_>>());
                }
            }
            // One lie in a message under its honest proof drops the
            // member from every batch.
            let posted = messages(&combination, n, batches, 0, &[1, 2], true);
            assert_eq!(parties(&first_valid(posted, need)), [0, 3, 4, 5, 6]);
        }
        // Too few valid ones: every valid one, for the caller to refuse.
        let posted = messages(&combination, n, 2, n - need + 1, &[], true);
        assert_eq!(first_valid(posted, need).len(), need - 1);
    }

    /// Exact and host-independent: the reader of a `3-mult` layer
    /// verifies `need` messages, and as many more as there are forgeries
    /// among them; a message costs its `ρ` — key and `3B` values,
    /// ⌈(16 + 24·B + 9) / 64⌉ blocks — its member's map (two of digest,
    /// one of prefix) and its challenge (one).
    #[cfg(debug_assertions)]
    #[test]
    fn a_batch_verifies_rec_degree_plus_one_postings() {
        use yoso_crypto::sha256::compressions_of;
        let combination = ShareBatch::new::<F61>();
        let (n, need) = (12, 5);
        for batches in [1usize, 2, 4] {
            let per_message = (16 + 24 * batches as u64 + 9).div_ceil(64) + 3 + 1;
            for forged in [0, 3] {
                let posted = messages(&combination, n, batches, forged, &[], true);
                let (kept, blocks) = compressions_of(|| first_valid(posted, need));
                assert_eq!(kept.len(), need);
                assert_eq!(blocks, per_message * (need + forged) as u64, "{batches}, {forged}");
            }
        }
    }
}
