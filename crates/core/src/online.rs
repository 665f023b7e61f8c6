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
use std::sync::Arc;

use rand::Rng;

use yoso_circuit::{BatchedCircuit, Gate};
use yoso_field::PrimeField;
use yoso_pss_sharing::{PackedSharing, PssScratch, Share};
use yoso_runtime::{ActiveAttack, Adversary, Behavior, LeakLog};
use yoso_the::mock::{LinearPke, PkeKeyPair, PkePublicKey};
use yoso_the::nizk::{ShareMap, ShareProof};

use crate::messages::{Post, MULSHARE_PROOF_ELEMENTS};
use crate::offline::OfflineArtifacts;
use crate::parallel::{Author, PostBuffer};
use crate::setup::SetupArtifacts;
use crate::step::{Proved, Step, Turn};
use crate::tsk::ReencryptedValue;
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

/// A member's posted μ-share, with the offset and the proof its reader
/// checks it against.
type PostedShare<F> = (Share<F>, F, Proved<Arc<ShareMap<F>>, ShareProof<F>>);

/// The reader of a batch's shares: keeps `posted` if fewer than `need`
/// are kept and it verifies. It verifies a posting only while it has
/// fewer, and not one posting more.
fn keep_valid<F: PrimeField>(kept: &mut Vec<Share<F>>, need: usize, posted: PostedShare<F>) {
    let (share, offset, proof) = posted;
    if kept.len() < need && proof.verify(|map, proof| map.verify(offset, share.value, proof)) {
        kept.push(share);
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

            // Per-member share computation is independent: the step
            // fans it out and folds in member order. This step draws a
            // seed for *every* member, speaking or not; leak records and
            // the first `need` valid shares, verified only until there
            // are that many, follow in member order.
            let step =
                Step::new(&committee, sb, phase_mul, Post::MulShare, 1 + MULSHARE_PROOF_ELEMENTS);
            // A share is a few multiplications; only its proof is worth
            // a thread.
            let step = if cfg.produce_proofs { step } else { step.inline() };
            let step = step.drawing_for_everyone();
            let mut posts = PostBuffer::new();
            let need = rec_degree + 1;
            let mut kept: Vec<Share<F>> = Vec::with_capacity(need);
            let work = |turn: Turn<&()>, ()| {
                let i = turn.index;
                let kff_pk = setup.kff_pairs[layer_idx][i].public;
                let ma = mu_alpha_vals[i];
                let mb = mu_beta_vals[i];
                // Public opening coefficients of the three re-encrypted
                // packed shares (value = a − sk·b).
                let (a_al, b_al) = shares.alpha[i].opening_coefficients()?;
                let (a_be, b_be) = shares.beta[i].opening_coefficients()?;
                let (a_ga, b_ga) = shares.gamma[i].opening_coefficients()?;
                let offset = ma * mb + ma * a_be + mb * a_al + a_ga;
                let slope = ma * b_be + mb * b_al + b_ga;
                // Key and slope are this member's alone: one map per
                // posting, built only where it is proved, and handed on
                // with the proof to its reader.
                let mut turn = turn
                    .with_own_map(cfg.produce_proofs, || Arc::new(ShareMap::new(&kff_pk, slope)));
                // Recover the KFF secret via the role key; the honest
                // share follows from it.
                let kff_sk =
                    kff_prime[layer_idx * n + i].open(role_keys[layer_idx][i].secret.scalar)?;
                let honest = offset - kff_sk * slope;
                let attack = turn.attack();
                let value = match attack {
                    None | Some(ActiveAttack::BadProof) => honest,
                    Some(ActiveAttack::AdditiveOffset) => honest + F::ONE,
                    Some(_) => F::random(&mut turn.rng),
                };
                let proof = turn.prove(|map, rng| match attack {
                    None => map.prove(rng, offset, honest, kff_sk),
                    Some(_) => ShareProof::garbage(rng),
                });
                Ok((Share { party: i, value }, offset, proof))
            };
            let everyone = step.everyone();
            step.run(rng, &mut posts, None, everyone, work, |i, posted: Result<_, ProtocolError>| {
                if matches!(committee.behavior(i), Behavior::Malicious(_) | Behavior::Leaky) {
                    // The corrupted role's KFF opens all three of its
                    // packed shares — record the exposure.
                    for which in ["alpha", "beta", "gamma"] {
                        leak.record(committee.role(i), format!("batch{b_idx}/{which}"), i);
                    }
                }
                keep_valid(&mut kept, need, posted?);
                Ok(())
            })?;
            sb.flush_buffer(posts)?;
            if kept.len() < need {
                return Err(ProtocolError::NotEnoughContributions {
                    step: "mul-share reconstruction",
                    got: kept.len(),
                    need,
                });
            }
            scheme.reconstruct_into(&kept, rec_degree, &mut mu_gamma, &mut scratch)?;
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

    /// The first `need` valid shares of `posted`, read in order.
    fn first_valid_shares(posted: Vec<PostedShare<F61>>, need: usize) -> Vec<Share<F61>> {
        let mut kept = Vec::with_capacity(need);
        for posted in posted {
            keep_valid(&mut kept, need, posted);
        }
        kept
    }

    /// `n` members' μ-share postings of one batch, the first `forged` of
    /// them a wrong value under a garbage proof, as the worker that
    /// proves them all posts them (`proofs`) or as one that predicts
    /// them.
    fn postings(n: usize, forged: usize, proofs: bool) -> Vec<PostedShare<F61>> {
        let mut r = rand::rngs::StdRng::seed_from_u64(20261035);
        (0..n)
            .map(|i| {
                let kp = LinearPke::<F61>::keygen(&mut r);
                let (offset, slope) = (F61::random(&mut r), F61::random(&mut r));
                let honest = offset - kp.secret.scalar * slope;
                let value = if i < forged { F61::random(&mut r) } else { honest };
                let proof = if !proofs {
                    Proved::Predicted(i >= forged)
                } else {
                    let map = ShareMap::new(&kp.public, slope);
                    let proof = if i < forged {
                        ShareProof::garbage(&mut r)
                    } else {
                        map.prove(&mut r, offset, honest, kp.secret.scalar)
                    };
                    Proved::Made(Arc::new(map), proof)
                };
                (Share { party: i, value }, offset, proof)
            })
            .collect()
    }

    #[test]
    fn a_batch_reconstructs_from_the_first_valid_shares_when_early_members_lie() {
        let (n, need) = (12, 5);
        for forged in [0, 3, need] {
            for proofs in [true, false] {
                let kept = first_valid_shares(postings(n, forged, proofs), need);
                let parties: Vec<usize> = kept.iter().map(|s| s.party).collect();
                assert_eq!(parties, (forged..forged + need).collect::<Vec<_>>(), "{forged}");
            }
        }
        // Too few valid ones: every valid one, for the caller to refuse.
        let kept = first_valid_shares(postings(n, n - need + 1, true), need);
        assert_eq!(kept.len(), need - 1);
    }

    /// Exact and host-independent: the reader of a `3-mult` batch
    /// verifies `rec_degree + 1` postings, one block each, and as many
    /// more as there are forgeries among them.
    #[cfg(debug_assertions)]
    #[test]
    fn a_batch_verifies_rec_degree_plus_one_postings() {
        use yoso_crypto::sha256::compressions_of;
        let (n, need) = (12, 5);
        for forged in [0, 3] {
            let posted = postings(n, forged, true);
            let (kept, blocks) = compressions_of(|| first_valid_shares(posted, need));
            assert_eq!(kept.len(), need);
            assert_eq!(blocks, (need + forged) as u64, "{forged} forged");
        }
    }
}
