//! The CDN-style baseline: YOSO MPC in the style of Gentry et al.
//! (CRYPTO'21, reference \[29\] of the paper).
//!
//! The comparison point for every experiment. The circuit is evaluated
//! **gate by gate over threshold ciphertexts**:
//!
//! - Clients encrypt their inputs under `tpk` and post them.
//! - Addition is free (homomorphic).
//! - Each multiplication consumes a Beaver triple prepared offline and
//!   performs **two public threshold decryptions** in the online
//!   phase — `n` partial decryptions (plus proofs) each, so the online
//!   cost is `Θ(n)` ring elements per gate. One committee serves each
//!   multiplication layer and hands `tsk` to the next (`O(n²)` per
//!   handover, amortized over the layer's gates).
//! - Outputs are re-encrypted to the receiving clients (`Re-encrypt*`),
//!   as in the packed protocol.
//!
//! Everything else (committees, adversary handling, NIZKs, metering) is
//! shared with the packed protocol, so measured differences isolate
//! exactly the paper's contribution: packed offline masks + `O(1)`
//! online multiplication.

use rand::Rng;

use yoso_circuit::{Circuit, Gate};
use yoso_field::PrimeField;
use yoso_runtime::{Adversary, BulletinBoard, PhaseStats, RoleId};
use yoso_the::mock::{Ciphertext, LinearPke, MockTe, PkeKeyPair, PkePublicKey};
use yoso_the::nizk::EncMap;

use crate::messages::{self, Post, CT_ELEMENTS, ENC_PROOF_ELEMENTS};
use crate::offline::{beaver_triples, EncryptedTriple};
use crate::tsk::TskChain;
use crate::{ExecutionConfig, ProtocolError, ProtocolParams};

/// The outcome of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult<F: PrimeField> {
    /// Per-client outputs in output-gate order.
    pub outputs: Vec<Vec<F>>,
    /// Per-phase communication statistics.
    pub phases: Vec<(String, PhaseStats)>,
    /// Multiplication gate count.
    pub mul_gates: usize,
}

impl<F: PrimeField> BaselineResult<F> {
    /// Total elements under phases starting with `prefix`.
    pub fn elements(&self, prefix: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.elements)
            .sum()
    }

    /// Online elements per multiplication gate.
    pub fn online_elements_per_gate(&self) -> f64 {
        self.elements("online") as f64 / self.mul_gates.max(1) as f64
    }

    /// Offline elements per multiplication gate.
    pub fn offline_elements_per_gate(&self) -> f64 {
        self.elements("offline") as f64 / self.mul_gates.max(1) as f64
    }
}

/// Fetches the ciphertext already computed for wire `w`. The circuit is
/// topologically ordered, so operands precede their gate; a `None` here
/// is a driver bug surfaced as a typed error rather than a panic.
fn wire_ct<F: PrimeField>(
    cts: &[Option<Ciphertext<F>>],
    w: usize,
) -> Result<Ciphertext<F>, ProtocolError> {
    cts.get(w).copied().flatten().ok_or(ProtocolError::Invariant(
        "baseline reached a gate before its operand wire was evaluated",
    ))
}

/// The CDN-style baseline engine.
#[derive(Debug, Clone, Copy)]
pub struct BaselineEngine {
    params: ProtocolParams,
    config: ExecutionConfig,
}

impl BaselineEngine {
    /// Creates a baseline engine. The packing factor in `params` is
    /// ignored (the baseline has `k = 1` semantically).
    pub fn new(params: ProtocolParams, config: ExecutionConfig) -> Self {
        BaselineEngine { params, config }
    }

    /// Runs the baseline protocol.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (none occur within the corruption
    /// model).
    #[allow(clippy::too_many_lines)]
    pub fn run<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        circuit: &Circuit<F>,
        inputs: &[Vec<F>],
        adversary: &Adversary,
    ) -> Result<BaselineResult<F>, ProtocolError> {
        let n = self.params.n;
        let cfg = &self.config;
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let mut tsk = TskChain::<F>::keygen(rng, n, self.params.t)?;
        let tpk = tsk.pk.clone();

        // ---- Offline: one Beaver triple per multiplication gate.
        let c1 = adversary.sample_committee(rng, "base-beaver-a", n);
        let c2 = adversary.sample_committee(rng, "base-beaver-b", n);
        let mul_wires: Vec<usize> = circuit
            .mul_layers()
            .iter()
            .flat_map(|l| l.iter().map(|w| w.0))
            .collect();
        let triples: Vec<EncryptedTriple<F>> =
            beaver_triples(rng, &board, &c1, &c2, cfg, &tpk, mul_wires.len())?;
        let mut triple_of = vec![usize::MAX; circuit.wire_count()];
        for (idx, &w) in mul_wires.iter().enumerate() {
            triple_of[w] = idx;
        }

        // ---- Online: clients post encrypted inputs.
        let phase_in = "online/input";
        let enc_map = cfg.produce_proofs.then(|| EncMap::new(&tpk));
        let mut cts: Vec<Option<Ciphertext<F>>> = vec![None; circuit.wire_count()];
        let mut next_input = vec![0usize; circuit.clients()];
        for (w, gate) in circuit.gates().iter().enumerate() {
            if let Gate::Input { client } = *gate {
                let v = inputs[client][next_input[client]];
                next_input[client] += 1;
                let (ct, r) = MockTe::encrypt(rng, &tpk, v);
                if let Some(map) = &enc_map {
                    let proof = map.prove(rng, &ct, v, r);
                    debug_assert!(map.verify(&ct, &proof));
                }
                board.post(
                    RoleId::new("client", client),
                    Post::BaselineInput,
                    phase_in,
                    CT_ELEMENTS + ENC_PROOF_ELEMENTS,
                    messages::to_bytes(CT_ELEMENTS + ENC_PROOF_ELEMENTS),
                )?;
                cts[w] = Some(ct);
            }
        }

        // ---- Online: evaluate gate by gate; one committee per layer.
        let phase_mul = "online/mult";
        let mut current_layer = usize::MAX;
        let mut layer_committee = adversary.sample_committee(rng, "base-mult-boot", n);
        let gate_layer: Vec<Option<usize>> = {
            let mut v = vec![None; circuit.wire_count()];
            for (l, layer) in circuit.mul_layers().iter().enumerate() {
                for w in layer {
                    v[w.0] = Some(l);
                }
            }
            v
        };
        for (w, gate) in circuit.gates().iter().enumerate() {
            let ct = match *gate {
                Gate::Input { .. } => continue,
                Gate::Const(c) => Ciphertext { u: F::ZERO, v: c },
                Gate::Add(a, b) => MockTe::eval(
                    &[wire_ct(&cts, a.0)?, wire_ct(&cts, b.0)?],
                    &[F::ONE, F::ONE],
                )?,
                Gate::Sub(a, b) => MockTe::eval(
                    &[wire_ct(&cts, a.0)?, wire_ct(&cts, b.0)?],
                    &[F::ONE, -F::ONE],
                )?,
                Gate::MulConst(a, c) => MockTe::eval(&[wire_ct(&cts, a.0)?], &[c])?,
                Gate::Output(a, _) => wire_ct(&cts, a.0)?,
                Gate::Mul(a, b) => {
                    let layer = gate_layer[w].ok_or(ProtocolError::Invariant(
                        "mul gate missing from the layer index",
                    ))?;
                    if layer != current_layer {
                        // New layer: fresh committee takes over tsk.
                        let committee =
                            adversary.sample_committee(rng, format!("base-mult-{layer}"), n);
                        if current_layer != usize::MAX {
                            let next_keys: Vec<PkeKeyPair<F>> =
                                (0..n).map(|_| LinearPke::keygen(rng)).collect();
                            tsk.handover(
                                rng,
                                &board,
                                &layer_committee,
                                cfg,
                                "online/handover",
                                &next_keys,
                            )?;
                        }
                        layer_committee = committee;
                        current_layer = layer;
                    }
                    let tr = &triples[triple_of[w]];
                    let c_eps =
                        MockTe::eval(&[wire_ct(&cts, a.0)?, tr.a], &[F::ONE, F::ONE])?;
                    let c_del =
                        MockTe::eval(&[wire_ct(&cts, b.0)?, tr.b], &[F::ONE, F::ONE])?;
                    let opened = tsk.decrypt(
                        rng,
                        &board,
                        &layer_committee,
                        cfg,
                        phase_mul,
                        &[c_eps, c_del],
                    )?;
                    let (eps, del) = (opened[0], opened[1]);
                    // x·y = (ε−a)(δ−b) = εδ − ε·b − δ·a + ab.
                    let mut out = MockTe::eval(&[tr.b, tr.a, tr.c], &[-eps, -del, F::ONE])?;
                    out = MockTe::add_plain(&out, eps * del);
                    out
                }
            };
            cts[w] = Some(ct);
        }

        // ---- Output: Re-encrypt* to clients.
        let phase_out = "online/output";
        let out_committee = adversary.sample_committee(rng, "base-output", n);
        let client_keys: Vec<PkeKeyPair<F>> =
            (0..circuit.clients()).map(|_| LinearPke::keygen(rng)).collect();
        let out_items: Vec<(PkePublicKey<F>, Ciphertext<F>)> = circuit
            .outputs()
            .iter()
            .map(|&(w, client)| Ok((client_keys[client].public, wire_ct(&cts, w.0)?)))
            .collect::<Result<_, ProtocolError>>()?;
        let out_vals = tsk.reencrypt(rng, &board, &out_committee, cfg, phase_out, &out_items)?;
        let mut outputs: Vec<Vec<F>> = vec![Vec::new(); circuit.clients()];
        for (&(_, client), rv) in circuit.outputs().iter().zip(&out_vals) {
            outputs[client].push(rv.open(client_keys[client].secret.scalar)?);
        }

        Ok(BaselineResult {
            outputs,
            phases: board.phases()?,
            mul_gates: circuit.mul_count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_circuit::generators;
    use yoso_field::F61;
    use yoso_runtime::ActiveAttack;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    #[test]
    fn baseline_computes_correctly() {
        let mut r = rand::rngs::StdRng::seed_from_u64(11);
        let circuit = generators::poly_eval::<F61>(3).unwrap();
        let inputs = vec![vec![f(2)], vec![f(1), f(2), f(3), f(4)]];
        let expect = circuit.evaluate(&inputs).unwrap();
        let engine = BaselineEngine::new(
            ProtocolParams::new(7, 3, 1).unwrap(),
            ExecutionConfig::default(),
        );
        let run = engine.run(&mut r, &circuit, &inputs, &Adversary::none()).unwrap();
        assert_eq!(run.outputs, expect);
    }

    #[test]
    fn baseline_god_under_attack() {
        let mut r = rand::rngs::StdRng::seed_from_u64(12);
        let circuit = generators::inner_product::<F61>(3).unwrap();
        let x: Vec<F61> = (1..=3u64).map(f).collect();
        let y: Vec<F61> = (4..=6u64).map(f).collect();
        let expect = circuit.evaluate(&[x.clone(), y.clone()]).unwrap();
        let engine = BaselineEngine::new(
            ProtocolParams::new(7, 2, 1).unwrap(),
            ExecutionConfig::default(),
        );
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let run = engine.run(&mut r, &circuit, &[x, y], &adv).unwrap();
        assert_eq!(run.outputs, expect);
    }

    #[test]
    fn baseline_online_cost_scales_linearly_with_n() {
        let circuit = generators::inner_product::<F61>(4).unwrap();
        let x: Vec<F61> = (1..=4u64).map(f).collect();
        let y: Vec<F61> = (5..=8u64).map(f).collect();
        let mut per_gate = Vec::new();
        for n in [8usize, 16, 32] {
            let mut r = rand::rngs::StdRng::seed_from_u64(13);
            let t = n / 2 - 1;
            let engine = BaselineEngine::new(
                ProtocolParams::new(n, t, 1).unwrap(),
                ExecutionConfig::sweep(),
            );
            let run = engine
                .run(&mut r, &circuit, &[x.clone(), y.clone()], &Adversary::none())
                .unwrap();
            per_gate.push(run.elements("online/mult") as f64 / run.mul_gates as f64);
        }
        // Doubling n should roughly double online per-gate cost.
        assert!(per_gate[1] / per_gate[0] > 1.7, "{per_gate:?}");
        assert!(per_gate[2] / per_gate[1] > 1.7, "{per_gate:?}");
    }
}
