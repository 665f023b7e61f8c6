//! Information-theoretic semi-honest YOSO MPC with packed sharing —
//! the feasibility direction the paper flags as future work (§7:
//! *"explore what the impact of the 'gap' is in the context of
//! information-theoretic security"*; §1.2 notes BGW is essentially
//! already YOSO in the semi-honest setting).
//!
//! This module implements packed BGW over a chain of committees with
//! **no cryptographic assumptions at the protocol level**: state moves
//! between committees by re-sharing (each member deals a fresh packed
//! sharing of its share, scaled by public Lagrange coefficients so the
//! sum reconstructs the right secrets), and multiplication is
//! share-wise followed by the same re-sharing, which doubles as degree
//! reduction.
//!
//! Because packed sharing keeps `k` values in SIMD lanes, the natural
//! computation model here is a **lanewise program** over `k`-vectors
//! ([`LaneProgram`]): lane-parallel add/mul plus a cross-lane sum.
//! (Arbitrary wire routing is exactly the *network routing problem*
//! Turbopack's preprocessing solves; without preprocessing, the IT
//! protocol covers the SIMD-aligned circuit class.)
//!
//! Costs, measured by the same bulletin-board meter as the main
//! protocol (experiment `it_comparison`):
//!
//! - re-share / degree-reduce: `n` posted shares per member per live
//!   vector per handover ⇒ `Θ(n²)` per layer-vector, i.e.
//!   **`Θ(n²/k)` per gate** — the gap helps the IT protocol too, by a
//!   factor `k`, but the online cost still grows with `n`, which is
//!   precisely why the paper moves to the computational setting.
//!
//! The engine posts as the main protocol does: every dealing, client
//! input and output opening is recorded into a post buffer and lands
//! through one solo [`crate::ShardedBoard`] over the run's own board.
//! A committee has one member loop for both of its rounds — the
//! re-share and the cross-lane sum differ only in the vector each
//! member deals — and each dealing draws from a child RNG seeded off
//! the parent stream, so the per-member work is order-independent.
//! The run owns its board, so it is always solo: there is no shared
//! transcript for a [`crate::RolePartition`] to split.

use std::sync::Arc;

use rand::{Rng, SeedableRng};

use yoso_field::PrimeField;
use yoso_pss_sharing::{PackedSharing, PackedShares};
use yoso_runtime::{BulletinBoard, Speakers};

use crate::engine::{elements_under, per_gate};
use crate::messages::{ContributionStep, Post};
use crate::parallel::{Author, PostBuffer};
use crate::workitem::{RolePartition, ShardedBoard};
use crate::{ProtocolError, ProtocolParams};

/// A lanewise (SIMD) operation over `k`-vectors. Each op defines value
/// index `i` = its position in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOp {
    /// A `k`-vector of private inputs from `client`.
    Input {
        /// The contributing client.
        client: usize,
    },
    /// Lanewise addition.
    Add(usize, usize),
    /// Lanewise subtraction.
    Sub(usize, usize),
    /// Lanewise multiplication (costs a committee round).
    Mul(usize, usize),
    /// Cross-lane sum: every lane of the result holds `Σ_j v[j]`
    /// (costs a committee round, like a multiplication).
    SumLanes(usize),
    /// Reveals vector `0` to `client`.
    Output(usize, usize),
}

/// A lanewise program over `k`-vectors.
#[derive(Debug, Clone)]
pub struct LaneProgram {
    /// Number of lanes (the packing factor the program is written for).
    pub k: usize,
    /// The operation list (SSA: operands refer to earlier indices).
    pub ops: Vec<LaneOp>,
}

impl LaneProgram {
    /// Validates the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] on malformed programs.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.k == 0 {
            return Err(ProtocolError::BadParameters("lane program with k = 0".into()));
        }
        let check = |pos: usize, i: usize| {
            if i >= pos {
                Err(ProtocolError::BadParameters(format!("op {pos} references future value {i}")))
            } else {
                Ok(())
            }
        };
        let mut outputs = 0;
        for (pos, op) in self.ops.iter().enumerate() {
            match *op {
                LaneOp::Input { .. } => {}
                LaneOp::Add(a, b) | LaneOp::Sub(a, b) | LaneOp::Mul(a, b) => {
                    check(pos, a)?;
                    check(pos, b)?;
                }
                LaneOp::SumLanes(a) => check(pos, a)?,
                LaneOp::Output(a, _) => {
                    check(pos, a)?;
                    outputs += 1;
                }
            }
        }
        if outputs == 0 {
            return Err(ProtocolError::BadParameters("lane program without outputs".into()));
        }
        Ok(())
    }

    /// Number of clients referenced.
    pub fn clients(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match *op {
                LaneOp::Input { client } => client + 1,
                LaneOp::Output(_, client) => client + 1,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of communication rounds (Mul/SumLanes layers).
    pub fn round_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, LaneOp::Mul(_, _) | LaneOp::SumLanes(_)))
            .count()
    }

    /// Total lane-gates (for per-gate normalization): `k` per Mul.
    pub fn mul_lane_gates(&self) -> usize {
        self.k * self.ops.iter().filter(|op| matches!(op, LaneOp::Mul(_, _))).count()
    }

    /// Reference lanewise evaluation on cleartext vectors.
    ///
    /// `inputs[c]` holds client `c`'s vectors in input-op order.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] on input shape mismatch.
    pub fn evaluate<F: PrimeField>(
        &self,
        inputs: &[Vec<Vec<F>>],
    ) -> Result<Vec<Vec<Vec<F>>>, ProtocolError> {
        let mut values: Vec<Vec<F>> = Vec::with_capacity(self.ops.len());
        let mut next_input = vec![0usize; self.clients()];
        let mut outputs = vec![Vec::new(); self.clients()];
        for op in &self.ops {
            let v = match *op {
                LaneOp::Input { client } => {
                    let idx = next_input[client];
                    next_input[client] += 1;
                    let v = inputs
                        .get(client)
                        .and_then(|vs| vs.get(idx))
                        .ok_or_else(|| ProtocolError::BadParameters("missing input vector".into()))?;
                    if v.len() != self.k {
                        return Err(ProtocolError::BadParameters("input vector length != k".into()));
                    }
                    v.clone()
                }
                LaneOp::Add(a, b) => {
                    values[a].iter().zip(&values[b]).map(|(&x, &y)| x + y).collect()
                }
                LaneOp::Sub(a, b) => {
                    values[a].iter().zip(&values[b]).map(|(&x, &y)| x - y).collect()
                }
                LaneOp::Mul(a, b) => {
                    values[a].iter().zip(&values[b]).map(|(&x, &y)| x * y).collect()
                }
                LaneOp::SumLanes(a) => {
                    let s: F = values[a].iter().copied().sum();
                    vec![s; self.k]
                }
                LaneOp::Output(a, client) => {
                    outputs[client].push(values[a].clone());
                    values[a].clone()
                }
            };
            values.push(v);
        }
        Ok(outputs)
    }
}

/// Result of an IT protocol run.
#[derive(Debug, Clone)]
pub struct ItRunResult<F: PrimeField> {
    /// Per-client output vectors, in output-op order.
    pub outputs: Vec<Vec<Vec<F>>>,
    /// Per-phase communication statistics.
    pub phases: Vec<(String, yoso_runtime::PhaseStats)>,
    /// Lane-gates executed (k per Mul op).
    pub mul_lane_gates: usize,
}

impl<F: PrimeField> ItRunResult<F> {
    /// Elements posted under phases starting with `prefix`.
    pub fn elements(&self, prefix: &str) -> u64 {
        elements_under(&self.phases, prefix)
    }

    /// Online elements per lane-gate.
    pub fn elements_per_gate(&self) -> f64 {
        per_gate(self.elements("it/"), self.mul_lane_gates)
    }
}

/// Fetches the still-live shares in SSA slot `slot`. `LaneProgram::
/// validate` guarantees every operand is defined before use and live at
/// its use sites, so a miss is a driver bug surfaced as a typed error.
fn live<F: PrimeField>(
    state: &[Option<PackedShares<F>>],
    slot: usize,
) -> Result<&PackedShares<F>, ProtocolError> {
    state.get(slot).and_then(|s| s.as_ref()).ok_or(ProtocolError::Invariant(
        "validated lane program referenced a dead or undefined SSA slot",
    ))
}

/// The run's packed sharing and its re-sharing tables, computed once:
/// the `k` recombination vectors over all `n` nodes (row `j` recovers
/// secret `j`) and their per-member column sums (the cross-lane-sum
/// coefficients `c_i`). Every committee shares one evaluation-point
/// layout, so these are committee-independent — hoisting them out of
/// the member loop turns `n·k` interpolations per re-share into `k`
/// per run.
struct Resharing<F: PrimeField> {
    scheme: PackedSharing<F>,
    /// The degree of every dealt sharing, `t + k − 1`.
    degree: usize,
    recomb: Vec<Vec<F>>,
    lane_sum: Vec<F>,
}

impl<F: PrimeField> Resharing<F> {
    fn new(params: &ProtocolParams) -> Result<Self, ProtocolError> {
        let scheme = PackedSharing::<F>::new(params.n, params.k)?;
        let parties: Vec<usize> = (0..params.n).collect();
        let recomb: Vec<Vec<F>> = (0..params.k)
            .map(|j| scheme.recombination_vector(&parties, j))
            .collect::<Result<_, _>>()?;
        let lane_sum = (0..params.n).map(|i| recomb.iter().map(|w| w[i]).sum()).collect();
        Ok(Resharing { scheme, degree: params.packing_degree(), recomb, lane_sum })
    }

    /// What member `i` holding share `s` deals to move the secrets on:
    /// `(l_i(e_1)·s, …, l_i(e_k)·s)`, with `l_i` the Lagrange basis
    /// over all `n` nodes. The dealt sharings sum to a fresh degree-`d`
    /// sharing of the original secrets from any source degree `< n`,
    /// so this is both the handover re-share (source degree `d`) and
    /// the multiplication degree reduction (source degree `2d`).
    fn lanes(&self, i: usize, s: F) -> Vec<F> {
        self.recomb.iter().map(|w| w[i] * s).collect()
    }

    /// What member `i` holding share `s` deals for the cross-lane sum:
    /// `c_i·s` in every lane, `c_i = Σ_j l_i(e_j)`; the dealt sharings
    /// sum to `Σ_j v[j]` in every lane.
    fn lane_sum(&self, i: usize, s: F) -> Vec<F> {
        vec![self.lane_sum[i] * s; self.recomb.len()]
    }

    /// The committee's one member loop: each member `i` deals a fresh
    /// degree-`d` packed sharing of `deals(self, i, s_i)`, `s_i` its
    /// share of `source`, and posts it; the result is the sum of the
    /// dealings. Each dealing draws from a child RNG seeded off the
    /// parent stream, so the per-member work is independent of loop
    /// position (the discipline of the main protocol's steps).
    fn reshare<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        posts: &mut PostBuffer,
        committee: &Arc<str>,
        source: &PackedShares<F>,
        deals: fn(&Self, usize, F) -> Vec<F>,
    ) -> Result<PackedShares<F>, ProtocolError> {
        let mut acc: Option<PackedShares<F>> = None;
        let dealings = self.shares_run(posts, Author::Members, committee, "it/reshare");
        for i in 0..self.scheme.n() {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
            let vector = deals(self, i, source.share_of(i).value);
            let dealt = self.scheme.share(&mut mrng, &vector, self.degree)?;
            dealings.push(i);
            acc = Some(match acc {
                None => dealt,
                Some(a) => a.add(&dealt),
            });
        }
        acc.ok_or(ProtocolError::Invariant("committee size n is zero"))
    }

    /// Re-shares every still-live vector to the next committee and
    /// erases the dead ones (YOSO state hygiene).
    fn handover_live<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        posts: &mut PostBuffer,
        committee: &Arc<str>,
        state: &mut [Option<PackedShares<F>>],
        live_after: impl Fn(usize) -> bool,
    ) -> Result<(), ProtocolError> {
        for (slot, held) in state.iter_mut().enumerate() {
            *held = match held.take() {
                Some(shares) if live_after(slot) => {
                    Some(self.reshare(rng, posts, committee, &shares, Self::lanes)?)
                }
                _ => None,
            };
        }
        Ok(())
    }

    /// The run of `author`'s postings of `n` shares each under `phase`
    /// — dealings, or the shares a committee opens to a client.
    fn shares_run<'p>(
        &self,
        posts: &'p mut PostBuffer,
        author: Author,
        committee: &Arc<str>,
        phase: &'static str,
    ) -> &'p mut Speakers {
        let n = self.scheme.n();
        let post = Post::Contribution { step: ContributionStep::WireRandom, ciphertexts: n as u32 };
        posts.open_run(author, committee, post, phase, n as u64)
    }
}

/// The information-theoretic semi-honest engine.
#[derive(Debug, Clone, Copy)]
pub struct ItEngine {
    params: ProtocolParams,
}

impl ItEngine {
    /// Creates an engine; requires `2·(t + k − 1) < n` so share-wise
    /// products remain reconstructable.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] otherwise.
    pub fn new(params: ProtocolParams) -> Result<Self, ProtocolError> {
        if 2 * params.packing_degree() >= params.n {
            return Err(ProtocolError::BadParameters(format!(
                "IT multiplication needs 2(t+k−1) = {} < n = {}",
                2 * params.packing_degree(),
                params.n
            )));
        }
        Ok(ItEngine { params })
    }

    /// Runs the program (semi-honest, honest-but-curious committees).
    ///
    /// # Errors
    ///
    /// Propagates validation and sharing errors.
    pub fn run<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        program: &LaneProgram,
        inputs: &[Vec<Vec<F>>],
    ) -> Result<ItRunResult<F>, ProtocolError> {
        program.validate()?;
        if program.k != self.params.k {
            return Err(ProtocolError::BadParameters(format!(
                "program lanes {} != params.k {}",
                program.k, self.params.k
            )));
        }
        let resharing = Resharing::<F>::new(&self.params)?;
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let mut posts = PostBuffer::new();

        // Last use of each value (to know what must survive a handover).
        let mut last_use = vec![0usize; program.ops.len()];
        for (pos, op) in program.ops.iter().enumerate() {
            let mut touch = |i: usize| last_use[i] = last_use[i].max(pos);
            match *op {
                LaneOp::Add(a, b) | LaneOp::Sub(a, b) | LaneOp::Mul(a, b) => {
                    touch(a);
                    touch(b);
                }
                LaneOp::SumLanes(a) | LaneOp::Output(a, _) => touch(a),
                LaneOp::Input { .. } => {}
            }
        }

        let mut state: Vec<Option<PackedShares<F>>> = Vec::with_capacity(program.ops.len());
        let mut next_input = vec![0usize; program.clients()];
        let mut outputs = vec![Vec::new(); program.clients()];
        let clients: Arc<str> = Arc::from("it-client");
        let mut committee_idx = 0usize;
        let mut committee: Arc<str> = Arc::from("it-committee-0");

        for (pos, op) in program.ops.iter().enumerate() {
            let result: Option<PackedShares<F>> = match *op {
                LaneOp::Input { client } => {
                    // The client deals a fresh packed sharing (n shares
                    // posted, encrypted to the current committee).
                    let idx = next_input[client];
                    next_input[client] += 1;
                    let v = &inputs[client][idx];
                    if v.len() != program.k {
                        return Err(ProtocolError::BadParameters(
                            "input vector length != k".into(),
                        ));
                    }
                    let shares = resharing.scheme.share(rng, v, resharing.degree)?;
                    let run =
                        resharing.shares_run(&mut posts, Author::Leader, &clients, "it/input");
                    run.push(client);
                    Some(shares)
                }
                LaneOp::Add(a, b) => Some(live(&state, a)?.add(live(&state, b)?)),
                LaneOp::Sub(a, b) => Some(live(&state, a)?.sub(live(&state, b)?)),
                LaneOp::Mul(a, b) => {
                    // Share-wise product (degree 2d), then re-share /
                    // degree-reduce to the next committee.
                    let product = live(&state, a)?.mul_elementwise(live(&state, b)?);
                    let deals = Resharing::lanes;
                    Some(resharing.reshare(rng, &mut posts, &committee, &product, deals)?)
                }
                LaneOp::SumLanes(a) => {
                    let shares = live(&state, a)?;
                    let deals = Resharing::lane_sum;
                    Some(resharing.reshare(rng, &mut posts, &committee, shares, deals)?)
                }
                LaneOp::Output(a, client) => {
                    // Members post their shares (encrypted to the
                    // client): n elements.
                    let shares = live(&state, a)?;
                    let run =
                        resharing.shares_run(&mut posts, Author::Leader, &committee, "it/output");
                    run.push(0);
                    let all: Vec<usize> = (0..self.params.n).collect();
                    let v = resharing.scheme.reconstruct(&shares.select(&all), shares.degree())?;
                    outputs[client].push(v);
                    Some(shares.clone())
                }
            };
            if matches!(op, LaneOp::Mul(..) | LaneOp::SumLanes(_)) {
                // The committee that took the round hands every
                // still-live vector to the next one.
                let live_after = |slot: usize| last_use[slot] > pos;
                resharing.handover_live(rng, &mut posts, &committee, &mut state, live_after)?;
                committee_idx += 1;
                committee = Arc::from(format!("it-committee-{committee_idx}"));
            }
            state.push(result);
        }
        sb.flush_buffer(posts)?;

        Ok(ItRunResult {
            outputs,
            phases: sb.finish()?.phases,
            mul_lane_gates: program.mul_lane_gates(),
        })
    }
}

/// Builds the canonical SIMD workload: `batches` lanewise
/// multiplications, two clients, outputs of every product to client 0.
pub fn simd_workload(k: usize, batches: usize) -> LaneProgram {
    let mut ops = Vec::new();
    for _ in 0..batches {
        ops.push(LaneOp::Input { client: 0 });
        ops.push(LaneOp::Input { client: 1 });
    }
    for b in 0..batches {
        ops.push(LaneOp::Mul(2 * b, 2 * b + 1));
    }
    let first_mul = 2 * batches;
    for b in 0..batches {
        ops.push(LaneOp::Output(first_mul + b, 0));
    }
    LaneProgram { k, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn lanewise_multiplication() {
        let params = ProtocolParams::new(12, 2, 3).unwrap(); // 2(2+2)=8 < 12
        let engine = ItEngine::new(params).unwrap();
        let program = simd_workload(3, 2);
        let inputs = vec![
            vec![vec![f(1), f(2), f(3)], vec![f(4), f(5), f(6)]],
            vec![vec![f(10), f(20), f(30)], vec![f(40), f(50), f(60)]],
        ];
        let expected = program.evaluate(&inputs).unwrap();
        let run = engine.run(&mut rng(1), &program, &inputs).unwrap();
        assert_eq!(run.outputs, expected);
        assert_eq!(run.outputs[0][0], vec![f(10), f(40), f(90)]);
    }

    #[test]
    fn inner_product_via_sum_lanes() {
        let params = ProtocolParams::new(14, 2, 3).unwrap();
        let engine = ItEngine::new(params).unwrap();
        let program = LaneProgram {
            k: 3,
            ops: vec![
                LaneOp::Input { client: 0 },
                LaneOp::Input { client: 1 },
                LaneOp::Mul(0, 1),
                LaneOp::SumLanes(2),
                LaneOp::Output(3, 0),
            ],
        };
        let inputs = vec![
            vec![vec![f(1), f(2), f(3)]],
            vec![vec![f(4), f(5), f(6)]],
        ];
        let run = engine.run(&mut rng(2), &program, &inputs).unwrap();
        // <(1,2,3), (4,5,6)> = 32 in every lane.
        assert_eq!(run.outputs[0][0], vec![f(32), f(32), f(32)]);
    }

    #[test]
    fn deep_chain_with_linear_ops() {
        let params = ProtocolParams::new(16, 2, 2).unwrap();
        let engine = ItEngine::new(params).unwrap();
        let program = LaneProgram {
            k: 2,
            ops: vec![
                LaneOp::Input { client: 0 },   // 0: x
                LaneOp::Input { client: 0 },   // 1: y
                LaneOp::Add(0, 1),             // 2: x+y
                LaneOp::Mul(2, 0),             // 3: (x+y)x
                LaneOp::Sub(3, 1),             // 4: (x+y)x − y
                LaneOp::Mul(4, 4),             // 5: squared
                LaneOp::Output(5, 0),
            ],
        };
        let inputs = vec![vec![vec![f(3), f(5)], vec![f(7), f(11)]]];
        let expected = program.evaluate(&inputs).unwrap();
        let run = engine.run(&mut rng(3), &program, &inputs).unwrap();
        assert_eq!(run.outputs, expected);
    }

    #[test]
    fn rejects_overfull_degree() {
        // Any GOD-valid ProtocolParams satisfies 2(t+k−1) < n, so the
        // engine accepts them all; a hand-built violating parameter set
        // is rejected.
        let valid = ProtocolParams::new(10, 3, 2).unwrap();
        assert!(ItEngine::new(valid).is_ok());
        let invalid = ProtocolParams { n: 10, t: 4, k: 2, failstops: 0, layout: Default::default() };
        assert!(ItEngine::new(invalid).is_err());
    }

    #[test]
    fn program_validation() {
        assert!(LaneProgram { k: 0, ops: vec![] }.validate().is_err());
        assert!(LaneProgram { k: 2, ops: vec![LaneOp::Input { client: 0 }] }
            .validate()
            .is_err()); // no outputs
        assert!(LaneProgram { k: 2, ops: vec![LaneOp::Add(0, 1), LaneOp::Output(0, 0)] }
            .validate()
            .is_err()); // forward reference
    }

    #[test]
    fn it_cost_scales_as_n_squared_over_k() {
        let per_gate = |n: usize, k: usize| {
            let t = 1;
            let params = ProtocolParams::new(n, t, k).unwrap();
            let engine = ItEngine::new(params).unwrap();
            let program = simd_workload(k, 2);
            let mut r = rng(4);
            let inputs: Vec<Vec<Vec<F61>>> = (0..2)
                .map(|_| {
                    (0..2)
                        .map(|_| (0..k).map(|_| yoso_field::PrimeField::random(&mut r)).collect())
                        .collect()
                })
                .collect();
            let run = engine.run(&mut r, &program, &inputs).unwrap();
            run.elements("it/reshare") as f64 / run.mul_lane_gates as f64
        };
        // Fixed k: doubling n should ≈quadruple the per-gate cost.
        let a = per_gate(16, 2);
        let b = per_gate(32, 2);
        assert!((3.0..5.0).contains(&(b / a)), "n²: {a} vs {b}");
        // Fixed n: doubling k should ≈halve the per-gate cost.
        let c = per_gate(32, 2);
        let d = per_gate(32, 4);
        assert!((1.5..2.5).contains(&(c / d)), "1/k: {c} vs {d}");
    }
}
