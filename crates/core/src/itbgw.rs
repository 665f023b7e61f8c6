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
//! The member loops follow the same per-role work-item discipline as
//! the main protocol (each member's dealing draws from a child RNG
//! seeded from the parent stream, so the per-member work is
//! order-independent), but **cross-process role sharding stops at this
//! module's boundary**: the IT engine meters against its own internal
//! board, so there is no shared transcript for a [`crate::
//! RolePartition`] to synchronize on. Sharding it would first require
//! threading an external board through [`ItEngine::run`].

use rand::{Rng, SeedableRng};

use yoso_field::PrimeField;
use yoso_pss_sharing::{PackedSharing, PackedShares};
use yoso_runtime::{BulletinBoard, RoleId};

use crate::messages::{self, Post};
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
        self.phases
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.elements)
            .sum()
    }

    /// Online elements per lane-gate.
    pub fn elements_per_gate(&self) -> f64 {
        self.elements("it/") as f64 / self.mul_lane_gates.max(1) as f64
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

/// Per-run re-sharing tables, computed once: the `k` recombination
/// vectors over all `n` nodes (row `j` recovers secret `j`) and their
/// per-member column sums (the cross-lane-sum coefficients `c_i`).
/// Every committee shares one evaluation-point layout, so these are
/// committee-independent — hoisting them out of the member loops turns
/// `n·k` interpolations per re-share into `k` per run.
struct ReshareTables<F: PrimeField> {
    recomb: Vec<Vec<F>>,
    lane_sum: Vec<F>,
}

impl<F: PrimeField> ReshareTables<F> {
    fn new(scheme: &PackedSharing<F>, n: usize, k: usize) -> Result<Self, ProtocolError> {
        let parties: Vec<usize> = (0..n).collect();
        let recomb: Vec<Vec<F>> = (0..k)
            .map(|j| scheme.recombination_vector(&parties, j))
            .collect::<Result<_, _>>()?;
        let lane_sum = (0..n).map(|i| recomb.iter().map(|w| w[i]).sum()).collect();
        Ok(ReshareTables { recomb, lane_sum })
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
        let n = self.params.n;
        let d = self.params.packing_degree();
        let scheme = PackedSharing::<F>::with_layout(n, self.params.k, self.params.layout)?;
        let tables = ReshareTables::new(&scheme, n, self.params.k)?;
        let board: BulletinBoard<Post> = BulletinBoard::metered_only();

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
        let mut committee_idx = 0usize;

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
                    let shares = scheme.share(rng, v, d)?;
                    board.post(
                        RoleId::new("it-client", client),
                        Post::Contribution {
                            step: crate::messages::ContributionStep::WireRandom,
                            ciphertexts: n as u32,
                        },
                        "it/input",
                        n as u64,
                        messages::to_bytes(n as u64),
                    )?;
                    Some(shares)
                }
                LaneOp::Add(a, b) => Some(live(&state, a)?.add(live(&state, b)?)),
                LaneOp::Sub(a, b) => Some(live(&state, a)?.sub(live(&state, b)?)),
                LaneOp::Mul(a, b) => {
                    // Share-wise product (degree 2d), then re-share /
                    // degree-reduce to the next committee, carrying all
                    // still-live vectors along.
                    let product = live(&state, a)?.mul_elementwise(live(&state, b)?);
                    let reduced =
                        self.reshare_vector(rng, &board, &scheme, &tables, &product, committee_idx)?;
                    self.handover_live(
                        rng, &board, &scheme, &tables, &mut state, &last_use, pos, committee_idx,
                    )?;
                    committee_idx += 1;
                    Some(reduced)
                }
                LaneOp::SumLanes(a) => {
                    let shares = live(&state, a)?;
                    let summed =
                        self.sum_lanes_vector(rng, &board, &scheme, &tables, shares, committee_idx)?;
                    self.handover_live(
                        rng, &board, &scheme, &tables, &mut state, &last_use, pos, committee_idx,
                    )?;
                    committee_idx += 1;
                    Some(summed)
                }
                LaneOp::Output(a, client) => {
                    // Members post their shares (encrypted to the
                    // client): n elements.
                    let shares = live(&state, a)?;
                    board.post(
                        RoleId::new(format!("it-committee-{committee_idx}"), 0),
                        Post::Contribution {
                            step: crate::messages::ContributionStep::WireRandom,
                            ciphertexts: n as u32,
                        },
                        "it/output",
                        n as u64,
                        messages::to_bytes(n as u64),
                    )?;
                    let all: Vec<usize> = (0..n).collect();
                    let v = scheme.reconstruct(&shares.select(&all), shares.degree())?;
                    outputs[client].push(v);
                    Some(shares.clone())
                }
            };
            state.push(result);
        }

        Ok(ItRunResult {
            outputs,
            phases: board.meter().phases(),
            mul_lane_gates: program.mul_lane_gates(),
        })
    }

    /// The core IT re-sharing step: each member `i` deals a fresh
    /// degree-`d` packed sharing of the vector
    /// `(l_i(e_1)·s_i, …, l_i(e_k)·s_i)` (where `s_i` is its share and
    /// `l_i` the Lagrange basis over all `n` nodes); the sum of the
    /// dealt sharings is a fresh degree-`d` sharing of the original
    /// secrets. Works for any source degree `< n`, so it is both the
    /// handover re-share (source degree `d`) and the multiplication
    /// degree reduction (source degree `2d`).
    ///
    /// Each member's dealing is one work item: its randomness comes
    /// from a child RNG seeded off the parent stream, so the item is
    /// independent of loop position (same discipline as the sharded
    /// phases, even though this board is process-internal).
    #[allow(clippy::too_many_arguments)]
    fn reshare_vector<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        scheme: &PackedSharing<F>,
        tables: &ReshareTables<F>,
        source: &PackedShares<F>,
        committee_idx: usize,
    ) -> Result<PackedShares<F>, ProtocolError> {
        let n = self.params.n;
        let d = self.params.packing_degree();
        let mut acc: Option<PackedShares<F>> = None;
        for i in 0..n {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
            let s_i = source.share_of(i).value;
            let vector: Vec<F> =
                tables.recomb.iter().map(|w| w[i] * s_i).collect();
            let dealt = scheme.share(&mut mrng, &vector, d)?;
            board.post(
                RoleId::new(format!("it-committee-{committee_idx}"), i),
                Post::Contribution {
                    step: crate::messages::ContributionStep::WireRandom,
                    ciphertexts: n as u32,
                },
                "it/reshare",
                n as u64,
                messages::to_bytes(n as u64),
            )?;
            acc = Some(match acc {
                None => dealt,
                Some(a) => a.add(&dealt),
            });
        }
        acc.ok_or(ProtocolError::Invariant("committee size n is zero"))
    }

    /// Cross-lane sum re-share: member `i` deals a sharing of the
    /// constant vector `(c_i·s_i, …, c_i·s_i)` with
    /// `c_i = Σ_j l_i(e_j)`; the sum of dealt sharings holds
    /// `Σ_j v[j]` in every lane. Same per-member work-item shape as
    /// [`Self::reshare_vector`].
    #[allow(clippy::too_many_arguments)]
    fn sum_lanes_vector<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        scheme: &PackedSharing<F>,
        tables: &ReshareTables<F>,
        source: &PackedShares<F>,
        committee_idx: usize,
    ) -> Result<PackedShares<F>, ProtocolError> {
        let n = self.params.n;
        let d = self.params.packing_degree();
        let mut acc: Option<PackedShares<F>> = None;
        for i in 0..n {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
            let s_i = source.share_of(i).value;
            let vector = vec![tables.lane_sum[i] * s_i; self.params.k];
            let dealt = scheme.share(&mut mrng, &vector, d)?;
            board.post(
                RoleId::new(format!("it-committee-{committee_idx}"), i),
                Post::Contribution {
                    step: crate::messages::ContributionStep::WireRandom,
                    ciphertexts: n as u32,
                },
                "it/reshare",
                n as u64,
                messages::to_bytes(n as u64),
            )?;
            acc = Some(match acc {
                None => dealt,
                Some(a) => a.add(&dealt),
            });
        }
        acc.ok_or(ProtocolError::Invariant("committee size n is zero"))
    }

    /// Re-shares every still-live vector to the next committee.
    #[allow(clippy::too_many_arguments)]
    fn handover_live<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        scheme: &PackedSharing<F>,
        tables: &ReshareTables<F>,
        state: &mut [Option<PackedShares<F>>],
        last_use: &[usize],
        pos: usize,
        committee_idx: usize,
    ) -> Result<(), ProtocolError> {
        for i in 0..state.len() {
            if last_use[i] > pos {
                if let Some(shares) = state[i].take() {
                    state[i] = Some(
                        self.reshare_vector(rng, board, scheme, tables, &shares, committee_idx)?,
                    );
                }
            } else {
                state[i] = None; // dead value: erase (YOSO state hygiene)
            }
        }
        Ok(())
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
    fn subgroup_layout_matches_sequential_run() {
        // Same program, same seed, both point layouts: the share values
        // differ (different evaluation points) but every reconstructed
        // output must equal the cleartext evaluation.
        use yoso_pss_sharing::PointLayout;
        let program = simd_workload(4, 2);
        let inputs = vec![
            vec![vec![f(1), f(2), f(3), f(4)], vec![f(5), f(6), f(7), f(8)]],
            vec![vec![f(9), f(10), f(11), f(12)], vec![f(13), f(14), f(15), f(16)]],
        ];
        let expected = program.evaluate(&inputs).unwrap();
        let seq = ItEngine::new(ProtocolParams::new(14, 2, 4).unwrap()).unwrap();
        let sub = ItEngine::new(
            ProtocolParams::new(14, 2, 4).unwrap().with_layout(PointLayout::Subgroup),
        )
        .unwrap();
        assert_eq!(seq.run(&mut rng(11), &program, &inputs).unwrap().outputs, expected);
        assert_eq!(sub.run(&mut rng(11), &program, &inputs).unwrap().outputs, expected);
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
