//! Arithmetic circuit intermediate representation for packed MPC.
//!
//! The MPC protocol evaluates layered arithmetic circuits over a prime
//! field. This crate provides:
//!
//! - [`Circuit`] / [`CircuitBuilder`]: an SSA-style gate list (each
//!   gate defines the wire with its own id) with input, addition,
//!   multiplication, constant and output gates.
//! - Reference evaluation ([`Circuit::evaluate`]) used as ground truth
//!   in every protocol test.
//! - Multiplication-layer analysis and *k-batching*
//!   ([`Circuit::batched`]): groups of `k` multiplication gates at the
//!   same depth that the packed protocol processes with a single packed
//!   sharing, plus per-client input batches — exactly the batching the
//!   paper's offline Step 4 and online multiplication step operate on.
//! - [`generators`]: parameterized circuit families used by the
//!   examples, tests and benchmarks (wide layered circuits, inner
//!   products, polynomial evaluation, statistics, MiMC-style keyed
//!   permutations).
//!
//! # Example
//!
//! ```rust
//! use yoso_circuit::{Circuit, CircuitBuilder};
//! use yoso_field::F61;
//!
//! // (x + y) * y for client 0, output to client 0.
//! let mut b = CircuitBuilder::<F61>::new();
//! let x = b.input(0);
//! let y = b.input(0);
//! let s = b.add(x, y);
//! let p = b.mul(s, y);
//! b.output(p, 0);
//! let circuit = b.build()?;
//!
//! let out = circuit.evaluate(&[vec![F61::from(2u64), F61::from(3u64)]])?;
//! assert_eq!(out[0], vec![F61::from(15u64)]);
//! # Ok::<(), yoso_circuit::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;


use yoso_field::PrimeField;

/// Identifier of a wire (the gate that defines it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(pub usize);

/// A gate. Every gate except `Output` defines the wire whose id equals
/// the gate's position in the gate list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate<F: PrimeField> {
    /// An input wire supplied by `client`.
    Input {
        /// 0-based client index.
        client: usize,
    },
    /// A public constant.
    Const(F),
    /// Addition of two wires (free in the protocol).
    Add(WireId, WireId),
    /// Subtraction `a − b` (free).
    Sub(WireId, WireId),
    /// Multiplication by a public constant (free).
    MulConst(WireId, F),
    /// Multiplication of two wires (requires communication).
    Mul(WireId, WireId),
    /// Marks wire `0` as an output for `client`. Defines a passthrough
    /// wire carrying the same value.
    Output(WireId, usize),
}

/// Errors produced by circuit construction and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate referenced a wire that is not defined before it.
    ForwardReference {
        /// Position of the offending gate.
        gate: usize,
        /// The referenced wire.
        wire: WireId,
    },
    /// The circuit has no output gates.
    NoOutputs,
    /// Evaluation received the wrong number of clients or inputs.
    InputMismatch {
        /// Client index (or `usize::MAX` for a client-count mismatch).
        client: usize,
        /// Inputs supplied.
        got: usize,
        /// Inputs expected.
        expected: usize,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::ForwardReference { gate, wire } => {
                write!(f, "gate {gate} references undefined wire {}", wire.0)
            }
            CircuitError::NoOutputs => write!(f, "circuit has no output gates"),
            CircuitError::InputMismatch { client, got, expected } => {
                write!(f, "input mismatch for client {client}: got {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A validated arithmetic circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit<F: PrimeField> {
    gates: Vec<Gate<F>>,
    /// Number of clients (max client index + 1 over inputs and outputs).
    clients: usize,
    /// Input wire ids per client, in gate order.
    inputs_per_client: Vec<Vec<WireId>>,
    /// Output (wire, client) pairs in gate order.
    outputs: Vec<(WireId, usize)>,
    /// Multiplicative depth of every wire.
    depth: Vec<usize>,
    /// Mul gate ids grouped by multiplicative depth (1-based depth;
    /// index 0 holds depth-1 muls).
    mul_layers: Vec<Vec<WireId>>,
}

impl<F: PrimeField> Circuit<F> {
    /// The gate list.
    pub fn gates(&self) -> &[Gate<F>] {
        &self.gates
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Input wires for each client.
    pub fn inputs_per_client(&self) -> &[Vec<WireId>] {
        &self.inputs_per_client
    }

    /// Output (wire, client) pairs.
    pub fn outputs(&self) -> &[(WireId, usize)] {
        &self.outputs
    }

    /// Total number of wires (gates).
    pub fn wire_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of multiplication gates.
    pub fn mul_count(&self) -> usize {
        self.mul_layers.iter().map(Vec::len).sum()
    }

    /// Number of input gates across all clients.
    pub fn input_count(&self) -> usize {
        self.inputs_per_client.iter().map(Vec::len).sum()
    }

    /// Multiplication gates grouped by multiplicative depth.
    pub fn mul_layers(&self) -> &[Vec<WireId>] {
        &self.mul_layers
    }

    /// Multiplicative depth of the circuit.
    pub fn mul_depth(&self) -> usize {
        self.mul_layers.len()
    }

    /// Multiplicative depth of every wire: `depths()[w]` mul layers
    /// must complete before wire `w`'s value is available (0 for
    /// inputs, constants, and wires linear in the inputs). A mul gate
    /// at depth `d` sits in `mul_layers()[d - 1]`.
    pub fn depths(&self) -> &[usize] {
        &self.depth
    }

    /// Evaluates the circuit on cleartext inputs: `inputs[c]` are
    /// client `c`'s values in input-gate order. Returns each client's
    /// outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InputMismatch`] if the inputs do not
    /// match the circuit's input layout.
    pub fn evaluate(&self, inputs: &[Vec<F>]) -> Result<Vec<Vec<F>>, CircuitError> {
        if inputs.len() != self.clients {
            return Err(CircuitError::InputMismatch {
                client: usize::MAX,
                got: inputs.len(),
                expected: self.clients,
            });
        }
        for (c, (got, expected)) in inputs.iter().zip(&self.inputs_per_client).enumerate() {
            if got.len() != expected.len() {
                return Err(CircuitError::InputMismatch {
                    client: c,
                    got: got.len(),
                    expected: expected.len(),
                });
            }
        }
        let mut values = vec![F::ZERO; self.gates.len()];
        let mut next_input = vec![0usize; self.clients];
        for (i, gate) in self.gates.iter().enumerate() {
            values[i] = match *gate {
                Gate::Input { client } => {
                    let v = inputs[client][next_input[client]];
                    next_input[client] += 1;
                    v
                }
                Gate::Const(c) => c,
                Gate::Add(a, b) => values[a.0] + values[b.0],
                Gate::Sub(a, b) => values[a.0] - values[b.0],
                Gate::MulConst(a, c) => values[a.0] * c,
                Gate::Mul(a, b) => values[a.0] * values[b.0],
                Gate::Output(a, _) => values[a.0],
            };
        }
        let mut outputs = vec![Vec::new(); self.clients];
        for &(w, c) in &self.outputs {
            outputs[c].push(values[w.0]);
        }
        Ok(outputs)
    }

    /// Evaluates and also returns the value on every wire (used by the
    /// protocol tests to check the `v = μ + λ` invariant wire by wire).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::evaluate`].
    pub fn evaluate_wires(&self, inputs: &[Vec<F>]) -> Result<Vec<F>, CircuitError> {
        // Re-run evaluation, retaining all wire values.
        if inputs.len() != self.clients {
            return Err(CircuitError::InputMismatch {
                client: usize::MAX,
                got: inputs.len(),
                expected: self.clients,
            });
        }
        let mut values = vec![F::ZERO; self.gates.len()];
        let mut next_input = vec![0usize; self.clients];
        for (i, gate) in self.gates.iter().enumerate() {
            values[i] = match *gate {
                Gate::Input { client } => {
                    let idx = next_input[client];
                    if idx >= inputs[client].len() {
                        return Err(CircuitError::InputMismatch {
                            client,
                            got: inputs[client].len(),
                            expected: self.inputs_per_client[client].len(),
                        });
                    }
                    next_input[client] += 1;
                    inputs[client][idx]
                }
                Gate::Const(c) => c,
                Gate::Add(a, b) => values[a.0] + values[b.0],
                Gate::Sub(a, b) => values[a.0] - values[b.0],
                Gate::MulConst(a, c) => values[a.0] * c,
                Gate::Mul(a, b) => values[a.0] * values[b.0],
                Gate::Output(a, _) => values[a.0],
            };
        }
        Ok(values)
    }

    /// Renders the circuit as a Graphviz `dot` digraph (for debugging
    /// and documentation).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph circuit {\n  rankdir=TB;\n");
        for (i, gate) in self.gates.iter().enumerate() {
            let (label, shape) = match gate {
                Gate::Input { client } => (format!("in c{client}"), "invhouse"),
                Gate::Const(c) => (format!("const {c}"), "box"),
                Gate::Add(_, _) => ("+".to_string(), "circle"),
                Gate::Sub(_, _) => ("−".to_string(), "circle"),
                Gate::MulConst(_, c) => (format!("×{c}"), "circle"),
                Gate::Mul(_, _) => ("×".to_string(), "doublecircle"),
                Gate::Output(_, client) => (format!("out c{client}"), "house"),
            };
            let _ = writeln!(out, "  w{i} [label=\"{label}\", shape={shape}];");
            match gate {
                Gate::Add(a, b) | Gate::Sub(a, b) | Gate::Mul(a, b) => {
                    let _ = writeln!(out, "  w{} -> w{i};\n  w{} -> w{i};", a.0, b.0);
                }
                Gate::MulConst(a, _) | Gate::Output(a, _) => {
                    let _ = writeln!(out, "  w{} -> w{i};", a.0);
                }
                Gate::Input { .. } | Gate::Const(_) => {}
            }
        }
        out.push_str("}\n");
        out
    }

    /// Batches the circuit for packing factor `k`: multiplication gates
    /// are grouped per layer into chunks of at most `k`, and each
    /// client's input wires into chunks of at most `k`.
    ///
    /// Every emitted batch is non-empty and at most `k` wide: a `k`
    /// larger than a layer (or input list) yields one batch of the
    /// full width, never a padded or empty one, and a client with no
    /// input wires (output-only clients exist in the layout after
    /// [`CircuitBuilder::build`] pads `inputs_per_client`) contributes
    /// no input batch at all. The engine sizes a `PackedSharing` per
    /// distinct batch width, so an empty batch would be degenerate —
    /// both properties are pinned by regression tests.
    pub fn batched(&self, k: usize) -> BatchedCircuit<F> {
        assert!(k >= 1, "packing factor must be at least 1");
        let input_batches: Vec<InputBatch> = self
            .inputs_per_client
            .iter()
            .enumerate()
            .flat_map(|(client, wires)| {
                wires
                    .chunks(k)
                    .filter(|chunk| !chunk.is_empty())
                    .map(move |chunk| InputBatch { client, wires: chunk.to_vec() })
            })
            .collect();
        let mul_batches: Vec<MulBatch> = self
            .mul_layers
            .iter()
            .enumerate()
            .flat_map(|(layer, gates)| {
                gates
                    .chunks(k)
                    .filter(|chunk| !chunk.is_empty())
                    .map(move |chunk| MulBatch { layer, gates: chunk.to_vec() })
            })
            .collect();
        debug_assert!(
            input_batches.iter().all(|b| !b.wires.is_empty() && b.wires.len() <= k),
            "input batches must be non-empty and at most k wide"
        );
        debug_assert!(
            mul_batches.iter().all(|b| !b.gates.is_empty() && b.gates.len() <= k),
            "mul batches must be non-empty and at most k wide"
        );
        BatchedCircuit { circuit: self.clone(), k, input_batches, mul_batches }
    }
}

/// A batch of up to `k` input wires belonging to one client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputBatch {
    /// The supplying client.
    pub client: usize,
    /// The wires in the batch.
    pub wires: Vec<WireId>,
}

/// A batch of up to `k` multiplication gates at one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulBatch {
    /// 0-based multiplicative layer.
    pub layer: usize,
    /// The gate (= output wire) ids in the batch.
    pub gates: Vec<WireId>,
}

impl MulBatch {
    /// The left input wires of the batch's gates.
    pub fn left_wires<F: PrimeField>(&self, circuit: &Circuit<F>) -> Vec<WireId> {
        self.gates
            .iter()
            .map(|&g| match circuit.gates()[g.0] {
                Gate::Mul(a, _) => a,
                _ => unreachable!("mul batch contains non-mul gate"),
            })
            .collect()
    }

    /// The right input wires of the batch's gates.
    pub fn right_wires<F: PrimeField>(&self, circuit: &Circuit<F>) -> Vec<WireId> {
        self.gates
            .iter()
            .map(|&g| match circuit.gates()[g.0] {
                Gate::Mul(_, b) => b,
                _ => unreachable!("mul batch contains non-mul gate"),
            })
            .collect()
    }
}

/// A circuit together with its packing-factor-`k` batching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchedCircuit<F: PrimeField> {
    /// The underlying circuit.
    pub circuit: Circuit<F>,
    /// The packing factor.
    pub k: usize,
    /// Per-client input batches.
    pub input_batches: Vec<InputBatch>,
    /// Per-layer multiplication batches.
    pub mul_batches: Vec<MulBatch>,
}

/// Builder for [`Circuit`].
#[derive(Debug, Clone, Default)]
pub struct CircuitBuilder<F: PrimeField> {
    gates: Vec<Gate<F>>,
    outputs: Vec<(WireId, usize)>,
}

impl<F: PrimeField> CircuitBuilder<F> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CircuitBuilder { gates: Vec::new(), outputs: Vec::new() }
    }

    fn push(&mut self, gate: Gate<F>) -> WireId {
        self.gates.push(gate);
        WireId(self.gates.len() - 1)
    }

    /// Adds an input gate for `client`.
    pub fn input(&mut self, client: usize) -> WireId {
        self.push(Gate::Input { client })
    }

    /// Adds a constant gate.
    pub fn constant(&mut self, c: F) -> WireId {
        self.push(Gate::Const(c))
    }

    /// Adds an addition gate.
    pub fn add(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(Gate::Add(a, b))
    }

    /// Adds a subtraction gate `a − b`.
    pub fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(Gate::Sub(a, b))
    }

    /// Adds a constant-multiplication gate.
    pub fn mul_const(&mut self, a: WireId, c: F) -> WireId {
        self.push(Gate::MulConst(a, c))
    }

    /// Adds a multiplication gate.
    pub fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(Gate::Mul(a, b))
    }

    /// Marks `wire` as an output for `client`.
    pub fn output(&mut self, wire: WireId, client: usize) -> WireId {
        let w = self.push(Gate::Output(wire, client));
        self.outputs.push((w, client));
        w
    }

    /// Validates and freezes the circuit.
    ///
    /// # Errors
    ///
    /// - [`CircuitError::ForwardReference`] if a gate uses a wire
    ///   defined later (the builder API cannot produce this, but
    ///   deserialized gate lists can).
    /// - [`CircuitError::NoOutputs`] if no output gate exists.
    pub fn build(self) -> Result<Circuit<F>, CircuitError> {
        Circuit::from_gates(self.gates)
    }
}

impl<F: PrimeField> Circuit<F> {
    /// Validates a raw gate list into a circuit.
    ///
    /// # Errors
    ///
    /// See [`CircuitBuilder::build`].
    pub fn from_gates(gates: Vec<Gate<F>>) -> Result<Self, CircuitError> {
        let check = |gate: usize, wire: WireId| {
            if wire.0 >= gate {
                Err(CircuitError::ForwardReference { gate, wire })
            } else {
                Ok(())
            }
        };
        let mut clients = 0usize;
        let mut inputs_per_client: Vec<Vec<WireId>> = Vec::new();
        let mut outputs = Vec::new();
        let mut depth = vec![0usize; gates.len()];
        let mut mul_layers: Vec<Vec<WireId>> = Vec::new();

        for (i, gate) in gates.iter().enumerate() {
            match *gate {
                Gate::Input { client } => {
                    clients = clients.max(client + 1);
                    if inputs_per_client.len() <= client {
                        inputs_per_client.resize(client + 1, Vec::new());
                    }
                    inputs_per_client[client].push(WireId(i));
                    depth[i] = 0;
                }
                Gate::Const(_) => depth[i] = 0,
                Gate::Add(a, b) | Gate::Sub(a, b) => {
                    check(i, a)?;
                    check(i, b)?;
                    depth[i] = depth[a.0].max(depth[b.0]);
                }
                Gate::MulConst(a, _) => {
                    check(i, a)?;
                    depth[i] = depth[a.0];
                }
                Gate::Mul(a, b) => {
                    check(i, a)?;
                    check(i, b)?;
                    depth[i] = depth[a.0].max(depth[b.0]) + 1;
                    let layer = depth[i] - 1;
                    if mul_layers.len() <= layer {
                        mul_layers.resize(layer + 1, Vec::new());
                    }
                    mul_layers[layer].push(WireId(i));
                }
                Gate::Output(a, client) => {
                    check(i, a)?;
                    clients = clients.max(client + 1);
                    depth[i] = depth[a.0];
                    outputs.push((WireId(i), client));
                }
            }
        }
        if outputs.is_empty() {
            return Err(CircuitError::NoOutputs);
        }
        inputs_per_client.resize(clients, Vec::new());
        Ok(Circuit { gates, clients, inputs_per_client, outputs, depth, mul_layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoso_field::F61;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    #[test]
    fn builder_and_evaluation() {
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let y = b.input(1);
        let c = b.constant(f(10));
        let s = b.add(x, y);
        let d = b.sub(s, c);
        let m = b.mul_const(d, f(2));
        let p = b.mul(m, y);
        b.output(p, 0);
        let circ = b.build().unwrap();
        // ((3 + 9 - 10) * 2) * 9 = 36
        let out = circ.evaluate(&[vec![f(3)], vec![f(9)]]).unwrap();
        assert_eq!(out[0], vec![f(36)]);
        assert_eq!(circ.clients(), 2);
        assert_eq!(circ.mul_count(), 1);
        assert_eq!(circ.mul_depth(), 1);
    }

    #[test]
    fn depth_tracking() {
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let m1 = b.mul(x, x); // depth 1
        let m2 = b.mul(m1, x); // depth 2
        let a = b.add(m2, m1); // depth 2 (additive)
        let m3 = b.mul(a, m1); // depth 3
        b.output(m3, 0);
        let circ = b.build().unwrap();
        assert_eq!(circ.mul_depth(), 3);
        assert_eq!(circ.mul_layers()[0], vec![m1]);
        assert_eq!(circ.mul_layers()[1], vec![m2]);
        assert_eq!(circ.mul_layers()[2], vec![m3]);
        // x = 2: m1 = 4, m2 = 8, a = 12, m3 = 48
        let out = circ.evaluate(&[vec![f(2)]]).unwrap();
        assert_eq!(out[0], vec![f(48)]);
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        b.add(x, x);
        assert_eq!(b.build().unwrap_err(), CircuitError::NoOutputs);
    }

    #[test]
    fn forward_reference_rejected() {
        let gates = vec![Gate::<F61>::Add(WireId(1), WireId(2)), Gate::Input { client: 0 }];
        assert!(matches!(
            Circuit::from_gates(gates),
            Err(CircuitError::ForwardReference { gate: 0, .. })
        ));
    }

    #[test]
    fn input_mismatch_detected() {
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        b.output(x, 0);
        let circ = b.build().unwrap();
        assert!(circ.evaluate(&[]).is_err());
        assert!(circ.evaluate(&[vec![]]).is_err());
        assert!(circ.evaluate(&[vec![f(1), f(2)]]).is_err());
    }

    #[test]
    fn batching_groups_by_layer_and_client() {
        let mut b = CircuitBuilder::<F61>::new();
        let xs: Vec<WireId> = (0..5).map(|_| b.input(0)).collect();
        let ys: Vec<WireId> = (0..3).map(|_| b.input(1)).collect();
        // 5 muls at layer 1.
        let ms: Vec<WireId> = xs.iter().map(|&x| b.mul(x, ys[0])).collect();
        // 2 muls at layer 2.
        let t1 = b.mul(ms[0], ms[1]);
        let t2 = b.mul(ms[2], ms[3]);
        let s = b.add(t1, t2);
        b.output(s, 0);
        b.output(ys[2], 1);
        let circ = b.build().unwrap();
        let batched = circ.batched(2);
        // Inputs: client 0 has 5 wires -> 3 batches; client 1 has 3 -> 2.
        assert_eq!(batched.input_batches.len(), 5);
        // Muls: layer 1 has 5 -> 3 batches; layer 2 has 2 -> 1 batch.
        assert_eq!(batched.mul_batches.len(), 4);
        let first = &batched.mul_batches[0];
        assert_eq!(first.layer, 0);
        assert_eq!(first.left_wires(&circ), vec![xs[0], xs[1]]);
        assert_eq!(first.right_wires(&circ), vec![ys[0], ys[0]]);
    }

    #[test]
    fn batching_with_k_beyond_layer_width_stays_non_degenerate() {
        // Layer widths 3 and 1, input lists 3 and 1 — batched with
        // k = 8, far wider than anything in the circuit.
        let mut b = CircuitBuilder::<F61>::new();
        let xs: Vec<WireId> = (0..3).map(|_| b.input(0)).collect();
        let y = b.input(1);
        let ms: Vec<WireId> = xs.iter().map(|&x| b.mul(x, y)).collect();
        let top = b.mul(ms[0], ms[1]);
        b.output(top, 0);
        let circ = b.build().unwrap();
        let batched = circ.batched(8);
        // One batch per client and per layer, at the full (sub-k) width.
        assert_eq!(batched.input_batches.len(), 2);
        assert_eq!(batched.input_batches[0].wires.len(), 3);
        assert_eq!(batched.input_batches[1].wires.len(), 1);
        assert_eq!(batched.mul_batches.len(), 2);
        assert_eq!(batched.mul_batches[0].gates.len(), 3);
        assert_eq!(batched.mul_batches[1].gates.len(), 1);
        for batch in &batched.input_batches {
            assert!(!batch.wires.is_empty() && batch.wires.len() <= 8);
        }
        for batch in &batched.mul_batches {
            assert!(!batch.gates.is_empty() && batch.gates.len() <= 8);
        }
    }

    #[test]
    fn output_only_client_produces_no_input_batch() {
        // Client 2 only receives an output; clients 0..=2 exist in the
        // layout but client 2's input list is empty. No batch may be
        // emitted for it, at any k.
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let y = b.input(1);
        let m = b.mul(x, y);
        b.output(m, 2);
        let circ = b.build().unwrap();
        assert_eq!(circ.clients(), 3);
        assert!(circ.inputs_per_client()[2].is_empty());
        for k in [1usize, 2, 7] {
            let batched = circ.batched(k);
            assert!(
                batched.input_batches.iter().all(|b| b.client != 2),
                "k={k}: zero-input client must not appear in input batches"
            );
            assert!(batched.input_batches.iter().all(|b| !b.wires.is_empty()));
            // The present clients are still fully covered, in order.
            let covered: Vec<WireId> =
                batched.input_batches.iter().flat_map(|b| b.wires.iter().copied()).collect();
            assert_eq!(covered, vec![x, y], "k={k}");
        }
    }

    #[test]
    fn batching_covers_every_mul_exactly_once_at_any_k() {
        let mut b = CircuitBuilder::<F61>::new();
        let xs: Vec<WireId> = (0..7).map(|_| b.input(0)).collect();
        let ms: Vec<WireId> = xs.windows(2).map(|w| b.mul(w[0], w[1])).collect();
        let top = b.mul(ms[0], ms[5]);
        b.output(top, 0);
        let circ = b.build().unwrap();
        let mut expected: Vec<WireId> =
            circ.mul_layers().iter().flat_map(|l| l.iter().copied()).collect();
        expected.sort_unstable();
        for k in [1usize, 2, 3, 5, 100] {
            let batched = circ.batched(k);
            let mut covered: Vec<WireId> =
                batched.mul_batches.iter().flat_map(|b| b.gates.iter().copied()).collect();
            covered.sort_unstable();
            assert_eq!(covered, expected, "k={k}: every mul exactly once");
            assert!(batched.mul_batches.iter().all(|b| !b.gates.is_empty() && b.gates.len() <= k));
        }
    }

    #[test]
    fn dot_export_mentions_every_wire() {
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let c = b.constant(f(3));
        let s = b.add(x, c);
        let m = b.mul(s, x);
        b.output(m, 0);
        let circ = b.build().unwrap();
        let dot = circ.to_dot();
        assert!(dot.starts_with("digraph circuit {"));
        for i in 0..circ.wire_count() {
            assert!(dot.contains(&format!("w{i} ")), "wire {i} missing");
        }
        assert!(dot.contains("doublecircle"), "mul gate styled");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn evaluate_wires_matches_outputs() {
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let y = b.input(0);
        let m = b.mul(x, y);
        let o = b.output(m, 0);
        let circ = b.build().unwrap();
        let wires = circ.evaluate_wires(&[vec![f(6), f(7)]]).unwrap();
        assert_eq!(wires[m.0], f(42));
        assert_eq!(wires[o.0], f(42));
    }
}
