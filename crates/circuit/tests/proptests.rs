//! Property tests for circuit structure invariants: layering,
//! batching coverage and evaluation consistency.

use proptest::prelude::*;
use yoso_field::{F61, PrimeField};
use yoso_circuit::{Circuit, CircuitBuilder, Gate, WireId};

#[derive(Debug, Clone)]
enum Op {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MulConst(usize, u64),
    Const(u64),
    Input(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Add(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Sub(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Mul(a, b)),
        (any::<usize>(), any::<u64>()).prop_map(|(a, c)| Op::MulConst(a, c)),
        any::<u64>().prop_map(Op::Const),
        (0usize..3).prop_map(Op::Input),
    ]
}

fn build(ops: &[Op]) -> Circuit<F61> {
    let mut b = CircuitBuilder::<F61>::new();
    let seed = b.input(0);
    let mut wires: Vec<WireId> = vec![seed];
    for op in ops {
        let pick = |i: usize| wires[i % wires.len()];
        let w = match *op {
            Op::Add(a, c) => b.add(pick(a), pick(c)),
            Op::Sub(a, c) => b.sub(pick(a), pick(c)),
            Op::Mul(a, c) => b.mul(pick(a), pick(c)),
            Op::MulConst(a, c) => b.mul_const(pick(a), F61::from_u64(c)),
            Op::Const(c) => b.constant(F61::from_u64(c)),
            Op::Input(client) => b.input(client),
        };
        wires.push(w);
    }
    b.output(*wires.last().unwrap(), 0);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mul_layers_partition_mul_gates(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let c = build(&ops);
        let mut seen = std::collections::HashSet::new();
        for layer in c.mul_layers() {
            for w in layer {
                prop_assert!(matches!(c.gates()[w.0], Gate::Mul(_, _)));
                prop_assert!(seen.insert(w.0), "gate in two layers");
            }
        }
        let total_muls = c.gates().iter().filter(|g| matches!(g, Gate::Mul(_, _))).count();
        prop_assert_eq!(seen.len(), total_muls);
        prop_assert_eq!(c.mul_count(), total_muls);
    }

    #[test]
    fn layers_respect_dependencies(ops in prop::collection::vec(op_strategy(), 0..60)) {
        // A mul gate's layer must exceed the layer of every mul gate it
        // (transitively, through linear gates) depends on.
        let c = build(&ops);
        let mut depth = vec![0usize; c.gates().len()];
        for (w, gate) in c.gates().iter().enumerate() {
            depth[w] = match *gate {
                Gate::Input { .. } | Gate::Const(_) => 0,
                Gate::Add(a, b) | Gate::Sub(a, b) => depth[a.0].max(depth[b.0]),
                Gate::MulConst(a, _) => depth[a.0],
                Gate::Mul(a, b) => depth[a.0].max(depth[b.0]) + 1,
                Gate::Output(a, _) => depth[a.0],
            };
        }
        for (layer_idx, layer) in c.mul_layers().iter().enumerate() {
            for w in layer {
                prop_assert_eq!(depth[w.0], layer_idx + 1);
            }
        }
    }

    #[test]
    fn batching_covers_every_mul_exactly_once(
        ops in prop::collection::vec(op_strategy(), 0..60),
        k in 1usize..6,
    ) {
        let c = build(&ops);
        let batched = c.batched(k);
        let mut seen = std::collections::HashSet::new();
        for batch in &batched.mul_batches {
            prop_assert!(batch.gates.len() <= k);
            prop_assert!(!batch.gates.is_empty());
            for w in &batch.gates {
                prop_assert!(seen.insert(w.0));
            }
        }
        prop_assert_eq!(seen.len(), c.mul_count());
        // Input batches cover every input wire exactly once.
        let mut in_seen = std::collections::HashSet::new();
        for batch in &batched.input_batches {
            for w in &batch.wires {
                prop_assert!(in_seen.insert(w.0));
            }
        }
        prop_assert_eq!(in_seen.len(), c.input_count());
    }

    #[test]
    fn evaluation_is_linear_in_single_input(
        ops in prop::collection::vec(op_strategy(), 0..20),
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        // evaluate_wires is a function: same inputs → same wires; and
        // the output gate mirrors its source wire.
        let c = build(&ops);
        let make_inputs = |v: u64| -> Vec<Vec<F61>> {
            c.inputs_per_client()
                .iter()
                .map(|ws| ws.iter().map(|_| F61::from_u64(v)).collect())
                .collect()
        };
        let w1 = c.evaluate_wires(&make_inputs(x)).unwrap();
        let w2 = c.evaluate_wires(&make_inputs(x)).unwrap();
        prop_assert_eq!(&w1, &w2);
        let _ = c.evaluate_wires(&make_inputs(y)).unwrap();
        for &(w, _) in c.outputs() {
            if let Gate::Output(src, _) = c.gates()[w.0] {
                prop_assert_eq!(w1[w.0], w1[src.0]);
            }
        }
    }

    #[test]
    fn serialization_preserves_structure(ops in prop::collection::vec(op_strategy(), 0..30)) {
        // Round-trip through the raw gate list.
        let c = build(&ops);
        let rebuilt = Circuit::from_gates(c.gates().to_vec()).unwrap();
        prop_assert_eq!(c, rebuilt);
    }
}
