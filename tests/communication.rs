//! Metered-communication assertions: the complexity claims of
//! Theorem 1, checked on measured bulletin-board traffic.

use rand::SeedableRng;
use yoso_pss::circuit::{generators, Circuit};
use yoso_pss::core::baseline::BaselineEngine;
use yoso_pss::core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_pss::field::{F61, PrimeField};
use yoso_pss::runtime::Adversary;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn inputs_for(seed: u64, circuit: &Circuit<F61>) -> Vec<Vec<F61>> {
    let mut r = rng(seed);
    circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut r)).collect())
        .collect()
}

/// Online per-gate cost of the packed protocol at gap ε and size n.
fn packed_online_per_gate(n: usize) -> f64 {
    let params = ProtocolParams::from_gap(n, 0.25).unwrap();
    let circuit = generators::wide_layered::<F61>(params.k * 2, 2, 2).unwrap();
    let inputs = inputs_for(1, &circuit);
    let run = Engine::new(params, ExecutionConfig::sweep())
        .run(&mut rng(2), &circuit, &inputs, &Adversary::none())
        .unwrap();
    run.online_elements_per_gate()
}

#[test]
fn online_cost_is_flat_in_committee_size() {
    let small = packed_online_per_gate(16);
    let large = packed_online_per_gate(128);
    // n grew 8×; per-gate cost may only drift by the small-k constant
    // effects (bounded well below 2×), never linearly.
    assert!(
        large / small < 1.5,
        "online per-gate cost should be flat: {small} at n=16 vs {large} at n=128"
    );
}

#[test]
fn online_cost_approaches_four_over_epsilon() {
    // Each member posts one message per layer: a share per batch of ≈ nε
    // gates and one 3-element proof. With B batches a layer the per-gate
    // cost → (1 + 3/B)/ε as n grows: 4/ε at B = 1, and the workload's
    // width 2k makes B = 2.
    let measured = packed_online_per_gate(128);
    let batches = 2.0;
    let predicted = (1.0 + 3.0 / batches) / 0.25;
    assert!(
        (measured - predicted).abs() / predicted < 0.15,
        "measured {measured}, predicted {predicted}"
    );
}

#[test]
fn baseline_online_cost_is_linear_in_committee_size() {
    let per_gate = |n: usize| {
        let t = n / 2 - 1;
        let params = ProtocolParams::new(n, t, 1).unwrap();
        let circuit = generators::wide_layered::<F61>(8, 2, 2).unwrap();
        let inputs = inputs_for(3, &circuit);
        let run = BaselineEngine::new(params, ExecutionConfig::sweep())
            .run(&mut rng(4), &circuit, &inputs, &Adversary::none())
            .unwrap();
        run.online_elements_per_gate()
    };
    let small = per_gate(16);
    let large = per_gate(64);
    let ratio = large / small;
    assert!((3.5..=4.5).contains(&ratio), "4× n should give ≈4× cost, got {ratio}");
}

#[test]
fn offline_cost_is_linear_in_committee_size() {
    let per_gate = |n: usize| {
        let params = ProtocolParams::from_gap(n, 0.25).unwrap();
        let circuit = generators::wide_layered::<F61>(params.k * 2, 2, 1).unwrap();
        let inputs = inputs_for(5, &circuit);
        let run = Engine::new(params, ExecutionConfig::sweep())
            .run(&mut rng(6), &circuit, &inputs, &Adversary::none())
            .unwrap();
        run.offline_elements_per_gate() / n as f64
    };
    // Normalized by n, the offline per-gate cost must be near-constant.
    let a = per_gate(16);
    let b = per_gate(96);
    assert!(
        (0.5..2.0).contains(&(b / a)),
        "offline cost should be Θ(n) per gate: normalized {a} vs {b}"
    );
}

#[test]
fn improvement_ratio_tracks_twice_packing_factor() {
    let n = 64;
    let params = ProtocolParams::from_gap(n, 0.25).unwrap();
    let circuit = generators::wide_layered::<F61>(params.k * 2, 2, 2).unwrap();
    let inputs = inputs_for(7, &circuit);
    let packed = Engine::new(params, ExecutionConfig::sweep())
        .run(&mut rng(8), &circuit, &inputs, &Adversary::none())
        .unwrap();
    let base_params = ProtocolParams::new(n, params.t, 1).unwrap();
    let baseline = BaselineEngine::new(base_params, ExecutionConfig::sweep())
        .run(&mut rng(8), &circuit, &inputs, &Adversary::none())
        .unwrap();
    let ratio = baseline.online_elements_per_gate() / packed.online_elements_per_gate();
    let predicted = 2.0 * params.k as f64;
    assert!(
        (ratio - predicted).abs() / predicted < 0.2,
        "ratio {ratio} should track 2k = {predicted}"
    );
}

#[test]
fn addition_gates_cost_nothing_online() {
    // Same mul structure, with and without a pile of additions: the
    // online mult traffic must be identical.
    let build = |extra_adds: usize| {
        let mut b = yoso_pss::circuit::CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let y = b.input(1);
        let mut s = b.add(x, y);
        for _ in 0..extra_adds {
            s = b.add(s, x);
        }
        let m = b.mul(s, y);
        b.output(m, 0);
        b.build().unwrap()
    };
    let params = ProtocolParams::new(8, 1, 1).unwrap();
    let run_for = |c: &Circuit<F61>| {
        let inputs = inputs_for(9, c);
        Engine::new(params, ExecutionConfig::sweep())
            .run(&mut rng(10), c, &inputs, &Adversary::none())
            .unwrap()
    };
    let lean = run_for(&build(0));
    let fat = run_for(&build(50));
    assert_eq!(lean.elements("online/3-mult"), fat.elements("online/3-mult"));
}

#[test]
fn adversary_presence_does_not_change_honest_traffic_shape() {
    // Malicious roles still post (wrong) messages, so totals match the
    // honest run; silent roles reduce traffic but never below the
    // reconstruction needs.
    let params = ProtocolParams::new(12, 3, 2).unwrap();
    let circuit = generators::inner_product::<F61>(4).unwrap();
    let inputs = inputs_for(11, &circuit);
    let honest = Engine::new(params, ExecutionConfig::default())
        .run(&mut rng(12), &circuit, &inputs, &Adversary::none())
        .unwrap();
    let attacked = Engine::new(params, ExecutionConfig::default())
        .run(
            &mut rng(12),
            &circuit,
            &inputs,
            &Adversary::active(3, yoso_pss::runtime::ActiveAttack::WrongValue),
        )
        .unwrap();
    assert_eq!(honest.elements("online/3-mult"), attacked.elements("online/3-mult"));
}
