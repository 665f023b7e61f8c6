//! The share hot path's allocation profile: scratch buffers are
//! pooled, so a run allocates a bounded number of times per gate.
//!
//! `yoso_field::allocstats` is a process-global counter, so this file
//! holds exactly one test — a sibling test running protocol work on
//! another thread would leak into the deltas.

use rand::SeedableRng;

use yoso_circuit::generators;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_field::{allocstats, PrimeField, F61};
use yoso_runtime::Adversary;

#[test]
fn default_run_has_a_pooled_allocation_profile() {
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let circuit = generators::wide_layered::<F61>(8 * params.k, 2, 2).unwrap();
    let mut r = rand::rngs::StdRng::seed_from_u64(41);
    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut r)).collect())
        .collect();
    let mut r = rand::rngs::StdRng::seed_from_u64(43);
    let before = allocstats::hot_allocs();
    let run = Engine::new(params, ExecutionConfig::default())
        .run(&mut r, &circuit, &inputs, &Adversary::none())
        .unwrap();
    let hot_allocs = allocstats::hot_allocs() - before;
    assert_eq!(run.outputs, circuit.evaluate(&inputs).unwrap());
    let gates = circuit.mul_count() as u64;
    assert!(
        hot_allocs <= 3 * gates,
        "{hot_allocs} hot-path allocations over {gates} mul gates exceeds 3 per gate"
    );
}
