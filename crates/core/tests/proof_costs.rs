//! What the proofs of one execution cost in SHA-256 compressions: an
//! exact, host-independent count (debug builds only, where
//! `compressions_of` exists).

#![cfg(debug_assertions)]

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_crypto::sha256::compressions_of;
use yoso_field::{PrimeField, F61};
use yoso_runtime::{Adversary, BulletinBoard};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The repository benchmark's `wide-proved` execution (n = 48, ε = 0.25,
/// width 2k, depth 2, proofs on), inputs from seed 3, protocol seed 100,
/// on one thread: every compression it makes, map digests included.
#[test]
fn a_wide_proved_execution_costs_the_pinned_compressions() {
    let params = ProtocolParams::from_gap(48, 0.25).unwrap();
    let circuit = generators::wide_layered::<F61>(2 * params.k, 2, 2).unwrap();
    let mut r = rng(3);
    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|wires| wires.iter().map(|_| F61::random(&mut r)).collect())
        .collect();
    let engine = Engine::new(params, ExecutionConfig::default());
    let board = BulletinBoard::new();
    let (run, compressions) = compressions_of(|| {
        engine.run_with_board(&mut rng(100), &circuit, &inputs, &Adversary::none(), &board)
    });
    assert_eq!(run.unwrap().outputs, circuit.evaluate(&inputs).unwrap());
    assert_eq!(compressions, 48_100);
}
