//! The share hot path's allocation profile is one profile: scratch
//! buffers are pooled whether or not the transcript is streamed.
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
fn default_and_streaming_runs_share_one_pooled_allocation_profile() {
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let circuit = generators::wide_layered::<F61>(8 * params.k, 2, 2).unwrap();
    let mut r = rand::rngs::StdRng::seed_from_u64(41);
    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut r)).collect())
        .collect();
    let hot_allocs_of = |cfg: ExecutionConfig| {
        let mut r = rand::rngs::StdRng::seed_from_u64(43);
        let before = allocstats::hot_allocs();
        let run =
            Engine::new(params, cfg).run(&mut r, &circuit, &inputs, &Adversary::none()).unwrap();
        (allocstats::hot_allocs() - before, run.outputs)
    };
    let (materialized, out_m) = hot_allocs_of(ExecutionConfig::default());
    let (streaming, out_s) = hot_allocs_of(ExecutionConfig::default().with_streaming());
    assert_eq!(out_m, out_s);
    assert_eq!(materialized, streaming, "streaming must not change the allocation profile");
    let gates = circuit.mul_count() as u64;
    assert!(
        materialized <= 3 * gates,
        "{materialized} hot-path allocations over {gates} mul gates exceeds 3 per gate"
    );
}
