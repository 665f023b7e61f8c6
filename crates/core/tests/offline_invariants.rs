//! White-box invariants of the offline phase: decrypt the produced
//! ciphertexts with the key-custody oracle and check the paper's
//! correlated-randomness relations hold exactly.

use rand::SeedableRng;
use yoso_circuit::{generators, Gate};
use yoso_core::offline::{debug_open_batch_lambda, run_offline};
use yoso_core::setup::run_setup;
use yoso_core::{ExecutionConfig, ProtocolParams, RolePartition, ShardedBoard};
use yoso_field::{F61, PrimeField};
use yoso_runtime::{Adversary, BulletinBoard, Committee};

#[test]
fn offline_correlations_are_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2718);
    let params = ProtocolParams::new(10, 2, 2).unwrap();
    let cfg = ExecutionConfig::default();
    let circuit = generators::poly_eval::<F61>(3).unwrap();
    let bc = circuit.batched(params.k);
    let board = BulletinBoard::new();
    let sb = ShardedBoard::new(&board, RolePartition::solo());

    let setup =
        run_setup::<F61, _>(&mut rng, &params, &board, circuit.mul_depth(), circuit.clients())
            .unwrap();
    let offline =
        run_offline(&mut rng, &params, &sb, &Adversary::none(), &cfg, &bc, &setup).unwrap();

    // Oracle: decrypt every wire mask with the post-offline chain.
    let oracle = Committee::honest("oracle", params.n);
    let lambdas = offline
        .tsk
        .decrypt(&mut rng, &sb, &oracle, &cfg, "test-oracle", &offline.lambda_cts)
        .unwrap();

    // (1) λ propagates linearly through linear gates.
    for (w, gate) in circuit.gates().iter().enumerate() {
        match *gate {
            Gate::Add(a, b) => assert_eq!(lambdas[w], lambdas[a.0] + lambdas[b.0]),
            Gate::Sub(a, b) => assert_eq!(lambdas[w], lambdas[a.0] - lambdas[b.0]),
            Gate::MulConst(a, c) => assert_eq!(lambdas[w], lambdas[a.0] * c),
            Gate::Const(_) => assert_eq!(lambdas[w], F61::ZERO),
            Gate::Output(a, _) => assert_eq!(lambdas[w], lambdas[a.0]),
            Gate::Input { .. } | Gate::Mul(_, _) => {}
        }
    }

    // (2) Per batch: the packed α/β vectors equal the per-wire masks in
    // batch order, and Γ = λ_α·λ_β − λ_γ.
    for (batch, shares) in bc.mul_batches.iter().zip(&offline.batch_shares) {
        let k_b = batch.gates.len();
        let alpha =
            debug_open_batch_lambda(&params, &setup, batch, &shares.alpha, k_b).unwrap();
        let beta = debug_open_batch_lambda(&params, &setup, batch, &shares.beta, k_b).unwrap();
        let gamma = debug_open_batch_lambda(&params, &setup, batch, &shares.gamma, k_b).unwrap();
        let left = batch.left_wires(&circuit);
        let right = batch.right_wires(&circuit);
        for j in 0..k_b {
            assert_eq!(alpha[j], lambdas[left[j].0], "α routing");
            assert_eq!(beta[j], lambdas[right[j].0], "β routing");
            assert_eq!(
                gamma[j],
                lambdas[left[j].0] * lambdas[right[j].0] - lambdas[batch.gates[j].0],
                "Γ relation"
            );
        }
    }

    // (3) Input-wire re-encryptions open (with the client's KFF secret)
    // to the wire masks.
    for (w, client, rv) in &offline.input_reenc {
        let sk = setup.client_kff_pairs[*client].secret.scalar;
        assert_eq!(rv.open(sk).unwrap(), lambdas[*w]);
    }
}

#[test]
fn offline_correlations_survive_active_adversary() {
    // Same invariants with t malicious roles in every committee.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3141);
    let params = ProtocolParams::new(12, 3, 2).unwrap();
    let cfg = ExecutionConfig::default();
    let circuit = generators::inner_product::<F61>(4).unwrap();
    let bc = circuit.batched(params.k);
    let board = BulletinBoard::new();
    let sb = ShardedBoard::new(&board, RolePartition::solo());
    let adversary =
        Adversary::active(3, yoso_runtime::ActiveAttack::WrongValue);

    let setup =
        run_setup::<F61, _>(&mut rng, &params, &board, circuit.mul_depth(), circuit.clients())
            .unwrap();
    let offline = run_offline(&mut rng, &params, &sb, &adversary, &cfg, &bc, &setup).unwrap();

    let oracle = Committee::honest("oracle", params.n);
    let lambdas = offline
        .tsk
        .decrypt(&mut rng, &sb, &oracle, &cfg, "test-oracle", &offline.lambda_cts)
        .unwrap();
    for (batch, shares) in bc.mul_batches.iter().zip(&offline.batch_shares) {
        let k_b = batch.gates.len();
        let gamma = debug_open_batch_lambda(&params, &setup, batch, &shares.gamma, k_b).unwrap();
        let left = batch.left_wires(&circuit);
        let right = batch.right_wires(&circuit);
        for j in 0..k_b {
            assert_eq!(
                gamma[j],
                lambdas[left[j].0] * lambdas[right[j].0] - lambdas[batch.gates[j].0]
            );
        }
    }
}

#[test]
fn masks_differ_between_runs() {
    // The λ values are jointly random: two runs with the same seed for
    // inputs but different protocol randomness give different masks.
    let params = ProtocolParams::new(8, 1, 2).unwrap();
    let cfg = ExecutionConfig::default();
    let circuit = generators::inner_product::<F61>(3).unwrap();
    let bc = circuit.batched(params.k);

    let masks = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let setup = run_setup::<F61, _>(
            &mut rng,
            &params,
            &board,
            circuit.mul_depth(),
            circuit.clients(),
        )
        .unwrap();
        let offline =
            run_offline(&mut rng, &params, &sb, &Adversary::none(), &cfg, &bc, &setup)
                .unwrap();
        let oracle = Committee::honest("oracle", params.n);
        offline
            .tsk
            .decrypt(&mut rng, &sb, &oracle, &cfg, "t", &offline.lambda_cts)
            .unwrap()
    };
    assert_ne!(masks(1), masks(2));
}
