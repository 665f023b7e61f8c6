//! White-box invariants of the online phase: the Turbopack relation
//! `v = μ + λ` on **every** wire, and output-step simulatability (the
//! Appendix-B Hybrid 3/4 step, executable).

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::offline::run_offline;
use yoso_core::online::run_online;
use yoso_core::setup::run_setup;
use yoso_core::messages::Post;
use yoso_core::{crash_phases, Engine, ExecutionConfig, ProtocolParams};
use yoso_field::{F61, PrimeField};
use yoso_runtime::{ActiveAttack, Adversary, BulletinBoard, Committee, LeakLog};
use yoso_the::mock::{LinearPke, MockTe};

#[test]
fn v_equals_mu_plus_lambda_on_every_wire() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(161);
    let params = ProtocolParams::new(10, 2, 2).unwrap();
    let cfg = ExecutionConfig::default();
    let circuit = generators::federated_stats::<F61>(2, 3).unwrap();
    let bc = circuit.batched(params.k);
    let board = BulletinBoard::new();

    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut rng)).collect())
        .collect();
    let wire_values = circuit.evaluate_wires(&inputs).unwrap();

    let setup =
        run_setup::<F61, _>(&mut rng, &params, &board, circuit.mul_depth(), circuit.clients())
            .unwrap();
    let offline =
        run_offline(&mut rng, &params, &board, &Adversary::none(), &cfg, &bc, &setup).unwrap();

    // Oracle-decrypt the λ masks before the online phase consumes the
    // artifacts (the chain is cloned; decrypting does not disturb it).
    let oracle = Committee::honest("oracle", params.n);
    let lambdas = offline
        .tsk
        .decrypt(&mut rng, &board, &oracle, &cfg, "test-oracle", &offline.lambda_cts)
        .unwrap();

    let online = run_online(
        &mut rng,
        &params,
        &board,
        &Adversary::none(),
        &cfg,
        &bc,
        &setup,
        offline,
        &inputs,
        &LeakLog::new(),
    )
    .unwrap();

    // The paper's central invariant (§3.1/§5.3): every wire satisfies
    // v = μ + λ.
    for w in 0..circuit.wire_count() {
        assert_eq!(
            wire_values[w],
            online.mu[w] + lambdas[w],
            "wire {w}: v = μ + λ must hold"
        );
    }
}

#[test]
fn v_equals_mu_plus_lambda_under_attack() {
    // The invariant survives t active corruptions in every committee.
    let mut rng = rand::rngs::StdRng::seed_from_u64(162);
    let params = ProtocolParams::new(12, 3, 2).unwrap();
    let cfg = ExecutionConfig::default();
    let adversary = Adversary::active(3, ActiveAttack::WrongValue);
    let circuit = generators::poly_eval::<F61>(3).unwrap();
    let bc = circuit.batched(params.k);
    let board = BulletinBoard::new();

    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut rng)).collect())
        .collect();
    let wire_values = circuit.evaluate_wires(&inputs).unwrap();

    let setup =
        run_setup::<F61, _>(&mut rng, &params, &board, circuit.mul_depth(), circuit.clients())
            .unwrap();
    let offline = run_offline(&mut rng, &params, &board, &adversary, &cfg, &bc, &setup).unwrap();
    let oracle = Committee::honest("oracle", params.n);
    let lambdas = offline
        .tsk
        .decrypt(&mut rng, &board, &oracle, &cfg, "test-oracle", &offline.lambda_cts)
        .unwrap();
    let online = run_online(
        &mut rng, &params, &board, &adversary, &cfg, &bc, &setup, offline, &inputs,
        &LeakLog::new(),
    )
    .unwrap();
    for w in 0..circuit.wire_count() {
        assert_eq!(wire_values[w], online.mu[w] + lambdas[w]);
    }
}

#[test]
fn output_partials_are_simulatable() {
    // The Appendix-B Hybrid 3/4 step, executable: a simulator that
    // knows only (a) the corrupt parties' key shares, (b) the public μ
    // of an output wire, and (c) the output value v from the ideal
    // functionality, produces honest-looking partial decryptions that
    // combine — together with the real corrupt partials — to the
    // λ = v − μ the real protocol would reveal. No honest shares, no
    // plaintext λ from the real execution are consumed.
    let mut rng = rand::rngs::StdRng::seed_from_u64(163);
    let n = 7;
    let t = 3;
    let (pk, shares) = MockTe::<F61>::keygen(&mut rng, n, t).unwrap();

    // Real execution side: a mask ciphertext for some output wire.
    let real_lambda = F61::random(&mut rng);
    let (ct, _) = MockTe::encrypt(&mut rng, &pk, real_lambda);
    let v = F61::from(4242u64); // ideal-functionality output
    let mu = v - real_lambda; // public on the board

    // Adversary's view: corrupt partial decryptions (parties 0..t).
    let corrupt: Vec<_> = shares[..t].iter().map(|s| MockTe::partial_decrypt(s, &ct)).collect();

    // Simulator: target λ = v − μ, fake the honest partials.
    let target_lambda = v - mu;
    let honest_parties: Vec<usize> = (t..n).collect();
    let simulated = MockTe::sim_partial_decrypt(
        &mut rng,
        &pk,
        &ct,
        target_lambda,
        &corrupt,
        &honest_parties,
    )
    .unwrap();

    // The combined view decrypts to exactly the right λ, so the
    // client's v = μ + λ comes out to the ideal output.
    let mut all = corrupt.clone();
    all.extend_from_slice(&simulated);
    let opened = MockTe::combine(&pk, &ct, &all).unwrap();
    assert_eq!(opened, target_lambda);
    assert_eq!(mu + opened, v);

    // And the simulated partials can be wrapped as Re-encrypt posts:
    // encrypting them to the client's key yields an opening equal to λ.
    let client = LinearPke::<F61>::keygen(&mut rng);
    let enc_partials: Vec<(usize, yoso_the::mock::Ciphertext<F61>)> = all
        .iter()
        .map(|pd| (pd.party, LinearPke::encrypt(&mut rng, &client.public, pd.value).0))
        .collect();
    // Client-side opening (as in ReencryptedValue::open).
    let subset = &enc_partials[..t + 1];
    let points: Vec<F61> = subset.iter().map(|(p, _)| F61::from_u64(*p as u64 + 1)).collect();
    let w = yoso_field::lagrange::basis_at(&points, F61::ZERO).unwrap();
    let mut s_u = F61::ZERO;
    for ((_, e), &wj) in subset.iter().zip(&w) {
        s_u += wj * (e.v - client.secret.scalar * e.u);
    }
    assert_eq!(ct.v - s_u, target_lambda);
}

#[test]
fn failstops_crashing_after_keydist_still_deal_in_the_online_handover() {
    // The key-distribution committee posts its re-encryptions and its
    // re-share as one message: ⌊nε⌋ members that crash before the
    // multiplications (or the output) have sent both.
    let circuit = generators::inner_product::<F61>(4).unwrap();
    let inputs: Vec<Vec<F61>> =
        vec![(1..=4u64).map(F61::from).collect(), (5..=8u64).map(F61::from).collect()];
    let expect = circuit.evaluate(&inputs).unwrap();
    let params = ProtocolParams::from_gap_failstop(16, 0.2).unwrap();
    assert_eq!(params.failstops, 3);
    for crash_phase in [crash_phases::ONLINE_MULT, crash_phases::ONLINE_OUTPUT] {
        let adv = Adversary::none().with_failstops(params.failstops, crash_phase);
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let run = Engine::new(params, ExecutionConfig::default())
            .run_with_board(&mut rng, &circuit, &inputs, &adv, &board)
            .unwrap();
        assert_eq!(run.outputs, expect);
        let postings = board.postings().unwrap();
        let dealers = |phase: &str| {
            let deals =
                postings.iter().filter(|p| &*p.phase == phase && p.message == Post::TskReshare);
            deals.count()
        };
        assert_eq!(dealers("online/handover"), params.n, "crash phase {crash_phase}");
        let offline_handovers = 1 + 2; // one per mul layer, then Steps 5 and 6
        assert_eq!(dealers("offline/handover"), offline_handovers * params.n);
    }
}
