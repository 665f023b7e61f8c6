//! Real NIZK verification and the proofs-off shortcut (validity decided
//! by behaviour tags) must accept exactly the same contributions: with
//! the full `t` malicious roles **plus** `⌊nε⌋` fail-stops in every
//! committee, a run with `produce_proofs = false` is the run with
//! proofs on, minus the proving work.

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::{crash_phases, Engine, ExecutionConfig, ProtocolParams, RunResult};
use yoso_field::{PrimeField, F61};
use yoso_runtime::{ActiveAttack, Adversary};
use yoso_the::mock::{LinearPke, MockTe};
use yoso_the::nizk::{self, EncProof, PdecProof, ReshareProof, ShareProof};

const EPS: f64 = 0.25;

fn run(
    params: ProtocolParams,
    adversary: &Adversary,
    produce_proofs: bool,
) -> (RunResult<F61>, Vec<Vec<F61>>) {
    let circuit = generators::wide_layered::<F61>(2 * params.k, 2, 2).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1414);
    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut rng)).collect())
        .collect();
    let expect = circuit.evaluate(&inputs).unwrap();
    let config = ExecutionConfig { produce_proofs, ..ExecutionConfig::default() };
    let result = Engine::new(params, config).run(&mut rng, &circuit, &inputs, adversary).unwrap();
    (result, expect)
}

#[test]
fn proofs_on_and_off_accept_the_same_contributions() {
    for n in [16usize, 24] {
        let params = ProtocolParams::from_gap_failstop(n, EPS).unwrap();
        assert!(params.t > 0 && params.failstops > 0);
        // `BadProof` posts the *right* value under a garbage proof: were
        // one accepted, outputs would still be right, but the accepted
        // set — and with it every μ — would move.
        for attack in [ActiveAttack::WrongValue, ActiveAttack::BadProof] {
            let adversary = Adversary::active(params.t, attack)
                .with_failstops(params.failstops, crash_phases::ONLINE_MULT);
            let (proved, expect) = run(params, &adversary, true);
            let (tagged, _) = run(params, &adversary, false);
            assert_eq!(proved.outputs, expect, "n = {n}, {attack:?}, proofs on");
            assert_eq!(tagged.outputs, expect, "n = {n}, {attack:?}, proofs off");
            assert_eq!(proved.mu, tagged.mu, "n = {n}, {attack:?}");
            assert_eq!(proved.rounds, tagged.rounds, "n = {n}, {attack:?}");
            assert_eq!(proved.phases, tagged.phases, "n = {n}, {attack:?}");
        }
    }
}

/// The four `garbage` proofs the malicious roles above post, against
/// honest statements of the same committee shapes.
#[test]
fn every_garbage_proof_is_rejected() {
    for n in [16usize, 24] {
        let t = ProtocolParams::from_gap_failstop(n, EPS).unwrap().t;
        let mut r = rand::rngs::StdRng::seed_from_u64(n as u64);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, F61::from(9u64));
        let kff = LinearPke::<F61>::keygen(&mut r);
        let recipient_pks: Vec<_> =
            (0..n).map(|_| LinearPke::<F61>::keygen(&mut r).public).collect();
        let msg = MockTe::reshare(&mut r, &pk, &shares[0]);
        let enc_subshares: Vec<_> = msg
            .subshares
            .iter()
            .zip(&recipient_pks)
            .map(|(&sub, rpk)| LinearPke::encrypt(&mut r, rpk, sub).0)
            .collect();
        let d = MockTe::partial_decrypt(&shares[0], &ct).value;
        let (slope, offset) = (F61::from(17u64), F61::from(1000u64));
        let published = offset - kff.secret.scalar * slope;
        for _ in 0..32 {
            assert!(!nizk::verify_enc_proof(&pk, &ct, &EncProof::garbage(&mut r)));
            assert!(!nizk::verify_pdec_proof(&pk, &ct, 0, d, &PdecProof::garbage(&mut r)));
            assert!(!nizk::verify_share_proof(
                &kff.public,
                slope,
                offset,
                published,
                &ShareProof::garbage(&mut r)
            ));
            assert!(!nizk::verify_reshare_proof(
                &pk,
                0,
                &msg.commitments,
                &recipient_pks,
                &enc_subshares,
                &ReshareProof::garbage(&mut r, n, t)
            ));
        }
    }
}
