//! Stress tests for the threshold-key custody chain: long handover
//! chains under randomized adversaries, interleaved with decryptions
//! and re-encryptions.

use proptest::prelude::*;
use rand::SeedableRng;
use yoso_core::tsk::TskChain;
use yoso_core::{ExecutionConfig, RolePartition, ShardedBoard};
use yoso_field::{F61, PrimeField};
use yoso_runtime::{ActiveAttack, Adversary, BulletinBoard, Committee, PhaseAccumulator};
use yoso_the::mock::{LinearPke, MockTe, PkeKeyPair};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn custody_survives_adversarial_handover_chains(
        seed in any::<u64>(),
        epochs in 1usize..5,
        attack_idx in 0usize..4,
    ) {
        let attack = [
            ActiveAttack::WrongValue,
            ActiveAttack::BadProof,
            ActiveAttack::Silent,
            ActiveAttack::AdditiveOffset,
        ][attack_idx];
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let (n, t) = (9usize, 3usize);
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let cfg = ExecutionConfig::default();
        let mut chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let adv = Adversary::active(t, attack);

        let m = F61::random(&mut r);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);

        for epoch in 0..epochs {
            // Decrypt under an adversarial committee.
            let dec_committee = adv.sample_committee(&mut r, format!("d{epoch}"), n);
            let got = chain
                .decrypt(&mut r, &sb, &dec_committee, &cfg, "offline/x", &[ct])
                .unwrap();
            prop_assert_eq!(got[0], m);

            // Re-encrypt to a fresh target under the same committee.
            let target = LinearPke::<F61>::keygen(&mut r);
            let vals = chain.reencrypt(
                &mut r, &sb, &dec_committee, &cfg, "offline/x",
                &[(target.public, ct)],
            ).unwrap();
            prop_assert_eq!(vals[0].open(target.secret.scalar).unwrap(), m);

            // Hand over under an adversarial outgoing committee.
            let out_committee = adv.sample_committee(&mut r, format!("h{epoch}"), n);
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..n).map(|_| LinearPke::keygen(&mut r)).collect();
            chain
                .handover(&mut r, &sb, &out_committee, &cfg, "offline/handover", &next_keys)
                .unwrap();
        }

        // Final committee still decrypts.
        let fin = Committee::honest("final", n);
        prop_assert_eq!(
            chain.decrypt(&mut r, &sb, &fin, &cfg, "x", &[ct]).unwrap()[0],
            m
        );
    }

    #[test]
    fn reencryption_openings_bind_to_coefficients(seed in any::<u64>(), m in any::<u64>()) {
        // value == a − sk·b must hold for the canonical coefficients of
        // any re-encrypted value, even with silent providers.
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let m = F61::from_u64(m);
        let (n, t) = (8usize, 2usize);
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let cfg = ExecutionConfig::default();
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let adv = Adversary::active(t, ActiveAttack::Silent);
        let committee = adv.sample_committee(&mut r, "c", n);
        let target = LinearPke::<F61>::keygen(&mut r);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let vals = chain
            .reencrypt(&mut r, &sb, &committee, &cfg, "x", &[(target.public, ct)])
            .unwrap();
        let (a, b) = vals[0].opening_coefficients().unwrap();
        prop_assert_eq!(a - target.secret.scalar * b, m);
        prop_assert_eq!(vals[0].open(target.secret.scalar).unwrap(), m);
    }
}

#[test]
fn starved_chain_reports_not_enough_contributions() {
    // With every member silent, decryption must fail loudly, not hang
    // or return garbage.
    let mut r = rand::rngs::StdRng::seed_from_u64(1);
    let (n, t) = (5usize, 2usize);
    let board = BulletinBoard::new();
    let sb = ShardedBoard::new(&board, RolePartition::solo());
    let cfg = ExecutionConfig::default();
    let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
    let committee = Committee::with_behaviors(
        "dead",
        vec![yoso_runtime::Behavior::Malicious(ActiveAttack::Silent); n],
    );
    let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, F61::ONE);
    let err = chain.decrypt(&mut r, &sb, &committee, &cfg, "x", &[ct]).unwrap_err();
    assert!(matches!(
        err,
        yoso_core::ProtocolError::NotEnoughContributions { .. }
    ));
}

/// A worker view that owns the whole committee lands what the solo
/// view lands: each step's postings wait in the view until `finish`
/// drains them, and none is dropped with a view built per call.
#[test]
fn a_whole_committee_worker_view_lands_the_solo_transcript() {
    let n = 9usize;
    let transcript = |partition: RolePartition| {
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, partition);
        let cfg = ExecutionConfig::default();
        let mut chain = TskChain::<F61>::keygen(&mut r, n, 3).unwrap();
        let committee = Committee::honest("c", n);
        let m = F61::random(&mut r);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        assert_eq!(chain.decrypt(&mut r, &sb, &committee, &cfg, "x", &[ct]).unwrap(), vec![m]);
        let target = LinearPke::<F61>::keygen(&mut r);
        let items = [(target.public, ct)];
        let vals = chain.reencrypt(&mut r, &sb, &committee, &cfg, "x", &items).unwrap();
        assert_eq!(vals[0].open(target.secret.scalar).unwrap(), m);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..n).map(|_| LinearPke::keygen(&mut r)).collect();
        chain.handover(&mut r, &sb, &committee, &cfg, "offline/handover", &next_keys).unwrap();
        sb.finish().unwrap();
        let mut acc = PhaseAccumulator::new();
        acc.finish(&board).unwrap();
        (board.len().unwrap(), acc.transcript_hash())
    };
    let solo = transcript(RolePartition::solo());
    assert_eq!(solo.0, 3 * n, "one posting per member and step");
    assert_eq!(transcript(RolePartition::range(0, n)), solo);
}
