//! Runtime integration tests: board round semantics, speak-once
//! discipline under committee workflows, and adversary statistics.

use rand::SeedableRng;
use yoso_runtime::{
    sortition, ActiveAttack, Adversary, Behavior, BulletinBoard, Committee, PhaseStats, RoleId,
    SpeakOnce,
};

#[test]
fn rounds_partition_postings() {
    let board: BulletinBoard<u32> = BulletinBoard::new();
    for round in 0..3u64 {
        for i in 0..4 {
            board.post(RoleId::new("c", i), round as u32 * 10 + i as u32, "p", 1, 8).unwrap();
        }
        board.advance_round().unwrap();
    }
    assert_eq!(board.round().unwrap(), 3);
    for round in 0..3u64 {
        let posts = board.postings_in_round(round).unwrap();
        assert_eq!(posts.len(), 4);
        assert!(posts.iter().all(|p| p.round == round));
    }
    assert_eq!(board.len().unwrap(), 12);
}

#[test]
fn committee_tokens_enforce_speak_once_per_role() {
    let committee = Committee::honest("c1", 5);
    let mut tokens = committee.tokens();
    let board: BulletinBoard<&str> = BulletinBoard::new();
    // Every role speaks exactly once.
    for token in &mut tokens {
        let role = token.speak().expect("first message allowed");
        board.post(role, "msg", "p", 1, 8).unwrap();
    }
    // No role can speak again.
    for token in &mut tokens {
        assert!(token.speak().is_err(), "second message must be rejected");
    }
    assert_eq!(board.len().unwrap(), 5);
}

#[test]
fn speak_once_is_per_role_not_per_committee() {
    let mut a = SpeakOnce::new(RoleId::new("c", 0));
    let mut b = SpeakOnce::new(RoleId::new("c", 1));
    assert!(a.speak().is_ok());
    assert!(b.speak().is_ok(), "other roles unaffected");
}

#[test]
fn adversary_sampling_statistics_match_configuration() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let adv = Adversary::active(4, ActiveAttack::Silent)
        .with_failstops(3, 2)
        .with_leaky(2);
    let mut malicious_positions = std::collections::HashSet::new();
    for _ in 0..100 {
        let c = adv.sample_committee(&mut rng, "x", 20);
        assert_eq!(c.corruption_count(), 4);
        assert_eq!(c.crashed_by(2).len(), 3);
        assert_eq!(
            c.behaviors.iter().filter(|b| matches!(b, Behavior::Leaky)).count(),
            2
        );
        for m in c.malicious() {
            malicious_positions.insert(m);
        }
    }
    // Random corruption: over 100 samples nearly every position is hit.
    assert!(malicious_positions.len() >= 15, "positions {malicious_positions:?}");
}

#[test]
fn failstop_participation_boundary() {
    let c = Committee::with_behaviors(
        "x",
        vec![Behavior::FailStop { crash_phase: 3 }, Behavior::Honest],
    );
    assert!(c.behavior(0).participates_at(2));
    assert!(!c.behavior(0).participates_at(3));
    assert!(c.behavior(1).participates_at(u64::MAX));
}

#[test]
fn sortition_committee_size_concentrates() {
    // Realized sizes concentrate around C with sd ≈ sqrt(C).
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let c_param = 5000.0;
    let mut sum = 0f64;
    let mut sq = 0f64;
    let trials = 400;
    for _ in 0..trials {
        let s = sortition::sample_committee(&mut rng, 2_000_000, 0.2, c_param).size as f64;
        sum += s;
        sq += s * s;
    }
    let mean = sum / trials as f64;
    let sd = (sq / trials as f64 - mean * mean).sqrt();
    assert!((mean - c_param).abs() < 30.0, "mean {mean}");
    assert!(sd < 3.0 * c_param.sqrt(), "sd {sd}");
}

#[test]
fn meter_phase_prefixes_aggregate() {
    let board: BulletinBoard<()> = BulletinBoard::new();
    board.post(RoleId::new("a", 0), (), "online/1-keydist", 5, 40).unwrap();
    board.post(RoleId::new("a", 1), (), "online/3-mult", 7, 56).unwrap();
    board.post(RoleId::new("a", 2), (), "offline/1-beaver", 11, 88).unwrap();
    let phases = board.phases().unwrap();
    let prefix = |prefix: &str| {
        let mut acc = PhaseStats::default();
        for (_, s) in phases.iter().filter(|(k, _)| k.starts_with(prefix)) {
            acc.merge(s);
        }
        acc
    };
    assert_eq!(prefix("online").elements, 12);
    assert_eq!(prefix("offline").elements, 11);
    assert_eq!(prefix("").elements, 23);
    assert_eq!(prefix("").bytes, 184);
    assert_eq!(prefix("").messages, 3);
}
