//! The per-phase tables of the CDN baseline and of the
//! information-theoretic engine, pinned for fixed seeds: how either
//! engine reaches its board may change, what lands on it may not.

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::baseline::BaselineEngine;
use yoso_core::itbgw::{simd_workload, ItEngine, LaneOp, LaneProgram};
use yoso_core::{ExecutionConfig, ProtocolParams};
use yoso_field::{PrimeField, F61};
use yoso_runtime::{ActiveAttack, Adversary, PhaseStats};

/// `phase elements bytes messages` per row, rows joined by `, `.
fn table(phases: &[(String, PhaseStats)]) -> String {
    let row = |(phase, s): &(String, PhaseStats)| {
        format!("{phase} {} {} {}", s.elements, s.bytes, s.messages)
    };
    phases.iter().map(row).collect::<Vec<_>>().join(", ")
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn baseline_phase_tables_are_pinned() {
    let circuit = generators::poly_eval::<F61>(3).unwrap();
    let inputs = vec![vec![F61::from(2u64)], (1..=4u64).map(F61::from).collect()];
    let all_speak = "offline/1-beaver 360 2880 18, online/handover 1026 8208 18, \
        online/input 30 240 5, online/mult 135 1080 27, online/output 63 504 9";
    let two_silent = "offline/1-beaver 280 2240 14, online/handover 798 6384 14, \
        online/input 30 240 5, online/mult 105 840 21, online/output 49 392 7";
    let cases = [
        (ExecutionConfig::default(), Adversary::none(), all_speak),
        (ExecutionConfig::default(), Adversary::active(2, ActiveAttack::Silent), two_silent),
        (ExecutionConfig::sweep(), Adversary::active(3, ActiveAttack::WrongValue), all_speak),
    ];
    for (i, (cfg, adversary, pin)) in cases.into_iter().enumerate() {
        let engine = BaselineEngine::new(ProtocolParams::new(9, 3, 1).unwrap(), cfg);
        let run = engine.run(&mut rng(90 + i as u64), &circuit, &inputs, &adversary).unwrap();
        assert_eq!(run.outputs, circuit.evaluate(&inputs).unwrap());
        assert_eq!(table(&run.phases), pin, "case {i}");
    }
}

#[test]
fn it_phase_tables_are_pinned() {
    let sum_lanes = LaneProgram {
        k: 3,
        ops: vec![
            LaneOp::Input { client: 0 },
            LaneOp::Input { client: 1 },
            LaneOp::Mul(0, 1),
            LaneOp::SumLanes(2),
            LaneOp::Output(3, 0),
        ],
    };
    let cases = [
        (
            ProtocolParams::new(12, 2, 3).unwrap(),
            simd_workload(3, 2),
            "it/input 48 384 4, it/output 24 192 2, it/reshare 720 5760 60",
        ),
        (
            ProtocolParams::new(14, 2, 3).unwrap(),
            sum_lanes,
            "it/input 28 224 2, it/output 14 112 1, it/reshare 392 3136 28",
        ),
    ];
    for (i, (params, program, pin)) in cases.into_iter().enumerate() {
        let mut r = rng(70 + i as u64);
        let inputs: Vec<Vec<Vec<F61>>> = (0..program.clients())
            .map(|_| (0..2).map(|_| (0..3).map(|_| F61::random(&mut r)).collect()).collect())
            .collect();
        let run = ItEngine::new(params).unwrap().run(&mut r, &program, &inputs).unwrap();
        assert_eq!(run.outputs, program.evaluate(&inputs).unwrap());
        assert_eq!(table(&run.phases), pin, "case {i}");
    }
}
