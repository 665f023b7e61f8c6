//! Transport parity: for a fixed seed, every board posting, output
//! and `μ` value is byte-identical whichever backend carries the board.
//! Thread-count independence is pinned inside `yoso-core`, where a test
//! can force the workers a step fans out over.

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::messages::Post;
use yoso_core::offline::run_offline;
use yoso_core::online::run_online;
use yoso_core::setup::run_setup;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams, RolePartition, ShardedBoard};
use yoso_field::F61;
use yoso_runtime::{Adversary, BulletinBoard, LeakLog};

fn f(v: u64) -> F61 {
    F61::from(v)
}

/// Runs the full pipeline on its own board: the complete posting log
/// as a string (round, author, message for every post), the outputs,
/// `μ`, and the log sliced by phase label.
fn run_sliced_by_phase(
    params: ProtocolParams,
    adversary: &Adversary,
) -> (String, Vec<Vec<F61>>, Vec<F61>, std::collections::BTreeMap<String, String>) {
    let board: BulletinBoard<Post> = BulletinBoard::new();
    run_sliced_by_phase_on(params, adversary, &board)
}

/// Like [`run_sliced_by_phase`] but over a caller-supplied (possibly
/// remote) board, so the same pipeline can be driven over any
/// transport backend.
fn run_sliced_by_phase_on(
    params: ProtocolParams,
    adversary: &Adversary,
    board: &BulletinBoard<Post>,
) -> (String, Vec<Vec<F61>>, Vec<F61>, std::collections::BTreeMap<String, String>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let cfg = ExecutionConfig::default();
    let width = 2 * params.k;
    let circuit = generators::inner_product::<F61>(width).unwrap();
    let inputs: Vec<Vec<F61>> = vec![
        (1..=width as u64).map(f).collect(),
        (10..10 + width as u64).map(f).collect(),
    ];
    let bc = circuit.batched(params.k);
    let leak = LeakLog::new();
    let mut setup =
        run_setup::<F61, _>(&mut rng, &params, board, circuit.mul_depth(), circuit.clients())
            .unwrap();
    setup.tsk.set_leak_log(leak.clone());
    let sb = ShardedBoard::new(board, RolePartition::solo());
    let offline = run_offline(&mut rng, &params, &sb, adversary, &cfg, &bc, &setup).unwrap();
    let online = run_online(
        &mut rng, &params, &sb, adversary, &cfg, &bc, &setup, offline, &inputs, &leak,
    )
    .unwrap();
    let mut transcript = String::new();
    let mut by_phase = std::collections::BTreeMap::<String, String>::new();
    for p in board.postings().unwrap() {
        let line = format!("{}|{}|{}|{:?}\n", p.round, p.from, p.phase, p.message);
        transcript.push_str(&line);
        by_phase.entry(p.phase.to_string()).or_default().push_str(&line);
    }
    (transcript, online.outputs, online.mu, by_phase)
}

#[test]
fn transport_parity_tcp_transcript_byte_identical() {
    // The guarantee of the pluggable transport: the full
    // offline+online pipeline over a loopback-TCP board server must
    // produce a transcript byte-identical to the in-process backend.
    // Server-side sequencing preserves the driver's posting order, and
    // the WireMessage codec round-trips every Post variant, so nothing
    // may differ — not postings, not outputs, not μ values.
    let adv = Adversary::none();
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let (local, out_local, mu_local, phases_local) = run_sliced_by_phase(params, &adv);
    assert!(!local.is_empty());
    let (mut handle, board) = yoso_runtime::tcp::loopback::<Post>().expect("loopback server");
    assert_eq!(board.backend_name(), "loopback-tcp");
    let (remote, out_remote, mu_remote, phases_remote) =
        run_sliced_by_phase_on(params, &adv, &board);
    handle.shutdown();
    assert_eq!(local, remote, "TCP transcript must be byte-identical to in-process");
    assert_eq!(out_local, out_remote);
    assert_eq!(mu_local, mu_remote);
    assert_eq!(phases_local, phases_remote);
}

#[test]
fn transport_parity_engine_over_tcp_backend() {
    // The same parity through the public Engine API: configure the run
    // with BoardBackend::Tcp and compare against the default backend.
    let circuit = generators::inner_product::<F61>(4).unwrap();
    let x: Vec<F61> = (1..=4u64).map(f).collect();
    let y: Vec<F61> = (5..=8u64).map(f).collect();
    let params = ProtocolParams::new(8, 1, 2).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let local = Engine::new(params, ExecutionConfig::default())
        .run(&mut rng, &circuit, &[x.clone(), y.clone()], &Adversary::none())
        .unwrap();

    let server =
        yoso_runtime::BoardServer::bind(std::net::SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
    let mut handle = server.spawn().unwrap();
    let cfg = ExecutionConfig::default().with_board(yoso_core::BoardBackend::Tcp(handle.addr()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let remote = Engine::new(params, cfg)
        .run(&mut rng, &circuit, &[x, y], &Adversary::none())
        .unwrap();
    handle.shutdown();

    assert_eq!(local.outputs, remote.outputs);
    assert_eq!(local.mu, remote.mu);
    assert_eq!(local.rounds, remote.rounds);
    assert_eq!(local.phases, remote.phases);
}
