//! The parallel engine must be a pure wall-clock optimization: for a
//! fixed seed, every board posting, output and leak record must be
//! byte-identical whatever `num_threads` is.

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::messages::Post;
use yoso_core::offline::run_offline;
use yoso_core::online::run_online;
use yoso_core::setup::run_setup;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_field::F61;
use yoso_runtime::{ActiveAttack, Adversary, BulletinBoard, LeakLog};

fn f(v: u64) -> F61 {
    F61::from(v)
}

/// Runs the full pipeline on its own board and renders the complete
/// posting log as a string (round, author, message for every post).
fn run_transcript(
    num_threads: usize,
    adversary: &Adversary,
) -> (String, Vec<Vec<F61>>, Vec<F61>) {
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let (transcript, outputs, mu, _) = run_transcript_phases(params, num_threads, adversary);
    (transcript, outputs, mu)
}

/// Like [`run_transcript`] but additionally returns the posting log
/// sliced by phase label, so individual pipeline steps can be checked
/// for thread-count independence in isolation.
fn run_transcript_phases(
    params: ProtocolParams,
    num_threads: usize,
    adversary: &Adversary,
) -> (String, Vec<Vec<F61>>, Vec<F61>, std::collections::BTreeMap<String, String>) {
    let board: BulletinBoard<Post> = BulletinBoard::new();
    run_transcript_phases_on(params, num_threads, adversary, &board)
}

/// Like [`run_transcript_phases`] but over a caller-supplied (possibly
/// remote) board, so the same pipeline can be driven over any
/// transport backend.
fn run_transcript_phases_on(
    params: ProtocolParams,
    num_threads: usize,
    adversary: &Adversary,
    board: &BulletinBoard<Post>,
) -> (String, Vec<Vec<F61>>, Vec<F61>, std::collections::BTreeMap<String, String>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let cfg = ExecutionConfig::default().with_threads(num_threads);
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
    let offline =
        run_offline(&mut rng, &params, board, adversary, &cfg, &bc, &setup).unwrap();
    let online = run_online(
        &mut rng, &params, board, adversary, &cfg, &bc, &setup, offline, &inputs, &leak,
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
fn transcript_identical_across_thread_counts_honest() {
    let adv = Adversary::none();
    let (t1, out1, mu1) = run_transcript(1, &adv);
    assert!(!t1.is_empty());
    for threads in [2, 4, 8] {
        let (tn, outn, mun) = run_transcript(threads, &adv);
        assert_eq!(t1, tn, "posting log must not depend on num_threads={threads}");
        assert_eq!(out1, outn);
        assert_eq!(mu1, mun);
    }
}

#[test]
fn reenc_shares_phase_transcript_identical_across_thread_counts() {
    // `offline/6-reenc-shares` is the widest re-encryption fan-out in
    // the offline pipeline (one item per mul-gate share vector), so it
    // is the phase most likely to expose scheduling-dependent posting
    // order. Slice the log down to exactly that phase and require the
    // slice to be byte-identical at 1, 2 and 8 worker threads.
    const PHASE: &str = "offline/6-reenc-shares";
    let adv = Adversary::none();
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let (_, _, _, phases1) = run_transcript_phases(params, 1, &adv);
    let slice1 = phases1.get(PHASE).expect("phase must appear in the posting log");
    assert!(
        slice1.lines().count() > 1,
        "{PHASE} must carry real fan-out traffic, got:\n{slice1}"
    );
    for threads in [2, 8] {
        let (_, _, _, phasesn) = run_transcript_phases(params, threads, &adv);
        let slicen = phasesn.get(PHASE).expect("phase must appear in the posting log");
        assert_eq!(
            slice1, slicen,
            "{PHASE} posting log must not depend on num_threads={threads}"
        );
    }
}

#[test]
fn every_phase_transcript_identical_across_thread_counts() {
    // The full offline+online posting log, sliced per phase label, must
    // be byte-identical at 1, 2 and 8 worker threads — not just the
    // 6-reenc-shares slice. This pins every parallelized step at once:
    // Beaver fan-out, all four re-encryption phases (offline input and
    // share packing, the online KFF key distribution hand-off, and the
    // output phase), and the per-member online share computation.
    const REENC_PHASES: [&str; 4] = [
        "offline/5-reenc-inputs",
        "offline/6-reenc-shares",
        "online/1-keydist",
        "online/4-output",
    ];
    let adv = Adversary::none();
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let (_, _, _, phases1) = run_transcript_phases(params, 1, &adv);
    for phase in REENC_PHASES {
        let slice = phases1.get(phase).expect("re-encryption phase must appear in the log");
        assert!(
            slice.lines().count() > 1,
            "{phase} must carry real re-encryption traffic, got:\n{slice}"
        );
    }
    for threads in [2, 8] {
        let (_, _, _, phasesn) = run_transcript_phases(params, threads, &adv);
        assert_eq!(
            phases1.keys().collect::<Vec<_>>(),
            phasesn.keys().collect::<Vec<_>>(),
            "phase set must not depend on num_threads={threads}"
        );
        for (phase, slice1) in &phases1 {
            assert_eq!(
                slice1,
                &phasesn[phase],
                "{phase} posting log must not depend on num_threads={threads}"
            );
        }
    }
}

#[test]
fn transcript_identical_across_thread_counts_subgroup_layout() {
    // The NTT fast paths (subgroup point layout) must stay a pure
    // wall-clock optimization too: with the transform plan active in
    // every scheme the pipeline builds, the complete posting log,
    // outputs and μ values must be byte-identical at 1, 2 and 8
    // threads — and identical to each other per phase slice.
    let adv = Adversary::none();
    let params = ProtocolParams::new(14, 2, 4)
        .unwrap()
        .with_layout(yoso_core::PointLayout::Subgroup);
    let (t1, out1, mu1, _) = run_transcript_phases(params, 1, &adv);
    assert!(!t1.is_empty());
    for threads in [2, 8] {
        let (tn, outn, mun, _) = run_transcript_phases(params, threads, &adv);
        assert_eq!(t1, tn, "subgroup-layout log must not depend on num_threads={threads}");
        assert_eq!(out1, outn);
        assert_eq!(mu1, mun);
    }
}

#[test]
fn transcript_identical_across_thread_counts_adversarial() {
    // Malicious and leaky members exercise the buffered leak-record
    // and garbage-proof paths.
    let adv = Adversary::active(2, ActiveAttack::WrongValue);
    let (t1, out1, _) = run_transcript(1, &adv);
    let (t4, out4, _) = run_transcript(4, &adv);
    assert_eq!(t1, t4);
    assert_eq!(out1, out4);
}

#[test]
fn parallel_engine_matches_cleartext_evaluation() {
    let circuit = generators::inner_product::<F61>(5).unwrap();
    let x: Vec<F61> = (1..=5u64).map(f).collect();
    let y: Vec<F61> = (7..12u64).map(f).collect();
    let expect = circuit.evaluate(&[x.clone(), y.clone()]).unwrap();
    let engine = Engine::new(
        ProtocolParams::new(10, 2, 3).unwrap(),
        ExecutionConfig::default().with_threads(4),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let run = engine.run(&mut rng, &circuit, &[x, y], &Adversary::none()).unwrap();
    assert_eq!(run.outputs, expect);
}

#[test]
fn engine_results_identical_across_thread_counts() {
    let circuit = generators::inner_product::<F61>(4).unwrap();
    let x: Vec<F61> = (1..=4u64).map(f).collect();
    let y: Vec<F61> = (5..=8u64).map(f).collect();
    let params = ProtocolParams::new(8, 1, 2).unwrap();
    let mut runs = Vec::new();
    for threads in [1usize, 3] {
        let engine = Engine::new(params, ExecutionConfig::default().with_threads(threads));
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let run = engine.run(&mut rng, &circuit, &[x.clone(), y.clone()], &Adversary::none())
            .unwrap();
        runs.push((run.outputs, run.mu, run.rounds, run.phases));
    }
    assert_eq!(runs[0].0, runs[1].0);
    assert_eq!(runs[0].1, runs[1].1);
    assert_eq!(runs[0].2, runs[1].2);
    // Identical per-phase communication metering, entry for entry.
    let stats = |phases: &[(String, yoso_runtime::PhaseStats)]| {
        phases
            .iter()
            .map(|(k, s)| format!("{k}:{}e/{}b/{}m", s.elements, s.bytes, s.messages))
            .collect::<Vec<_>>()
    };
    assert_eq!(stats(&runs[0].3), stats(&runs[1].3));
}

#[test]
fn transport_parity_tcp_transcript_byte_identical() {
    // The tentpole guarantee of the pluggable transport: the full
    // offline+online pipeline over a loopback-TCP board server must
    // produce a transcript byte-identical to the in-process backend,
    // at every thread count. Server-side sequencing preserves the
    // driver's posting order, and the WireMessage codec round-trips
    // every Post variant, so nothing may differ — not postings, not
    // outputs, not μ values.
    let adv = Adversary::none();
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let (local, out_local, mu_local, phases_local) = run_transcript_phases(params, 1, &adv);
    assert!(!local.is_empty());
    for threads in [1usize, 2, 8] {
        let (mut handle, board) =
            yoso_runtime::tcp::loopback::<Post>().expect("loopback server");
        assert_eq!(board.backend_name(), "loopback-tcp");
        let (remote, out_remote, mu_remote, phases_remote) =
            run_transcript_phases_on(params, threads, &adv, &board);
        handle.shutdown();
        assert_eq!(
            local, remote,
            "TCP transcript must be byte-identical to in-process at num_threads={threads}"
        );
        assert_eq!(out_local, out_remote);
        assert_eq!(mu_local, mu_remote);
        assert_eq!(phases_local, phases_remote);
    }
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
    let cfg = ExecutionConfig::default()
        .with_board(yoso_core::BoardBackend::Tcp(handle.addr()))
        .with_threads(2);
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
