//! Role-sharded worker parity: for a fixed seed, N workers splitting
//! the committee roles over one shared board must produce a transcript
//! byte-identical to the single-process run — same postings, same
//! outputs, same μ values, same per-phase metering — for even and
//! uneven role splits, including workers that own zero roles.

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::messages::Post;
use yoso_core::{
    Engine, ExecutionConfig, ProtocolError, ProtocolParams, RolePartition, RunResult,
};
use yoso_field::{PrimeField, F61};
use yoso_runtime::{
    ActiveAttack, Adversary, BoardError, BoardTransport, BulletinBoard, InProcessTransport,
    PostRecord, PostRun, Posting, RoleId,
};

fn f(v: u64) -> F61 {
    F61::from(v)
}

const SEED: u64 = 4242;

fn workload(params: ProtocolParams) -> (yoso_circuit::Circuit<F61>, Vec<Vec<F61>>) {
    let width = 2 * params.k;
    let circuit = generators::inner_product::<F61>(width).unwrap();
    let inputs: Vec<Vec<F61>> = vec![
        (1..=width as u64).map(f).collect(),
        (10..10 + width as u64).map(f).collect(),
    ];
    (circuit, inputs)
}

/// Renders the complete posting log in the canonical line format used
/// across the determinism suites.
fn render(board: &BulletinBoard<Post>) -> String {
    let mut transcript = String::new();
    for p in board.postings().unwrap() {
        transcript.push_str(&format!("{}|{}|{}|{:?}\n", p.round, p.from, p.phase, p.message));
    }
    transcript
}

/// The single-process reference run.
fn solo_run(params: ProtocolParams, adversary: &Adversary) -> (String, RunResult<F61>) {
    solo_run_with(params, adversary, ExecutionConfig::default())
}

fn solo_run_with(
    params: ProtocolParams,
    adversary: &Adversary,
    cfg: ExecutionConfig,
) -> (String, RunResult<F61>) {
    let (circuit, inputs) = workload(params);
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let run = Engine::new(params, cfg)
        .run_with_board(&mut rng, &circuit, &inputs, adversary, &board)
        .unwrap();
    (render(&board), run)
}

/// Runs `workers` in-process simulated workers: one thread per worker,
/// all sharing a cloned handle to the same board, each seeded with the
/// same root seed and owning its canonical contiguous role range.
fn sharded_run(
    params: ProtocolParams,
    workers: usize,
    adversary: &Adversary,
) -> (String, Vec<RunResult<F61>>) {
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let partitions: Vec<RolePartition> =
        (0..workers).map(|w| params.worker_role_range(w, workers)).collect();
    let runs = sharded_run_on(&board, params, &partitions, adversary);
    (render(&board), runs)
}

/// One worker thread per partition, on a caller-supplied (fresh) board.
fn sharded_run_on(
    board: &BulletinBoard<Post>,
    params: ProtocolParams,
    partitions: &[RolePartition],
    adversary: &Adversary,
) -> Vec<RunResult<F61>> {
    sharded_run_on_with(board, params, partitions, adversary, ExecutionConfig::default())
}

fn sharded_run_on_with(
    board: &BulletinBoard<Post>,
    params: ProtocolParams,
    partitions: &[RolePartition],
    adversary: &Adversary,
    cfg: ExecutionConfig,
) -> Vec<RunResult<F61>> {
    let (circuit, inputs) = workload(params);
    std::thread::scope(|s| {
        let handles: Vec<_> = partitions
            .iter()
            .map(|&partition| {
                let board = board.clone();
                let circuit = &circuit;
                let inputs = &inputs;
                s.spawn(move || {
                    let cfg = cfg.with_partition(partition);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
                    Engine::new(params, cfg)
                        .run_with_board(&mut rng, circuit, inputs, adversary, &board)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The in-process transport with its calls counted: whole-log reads
/// (`read_from(0)`, `for_each`) apart from round-scoped ones, and
/// record-level posting calls apart from run-level ones.
#[derive(Default)]
struct CountingTransport {
    inner: InProcessTransport<Post>,
    whole_log_reads: std::sync::atomic::AtomicUsize,
    round_reads: std::sync::atomic::AtomicUsize,
    /// `post_batch` / `post_stream` / `post_slice` calls.
    record_calls: std::sync::atomic::AtomicUsize,
    run_calls: std::sync::atomic::AtomicUsize,
    /// Postings that arrived through `post_run`.
    run_posts: std::sync::atomic::AtomicUsize,
}

impl CountingTransport {
    fn bump(counter: &std::sync::atomic::AtomicUsize) {
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// A board over a fresh counting transport, and the transport.
    fn board() -> (BulletinBoard<Post>, std::sync::Arc<CountingTransport>) {
        let transport = std::sync::Arc::new(CountingTransport::default());
        let board = BulletinBoard::with_transport(
            std::sync::Arc::clone(&transport) as std::sync::Arc<dyn BoardTransport<Post>>
        );
        (board, transport)
    }
}

fn load(counter: &std::sync::atomic::AtomicUsize) -> usize {
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

impl BoardTransport<Post> for CountingTransport {
    fn post_batch(&self, records: Vec<PostRecord<Post>>) -> Result<(), BoardError> {
        Self::bump(&self.record_calls);
        self.inner.post_batch(records)
    }
    fn post_stream(
        &self,
        records: &mut dyn Iterator<Item = PostRecord<Post>>,
    ) -> Result<u64, BoardError> {
        Self::bump(&self.record_calls);
        self.inner.post_stream(records)
    }
    fn post_run(&self, runs: &[PostRun<'_, Post>]) -> Result<(), BoardError> {
        Self::bump(&self.run_calls);
        let posts = runs.iter().map(|run| run.members.len()).sum();
        self.run_posts.fetch_add(posts, std::sync::atomic::Ordering::Relaxed);
        self.inner.post_run(runs)
    }
    fn post_slice(
        &self,
        from: &RoleId,
        phase: &std::sync::Arc<str>,
        messages: &[Post],
        elements: u64,
        bytes: u64,
    ) -> Result<(), BoardError> {
        Self::bump(&self.record_calls);
        self.inner.post_slice(from, phase, messages, elements, bytes)
    }
    fn advance_round(&self) -> Result<u64, BoardError> {
        self.inner.advance_round()
    }
    fn round(&self) -> Result<u64, BoardError> {
        self.inner.round()
    }
    fn len(&self) -> Result<usize, BoardError> {
        self.inner.len()
    }
    fn read_round(&self, round: u64) -> Result<Vec<Posting<Post>>, BoardError> {
        Self::bump(&self.round_reads);
        self.inner.read_round(round)
    }
    fn read_from(&self, cursor: usize) -> Result<Vec<Posting<Post>>, BoardError> {
        if cursor == 0 {
            Self::bump(&self.whole_log_reads);
        }
        self.inner.read_from(cursor)
    }
    fn for_each(&self, f: &mut dyn FnMut(&Posting<Post>)) -> Result<(), BoardError> {
        Self::bump(&self.whole_log_reads);
        self.inner.for_each(f)
    }
    fn for_each_in_round(
        &self,
        round: u64,
        f: &mut dyn FnMut(&Posting<Post>),
    ) -> Result<(), BoardError> {
        Self::bump(&self.round_reads);
        self.inner.for_each_in_round(round, f)
    }
    fn backend_name(&self) -> &'static str {
        "counting"
    }
}

#[test]
fn workers_rebuild_phase_stats_round_by_round() {
    // Every worker's `phases` covers the shared transcript, not only
    // its own posts. Through a wrapper that does not forward `phases`
    // it is the trait's posting fold — one round per read, never one
    // whole-log snapshot (over TCP that snapshot is a single frame that
    // outgrows the frame cap at large n).
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let adv = Adversary::none();
    let (_, solo) = solo_run(params, &adv);
    let (board, transport) = CountingTransport::board();
    let partitions = [params.worker_role_range(0, 2), params.worker_role_range(1, 2)];
    let runs = sharded_run_on(&board, params, &partitions, &adv);
    for run in &runs {
        assert_eq!(solo.phases, run.phases);
    }
    assert_eq!(load(&transport.whole_log_reads), 0);
    // Each worker reads rounds 0..=rounds once.
    assert_eq!(load(&transport.round_reads) as u64, 2 * (solo.rounds + 1));
}

#[test]
fn member_posts_reach_the_transport_as_whole_committee_steps() {
    // A solo execution speaks to the transport in runs: the only
    // record-level calls left are the dealer's and the clients' single
    // posts, and no run call carries less than one committee step.
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let (circuit, inputs) = workload(params);
    let (board, transport) = CountingTransport::board();
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    Engine::new(params, ExecutionConfig::default())
        .run_with_board(&mut rng, &circuit, &inputs, &Adversary::none(), &board)
        .unwrap();
    let (reference, _) = solo_run(params, &Adversary::none());
    assert_eq!(render(&board), reference);

    let postings = board.postings().unwrap();
    let single = |p: &&Posting<Post>| matches!(&*p.from.committee, "setup" | "client");
    let singles = postings.iter().filter(single).count();
    assert!(singles > 0);
    assert_eq!(load(&transport.record_calls), singles);
    assert_eq!(load(&transport.run_posts), postings.len() - singles);
    let run_calls = load(&transport.run_calls);
    assert!(run_calls > 0);
    assert!(
        load(&transport.run_posts) >= params.n * run_calls,
        "{run_calls} run calls for {} member posts",
        load(&transport.run_posts)
    );
}

#[test]
fn a_range_inside_the_committee_splits_each_step_in_three() {
    // Worker 1 owns members 3..7 of 10: every committee step reaches
    // its buffer as a non-owned, an owned and a non-owned run. Worker 3
    // owns nothing at all. The board must not be able to tell.
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let adv = Adversary::none();
    let (solo_log, solo) = solo_run(params, &adv);
    let partitions = [
        RolePartition::range(0, 3),
        RolePartition::range(3, 7),
        RolePartition::range(7, 10),
        RolePartition::range(10, 10),
    ];
    let (board, transport) = CountingTransport::board();
    let runs = sharded_run_on(&board, params, &partitions, &adv);
    assert_eq!(render(&board), solo_log);
    for run in &runs {
        assert_eq!((&solo.outputs, &solo.phases), (&run.outputs, &run.phases));
    }
    // Pending posts are drained as runs: nothing went record by record.
    assert_eq!(load(&transport.record_calls), 0);
    assert_eq!(load(&transport.run_posts), board.len().unwrap());
}

#[test]
fn sharded_transcript_byte_identical_to_solo() {
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let adv = Adversary::none();
    let (solo_log, solo) = solo_run(params, &adv);
    assert!(!solo_log.is_empty());
    for workers in [2usize, 4, 8] {
        let (log, runs) = sharded_run(params, workers, &adv);
        assert_eq!(
            solo_log, log,
            "{workers}-worker transcript must be byte-identical to single-process"
        );
        for (w, run) in runs.iter().enumerate() {
            assert_eq!(solo.outputs, run.outputs, "worker {w}/{workers} outputs");
            assert_eq!(solo.mu, run.mu, "worker {w}/{workers} mu");
            assert_eq!(solo.rounds, run.rounds, "worker {w}/{workers} rounds");
            // Every worker rebuilds full-run metering from the shared
            // log, so all workers agree with the solo meter.
            assert_eq!(solo.phases, run.phases, "worker {w}/{workers} phases");
        }
    }
}

#[test]
fn uneven_role_ranges_still_agree() {
    // n = 10 does not divide by 4: ranges are 2/3/2/3 wide. n = 10
    // with 8 workers mixes 1- and 2-wide ranges.
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    for workers in [4usize, 8] {
        let sizes: Vec<usize> = (0..workers)
            .map(|w| {
                let p = params.worker_role_range(w, workers);
                p.hi() - p.lo()
            })
            .collect();
        assert!(
            sizes.iter().any(|&s| s != sizes[0]),
            "split {workers} of n=10 should be uneven, got {sizes:?}"
        );
    }
    let adv = Adversary::none();
    let (solo_log, _) = solo_run(params, &adv);
    let (log, _) = sharded_run(params, 4, &adv);
    assert_eq!(solo_log, log);
}

#[test]
fn zero_role_worker_participates_without_posting() {
    // 12 workers over n = 10 roles: worker 0 owns the empty range
    // [0, 0) (and is *not* the leader — worker 1 owning [0, 1) is).
    // The run must still converge with the identical transcript.
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let empty = params.worker_role_range(0, 12);
    assert_eq!((empty.lo(), empty.hi()), (0, 0));
    assert!(!empty.is_leader());
    assert!(params.worker_role_range(1, 12).is_leader());
    let adv = Adversary::none();
    let (solo_log, solo) = solo_run(params, &adv);
    let (log, runs) = sharded_run(params, 12, &adv);
    assert_eq!(solo_log, log);
    // The zero-role worker still recovers the full result set.
    assert_eq!(solo.outputs, runs[0].outputs);
    assert_eq!(solo.mu, runs[0].mu);
}

/// One row per kind of member turn the committee steps take: honest,
/// each active attack, fail-stops crashing before the offline phase and
/// before the online multiplications, the full `t` + `⌊nε⌋` budget, and
/// the dealer-free setup. `mu_sha256` is the SHA-256 of the run's
/// `RunResult::mu` (each element's 8 canonical bytes, wire order), taken
/// at the commit before the member loops moved into `core::step`:
/// transcript hashes bind sizes and order only, `mu` depends on every
/// mask drawn, so a reordered or skipped draw anywhere offline moves it.
struct Case {
    name: &'static str,
    adversary: Adversary,
    cfg: ExecutionConfig,
    mu_sha256: &'static str,
}

/// n = 24, ε = 0.25 in the §5.4 shape: t = 5, k = 4, 6 fail-stops. At
/// this size `offline/6-reenc-shares` has 72 items a batch, enough for
/// `par_map` to leave the caller's thread at 2 and 8 threads.
fn case_params() -> ProtocolParams {
    ProtocolParams::from_gap_failstop(24, 0.25).unwrap()
}

fn cases() -> Vec<Case> {
    use yoso_core::crash_phases::{OFFLINE, ONLINE_MULT};
    let p = case_params();
    let proved = ExecutionConfig::default();
    let case = |name, adversary, cfg, mu_sha256| Case { name, adversary, cfg, mu_sha256 };
    // Rows whose members act alike throughout the offline phase share
    // a hash: a posting that is filtered contributes to no mask.
    const ALL_VALID: &str = "e2cfd5a860a8474689b2265d762bac82adf8530b905c59564a5c84cfd9e76d39";
    const T_FILTERED: &str = "a17dcd1fdd588f88425fb904ab902051d31682375fd4e99a4bce36206f1af7a0";
    let active = |attack| Adversary::active(p.t, attack);
    vec![
        case("none", Adversary::none(), proved, ALL_VALID),
        case("wrong-value", active(ActiveAttack::WrongValue), proved, T_FILTERED),
        case("bad-proof", active(ActiveAttack::BadProof), proved, T_FILTERED),
        case(
            "silent",
            active(ActiveAttack::Silent),
            proved,
            "8f5dbb94b6543e02cefa6635c4f4fef5b472789091da3e10f4078e475e05b5f0",
        ),
        case("additive", active(ActiveAttack::AdditiveOffset), proved, T_FILTERED),
        case(
            "failstop-offline",
            Adversary::none().with_failstops(p.failstops, OFFLINE),
            proved,
            "198cd45b90c0af42506d416bcbec0bec43abe9240be9aa9d7c7e6612079be69b",
        ),
        case(
            "failstop-mult",
            Adversary::none().with_failstops(p.failstops, ONLINE_MULT),
            proved,
            ALL_VALID,
        ),
        case(
            "full-budget",
            active(ActiveAttack::WrongValue).with_failstops(p.failstops, ONLINE_MULT),
            proved,
            T_FILTERED,
        ),
        case(
            "dealerless",
            active(ActiveAttack::WrongValue),
            proved.dealerless(),
            "f1b25398d8e2c7f47a17954c6177c3f5f85adba919e025852c5bdd95c14392b7",
        ),
    ]
}

fn mu_sha256(run: &RunResult<F61>) -> String {
    let mut hasher = yoso_crypto::sha256::Sha256::new();
    for m in &run.mu {
        hasher.update(&m.to_bytes());
    }
    hasher.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// The three-way split of the committee the value pins and the parity
/// table run at.
fn three_way(params: ProtocolParams) -> Vec<RolePartition> {
    (0..3).map(|w| params.worker_role_range(w, 3)).collect()
}

#[test]
fn mu_is_pinned_for_every_adversary_solo_sharded_and_threaded() {
    let params = case_params();
    let mut moved = Vec::new();
    for case in cases() {
        let mut check = |layout: String, run: &RunResult<F61>| {
            let got = mu_sha256(run);
            if got != case.mu_sha256 {
                moved.push(format!("{} ({layout}): {got}", case.name));
            }
        };
        for threads in [1usize, 2, 8] {
            let (_, run) = solo_run_with(params, &case.adversary, case.cfg.with_threads(threads));
            check(format!("solo, {threads} threads"), &run);
        }
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let cfg = case.cfg.with_threads(2);
        for run in sharded_run_on_with(&board, params, &three_way(params), &case.adversary, cfg) {
            check("3 workers, 2 threads".into(), &run);
        }
    }
    assert!(moved.is_empty(), "mu moved:\n{}", moved.join("\n"));
}

#[test]
fn sharded_parity_under_active_attack() {
    // Corrupt members post garbage instead of skipping and crashed ones
    // post nothing: the behavior tags (not the proofs, which only
    // owners produce) decide validity identically on every worker.
    let params = case_params();
    for case in cases() {
        let (solo_log, solo) = solo_run_with(params, &case.adversary, case.cfg);
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let runs =
            sharded_run_on_with(&board, params, &three_way(params), &case.adversary, case.cfg);
        assert_eq!(solo_log, render(&board), "{}", case.name);
        for run in &runs {
            assert_eq!((&solo.outputs, &solo.mu), (&run.outputs, &run.mu), "{}", case.name);
        }
    }
}

#[test]
fn sharded_run_rejects_partition_beyond_committee() {
    let params = ProtocolParams::new(10, 2, 3).unwrap();
    let (circuit, inputs) = workload(params);
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let cfg = ExecutionConfig::default().with_partition(RolePartition::range(0, 11));
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let err = Engine::new(params, cfg)
        .run_with_board(&mut rng, &circuit, &inputs, &Adversary::none(), &board)
        .unwrap_err();
    assert!(matches!(err, ProtocolError::BadParameters(_)), "{err}");
}
