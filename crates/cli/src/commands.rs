//! Subcommand implementations.

use std::collections::HashMap;

use rand::SeedableRng;

use yoso_bignum::Nat;
use yoso_circuit::{generators, Circuit};
use yoso_core::{
    crash_phases, BoardBackend, Engine, ExecutionConfig, ProtocolParams, RolePartition,
};
use yoso_field::{F61, PrimeField};
use yoso_runtime::{ActiveAttack, Adversary};
use yoso_sortition::{GapAnalysis, SecurityParams};
use yoso_the::paillier::ThresholdPaillier;

type Opts = HashMap<String, String>;

/// Parses a board address: `tcp://HOST:PORT` or bare `HOST:PORT`.
pub fn parse_board_addr(value: &str) -> Result<std::net::SocketAddr, String> {
    let bare = value.strip_prefix("tcp://").unwrap_or(value);
    bare.parse().map_err(|e| format!("board address {value:?}: {e}"))
}

fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
    }
}

fn build_circuit(opts: &Opts) -> Result<Circuit<F61>, String> {
    let name = opts.get("circuit").map(String::as_str).unwrap_or("inner-product");
    let size: usize = get(opts, "size", 8)?;
    let clients: usize = get(opts, "clients", 2)?;
    let circuit = match name {
        "inner-product" => generators::inner_product(size),
        "poly-eval" => generators::poly_eval(size),
        "stats" => generators::federated_stats(clients, size),
        "wide" => generators::wide_layered(size, 2, clients),
        "average" => generators::weighted_average(clients.max(1)),
        "matmul" => generators::matmul(size),
        "set-membership" => generators::set_membership(size),
        other => return Err(format!("unknown circuit {other:?}")),
    };
    circuit.map_err(|e| format!("circuit construction: {e}"))
}

fn parse_attack(opts: &Opts) -> Result<Option<ActiveAttack>, String> {
    match opts.get("attack").map(String::as_str) {
        None | Some("none") => Ok(None),
        Some("wrong-value") => Ok(Some(ActiveAttack::WrongValue)),
        Some("bad-proof") => Ok(Some(ActiveAttack::BadProof)),
        Some("silent") => Ok(Some(ActiveAttack::Silent)),
        Some("additive") => Ok(Some(ActiveAttack::AdditiveOffset)),
        Some(other) => Err(format!("unknown attack {other:?}")),
    }
}

/// Everything a protocol run (or one worker of it) needs, built
/// deterministically from the CLI options. **The construction order is
/// part of the determinism contract**: params → circuit → rng(seed) →
/// inputs → adversary. Every worker of a sharded run rebuilds this
/// identically from the same options, so all processes agree on the
/// full protocol state and only split who posts what.
struct PreparedRun {
    params: ProtocolParams,
    circuit: Circuit<F61>,
    inputs: Vec<Vec<F61>>,
    adversary: Adversary,
    rng: rand::rngs::StdRng,
    config: ExecutionConfig,
}

fn prepare_run(opts: &Opts) -> Result<PreparedRun, String> {
    let n: usize = get(opts, "n", 16)?;
    let eps: f64 = get(opts, "eps", 0.2)?;
    let seed: u64 = get(opts, "seed", 7)?;
    let crashes: usize = get(opts, "crashes", 0)?;

    let mut params = if crashes > 0 {
        ProtocolParams::from_gap_failstop(n, eps).map_err(|e| e.to_string())?
    } else {
        ProtocolParams::from_gap(n, eps).map_err(|e| e.to_string())?
    };
    if crashes > params.failstops {
        return Err(format!(
            "{crashes} crashes exceed the fail-stop budget {} at (n={n}, ε={eps})",
            params.failstops
        ));
    }
    params.failstops = crashes;

    let t_mal: usize = get(opts, "t-mal", params.t)?;
    if t_mal > params.t {
        return Err(format!("--t-mal {t_mal} exceeds the threshold t = {}", params.t));
    }

    let circuit = build_circuit(opts)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut rng)).collect())
        .collect();

    let mut adversary = match parse_attack(opts)? {
        Some(attack) => Adversary::active(t_mal, attack),
        None => Adversary::none(),
    };
    if crashes > 0 {
        adversary = adversary.with_failstops(crashes, crash_phases::ONLINE_MULT);
    }

    let threads: usize = get(opts, "threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let mut config = ExecutionConfig::default().with_threads(threads);
    if opts.contains_key("no-proofs") {
        config.produce_proofs = false;
    }
    if let Some(board) = opts.get("board") {
        config = config.with_board(BoardBackend::Tcp(parse_board_addr(board)?));
    }
    Ok(PreparedRun { params, circuit, inputs, adversary, rng, config })
}

/// Executes a prepared run and prints the standard report.
fn execute_and_report(prepared: PreparedRun) -> Result<(), String> {
    let PreparedRun { params, circuit, inputs, adversary, mut rng, config } = prepared;
    let engine = Engine::new(params, config);
    println!(
        "running: n = {}, t = {}, k = {}, circuit with {} mul gates / {} wires",
        params.n,
        params.t,
        params.k,
        circuit.mul_count(),
        circuit.wire_count()
    );
    let start = std::time::Instant::now();
    let result = engine
        .run(&mut rng, &circuit, &inputs, &adversary)
        .map_err(|e| format!("protocol: {e}"))?;
    let elapsed = start.elapsed();

    let expected = circuit.evaluate(&inputs).map_err(|e| e.to_string())?;
    let correct = result.outputs == expected;
    println!("\noutputs (client 0): {:?}", result.outputs[0]);
    println!("matches cleartext evaluation: {correct}");
    println!("\ncommunication by phase (ring elements):");
    for (phase, stats) in &result.phases {
        println!("  {phase:<28} {:>12}", stats.elements);
    }
    println!(
        "\nonline mult: {:.1} elements/gate   offline: {:.1} elements/gate   wall: {:.2?}",
        result.online_elements_per_gate(),
        result.offline_elements_per_gate(),
        elapsed
    );
    // Where the wall-clock went, stage by stage: over a TCP board the
    // gap between this and a local run is board round trips. (CI
    // diffs strip this line along with the wall line above — timings
    // are not deterministic.)
    let stages: Vec<String> = result
        .stage_wall_secs
        .iter()
        .map(|(name, secs)| format!("{name} {secs:.2}s"))
        .collect();
    println!("stage wall: {}", stages.join("   "));
    if !correct {
        return Err("output mismatch".into());
    }
    Ok(())
}

/// `yoso run` — execute the full three-phase protocol. With
/// `--spawn-workers N` the process starts an in-tree board server,
/// forks `N − 1` `yoso worker` children, and itself acts as worker 0
/// (the leader).
pub fn run(opts: &Opts) -> Result<(), String> {
    if opts.contains_key("spawn-workers") {
        let workers: usize = get(opts, "spawn-workers", 4)?;
        return spawn_workers(opts, workers);
    }
    execute_and_report(prepare_run(opts)?)
}

/// Parses a `--roles a..b` half-open range.
fn parse_roles(value: &str) -> Result<(usize, usize), String> {
    let (lo, hi) = value
        .split_once("..")
        .ok_or_else(|| format!("--roles {value:?}: expected a..b (half-open)"))?;
    let lo: usize = lo.trim().parse().map_err(|e| format!("--roles {value:?}: {e}"))?;
    let hi: usize = hi.trim().parse().map_err(|e| format!("--roles {value:?}: {e}"))?;
    if hi < lo {
        return Err(format!("--roles {value:?}: empty-or-backwards range"));
    }
    Ok((lo, hi))
}

/// `yoso worker` — one role-sharded worker of a multi-process run.
///
/// Every worker of a run is launched with identical run options (same
/// seed, circuit, committee) plus its own `--roles a..b` slice and the
/// shared `--board tcp://HOST:PORT`. Workers synchronize only through
/// the board's round clock; the worker owning role 0 acts as leader
/// (dealer/client posts, round ticks). The interleaved transcript is
/// byte-identical to a single-process `yoso run`.
pub fn worker(opts: &Opts) -> Result<(), String> {
    let roles = opts.get("roles").ok_or("worker requires --roles a..b")?;
    let (lo, hi) = parse_roles(roles)?;
    if !opts.contains_key("board") {
        return Err("worker requires --board tcp://HOST:PORT (a shared board-server)".into());
    }
    let mut prepared = prepare_run(opts)?;
    if hi > prepared.params.n {
        return Err(format!(
            "--roles {lo}..{hi} exceeds the committee size n = {}",
            prepared.params.n
        ));
    }
    prepared.config = prepared.config.with_partition(RolePartition::range(lo, hi));
    println!(
        "worker roles [{lo}, {hi}) of n = {} ({}leader)",
        prepared.params.n,
        if prepared.config.partition.is_leader() { "" } else { "not " }
    );
    execute_and_report(prepared)
}

/// Options forwarded verbatim from `run --spawn-workers` to the
/// children, so every worker prepares the identical run.
const FORWARDED_OPTS: [&str; 10] = [
    "circuit", "size", "clients", "n", "eps", "attack", "t-mal", "crashes", "seed", "threads",
];

/// `yoso run --spawn-workers N`: in-tree board server + N local worker
/// processes (this process is worker 0, the leader).
fn spawn_workers(opts: &Opts, workers: usize) -> Result<(), String> {
    if workers == 0 {
        return Err("--spawn-workers must be at least 1".into());
    }
    if opts.contains_key("board") {
        return Err("--spawn-workers starts its own board server; drop --board".into());
    }
    let mut prepared = prepare_run(opts)?;
    let n = prepared.params.n;

    let server = yoso_runtime::BoardServer::bind(std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
        .map_err(|e| format!("board server: {e}"))?;
    let mut handle = server.spawn().map_err(|e| format!("board server: {e}"))?;
    let addr = handle.addr();
    println!("board server on tcp://{addr}, {workers} workers over n = {n} roles");

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut children = Vec::new();
    for w in 1..workers {
        let part = prepared.params.worker_role_range(w, workers);
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("worker")
            .arg("--roles")
            .arg(format!("{}..{}", part.lo(), part.hi()))
            .arg("--board")
            .arg(format!("tcp://{addr}"));
        for key in FORWARDED_OPTS {
            if let Some(v) = opts.get(key) {
                cmd.arg(format!("--{key}")).arg(v);
            }
        }
        if opts.contains_key("no-proofs") {
            cmd.arg("--no-proofs");
        }
        // Children report through their exit status; only the leader
        // prints the run summary.
        cmd.stdout(std::process::Stdio::null());
        children.push((w, cmd.spawn().map_err(|e| format!("spawn worker {w}: {e}"))?));
    }

    prepared.config = prepared
        .config
        .with_board(BoardBackend::Tcp(addr))
        .with_partition(prepared.params.worker_role_range(0, workers));
    let result = execute_and_report(prepared);

    let mut failures = Vec::new();
    for (w, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("worker {w} exited with {status}")),
            Err(e) => failures.push(format!("worker {w}: {e}")),
        }
    }
    handle.shutdown();
    result?;
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(())
}

/// `yoso board-stats` — remote board auditor: connects to a
/// `board-server` and prints the per-phase communication table the
/// server folds over its own log (every posting carries its element
/// and byte counts, so an auditor process needs nothing from the
/// processes that posted). This is also how a role-sharded worker run
/// is metered: the board holds the interleaved full transcript, so the
/// table aggregates all workers. With `--dump FILE` the raw posting log
/// is written one line per post (`round|author|phase|message`) for
/// byte-level transcript diffing.
pub fn board_stats(opts: &Opts) -> Result<(), String> {
    use yoso_core::messages::Post;
    use yoso_runtime::{BoardTransport, TcpOptions, TcpTransport};

    let addr = parse_board_addr(
        opts.get("board").ok_or("board-stats requires --board tcp://HOST:PORT")?,
    )?;
    let board = TcpTransport::<Post>::connect(addr, TcpOptions::default())
        .map_err(|e| e.to_string())?;
    let rounds = board.round().map_err(|e| e.to_string())?;
    let phases = board.phases().map_err(|e| e.to_string())?;
    let mut total = yoso_runtime::PhaseStats::default();
    for (_, stats) in &phases {
        total.merge(stats);
    }
    println!("board {addr}: {} postings over {rounds} round(s)\n", total.messages);
    println!("{:<28} {:>12} {:>12} {:>10}", "phase", "elements", "bytes", "messages");
    for (phase, s) in &phases {
        println!("{phase:<28} {:>12} {:>12} {:>10}", s.elements, s.bytes, s.messages);
    }
    println!(
        "{:<28} {:>12} {:>12} {:>10}",
        "total", total.elements, total.bytes, total.messages
    );

    // The server's own wire counters: posting throughput shape (frames,
    // coalesced acks, largest pipeline window) as the server saw it
    // across every client that ever connected.
    let w = board.server_stats().map_err(|e| e.to_string())?;
    println!("\nserver wire counters:");
    println!("  request frames       {:>12}", w.frames);
    println!("  post frames          {:>12}", w.post_frames);
    println!("  postings appended    {:>12}", w.postings);
    println!("  payload bytes        {:>12}", w.payload_bytes);
    println!("  coalesced acks       {:>12}", w.sync_acks);
    println!("  pipelined frames     {:>12}", w.acked_frames);
    println!("  max pipeline window  {:>12}", w.max_window);
    println!("  posting reads        {:>12}", w.reads);

    if let Some(path) = opts.get("dump") {
        use std::io::Write as _;
        // Streamed round by round through a buffered writer — the dump
        // is never materialized in memory. The line format is load-
        // bearing: the transcript hash (`yoso_runtime::PhaseAccumulator`)
        // folds exactly these bytes.
        let file = std::fs::File::create(path).map_err(|e| format!("--dump {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        let mut lines = 0u64;
        let mut write_err: Option<std::io::Error> = None;
        for r in 0..=rounds {
            board
                .for_each_in_round(r, &mut |p| {
                    if write_err.is_some() {
                        return;
                    }
                    match writeln!(out, "{}|{}|{}|{:?}", p.round, p.from, p.phase, p.message) {
                        Ok(()) => lines += 1,
                        Err(e) => write_err = Some(e),
                    }
                })
                .map_err(|e| e.to_string())?;
        }
        if let Some(e) = write_err {
            return Err(format!("--dump {path}: {e}"));
        }
        out.flush().map_err(|e| format!("--dump {path}: {e}"))?;
        println!("\nposting log written to {path} ({lines} lines)");
    }

    if opts.contains_key("shutdown") {
        board.shutdown_server().map_err(|e| e.to_string())?;
        println!("\nserver shut down");
    }
    Ok(())
}

/// `yoso bench-scale` — the Table-1-scale wall-clock/RSS profile
/// (DESIGN §12). Runs the end-to-end protocol once at each committee
/// size and writes `BENCH_scale.json`; `--smoke` shrinks the sizes for
/// CI.
pub fn bench_scale(opts: &Opts) -> Result<(), String> {
    let smoke = opts.contains_key("smoke");
    yoso_bench::scale::run_scale(smoke);
    Ok(())
}

/// `yoso plan` — §6 committee planning.
pub fn plan(opts: &Opts) -> Result<(), String> {
    let pool: u64 = get(opts, "pool", 1_000_000)?;
    let f: f64 = get(opts, "f", 0.1)?;
    if !(0.0..1.0).contains(&f) || f <= 0.0 {
        return Err(format!("--f {f} out of range"));
    }
    let sweep: Vec<f64> = match opts.get("c") {
        Some(v) => vec![v.parse().map_err(|e| format!("--c: {e}"))?],
        None => vec![1000.0, 2000.0, 5000.0, 10000.0, 20000.0, 40000.0],
    };
    println!("pool N = {pool}, corruption f = {f}\n");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "C", "t", "c", "c'", "eps", "k", "online gain"
    );
    for c_param in sweep {
        match GapAnalysis::compute(c_param, f, SecurityParams::default()) {
            Some(a) => println!(
                "{:>8} {:>8} {:>8} {:>8} {:>8.3} {:>8} {:>11}×",
                c_param as u64,
                a.t,
                a.c,
                a.c_prime,
                a.eps,
                a.k,
                a.improvement_factor()
            ),
            None => println!("{:>8}  infeasible (no positive gap at f = {f})", c_param as u64),
        }
    }
    Ok(())
}

/// `yoso table1` — the paper's Table 1.
pub fn table1() -> Result<(), String> {
    println!("{:>7} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}", "C", "f", "t", "c", "c'", "eps", "k");
    for r in yoso_sortition::table1() {
        match r.analysis {
            Some(a) => println!(
                "{:>7} {:>6.2} {:>8} {:>8} {:>8} {:>8.2} {:>8}",
                r.c_param as u64, r.f, a.t, a.c, a.c_prime, a.eps, a.k
            ),
            None => println!(
                "{:>7} {:>6.2} {:>8} {:>8} {:>8} {:>8} {:>8}",
                r.c_param as u64, r.f, "-", "-", "-", "-", "-"
            ),
        }
    }
    Ok(())
}

/// `yoso paillier` — threshold-Paillier smoke run with timings.
pub fn paillier(opts: &Opts) -> Result<(), String> {
    let bits: usize = get(opts, "bits", 160)?;
    let parties: usize = get(opts, "parties", 3)?;
    let threshold: usize = get(opts, "threshold", 1)?;
    let seed: u64 = get(opts, "seed", 7)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let start = std::time::Instant::now();
    let (pk, shares) = ThresholdPaillier::keygen(&mut rng, bits, parties, threshold)
        .map_err(|e| e.to_string())?;
    println!("keygen ({}-bit N, n = {parties}, t = {threshold}): {:.2?}", 2 * bits, start.elapsed());

    let m = Nat::from(123_456_789u64);
    let start = std::time::Instant::now();
    let (ct, _) = ThresholdPaillier::encrypt(&mut rng, &pk, &m);
    println!("encrypt: {:.2?}", start.elapsed());

    let start = std::time::Instant::now();
    let partials: Vec<_> = shares
        .iter()
        .take(threshold + 1)
        .map(|s| ThresholdPaillier::partial_decrypt(&pk, s, &ct))
        .collect();
    println!("{} partial decryptions: {:.2?}", partials.len(), start.elapsed());

    let start = std::time::Instant::now();
    let out = ThresholdPaillier::combine(&pk, &partials, &Nat::one()).map_err(|e| e.to_string())?;
    println!("combine: {:.2?}", start.elapsed());
    println!("\ndecrypted: {out} (expected {m})");
    if out != m {
        return Err("decryption mismatch".into());
    }
    Ok(())
}

/// `yoso experiments` — abbreviated versions of the headline
/// experiments (full versions: `cargo run -p yoso-bench --bin …`).
pub fn experiments() -> Result<(), String> {
    use yoso_circuit::generators;

    println!("== E2 (quick): online elements/gate vs n (ε = 0.25) ==\n");
    println!("{:>6} {:>14} {:>14}", "n", "packed", "baseline");
    for n in [8usize, 16, 32, 64] {
        let params = ProtocolParams::from_gap(n, 0.25).map_err(|e| e.to_string())?;
        let circuit =
            generators::wide_layered::<F61>(params.k * 2, 2, 2).map_err(|e| e.to_string())?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let inputs: Vec<Vec<F61>> = circuit
            .inputs_per_client()
            .iter()
            .map(|ws| ws.iter().map(|_| F61::random(&mut rng)).collect())
            .collect();
        let packed = Engine::new(params, ExecutionConfig::sweep())
            .run(&mut rng, &circuit, &inputs, &Adversary::none())
            .map_err(|e| e.to_string())?;
        let base_params = ProtocolParams::new(n, params.t, 1).map_err(|e| e.to_string())?;
        let baseline =
            yoso_core::baseline::BaselineEngine::new(base_params, ExecutionConfig::sweep())
                .run(&mut rng, &circuit, &inputs, &Adversary::none())
                .map_err(|e| e.to_string())?;
        println!(
            "{:>6} {:>14.1} {:>14.1}",
            n,
            packed.online_elements_per_gate(),
            baseline.elements("online/mult") as f64 / baseline.mul_gates as f64
        );
    }

    println!("\n== E7 (quick): GOD under every attack (n = 12, t = 3) ==\n");
    let params = ProtocolParams::new(12, 3, 2).map_err(|e| e.to_string())?;
    let circuit = generators::inner_product::<F61>(4).map_err(|e| e.to_string())?;
    for attack in [
        ActiveAttack::WrongValue,
        ActiveAttack::BadProof,
        ActiveAttack::Silent,
        ActiveAttack::AdditiveOffset,
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let inputs: Vec<Vec<F61>> = circuit
            .inputs_per_client()
            .iter()
            .map(|ws| ws.iter().map(|_| F61::random(&mut rng)).collect())
            .collect();
        let expected = circuit.evaluate(&inputs).map_err(|e| e.to_string())?;
        let run = Engine::new(params, ExecutionConfig::default())
            .run(&mut rng, &circuit, &inputs, &Adversary::active(3, attack))
            .map_err(|e| e.to_string())?;
        println!(
            "  {attack:?}: {}",
            if run.outputs == expected { "correct output delivered" } else { "FAILED" }
        );
    }
    println!("\nfull experiment suite: cargo run --release -p yoso-bench --bin <table1|online_comm|offline_comm|improvement|failstop|sortition_mc|god_attack|it_comparison|ablation_packing|ablation_nizk>");
    Ok(())
}
