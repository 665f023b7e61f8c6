//! Paper-scale profile: the `yoso bench-scale` harness.
//!
//! Runs the mock-scheme end-to-end protocol at Table-1 committee sizes
//! (`n ∈ {512, 1024, 2048}`, `ε = 0.25`) twice per size — once in
//! streaming mode (incremental transcript consumption + bounded board
//! retention, [`ExecutionConfig::with_streaming`]) and once
//! materialized (full posting history) — and records for each run:
//!
//! - wall-clock per protocol stage,
//! - peak RSS (`VmHWM`) and current RSS (`VmRSS`) from
//!   `/proc/self/status`,
//! - the FNV-1a 64 transcript hash.
//!
//! Hot-path allocations per gate are no longer a column here: both
//! modes pool their scratch buffers, and the repository benchmark
//! reports the count as `pss.hot_allocs_per_gate`.
//!
//! The report lands in `BENCH_scale.json` at the repo root. The
//! streaming and materialized transcripts must hash identically at
//! every size (`--smoke` shrinks the sizes for CI).
//!
//! Within each size the **streaming run goes first**: `VmHWM` is a
//! monotone per-process high-water mark, so the lower-footprint mode
//! must be sampled before the full-history mode at the same size or
//! its reading would just echo the materialized peak.

use std::time::Instant;

use yoso_core::messages::Post;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_field::F61;
use yoso_runtime::{Adversary, BulletinBoard, PhaseAccumulator};

use crate::{random_inputs, rng, workload};

/// Committee sizes for the full profile (Table 1's range).
pub const FULL_SIZES: [usize; 3] = [512, 1024, 2048];
/// Committee sizes for `--smoke` (CI-fast).
pub const SMOKE_SIZES: [usize; 2] = [32, 64];
/// Corruption gap used throughout the experiments.
pub const EPSILON: f64 = 0.25;

/// One protocol execution's measurements.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// `"streaming"` or `"materialized"`.
    pub mode: &'static str,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
    /// Per-stage wall-clock seconds, in execution order.
    pub stage_wall_secs: Vec<(&'static str, f64)>,
    /// FNV-1a 64 hash of the full transcript.
    pub transcript_hash: u64,
    /// `VmHWM` sampled right after the run (monotone per process).
    pub peak_rss_kb: Option<u64>,
    /// `VmRSS` sampled right after the run.
    pub rss_kb: Option<u64>,
    /// Synchronous rounds the run consumed.
    pub rounds: u64,
}

/// Both executions at one committee size.
#[derive(Debug, Clone)]
pub struct SizeReport {
    /// Committee size.
    pub n: usize,
    /// Packing factor.
    pub k: usize,
    /// Corruption threshold.
    pub t: usize,
    /// Multiplication gates in the workload circuit.
    pub mul_gates: usize,
    /// Run seed (deterministic per size).
    pub seed: u64,
    /// The streaming-mode run (always executed first).
    pub streaming: ModeRun,
    /// The materialized (full-history) run.
    pub materialized: ModeRun,
}

fn read_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let v = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim();
            return v.parse().ok();
        }
    }
    None
}

/// Peak resident set size in kB (`VmHWM`; Linux only, monotone per
/// process — sample the low-footprint mode first).
pub fn peak_rss_kb() -> Option<u64> {
    read_status_kb("VmHWM")
}

/// Current resident set size in kB (`VmRSS`; Linux only).
pub fn current_rss_kb() -> Option<u64> {
    read_status_kb("VmRSS")
}

fn run_mode(
    params: ProtocolParams,
    circuit: &yoso_circuit::Circuit<F61>,
    inputs: &[Vec<F61>],
    seed: u64,
    streaming: bool,
) -> (ModeRun, Vec<Vec<F61>>) {
    // Proofs are off in both modes so the comparison isolates how the
    // transcript is consumed and retained.
    let base = ExecutionConfig { produce_proofs: false, ..ExecutionConfig::default() };
    let cfg = if streaming { base.with_streaming() } else { base };
    let engine = Engine::new(params, cfg);
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let mut r = rng(seed);

    let start = Instant::now();
    let run = engine
        .run_with_board(&mut r, circuit, inputs, &Adversary::none(), &board)
        .expect("scale bench run succeeds");
    let wall_secs = start.elapsed().as_secs_f64();

    let transcript_hash = match run.transcript_hash {
        Some(h) => h,
        None => {
            // Materialized runs keep the whole posting history; fold it
            // through the same accumulator the streaming path uses so
            // the two hashes are comparable line for line.
            let mut acc = PhaseAccumulator::new();
            acc.finish(&board).expect("materialized board is readable");
            acc.transcript_hash()
        }
    };

    (
        ModeRun {
            mode: if streaming { "streaming" } else { "materialized" },
            wall_secs,
            stage_wall_secs: run.stage_wall_secs.clone(),
            transcript_hash,
            peak_rss_kb: peak_rss_kb(),
            rss_kb: current_rss_kb(),
            rounds: run.rounds,
        },
        run.outputs,
    )
}

/// Profiles one committee size: streaming first (see module docs),
/// then materialized, pinning output equality across the two.
pub fn profile_size(n: usize) -> SizeReport {
    let params = ProtocolParams::from_gap(n, EPSILON).expect("Table-1 sizes are feasible");
    let seed = 97 + n as u64;
    let mut r = rng(seed);
    let circuit = workload(params.k, 1, 2);
    let inputs = random_inputs(&mut r, &circuit);
    let mul_gates = circuit.mul_count();

    let (streaming, out_s) = run_mode(params, &circuit, &inputs, seed, true);
    let (materialized, out_m) = run_mode(params, &circuit, &inputs, seed, false);
    assert_eq!(out_s, out_m, "streaming must not change outputs (n = {n})");

    SizeReport {
        n,
        k: params.k,
        t: params.t,
        mul_gates,
        seed,
        streaming,
        materialized,
    }
}

/// One execution of the distributed-transform profile.
#[derive(Debug, Clone)]
pub struct TransformRun {
    /// `"solo-dist"`, `"fleet-dist"` or `"fleet-replicated"`.
    pub label: &'static str,
    /// In-process workers sharing the board.
    pub workers: usize,
    /// Whether the Step-4 packing transforms were distributed.
    pub dist: bool,
    /// Total wall-clock seconds for the whole fleet.
    pub wall_secs: f64,
    /// Per-stage wall-clock seconds of the leader worker.
    pub stage_wall_secs: Vec<(&'static str, f64)>,
    /// Fleet-total NTT butterfly multiplications
    /// ([`yoso_field::transformstats`]; global counters, so worker
    /// threads sum into one fleet figure).
    pub butterfly_muls: u64,
    /// Fleet-total slice-evaluation multiplications (range Horner,
    /// dealing-basis dots, ciphertext-row evaluations).
    pub slice_muls: u64,
    /// FNV-1a 64 hash of the full transcript.
    pub transcript_hash: u64,
}

impl TransformRun {
    /// Fleet-total transform operations (butterflies + slice muls).
    pub fn transform_ops(&self) -> u64 {
        self.butterfly_muls + self.slice_muls
    }

    /// Average transform operations per worker.
    pub fn per_worker_ops(&self) -> f64 {
        self.transform_ops() as f64 / self.workers.max(1) as f64
    }
}

/// The solo-vs-fleet transform breakdown at one committee size: the
/// distributed-transform fleet must post a byte-identical transcript
/// while doing strictly less total transform work than a replicated
/// fleet, so its per-worker share *decreases* with the worker count
/// instead of staying flat.
#[derive(Debug, Clone)]
pub struct TransformReport {
    /// Committee size.
    pub n: usize,
    /// Packing factor.
    pub k: usize,
    /// Corruption threshold.
    pub t: usize,
    /// Multiplication gates in the workload circuit.
    pub mul_gates: usize,
    /// Run seed.
    pub seed: u64,
    /// Single worker, transforms distributed (degenerate split: it
    /// owns every row).
    pub solo_dist: TransformRun,
    /// Four workers, transforms distributed.
    pub fleet_dist: TransformRun,
    /// Four workers, transforms replicated (the pre-distribution
    /// profile: every worker runs every transform).
    pub fleet_replicated: TransformRun,
}

fn run_transform(
    params: ProtocolParams,
    circuit: &yoso_circuit::Circuit<F61>,
    inputs: &[Vec<F61>],
    seed: u64,
    workers: usize,
    dist: bool,
    label: &'static str,
) -> TransformRun {
    use yoso_field::transformstats;

    let base = ExecutionConfig {
        produce_proofs: false,
        audit_board: true,
        ..ExecutionConfig::default()
    };
    let base = if dist { base.with_dist_transform() } else { base };

    let board: BulletinBoard<Post> = BulletinBoard::new();
    // Deltas, not resets: the counters are process-global, so
    // concurrent test threads must not clobber each other's window
    // start (the bench binary itself runs the profiles sequentially).
    let b0 = transformstats::butterfly_muls();
    let s0 = transformstats::slice_muls();
    let start = Instant::now();
    let leader_run = if workers == 1 {
        let mut r = rng(seed);
        Engine::new(params, base)
            .run_with_board(&mut r, circuit, inputs, &Adversary::none(), &board)
            .expect("transform profile solo run succeeds")
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let board = board.clone();
                    s.spawn(move || {
                        let cfg = base.with_partition(params.worker_role_range(w, workers));
                        let mut r = rng(seed);
                        Engine::new(params, cfg)
                            .run_with_board(&mut r, circuit, inputs, &Adversary::none(), &board)
                            .expect("transform profile worker run succeeds")
                    })
                })
                .collect();
            let mut runs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            runs.swap_remove(0)
        })
    };
    let wall_secs = start.elapsed().as_secs_f64();
    let butterfly_muls = transformstats::butterfly_muls() - b0;
    let slice_muls = transformstats::slice_muls() - s0;

    let mut acc = PhaseAccumulator::new();
    acc.finish(&board).expect("transform profile board is readable");

    TransformRun {
        label,
        workers,
        dist,
        wall_secs,
        stage_wall_secs: leader_run.stage_wall_secs,
        butterfly_muls,
        slice_muls,
        transcript_hash: acc.transcript_hash(),
    }
}

/// Committee size of the transform breakdown (full profile). The
/// breakdown measures work *distribution*, not scaling in `n`, so one
/// moderate size keeps the 4-worker in-process runs cheap.
pub const TRANSFORM_N: usize = 128;
/// Committee size of the transform breakdown under `--smoke`.
pub const TRANSFORM_SMOKE_N: usize = 32;
/// Worker count of the fleet rows.
pub const TRANSFORM_WORKERS: usize = 4;

/// Profiles the distributed transform at one size: solo vs 4-worker
/// fleet with transforms distributed, plus a replicated 4-worker fleet
/// as the baseline column.
pub fn profile_transform(n: usize) -> TransformReport {
    let params = ProtocolParams::from_gap(n, EPSILON).expect("transform profile size is feasible");
    let seed = 131 + n as u64;
    let mut r = rng(seed);
    let circuit = workload(params.k, 1, 2);
    let inputs = random_inputs(&mut r, &circuit);

    let solo_dist = run_transform(params, &circuit, &inputs, seed, 1, true, "solo-dist");
    let fleet_dist =
        run_transform(params, &circuit, &inputs, seed, TRANSFORM_WORKERS, true, "fleet-dist");
    let fleet_replicated = run_transform(
        params,
        &circuit,
        &inputs,
        seed,
        TRANSFORM_WORKERS,
        false,
        "fleet-replicated",
    );

    TransformReport {
        n,
        k: params.k,
        t: params.t,
        mul_gates: circuit.mul_count(),
        seed,
        solo_dist,
        fleet_dist,
        fleet_replicated,
    }
}

fn push_transform_json(json: &mut String, run: &TransformRun, last: bool) {
    use std::fmt::Write as _;
    writeln!(json, "      {{").unwrap();
    writeln!(json, "        \"label\": \"{}\",", run.label).unwrap();
    writeln!(json, "        \"workers\": {},", run.workers).unwrap();
    writeln!(json, "        \"dist\": {},", run.dist).unwrap();
    writeln!(json, "        \"wall_secs\": {:.6},", run.wall_secs).unwrap();
    writeln!(json, "        \"stage_wall_secs\": {{").unwrap();
    for (i, (name, secs)) in run.stage_wall_secs.iter().enumerate() {
        let comma = if i + 1 == run.stage_wall_secs.len() { "" } else { "," };
        writeln!(json, "          \"{name}\": {secs:.6}{comma}").unwrap();
    }
    writeln!(json, "        }},").unwrap();
    writeln!(json, "        \"butterfly_muls\": {},", run.butterfly_muls).unwrap();
    writeln!(json, "        \"slice_muls\": {},", run.slice_muls).unwrap();
    writeln!(json, "        \"transform_ops\": {},", run.transform_ops()).unwrap();
    writeln!(json, "        \"per_worker_transform_ops\": {:.1},", run.per_worker_ops()).unwrap();
    writeln!(json, "        \"transcript_hash\": \"{:#018x}\"", run.transcript_hash).unwrap();
    writeln!(json, "      }}{}", if last { "" } else { "," }).unwrap();
}

fn push_mode_json(json: &mut String, run: &ModeRun, last: bool) {
    use std::fmt::Write as _;
    let opt = |v: Option<u64>| v.map_or_else(|| "null".into(), |x| x.to_string());
    writeln!(json, "        {{").unwrap();
    writeln!(json, "          \"mode\": \"{}\",", run.mode).unwrap();
    writeln!(json, "          \"wall_secs\": {:.6},", run.wall_secs).unwrap();
    writeln!(json, "          \"stage_wall_secs\": {{").unwrap();
    for (i, (name, secs)) in run.stage_wall_secs.iter().enumerate() {
        let comma = if i + 1 == run.stage_wall_secs.len() { "" } else { "," };
        writeln!(json, "            \"{name}\": {secs:.6}{comma}").unwrap();
    }
    writeln!(json, "          }},").unwrap();
    writeln!(
        json,
        "          \"transcript_hash\": \"{:#018x}\",",
        run.transcript_hash
    )
    .unwrap();
    writeln!(json, "          \"peak_rss_kb\": {},", opt(run.peak_rss_kb)).unwrap();
    writeln!(json, "          \"rss_kb\": {},", opt(run.rss_kb)).unwrap();
    writeln!(json, "          \"rounds\": {}", run.rounds).unwrap();
    writeln!(json, "        }}{}", if last { "" } else { "," }).unwrap();
}

/// Runs the full profile, writes `BENCH_scale.json`, prints a summary
/// and enforces the acceptance gates. Returns the
/// per-size reports for callers that want to post-process.
pub fn run_scale(smoke: bool) -> Vec<SizeReport> {
    use std::fmt::Write as _;

    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &FULL_SIZES };
    println!(
        "bench-scale: n in {:?}, epsilon = {EPSILON}{}",
        sizes,
        if smoke { " (smoke)" } else { "" }
    );

    let reports: Vec<SizeReport> = sizes
        .iter()
        .map(|&n| {
            let rep = profile_size(n);
            println!(
                "  n={:5}  k={:4}  t={:4}  gates={:5}  wall {:>8.2}s (materialized) vs {:>8.2}s \
                 (streaming), hash {:#018x}",
                rep.n,
                rep.k,
                rep.t,
                rep.mul_gates,
                rep.materialized.wall_secs,
                rep.streaming.wall_secs,
                rep.streaming.transcript_hash,
            );
            rep
        })
        .collect();

    let transform = profile_transform(if smoke { TRANSFORM_SMOKE_N } else { TRANSFORM_N });
    println!(
        "  transform n={}: fleet-dist {} ops over {} workers ({:.0}/worker) vs solo {} ops; \
         replicated fleet {} ops",
        transform.n,
        transform.fleet_dist.transform_ops(),
        transform.fleet_dist.workers,
        transform.fleet_dist.per_worker_ops(),
        transform.solo_dist.transform_ops(),
        transform.fleet_replicated.transform_ops(),
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"bench\": \"scale\",").unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(json, "  \"epsilon\": {EPSILON},").unwrap();
    writeln!(json, "  \"sizes\": [").unwrap();
    for (i, rep) in reports.iter().enumerate() {
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"n\": {},", rep.n).unwrap();
        writeln!(json, "      \"k\": {},", rep.k).unwrap();
        writeln!(json, "      \"t\": {},", rep.t).unwrap();
        writeln!(json, "      \"mul_gates\": {},", rep.mul_gates).unwrap();
        writeln!(json, "      \"seed\": {},", rep.seed).unwrap();
        writeln!(
            json,
            "      \"transcript_identical\": {},",
            rep.streaming.transcript_hash == rep.materialized.transcript_hash
        )
        .unwrap();
        writeln!(json, "      \"modes\": [").unwrap();
        push_mode_json(&mut json, &rep.streaming, false);
        push_mode_json(&mut json, &rep.materialized, true);
        writeln!(json, "      ]").unwrap();
        writeln!(json, "    }}{}", if i + 1 == reports.len() { "" } else { "," }).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"transform\": {{").unwrap();
    writeln!(json, "    \"n\": {},", transform.n).unwrap();
    writeln!(json, "    \"k\": {},", transform.k).unwrap();
    writeln!(json, "    \"t\": {},", transform.t).unwrap();
    writeln!(json, "    \"mul_gates\": {},", transform.mul_gates).unwrap();
    writeln!(json, "    \"seed\": {},", transform.seed).unwrap();
    writeln!(
        json,
        "    \"dist_transcript_identical\": {},",
        transform.solo_dist.transcript_hash == transform.fleet_dist.transcript_hash
    )
    .unwrap();
    writeln!(json, "    \"runs\": [").unwrap();
    push_transform_json(&mut json, &transform.solo_dist, false);
    push_transform_json(&mut json, &transform.fleet_dist, false);
    push_transform_json(&mut json, &transform.fleet_replicated, true);
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    let rss_reported = reports
        .iter()
        .all(|r| r.streaming.peak_rss_kb.is_some() && r.materialized.peak_rss_kb.is_some());
    writeln!(json, "  \"acceptance\": {{").unwrap();
    writeln!(
        json,
        "    \"transcript_identical_all_sizes\": {},",
        reports
            .iter()
            .all(|r| r.streaming.transcript_hash == r.materialized.transcript_hash)
    )
    .unwrap();
    writeln!(json, "    \"peak_rss_reported\": {rss_reported},").unwrap();
    writeln!(
        json,
        "    \"transform_transcript_identical\": {},",
        transform.solo_dist.transcript_hash == transform.fleet_dist.transcript_hash
    )
    .unwrap();
    writeln!(
        json,
        "    \"transform_per_worker_ops_ratio\": {:.4},",
        transform.fleet_dist.per_worker_ops() / transform.solo_dist.per_worker_ops().max(1.0)
    )
    .unwrap();
    writeln!(
        json,
        "    \"transform_fleet_vs_replicated_ops_ratio\": {:.4}",
        transform.fleet_dist.transform_ops() as f64
            / transform.fleet_replicated.transform_ops().max(1) as f64
    )
    .unwrap();
    writeln!(json, "  }}").unwrap();
    json.push('}');
    json.push('\n');

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}");

    // Transcript identity is the correctness pin for the whole
    // streaming path — enforced even in smoke mode.
    for rep in &reports {
        assert_eq!(
            rep.streaming.transcript_hash, rep.materialized.transcript_hash,
            "streaming transcript diverged from materialized at n = {}",
            rep.n
        );
    }
    println!("transcripts byte-identical at every size — ok");

    // Distributed-transform gates hold in smoke mode too: the op
    // counters are deterministic, and transcript identity is the
    // correctness pin of the distribution.
    assert_eq!(
        transform.solo_dist.transcript_hash, transform.fleet_dist.transcript_hash,
        "distributed-transform fleet transcript diverged from solo at n = {}",
        transform.n
    );
    assert!(
        transform.fleet_dist.per_worker_ops() < transform.solo_dist.per_worker_ops(),
        "per-worker transform ops must shrink with the worker count ({:.0} fleet vs {:.0} solo)",
        transform.fleet_dist.per_worker_ops(),
        transform.solo_dist.per_worker_ops()
    );
    assert!(
        transform.fleet_dist.transform_ops() < transform.fleet_replicated.transform_ops(),
        "distributed fleet must do less total transform work than a replicated fleet \
         ({} vs {})",
        transform.fleet_dist.transform_ops(),
        transform.fleet_replicated.transform_ops()
    );
    println!(
        "transform: per-worker ops {:.0} (fleet) < {:.0} (solo), fleet total {} < {} replicated — ok",
        transform.fleet_dist.per_worker_ops(),
        transform.solo_dist.per_worker_ops(),
        transform.fleet_dist.transform_ops(),
        transform.fleet_replicated.transform_ops()
    );
    let hw = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    if !smoke && hw >= 4 {
        // Only meaningful when the 4 worker threads actually run in
        // parallel; on narrower hosts the fleet rows time-share one
        // core and the comparison is pure scheduler noise.
        assert!(
            transform.fleet_dist.wall_secs <= transform.fleet_replicated.wall_secs * 1.05,
            "distributed fleet must not be slower than the replicated fleet \
             ({:.3}s vs {:.3}s on {hw} hardware threads)",
            transform.fleet_dist.wall_secs,
            transform.fleet_replicated.wall_secs
        );
        println!(
            "transform wall: fleet-dist {:.3}s <= replicated {:.3}s * 1.05 — ok",
            transform.fleet_dist.wall_secs, transform.fleet_replicated.wall_secs
        );
    } else {
        println!(
            "transform wall recorded but not asserted ({} hardware threads{})",
            hw,
            if smoke { ", smoke mode" } else { "" }
        );
    }

    if cfg!(target_os = "linux") {
        assert!(rss_reported, "peak RSS must be reported on Linux");
        println!("peak RSS reported for every run — ok");
    } else {
        println!("peak RSS recorded but not asserted (non-Linux host)");
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transform counters are process-global, so tests that run
    /// full protocol executions serialize on this lock to keep each
    /// other's deltas clean.
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn rss_readout_works_on_linux() {
        if cfg!(target_os = "linux") {
            // Two separate /proc reads race against allocation between
            // them, so only read-once sanity is asserted here.
            let rss = current_rss_kb().expect("VmRSS present");
            assert!(rss > 0);
            let hwm = peak_rss_kb().expect("VmHWM present");
            assert!(hwm > 0);
        }
    }

    #[test]
    fn transform_profile_distributes_work() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let rep = profile_transform(16);
        assert_eq!(
            rep.solo_dist.transcript_hash, rep.fleet_dist.transcript_hash,
            "fleet dist transcript must match solo dist"
        );
        assert!(rep.solo_dist.transform_ops() > 0);
        assert!(
            rep.fleet_dist.transform_ops() < rep.fleet_replicated.transform_ops(),
            "distributing must cut fleet-total transform work ({} vs {})",
            rep.fleet_dist.transform_ops(),
            rep.fleet_replicated.transform_ops()
        );
        assert!(
            rep.fleet_dist.per_worker_ops() < rep.solo_dist.per_worker_ops(),
            "per-worker transform work must decrease with the worker count"
        );
    }

    #[test]
    fn tiny_profile_is_internally_consistent() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let rep = profile_size(16);
        assert_eq!(
            rep.streaming.transcript_hash,
            rep.materialized.transcript_hash
        );
        assert_eq!(rep.streaming.rounds, rep.materialized.rounds);
    }
}
