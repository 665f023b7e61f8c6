//! Paper-scale profile: the `yoso bench-scale` harness.
//!
//! Runs the mock-scheme end-to-end protocol once at each Table-1
//! committee size (`n ∈ {512, 1024, 2048}`, `ε = 0.25`) and records:
//!
//! - wall-clock per protocol stage,
//! - peak RSS (`VmHWM`) and current RSS (`VmRSS`) from
//!   `/proc/self/status`,
//! - the FNV-1a 64 transcript hash (folded after the clock stops).
//!
//! The report lands in `BENCH_scale.json` at the repo root (`--smoke`
//! shrinks the sizes for CI). Every run's outputs are checked against
//! the cleartext evaluation of its circuit.
//!
//! Sizes run in ascending order: `VmHWM` is a monotone per-process
//! high-water mark, so each size's reading is its own peak only because
//! every earlier run was smaller.

use std::time::Instant;

use yoso_core::messages::Post;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_runtime::{Adversary, BulletinBoard, PhaseAccumulator};

use crate::{random_inputs, rng, workload};

/// Committee sizes for the full profile (Table 1's range).
pub const FULL_SIZES: [usize; 3] = [512, 1024, 2048];
/// Committee sizes for `--smoke` (CI-fast).
pub const SMOKE_SIZES: [usize; 2] = [32, 64];
/// Corruption gap used throughout the experiments.
pub const EPSILON: f64 = 0.25;

/// The execution at one committee size and its measurements.
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
/// process).
pub fn peak_rss_kb() -> Option<u64> {
    read_status_kb("VmHWM")
}

/// Current resident set size in kB (`VmRSS`; Linux only).
pub fn current_rss_kb() -> Option<u64> {
    read_status_kb("VmRSS")
}

/// Profiles one committee size. Proofs are off: the profile is about
/// committee-size scaling of the protocol paths, not NIZK cost.
///
/// # Panics
///
/// If the run fails or its outputs differ from the cleartext
/// evaluation of the circuit.
pub fn profile_size(n: usize) -> SizeReport {
    let params = ProtocolParams::from_gap(n, EPSILON).expect("Table-1 sizes are feasible");
    let seed = 97 + n as u64;
    let mut r = rng(seed);
    let circuit = workload(params.k, 1, 2);
    let inputs = random_inputs(&mut r, &circuit);

    let cfg = ExecutionConfig { produce_proofs: false, ..ExecutionConfig::default() };
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let mut r = rng(seed);
    let start = Instant::now();
    let run = Engine::new(params, cfg)
        .run_with_board(&mut r, &circuit, &inputs, &Adversary::none(), &board)
        .expect("scale bench run succeeds");
    let wall_secs = start.elapsed().as_secs_f64();
    let (peak_rss_kb, rss_kb) = (peak_rss_kb(), current_rss_kb());

    let expected = circuit.evaluate(&inputs).expect("workload circuit evaluates");
    assert_eq!(run.outputs, expected, "outputs differ from cleartext evaluation (n = {n})");
    let mut acc = PhaseAccumulator::new();
    acc.finish(&board).expect("in-process board is readable");

    SizeReport {
        n,
        k: params.k,
        t: params.t,
        mul_gates: circuit.mul_count(),
        seed,
        wall_secs,
        stage_wall_secs: run.stage_wall_secs,
        transcript_hash: acc.transcript_hash(),
        peak_rss_kb,
        rss_kb,
        rounds: run.rounds,
    }
}

fn push_size_json(json: &mut String, rep: &SizeReport, last: bool) {
    use std::fmt::Write as _;
    let opt = |v: Option<u64>| v.map_or_else(|| "null".into(), |x| x.to_string());
    writeln!(json, "    {{").unwrap();
    writeln!(json, "      \"n\": {},", rep.n).unwrap();
    writeln!(json, "      \"k\": {},", rep.k).unwrap();
    writeln!(json, "      \"t\": {},", rep.t).unwrap();
    writeln!(json, "      \"mul_gates\": {},", rep.mul_gates).unwrap();
    writeln!(json, "      \"seed\": {},", rep.seed).unwrap();
    writeln!(json, "      \"wall_secs\": {:.6},", rep.wall_secs).unwrap();
    writeln!(json, "      \"stage_wall_secs\": {{").unwrap();
    for (i, (name, secs)) in rep.stage_wall_secs.iter().enumerate() {
        let comma = if i + 1 == rep.stage_wall_secs.len() { "" } else { "," };
        writeln!(json, "        \"{name}\": {secs:.6}{comma}").unwrap();
    }
    writeln!(json, "      }},").unwrap();
    writeln!(json, "      \"transcript_hash\": \"{:#018x}\",", rep.transcript_hash).unwrap();
    writeln!(json, "      \"peak_rss_kb\": {},", opt(rep.peak_rss_kb)).unwrap();
    writeln!(json, "      \"rss_kb\": {},", opt(rep.rss_kb)).unwrap();
    writeln!(json, "      \"rounds\": {}", rep.rounds).unwrap();
    writeln!(json, "    }}{}", if last { "" } else { "," }).unwrap();
}

/// Runs the full profile, writes `BENCH_scale.json` and prints a
/// summary. Returns the per-size reports for callers that want to
/// post-process.
///
/// # Panics
///
/// See [`profile_size`]; on Linux also if `/proc/self/status` yields no
/// peak RSS.
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
                "  n={:5}  k={:4}  t={:4}  gates={:5}  wall {:>8.2}s, peak RSS {} kB, hash {:#018x}",
                rep.n,
                rep.k,
                rep.t,
                rep.mul_gates,
                rep.wall_secs,
                rep.peak_rss_kb.map_or_else(|| "?".into(), |kb| kb.to_string()),
                rep.transcript_hash,
            );
            rep
        })
        .collect();

    let rss_reported = reports.iter().all(|r| r.peak_rss_kb.is_some());
    let mut json = String::from("{\n");
    writeln!(json, "  \"bench\": \"scale\",").unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(json, "  \"epsilon\": {EPSILON},").unwrap();
    writeln!(json, "  \"sizes\": [").unwrap();
    for (i, rep) in reports.iter().enumerate() {
        push_size_json(&mut json, rep, i + 1 == reports.len());
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"acceptance\": {{").unwrap();
    writeln!(json, "    \"peak_rss_reported\": {rss_reported}").unwrap();
    writeln!(json, "  }}").unwrap();
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}");
    println!("outputs match cleartext evaluation at every size — ok");

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
    fn tiny_profile_is_internally_consistent() {
        // `profile_size` itself asserts outputs = cleartext evaluation.
        let rep = profile_size(16);
        assert_eq!(rep.rounds, 10);
        assert_ne!(rep.transcript_hash, 0);
    }
}
