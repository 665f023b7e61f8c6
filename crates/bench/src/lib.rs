//! Shared helpers for the experiment harness.
//!
//! The binaries in `src/bin/` regenerate every quantitative artifact of
//! the paper (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured records):
//!
//! | Binary | Experiment | Artifact |
//! |---|---|---|
//! | `table1` | E1 | Table 1 (§6 committee-size analysis) |
//! | `online_comm` | E2 | online elements/gate vs `n` — ours flat, baseline linear |
//! | `offline_comm` | E3 | offline elements/gate vs `n` — both linear |
//! | `improvement` | E4 | §1.1.2 improvement factors (28×, >1000×) |
//! | `failstop` | E5 | §5.4 crash-tolerance sweep |
//! | `sortition_mc` | E6 | Monte-Carlo validation of the §6 tail bounds |
//! | `god_attack` | E7 | GOD under every active-attack strategy |
//! | `it_comparison` | E9 | the gap in the information-theoretic setting (§7) |
//! | `ablation_packing` | A1 | packing factor `k` as the design dial |
//! | `ablation_nizk` | A2 | NIZK share of posted traffic |
//! | `hotpath` | P1 | threshold-Paillier fast paths (`BENCH_hotpath.json`) |
//!
//! Performance of the protocol paths is measured by the repository
//! benchmark (`BENCHMARK.json`, package `src/bin/benchmark/`): the
//! `hotpath` columns it superseded — `board_configs`, `worker_configs`,
//! `interp_configs`, `recon_speedup` — and the `hot_alloc_ratio` column
//! of [`scale`] are now its metrics `yoso.tcp.posts_per_s`,
//! `fleet-tcp/exec_s`, `field.ntt_forward_us`, `pss.reconstruct_us` and
//! `pss.hot_allocs_per_gate`. [`scale`] keeps the one profile the
//! benchmark's 20-second workloads cannot hold: a run per Table-1
//! committee size up to n = 2048, with peak RSS (`BENCH_scale.json`).

#![forbid(unsafe_code)]

pub mod scale;

use rand::SeedableRng;

use yoso_circuit::{generators, Circuit};
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_field::{F61, PrimeField};
use yoso_runtime::Adversary;

/// Deterministic RNG for experiments.
pub fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Derives the paper-recommended parameters for committee size `n` and
/// gap `epsilon`, panicking on infeasible combinations (experiment
/// configs are fixed).
pub fn gap_params(n: usize, epsilon: f64) -> ProtocolParams {
    ProtocolParams::from_gap(n, epsilon).expect("experiment parameters must be feasible")
}

/// The standard experiment workload: a wide layered circuit whose
/// width scales with the packing factor so each layer forms
/// `width / k` full batches (the paper's "circuit width `O(n)`"
/// assumption).
pub fn workload(k: usize, batches_per_layer: usize, depth: usize) -> Circuit<F61> {
    generators::wide_layered::<F61>(k * batches_per_layer, depth, 2)
        .expect("workload circuit builds")
}

/// Random inputs matching a circuit's input layout.
pub fn random_inputs<R: rand::Rng + ?Sized>(rng: &mut R, circuit: &Circuit<F61>) -> Vec<Vec<F61>> {
    circuit
        .inputs_per_client()
        .iter()
        .map(|wires| wires.iter().map(|_| F61::random(rng)).collect())
        .collect()
}

/// Runs the packed protocol on the standard workload and returns
/// `(online elements/gate, offline elements/gate)`.
pub fn measure_packed(
    seed: u64,
    params: ProtocolParams,
    batches_per_layer: usize,
    depth: usize,
) -> (f64, f64) {
    let mut r = rng(seed);
    let circuit = workload(params.k, batches_per_layer, depth);
    let inputs = random_inputs(&mut r, &circuit);
    let engine = Engine::new(params, ExecutionConfig::sweep());
    let run = engine
        .run(&mut r, &circuit, &inputs, &Adversary::none())
        .expect("experiment run succeeds");
    (run.online_elements_per_gate(), run.offline_elements_per_gate())
}

/// Runs the CDN baseline on the same workload and returns its online
/// elements/gate (multiplication traffic only, matching
/// [`measure_packed`]'s numerator).
pub fn measure_baseline(
    seed: u64,
    params: ProtocolParams,
    k_for_workload: usize,
    batches_per_layer: usize,
    depth: usize,
) -> f64 {
    let mut r = rng(seed);
    let circuit = workload(k_for_workload, batches_per_layer, depth);
    let inputs = random_inputs(&mut r, &circuit);
    let engine = yoso_core::baseline::BaselineEngine::new(params, ExecutionConfig::sweep());
    let run = engine
        .run(&mut r, &circuit, &inputs, &Adversary::none())
        .expect("baseline run succeeds");
    run.online_elements_per_gate()
}

/// The paper's Table 1 (§6) as the `table1` experiment and `yoso
/// table1` both print it: the header, then one row per sample
/// parameter set (`⊥` where there is no positive gap).
pub fn table1_lines() -> Vec<String> {
    let mut lines = vec![format!(
        "{:>7} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "C", "f", "t", "c", "c'", "eps", "k"
    )];
    for r in yoso_sortition::table1() {
        let (c, f) = (r.c_param as u64, r.f);
        lines.push(match r.analysis {
            Some(a) => format!(
                "{c:>7} {f:>6.2} {:>8} {:>8} {:>8} {:>8.2} {:>8}",
                a.t, a.c, a.c_prime, a.eps, a.k
            ),
            None => format!("{c:>7} {f:>6.2} {0:>8} {0:>8} {0:>8} {0:>8} {0:>8}", "⊥"),
        });
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let c = workload(3, 2, 2);
        assert_eq!(c.mul_count(), 12);
        assert_eq!(c.mul_depth(), 2);
    }

    #[test]
    fn measured_costs_are_positive_and_ordered() {
        let params = gap_params(12, 0.25);
        let (online, offline) = measure_packed(1, params, 2, 1);
        assert!(online > 0.0);
        assert!(offline > online, "offline {offline} should dominate online {online}");
    }
}
