//! Ablation A2: where the communication goes — proofs vs payloads,
//! and per-phase breakdown.
//!
//! The paper prices everything in ring elements but does not break the
//! costs down. This ablation decomposes the measured traffic of one
//! protocol run into protocol payload vs NIZK overhead (computed from
//! the message layout constants that the meter charges), per phase.
//!
//! ```text
//! cargo run --release -p yoso-bench --bin ablation_nizk
//! ```

#![forbid(unsafe_code)]

use yoso_bench::{gap_params, random_inputs, rng, workload};
use yoso_core::messages::{
    decrypt_elements, mulshare_elements, proof_elements, reencrypt_elements, reshare_elements,
    CT_ELEMENTS, ENC_PROOF_ELEMENTS, MULSHARE_PROOF_ELEMENTS, PDEC_PROOF_ELEMENTS,
};
use yoso_core::{Engine, ExecutionConfig};
use yoso_runtime::Adversary;

fn main() {
    let n = 32;
    let params = gap_params(n, 0.25);
    let circuit = workload(params.k, 2, 2);
    let mut r = rng(70);
    let inputs = random_inputs(&mut r, &circuit);
    let engine = Engine::new(params, ExecutionConfig::sweep());
    let run = engine.run(&mut r, &circuit, &inputs, &Adversary::none()).expect("run");

    // Proof fraction per message type (from the metered layout). A
    // `Decrypt`, `Re-encrypt` or `3-mult` message of m values carries one
    // proof, so its fraction falls with m: shown at m = 1, and taken from
    // each phase's own message size below.
    let frac = |payload: u64, proof: u64| proof as f64 / (payload + proof) as f64;
    let contribution = frac(CT_ELEMENTS, ENC_PROOF_ELEMENTS);
    let beaver_b = frac(2 * CT_ELEMENTS, proof_elements(4, 2));
    // m from a message's size: m + 3, 5m + 2, B + 3 elements.
    let pdec = |size: u64| PDEC_PROOF_ELEMENTS as f64 / size as f64;
    let enc_pdec = |size: u64| {
        let m = size.saturating_sub(2) / 5;
        (reencrypt_elements(m) - m * CT_ELEMENTS) as f64 / size as f64
    };
    let mulshare = |size: u64| MULSHARE_PROOF_ELEMENTS as f64 / size as f64;
    let nt = (n as u64, params.t as u64);
    let reshare_total = reshare_elements(nt.0, nt.1);
    let reshare_payload = (nt.1 + 1) + nt.0 * CT_ELEMENTS;
    let reshare = frac(reshare_payload, reshare_total - reshare_payload);

    println!("A2 — NIZK share of traffic at n = {n}, t = {}, k = {}\n", params.t, params.k);
    println!("per-message proof fractions:");
    println!("  TEnc contribution        {:>5.1}%", 100.0 * contribution);
    println!("  Beaver b-side            {:>5.1}%", 100.0 * beaver_b);
    println!("  partial decryption       {:>5.1}%", 100.0 * pdec(decrypt_elements(1)));
    println!("  encrypted partial (re-enc) {:>3.1}%", 100.0 * enc_pdec(reencrypt_elements(1)));
    println!("  online μ-share           {:>5.1}%", 100.0 * mulshare(mulshare_elements(1)));
    println!("  tsk re-share             {:>5.1}%", 100.0 * reshare);

    println!("\nper-phase totals (elements) and estimated proof share:");
    let proof_share_of_phase = |phase: &str, size: u64| -> f64 {
        match phase {
            p if p.starts_with("offline/1") => (contribution + beaver_b) / 2.0,
            p if p.starts_with("offline/2") || p.starts_with("offline/4") => contribution,
            p if p.starts_with("offline/3") => pdec(size),
            p if p.starts_with("offline/5") || p.starts_with("offline/6") => enc_pdec(size),
            p if p.starts_with("online/1") || p.starts_with("online/4") => enc_pdec(size),
            p if p.starts_with("online/3") => mulshare(size),
            p if p.contains("handover") => reshare,
            _ => 0.0,
        }
    };
    let mut total = 0u64;
    let mut total_proof = 0.0;
    for (phase, stats) in &run.phases {
        let share = proof_share_of_phase(phase, stats.elements / stats.messages.max(1));
        println!(
            "  {phase:<26} {:>10}   ~{:>4.1}% proofs",
            stats.elements,
            100.0 * share
        );
        total += stats.elements;
        total_proof += stats.elements as f64 * share;
    }
    println!(
        "\noverall: {:.1}% of the {} posted elements are NIZK overhead — a \n\
         constant factor, leaving the asymptotic claims untouched.",
        100.0 * total_proof / total as f64,
        total
    );
}
