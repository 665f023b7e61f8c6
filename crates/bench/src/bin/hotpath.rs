//! Paillier hot-path smoke benchmark (single short run).
//!
//! Times the two threshold-Paillier inner loops the repository
//! benchmark (`BENCHMARK.json`) has no workload for — Paillier is on
//! no protocol-workload path — at batch sizes 32, 128 and 512,
//! comparing the optimized paths (fixed-base [`EncryptionContext`]
//! tables, Straus/Pippenger multi-exponentiation) against the naive
//! per-call costs they replace. Prints a table of ns/op and writes the
//! machine-readable record to `BENCH_hotpath.json` at the repo root.
//!
//! With `--smoke`, runs a single tiny batch (16) and skips the
//! acceptance assertions — the CI mode that keeps the bench path from
//! rotting without paying for a full run.
//!
//! Acceptance targets at batch 512: ≥2× on batched Paillier
//! encryption and ≥2× on the multi-exp verified-decryption pipeline.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rand::SeedableRng;
use yoso_bignum::Nat;
use yoso_the::paillier::nizk::{prove_pdec, verify_pdec, verify_pdec_batch, PdecProof};
use yoso_the::paillier::{Ciphertext, EncryptionContext, PartialDec, ThresholdPaillier};

/// Batch sizes exercised (ciphertexts per committee member's epoch).
const SIZES: [usize; 3] = [32, 128, 512];
/// Paillier prime size — small enough for a smoke run, large enough
/// that exponentiation dominates.
const PRIME_BITS: usize = 256;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Median-of-3 wall time of `iters` runs of `f`, in ns per iteration.
fn time_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[1]
}

struct Row {
    batch: usize,
    enc_naive_ns: f64,
    enc_batched_ns: f64,
    enc_speedup: f64,
    pdec_naive_ns: f64,
    pdec_multiexp_ns: f64,
    pdec_speedup: f64,
}

fn bench_paillier(batch: usize) -> (f64, f64) {
    let mut r = rng(11);
    let (pk, _) = ThresholdPaillier::keygen(&mut r, PRIME_BITS, 3, 1).unwrap();
    let ms: Vec<Nat> =
        (0..batch).map(|_| Nat::random_below(&mut r, &pk.n_mod)).collect();

    let naive_total = time_ns(1, || {
        ms.iter()
            .map(|m| ThresholdPaillier::encrypt(&mut r, &pk, m))
            .collect::<Vec<_>>()
    });
    // The batched path includes the table build: that is the real cost
    // a committee member pays once per epoch before encrypting its
    // batch of contributions.
    let batched_total = time_ns(1, || {
        let ctx = EncryptionContext::new(&mut r, &pk);
        ctx.encrypt_batch(&mut r, &pk, &ms)
    });
    (naive_total / batch as f64, batched_total / batch as f64)
}

/// The verified threshold-decryption pipeline over a batch of
/// ciphertexts: t+1 partial decryptions per ciphertext, NIZK
/// verification of every partial, and the Lagrange combine. Naive =
/// per-ciphertext loop ([`ThresholdPaillier::partial_decrypt`] +
/// [`verify_pdec`] + [`ThresholdPaillier::combine`]); multiexp =
/// the batched pipeline ([`ThresholdPaillier::partial_decrypt_batch`]
/// + [`verify_pdec_batch`] + [`ThresholdPaillier::combine_batch`]).
///
/// Proofs are generated outside the timed region — both columns
/// measure the decrypting side only. Returns ns per ciphertext.
fn bench_pdec(batch: usize) -> (f64, f64) {
    let mut r = rng(17);
    let (pk, shares) = ThresholdPaillier::keygen(&mut r, PRIME_BITS, 3, 1).unwrap();
    let subset = &shares[..pk.threshold + 1];
    let cts: Vec<Ciphertext> = (0..batch)
        .map(|_| {
            let m = Nat::random_below(&mut r, &pk.n_mod);
            ThresholdPaillier::encrypt(&mut r, &pk, &m).0
        })
        .collect();
    // proofs[si][ci] proves subset[si]'s partial decryption of cts[ci].
    let proofs: Vec<Vec<PdecProof>> = subset
        .iter()
        .map(|share| {
            cts.iter()
                .map(|ct| {
                    let pd = ThresholdPaillier::partial_decrypt(&pk, share, ct);
                    prove_pdec(&mut r, &pk, ct, share, &pd)
                })
                .collect()
        })
        .collect();

    let naive_total = time_ns(1, || {
        let mut out = Vec::with_capacity(batch);
        for (ci, ct) in cts.iter().enumerate() {
            let mut partials = Vec::with_capacity(subset.len());
            for (si, share) in subset.iter().enumerate() {
                let pd = ThresholdPaillier::partial_decrypt(&pk, share, ct);
                assert!(verify_pdec(&pk, ct, &pd, &proofs[si][ci]));
                partials.push(pd);
            }
            out.push(ThresholdPaillier::combine(&pk, &partials, &Nat::one()).unwrap());
        }
        out
    });
    let multiexp_total = time_ns(1, || {
        let per_share: Vec<Vec<PartialDec>> = subset
            .iter()
            .map(|share| ThresholdPaillier::partial_decrypt_batch(&pk, share, &cts))
            .collect();
        let mut items: Vec<(&Ciphertext, &PartialDec, &PdecProof)> =
            Vec::with_capacity(subset.len() * batch);
        for (si, pds) in per_share.iter().enumerate() {
            for (ci, ct) in cts.iter().enumerate() {
                items.push((ct, &pds[ci], &proofs[si][ci]));
            }
        }
        assert!(verify_pdec_batch(&mut r, &pk, &items));
        let sets: Vec<Vec<PartialDec>> = (0..batch)
            .map(|ci| per_share.iter().map(|pds| pds[ci].clone()).collect())
            .collect();
        ThresholdPaillier::combine_batch(&pk, &sets, &Nat::one()).unwrap()
    });
    (naive_total / batch as f64, multiexp_total / batch as f64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: Vec<usize> = if smoke { vec![16] } else { SIZES.to_vec() };
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>14} {:>16} {:>8}",
        "batch", "enc ns", "enc batch ns", "speedup", "pdec naive ns", "pdec multiexp ns", "speedup"
    );
    for &batch in &sizes {
        let (enc_naive_ns, enc_batched_ns) = bench_paillier(batch);
        let (pdec_naive_ns, pdec_multiexp_ns) = bench_pdec(batch);
        let row = Row {
            batch,
            enc_naive_ns,
            enc_batched_ns,
            enc_speedup: enc_naive_ns / enc_batched_ns,
            pdec_naive_ns,
            pdec_multiexp_ns,
            pdec_speedup: pdec_naive_ns / pdec_multiexp_ns,
        };
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>7.1}x {:>14.0} {:>16.0} {:>7.1}x",
            row.batch,
            row.enc_naive_ns,
            row.enc_batched_ns,
            row.enc_speedup,
            row.pdec_naive_ns,
            row.pdec_multiexp_ns,
            row.pdec_speedup
        );
        rows.push(row);
    }

    let mut json = String::from("{\n  \"bench\": \"hotpath\",\n");
    let _ = writeln!(json, "  \"paillier_prime_bits\": {PRIME_BITS},");
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"batch\": {}, \"paillier_encrypt_naive_ns\": {:.0}, \
             \"paillier_encrypt_batched_ns\": {:.0}, \"paillier_speedup\": {:.2}, \
             \"partial_decrypt_naive_ns\": {:.0}, \"partial_decrypt_multiexp_ns\": {:.0}, \
             \"partial_decrypt_speedup\": {:.2}}}",
            r.batch,
            r.enc_naive_ns,
            r.enc_batched_ns,
            r.enc_speedup,
            r.pdec_naive_ns,
            r.pdec_multiexp_ns,
            r.pdec_speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    println!("\nwrote {path}");

    if smoke {
        println!("smoke mode: acceptance assertions skipped");
        return;
    }
    let last = rows.last().expect("at least one batch size");
    // Table construction amortizes with batch size; the target applies
    // at the protocol's operating scale, not at tiny batches.
    assert!(
        last.enc_speedup >= 2.0,
        "batched Paillier encryption at batch {} must be ≥2× naive (got {:.1}×)",
        last.batch,
        last.enc_speedup
    );
    assert!(
        last.pdec_speedup >= 2.0,
        "multi-exp verified decryption at batch {} must be ≥2× the per-ciphertext loop (got {:.1}×)",
        last.batch,
        last.pdec_speedup
    );
    println!(
        "acceptance: paillier {:.1}x (>=2x), pdec {:.1}x (>=2x) at batch {} — ok",
        last.enc_speedup, last.pdec_speedup, last.batch
    );
}
