//! Layer probes: each times one public function of a layer at the
//! workload's exact `(n, k, t)` and degrees, from outside. A probe
//! takes `SAMPLES` samples of `sample_s` seconds each and reports the
//! median sample.

use std::hint::black_box;
use std::time::Instant;

use rand::{Rng, RngCore};
use yoso_core::messages::Post;
use yoso_crypto::{HashPrg, Sha256, Transcript};
use yoso_field::{lagrange, ntt, NttDomain, PrimeField, F61};
use yoso_pss_sharing::{PackedSharing, Share};
use yoso_runtime::{BulletinBoard, RoleId};
use yoso_the::mock::{Ciphertext, LinearPke, MockTe, PkePublicKey, ReshareMsg};
use yoso_the::nizk;

use crate::metrics::median;
use crate::workloads::{rng, Prepared, Workload};

const SAMPLES: usize = 5;

/// Seconds per call of `f`: the median of [`SAMPLES`] samples, each
/// repeating `f` for about `sample_s` seconds.
fn per_call<R>(sample_s: f64, mut f: impl FnMut() -> R) -> f64 {
    let once = Instant::now();
    black_box(f());
    let once = once.elapsed().as_secs_f64().max(1e-9);
    let iters = ((sample_s / once).ceil() as u64).clamp(1, 1 << 22);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&samples)
}

/// Posts per message batch of the board probes.
const BOARD_BATCH: usize = 256;
/// Bytes hashed / generated per call of the crypto throughput probes.
const CRYPTO_BLOCK: usize = 64 * 1024;
/// Dependent operations per call of the field latency probes, so the
/// call overhead vanishes.
const FIELD_CHAIN: usize = 4096;

fn field_vec(r: &mut impl Rng, len: usize) -> Vec<F61> {
    (0..len).map(|_| F61::random(r)).collect()
}

/// The nearest transform size `>= n` the field supports.
fn ntt_size(n: usize) -> usize {
    (n..)
        .find(|&s| ntt::supported_size::<F61>(s))
        .expect("p - 1 has smooth multiples above n")
}

/// Runs every probe; returns `(metric name, value)` pairs. `sample_s`
/// is the time one sample of one probe may take.
#[allow(clippy::too_many_lines)]
pub fn run(w: &Workload, p: &Prepared, sample_s: f64) -> Vec<(&'static str, f64)> {
    let (n, k, t) = (p.params.n, p.params.k, p.params.t);
    let packing_degree = p.params.packing_degree();
    let recon_threshold = p.params.reconstruction_threshold();
    let mut r = rng(0x70726f6265); // "probe": inputs of a probe never depend on the run seed
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let s = sample_s;
    let (ns, us, ms) = (1e9, 1e6, 1e3);

    // --- the: mock threshold encryption ---------------------------------
    let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).expect("n > t");
    let m = F61::random(&mut r);
    let (ct, enc_r) = MockTe::encrypt(&mut r, &pk, m);
    out.push((
        "the.encrypt_ns",
        ns * per_call(s, || MockTe::encrypt(&mut r, &pk, m)),
    ));
    let cts: Vec<Ciphertext<F61>> = (0..n).map(|_| MockTe::encrypt(&mut r, &pk, m).0).collect();
    let coeffs = field_vec(&mut r, n);
    out.push((
        "the.eval_us",
        us * per_call(s, || MockTe::eval(&cts, &coeffs)),
    ));
    out.push((
        "the.partial_decrypt_ns",
        ns * per_call(s, || MockTe::partial_decrypt(&shares[0], &ct)),
    ));
    let partials: Vec<_> = shares[..=t]
        .iter()
        .map(|s| MockTe::partial_decrypt(s, &ct))
        .collect();
    out.push((
        "the.combine_us",
        us * per_call(s, || MockTe::combine(&pk, &ct, &partials)),
    ));
    out.push((
        "the.reshare_us",
        us * per_call(s, || MockTe::reshare(&mut r, &pk, &shares[0])),
    ));
    let msgs: Vec<ReshareMsg<F61>> = shares[..=t]
        .iter()
        .map(|s| MockTe::reshare(&mut r, &pk, s))
        .collect();
    out.push((
        "the.reshare_verify_us",
        us * per_call(s, || MockTe::reshare_is_valid(&pk, &msgs[0])),
    ));
    let msg_refs: Vec<&ReshareMsg<F61>> = msgs.iter().collect();
    out.push((
        "the.recombine_key_us",
        us * per_call(s, || MockTe::recombine_key(&pk, 0, &msg_refs)),
    ));

    // --- the::nizk: the four sigma proofs on the board -------------------
    let enc = nizk::enc_proof(&mut r, &pk, &ct, m, enc_r);
    out.push((
        "the.nizk.enc_prove_us",
        us * per_call(s, || nizk::enc_proof(&mut r, &pk, &ct, m, enc_r)),
    ));
    out.push((
        "the.nizk.enc_verify_us",
        us * per_call(s, || nizk::verify_enc_proof(&pk, &ct, &enc)),
    ));
    let d = partials[0].value;
    let pdec = nizk::pdec_proof(&mut r, &pk, &ct, 0, shares[0].value, d);
    out.push((
        "the.nizk.pdec_prove_us",
        us * per_call(s, || {
            nizk::pdec_proof(&mut r, &pk, &ct, 0, shares[0].value, d)
        }),
    ));
    out.push((
        "the.nizk.pdec_verify_us",
        us * per_call(s, || nizk::verify_pdec_proof(&pk, &ct, 0, d, &pdec)),
    ));
    let kff = LinearPke::<F61>::keygen(&mut r);
    let (slope, offset) = (F61::random(&mut r), F61::random(&mut r));
    let published = offset - kff.secret.scalar * slope;
    let share = nizk::share_proof(
        &mut r,
        &kff.public,
        slope,
        offset,
        published,
        kff.secret.scalar,
    );
    out.push((
        "the.nizk.share_prove_us",
        us * per_call(s, || {
            nizk::share_proof(
                &mut r,
                &kff.public,
                slope,
                offset,
                published,
                kff.secret.scalar,
            )
        }),
    ));
    out.push((
        "the.nizk.share_verify_us",
        us * per_call(s, || {
            nizk::verify_share_proof(&kff.public, slope, offset, published, &share)
        }),
    ));
    // The handover's re-share statement, built as `core::tsk` builds it:
    // Feldman commitments plus one encrypted subshare per recipient.
    let recipient_pks: Vec<PkePublicKey<F61>> =
        (0..n).map(|_| LinearPke::keygen(&mut r).public).collect();
    let mut poly = vec![shares[0].value];
    poly.extend(field_vec(&mut r, t));
    let commitments: Vec<F61> = poly.iter().map(|&a| a * pk.g).collect();
    let (mut enc_subshares, mut rands) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for (j, rpk) in recipient_pks.iter().enumerate() {
        let x = F61::from_u64(j as u64 + 1);
        let sub = poly.iter().rev().fold(F61::ZERO, |acc, &a| acc * x + a);
        let (c, rand) = LinearPke::encrypt(&mut r, rpk, sub);
        enc_subshares.push(c);
        rands.push(rand);
    }
    let reshare = nizk::reshare_proof(
        &mut r,
        &pk,
        &commitments,
        &recipient_pks,
        &enc_subshares,
        &poly,
        &rands,
    );
    out.push((
        "the.nizk.reshare_prove_us",
        us * per_call(s, || {
            nizk::reshare_proof(
                &mut r,
                &pk,
                &commitments,
                &recipient_pks,
                &enc_subshares,
                &poly,
                &rands,
            )
        }),
    ));
    out.push((
        "the.nizk.reshare_verify_us",
        us * per_call(s, || {
            nizk::verify_reshare_proof(
                &pk,
                0,
                &commitments,
                &recipient_pks,
                &enc_subshares,
                &reshare,
            )
        }),
    ));

    // --- pss: packed sharing at the protocol's degrees -------------------
    let pss = PackedSharing::<F61>::with_layout(n, k, p.params.layout).expect("k <= n");
    let secrets = field_vec(&mut r, k);
    out.push((
        "pss.share_us",
        us * per_call(s, || pss.share(&mut r, &secrets, packing_degree)),
    ));
    let product_degree = recon_threshold - 1;
    let dealt = pss
        .share(&mut r, &secrets, product_degree)
        .expect("t + 2(k-1) < n");
    let recon_shares: Vec<Share<F61>> = (0..recon_threshold).map(|i| dealt.share_of(i)).collect();
    out.push((
        "pss.reconstruct_us",
        us * per_call(s, || pss.reconstruct(&recon_shares, product_degree)),
    ));
    out.push((
        "pss.share_public_us",
        us * per_call(s, || pss.share_public(&secrets)),
    ));
    // Cold paths — what an execution pays once: a recombination vector
    // for a party subset the scheme has not seen (a fresh scheme every
    // `period` rotations, so its cache never holds the subset asked for),
    // and the dealing rows of a fresh scheme.
    let fresh = || PackedSharing::<F61>::with_layout(n, k, p.params.layout).expect("k <= n");
    let period = n.min(64);
    let (mut cold, mut rotation) = (fresh(), 0usize);
    out.push((
        "pss.recombination_vector_us",
        us * per_call(s, || {
            rotation += 1;
            if rotation == period {
                (cold, rotation) = (fresh(), 0);
            }
            let parties: Vec<usize> = (0..recon_threshold).map(|i| (rotation + i) % n).collect();
            cold.recombination_vector(&parties, 0)
        }),
    ));
    out.push((
        "pss.dealing_basis_rows_ms",
        ms * per_call(s, || fresh().dealing_basis_rows(packing_degree)),
    ));

    // --- field ------------------------------------------------------------
    let x0 = F61::random(&mut r);
    let y0 = F61::from_u64(r.gen::<u64>() | 1);
    out.push((
        "field.mul_ns",
        ns / FIELD_CHAIN as f64 * per_call(s, || (0..FIELD_CHAIN).fold(x0, |acc, _| acc * y0)),
    ));
    out.push((
        "field.inv_ns",
        ns / 64.0
            * per_call(s, || {
                (0..64).fold(y0, |acc, _| acc.inv().unwrap_or(F61::ONE) + F61::ONE)
            }),
    ));
    let nonzero: Vec<F61> = (0..n as u64).map(|i| F61::from_u64(i + 1)).collect();
    out.push((
        "field.batch_invert_ns_per_elem",
        ns / n as f64 * per_call(s, || lagrange::batch_invert(&nonzero)),
    ));
    let xs = &nonzero[..recon_threshold];
    out.push((
        "field.basis_at_us",
        us * per_call(s, || lagrange::basis_at(xs, F61::ZERO)),
    ));
    let ys = field_vec(&mut r, t + 1);
    out.push((
        "field.interpolate_us",
        us * per_call(s, || lagrange::interpolate(&nonzero[..=t], &ys)),
    ));
    let size = ntt_size(n);
    let domain = NttDomain::<F61>::new(size).expect("supported size");
    let poly_coeffs = field_vec(&mut r, size);
    out.push((
        "field.ntt_forward_us",
        us * per_call(s, || domain.forward(&poly_coeffs)),
    ));

    // --- crypto -----------------------------------------------------------
    let mut block = vec![0u8; CRYPTO_BLOCK];
    r.fill_bytes(&mut block);
    let mb = CRYPTO_BLOCK as f64 / 1e6;
    out.push((
        "crypto.sha256_mb_per_s",
        mb / per_call(s, || Sha256::digest(&block)),
    ));
    let mut prg = HashPrg::from_bytes(b"benchmark");
    out.push((
        "crypto.prg_mb_per_s",
        mb / per_call(s, || prg.fill_bytes(black_box(&mut block))),
    ));
    out.push((
        "crypto.challenge_us",
        us * per_call(s, || {
            // A sigma-protocol challenge: a handful of absorbed elements.
            let mut tr = Transcript::new(b"benchmark/challenge");
            for v in &secrets[..k.min(8)] {
                tr.absorb_field(b"v", *v);
            }
            tr.challenge_field::<F61>(b"c")
        }),
    ));

    // --- circuit ----------------------------------------------------------
    out.push(("circuit.build_ms", ms * per_call(s, || w.build_circuit(k))));
    out.push((
        "circuit.batched_ms",
        ms * per_call(s, || p.circuit.batched(k)),
    ));
    out.push((
        "circuit.evaluate_ms",
        ms * per_call(s, || p.circuit.evaluate(&p.inputs)),
    ));

    // --- yoso: board throughput, in process and over loopback TCP --------
    let batch = vec![Post::MulShare; BOARD_BATCH];
    let role = RoleId::new("probe", 0);
    // One sample = one fresh board filled for `sample_s`, so the log a
    // post appends to has the same size distribution in every sample.
    let fill = |board: &BulletinBoard<Post>| -> f64 {
        let start = Instant::now();
        let mut posts = 0u64;
        while start.elapsed().as_secs_f64() < sample_s {
            board
                .post_batch(role.clone(), "online/3-mult", &batch, 1, 8)
                .expect("probe board accepts posts");
            posts += BOARD_BATCH as u64;
        }
        posts as f64 / start.elapsed().as_secs_f64()
    };
    let inproc: Vec<f64> = (0..SAMPLES).map(|_| fill(&BulletinBoard::new())).collect();
    out.push(("yoso.board.inproc_posts_per_s", median(&inproc)));
    let (mut tcp_post, mut tcp_read) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        let (mut server, board) = yoso_runtime::tcp::loopback::<Post>().expect("loopback board");
        tcp_post.push(fill(&board));
        let start = Instant::now();
        let read = board.postings().expect("loopback read").len();
        tcp_read.push(read as f64 / start.elapsed().as_secs_f64());
        server.shutdown();
    }
    out.push(("yoso.tcp.posts_per_s", median(&tcp_post)));
    out.push(("yoso.tcp.read_posts_per_s", median(&tcp_read)));
    out
}
