//! Simultaneous multi-exponentiation: Straus and Pippenger.
//!
//! Computes `Π bᵢ^{eᵢ} mod N²` with **one shared squaring chain** for
//! the whole product instead of one chain per factor. Every batched
//! consumer of the threshold Paillier scheme is a product of powers in
//! disguise — `TEval` linear combinations, `Δ`-scaled Lagrange
//! combining, Feldman commitment checks, and the batched
//! partial-decryption NIZK verifier's random-linear-combination checks
//! — so collapsing the `m` per-factor chains (≈ `m·L` squarings for
//! `L`-bit exponents) into a single `L`-squaring chain plus cheap
//! per-factor table multiplies is where batched threshold decryption's
//! verifier-side speedup comes from.
//!
//! Two algorithms, selected by batch size ([`window_size`]):
//!
//! - **Straus** (small batches): one window table of `2^w − 1` powers
//!   per base; the shared chain squares `w` times per window and
//!   multiplies in each base's digit entry. Table setup is per-base, so
//!   it only amortizes for few bases or long exponents.
//! - **Pippenger** (large batches): one *shared* set of `2^w − 1`
//!   digit buckets; each window sorts every base into its digit bucket
//!   and the bucket sums collapse via the running-product trick. Setup
//!   is per-batch, so wider windows pay off as the batch grows —
//!   `w ≈ log₂(m)`.
//!
//! The module also provides [`fixed_exponent_powers`] for the dual
//! shape — many bases raised to one shared exponent (`TPDec` over a
//! ciphertext batch) — where no cross-base sharing is possible but the
//! exponent's window decomposition is computed once and the chain runs
//! on the dedicated Montgomery squaring.
//!
//! Everything here is panic-free: malformed inputs surface as
//! [`TeError`], never as a panic.

use yoso_bignum::{Int, MontgomeryCtx, Nat, Sign};

use crate::TeError;

/// Batch sizes up to this use Straus; larger batches use Pippenger.
///
/// Crossover: Straus pays `2^w − 2` table multiplies *per base* where
/// Pippenger pays `~2·2^w` bucket multiplies *per window*; with the
/// window sizes below the bucket method wins once a few dozen bases
/// share the chain.
const STRAUS_MAX_BASES: usize = 32;

/// Hard cap on window size (table/bucket space is `2^w − 1` entries).
pub const MAX_WINDOW: usize = 8;

/// Picks the window size for [`multi_exp()`] from the batch length (and,
/// for small batches, the exponent length).
///
/// - Straus regime (`≤ 32` bases): the per-base table of `2^w − 2`
///   multiplies must amortize against the `≈ bits/2^w·(2^w−1)` digit
///   hits, so `w` grows with the exponent bit-length.
/// - Pippenger regime: per-window bucket maintenance costs `≈ 2·2^w`
///   multiplies against one multiply per base, so `w ≈ log₂(m) − 1`.
pub fn window_size(num_bases: usize, max_exp_bits: usize) -> usize {
    if num_bases <= STRAUS_MAX_BASES {
        match max_exp_bits {
            0..=15 => 1,
            16..=63 => 2,
            64..=255 => 3,
            256..=1023 => 4,
            _ => 5,
        }
    } else {
        let lg = (usize::BITS - 1 - num_bases.leading_zeros()) as usize;
        lg.saturating_sub(1).clamp(3, MAX_WINDOW)
    }
}

/// Window size for [`fixed_exponent_powers`]: no cross-base sharing
/// exists there, so the window is chosen from the exponent length
/// alone (the per-base table must amortize against that base's own
/// digit multiplies).
pub fn shared_exponent_window(exp_bits: usize) -> usize {
    match exp_bits {
        0..=255 => 4,
        256..=2047 => 5,
        _ => 6,
    }
}

/// Extracts window digit `wi` (little-endian window order, `w` bits
/// per window) of `e`.
fn window_digit(e: &Nat, wi: usize, w: usize) -> usize {
    let lo = wi * w;
    let mut d = 0usize;
    for b in (0..w).rev() {
        d <<= 1;
        if e.bit(lo + b) {
            d |= 1;
        }
    }
    d
}

/// `Π bᵢ^{eᵢ} mod m` for signed exponents, dispatching to
/// [`straus`]/[`pippenger`] by batch size.
///
/// Negative exponents invert their base once up front.
///
/// # Errors
///
/// - [`TeError::LengthMismatch`] if `bases` and `exps` differ in length.
/// - [`TeError::MalformedCiphertext`] if a base with a negative
///   exponent is not invertible (only possible if the caller has
///   factored `N`).
pub fn multi_exp(ctx: &MontgomeryCtx, bases: &[Nat], exps: &[Int]) -> Result<Nat, TeError> {
    if bases.len() != exps.len() {
        return Err(TeError::LengthMismatch { a: bases.len(), b: exps.len() });
    }
    let mut adj_bases = Vec::with_capacity(bases.len());
    let mut mags = Vec::with_capacity(exps.len());
    for (b, e) in bases.iter().zip(exps) {
        match e.sign() {
            Sign::Zero => {
                adj_bases.push(Nat::one());
                mags.push(Nat::zero());
            }
            Sign::Positive => {
                adj_bases.push(b.clone());
                mags.push(e.magnitude().clone());
            }
            Sign::Negative => {
                let inv = b.mod_inv(ctx.modulus()).ok_or(TeError::MalformedCiphertext)?;
                adj_bases.push(inv);
                mags.push(e.magnitude().clone());
            }
        }
    }
    multi_exp_nat(ctx, &adj_bases, &mags)
}

/// [`multi_exp()`] for unsigned exponents.
///
/// # Errors
///
/// Returns [`TeError::LengthMismatch`] if the slices differ in length.
pub fn multi_exp_nat(ctx: &MontgomeryCtx, bases: &[Nat], exps: &[Nat]) -> Result<Nat, TeError> {
    if bases.len() != exps.len() {
        return Err(TeError::LengthMismatch { a: bases.len(), b: exps.len() });
    }
    let max_bits = exps.iter().map(Nat::bit_len).max().unwrap_or(0);
    let w = window_size(bases.len(), max_bits);
    if bases.len() <= STRAUS_MAX_BASES {
        straus(ctx, bases, exps, w)
    } else {
        pippenger(ctx, bases, exps, w)
    }
}

/// Straus (interleaved window) multi-exponentiation with an explicit
/// window size in `1..=8` (clamped).
///
/// # Errors
///
/// Returns [`TeError::LengthMismatch`] if the slices differ in length.
pub fn straus(
    ctx: &MontgomeryCtx,
    bases: &[Nat],
    exps: &[Nat],
    window: usize,
) -> Result<Nat, TeError> {
    if bases.len() != exps.len() {
        return Err(TeError::LengthMismatch { a: bases.len(), b: exps.len() });
    }
    let w = window.clamp(1, MAX_WINDOW);
    let max_bits = exps.iter().map(Nat::bit_len).max().unwrap_or(0);
    if max_bits == 0 {
        return Ok(&Nat::one() % ctx.modulus());
    }
    // Per-base tables b, b², …, b^(2^w − 1) in Montgomery form.
    let tables: Vec<Vec<Nat>> = bases
        .iter()
        .map(|b| {
            let b_m = ctx.to_mont(b);
            let mut t = Vec::with_capacity((1 << w) - 1);
            t.push(b_m.clone());
            for i in 1..(1 << w) - 1 {
                let prod = ctx.mont_mul(&t[i - 1], &b_m);
                t.push(prod);
            }
            t
        })
        .collect();
    let windows = max_bits.div_ceil(w);
    let mut acc = ctx.one_mont();
    for wi in (0..windows).rev() {
        if wi + 1 != windows {
            for _ in 0..w {
                acc = ctx.mont_sqr(&acc);
            }
        }
        for (table, e) in tables.iter().zip(exps) {
            let d = window_digit(e, wi, w);
            if d != 0 {
                acc = ctx.mont_mul(&acc, &table[d - 1]);
            }
        }
    }
    Ok(ctx.from_mont(&acc))
}

/// Pippenger (bucket) multi-exponentiation with an explicit window
/// size in `1..=8` (clamped).
///
/// # Errors
///
/// Returns [`TeError::LengthMismatch`] if the slices differ in length.
pub fn pippenger(
    ctx: &MontgomeryCtx,
    bases: &[Nat],
    exps: &[Nat],
    window: usize,
) -> Result<Nat, TeError> {
    if bases.len() != exps.len() {
        return Err(TeError::LengthMismatch { a: bases.len(), b: exps.len() });
    }
    let w = window.clamp(1, MAX_WINDOW);
    let max_bits = exps.iter().map(Nat::bit_len).max().unwrap_or(0);
    if max_bits == 0 {
        return Ok(&Nat::one() % ctx.modulus());
    }
    let bases_m: Vec<Nat> = bases.iter().map(|b| ctx.to_mont(b)).collect();
    let windows = max_bits.div_ceil(w);
    let mut acc = ctx.one_mont();
    let mut buckets: Vec<Option<Nat>> = vec![None; (1 << w) - 1];
    for wi in (0..windows).rev() {
        if wi + 1 != windows {
            for _ in 0..w {
                acc = ctx.mont_sqr(&acc);
            }
        }
        for b in buckets.iter_mut() {
            *b = None;
        }
        for (b_m, e) in bases_m.iter().zip(exps) {
            let d = window_digit(e, wi, w);
            if d != 0 {
                buckets[d - 1] = Some(match buckets[d - 1].take() {
                    Some(cur) => ctx.mont_mul(&cur, b_m),
                    None => b_m.clone(),
                });
            }
        }
        // Σ d·Bd via the running-product trick: scanning buckets from
        // the highest digit down, `running` is Π_{d' ≥ d} B_{d'} and
        // multiplying it into `total` once per digit yields Π B_d^d.
        let mut running: Option<Nat> = None;
        let mut total: Option<Nat> = None;
        for b in buckets.iter().rev() {
            if let Some(v) = b {
                running = Some(match &running {
                    Some(r) => ctx.mont_mul(r, v),
                    None => v.clone(),
                });
            }
            if let Some(r) = &running {
                total = Some(match &total {
                    Some(t) => ctx.mont_mul(t, r),
                    None => r.clone(),
                });
            }
        }
        if let Some(t) = &total {
            acc = ctx.mont_mul(&acc, t);
        }
    }
    Ok(ctx.from_mont(&acc))
}

/// Raises every base to the *same* unsigned exponent — the `TPDec`
/// batch shape, where each output is an independent power and no
/// cross-base chain sharing is possible. What *is* shared: the
/// Montgomery context, the exponent's window decomposition (computed
/// once for the whole batch), and the dedicated Montgomery squaring
/// driving each chain. The window grows with the exponent
/// ([`shared_exponent_window`]) since `2Δ·sᵢ` exponents run to
/// thousands of bits.
pub fn fixed_exponent_powers(ctx: &MontgomeryCtx, bases: &[Nat], exp: &Nat) -> Vec<Nat> {
    let bits = exp.bit_len();
    if bits == 0 {
        let one = &Nat::one() % ctx.modulus();
        return vec![one; bases.len()];
    }
    let w = shared_exponent_window(bits);
    let windows = bits.div_ceil(w);
    let digits: Vec<usize> = (0..windows).map(|wi| window_digit(exp, wi, w)).collect();
    bases
        .iter()
        .map(|b| {
            let b_m = ctx.to_mont(b);
            let mut table = Vec::with_capacity((1 << w) - 1);
            table.push(b_m.clone());
            for i in 1..(1 << w) - 1 {
                let prod = ctx.mont_mul(&table[i - 1], &b_m);
                table.push(prod);
            }
            let mut acc = ctx.one_mont();
            for (wi, &d) in digits.iter().enumerate().rev() {
                if wi + 1 != windows {
                    for _ in 0..w {
                        acc = ctx.mont_sqr(&acc);
                    }
                }
                if d != 0 {
                    acc = ctx.mont_mul(&acc, &table[d - 1]);
                }
            }
            ctx.from_mont(&acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup(bits: usize) -> (MontgomeryCtx, rand::rngs::StdRng) {
        let mut r = rand::rngs::StdRng::seed_from_u64(9001);
        let p = yoso_bignum::prime::generate_prime(&mut r, bits);
        let q = yoso_bignum::prime::generate_prime(&mut r, bits);
        (MontgomeryCtx::new(&(&p * &q)), r)
    }

    fn naive(ctx: &MontgomeryCtx, bases: &[Nat], exps: &[Nat]) -> Nat {
        let m = ctx.modulus();
        let mut acc = &Nat::one() % m;
        for (b, e) in bases.iter().zip(exps) {
            acc = acc.mod_mul(&b.mod_pow(e, m), m);
        }
        acc
    }

    #[test]
    fn straus_and_pippenger_match_naive() {
        let (ctx, mut r) = setup(96);
        for count in [1usize, 2, 5, 33, 64] {
            let bases: Vec<Nat> =
                (0..count).map(|_| Nat::random_below(&mut r, ctx.modulus())).collect();
            let exps: Vec<Nat> = (0..count).map(|_| Nat::random_bits(&mut r, 120)).collect();
            let expect = naive(&ctx, &bases, &exps);
            for w in [1, 3, 5, 8] {
                assert_eq!(straus(&ctx, &bases, &exps, w).unwrap(), expect, "straus w={w}");
                assert_eq!(pippenger(&ctx, &bases, &exps, w).unwrap(), expect, "pippenger w={w}");
            }
            assert_eq!(multi_exp_nat(&ctx, &bases, &exps).unwrap(), expect);
        }
    }

    #[test]
    fn zero_and_empty_exponent_edge_cases() {
        let (ctx, mut r) = setup(96);
        let one = &Nat::one() % ctx.modulus();
        assert_eq!(multi_exp_nat(&ctx, &[], &[]).unwrap(), one);
        let bases = vec![Nat::random_below(&mut r, ctx.modulus())];
        assert_eq!(straus(&ctx, &bases, &[Nat::zero()], 4).unwrap(), one);
        assert_eq!(pippenger(&ctx, &bases, &[Nat::zero()], 4).unwrap(), one);
        // A zero exponent among live ones contributes nothing.
        let b2 = vec![bases[0].clone(), Nat::random_below(&mut r, ctx.modulus())];
        let e2 = vec![Nat::zero(), Nat::from(7u64)];
        assert_eq!(
            multi_exp_nat(&ctx, &b2, &e2).unwrap(),
            b2[1].mod_pow(&Nat::from(7u64), ctx.modulus())
        );
    }

    #[test]
    fn signed_exponents_invert_bases() {
        let (ctx, mut r) = setup(96);
        let m = ctx.modulus().clone();
        let b = loop {
            let cand = Nat::random_below(&mut r, &m);
            if cand.gcd(&m).is_one() {
                break cand;
            }
        };
        let e = Nat::from(12_345u64);
        let pos = b.mod_pow(&e, &m);
        let neg = multi_exp(&ctx, std::slice::from_ref(&b), &[-Int::from_nat(e)]).unwrap();
        assert_eq!(pos.mod_mul(&neg, &m), Nat::one(), "b^e · b^-e = 1");
    }

    #[test]
    fn length_mismatch_rejected() {
        let (ctx, mut r) = setup(64);
        let b = vec![Nat::random_below(&mut r, ctx.modulus())];
        assert!(matches!(
            multi_exp_nat(&ctx, &b, &[]),
            Err(TeError::LengthMismatch { a: 1, b: 0 })
        ));
        assert!(matches!(
            multi_exp(&ctx, &b, &[]),
            Err(TeError::LengthMismatch { a: 1, b: 0 })
        ));
    }

    #[test]
    fn fixed_exponent_powers_match_mod_pow() {
        let (ctx, mut r) = setup(96);
        for exp_bits in [1usize, 64, 300, 2100] {
            let e = Nat::random_bits(&mut r, exp_bits);
            let bases: Vec<Nat> =
                (0..5).map(|_| Nat::random_below(&mut r, ctx.modulus())).collect();
            let got = fixed_exponent_powers(&ctx, &bases, &e);
            for (b, g) in bases.iter().zip(&got) {
                assert_eq!(g, &b.mod_pow(&e, ctx.modulus()), "exp_bits={exp_bits}");
            }
        }
        assert_eq!(
            fixed_exponent_powers(&ctx, &[Nat::from(5u64)], &Nat::zero()),
            vec![Nat::one()]
        );
    }
}
