//! Property-based tests for field axioms, polynomials and
//! Lagrange interpolation.

use proptest::prelude::*;
use yoso_field::{lagrange, EvalDomain, F61, NttDomain, Poly, PrimeField};

fn felt() -> impl Strategy<Value = F61> {
    any::<u64>().prop_map(F61::from_u64)
}

fn poly_strategy(max_deg: usize) -> impl Strategy<Value = Poly<F61>> {
    prop::collection::vec(felt(), 0..=max_deg + 1).prop_map(Poly::new)
}

proptest! {
    #[test]
    fn field_axioms(a in felt(), b in felt(), c in felt()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + F61::ZERO, a);
        prop_assert_eq!(a * F61::ONE, a);
        prop_assert_eq!(a + (-a), F61::ZERO);
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn inverse_is_two_sided(a in felt()) {
        prop_assume!(!a.is_zero());
        let inv = a.inv().unwrap();
        prop_assert_eq!(a * inv, F61::ONE);
        prop_assert_eq!(inv * a, F61::ONE);
        prop_assert_eq!(inv.inv().unwrap(), a);
    }

    #[test]
    fn pow_is_homomorphic(a in felt(), e1 in 0u64..1000, e2 in 0u64..1000) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn bytes_roundtrip(a in felt()) {
        prop_assert_eq!(F61::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn poly_ring_axioms(p in poly_strategy(6), q in poly_strategy(6), r in poly_strategy(4)) {
        prop_assert_eq!(&p + &q, &q + &p);
        prop_assert_eq!(&p * &q, &q * &p);
        prop_assert_eq!(&(&p + &q) * &r, &(&p * &r) + &(&q * &r));
        prop_assert_eq!(&(&p - &q) + &q, p);
    }

    #[test]
    fn poly_eval_is_ring_hom(p in poly_strategy(6), q in poly_strategy(6), x in felt()) {
        prop_assert_eq!((&p + &q).eval(x), p.eval(x) + q.eval(x));
        prop_assert_eq!((&p * &q).eval(x), p.eval(x) * q.eval(x));
    }

    #[test]
    fn interpolation_roundtrip(p in poly_strategy(9)) {
        let deg = p.degree().unwrap_or(0);
        let xs: Vec<F61> = (1..=deg as u64 + 1).map(F61::from_u64).collect();
        let ys = p.eval_many(&xs);
        let q = lagrange::interpolate(&xs, &ys).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn basis_reproduces_polynomial_values(p in poly_strategy(7), x in felt()) {
        let m = p.degree().unwrap_or(0) + 1;
        let xs: Vec<F61> = (1..=m as u64).map(F61::from_u64).collect();
        let basis = lagrange::basis_at(&xs, x).unwrap();
        let ys = p.eval_many(&xs);
        let via_basis: F61 = basis.iter().zip(&ys).map(|(&b, &y)| b * y).sum();
        prop_assert_eq!(via_basis, p.eval(x));
    }

    #[test]
    fn poly_division_invariant(p in poly_strategy(10), q in poly_strategy(5)) {
        prop_assume!(!q.is_zero());
        let (quot, rem) = p.div_rem(&q);
        prop_assert_eq!(&(&quot * &q) + &rem, p);
        if let Some(rd) = rem.degree() {
            prop_assert!(rd < q.degree().unwrap());
        }
    }

    #[test]
    fn batch_invert_agrees(vals in prop::collection::vec(felt(), 1..40)) {
        prop_assume!(vals.iter().all(|v| !v.is_zero()));
        let inv = lagrange::batch_invert(&vals).unwrap();
        for (v, i) in vals.iter().zip(&inv) {
            prop_assert_eq!(*v * *i, F61::ONE);
        }
    }
}

/// The reduce-per-term fold every `PrimeField::dot` must equal.
fn naive_dot<F: PrimeField>(a: &[F], b: &[F]) -> F {
    a.iter().zip(b).fold(F::ZERO, |acc, (&x, &y)| acc + x * y)
}

// `F61::dot` delays reduction over chunks of 32 raw products; the
// lengths around one and two chunks and the largest residues are where
// a wrong bound would overflow the accumulator.
proptest! {
    #[test]
    fn f61_dot_equals_the_naive_fold(
        pairs in prop::collection::vec((felt(), felt()), 0..=200),
    ) {
        let (a, b): (Vec<F61>, Vec<F61>) = pairs.into_iter().unzip();
        prop_assert_eq!(F61::dot(&a, &b), naive_dot(&a, &b));
    }

    #[test]
    fn small_field_dot_uses_the_default_fold(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..=200),
    ) {
        type F97 = yoso_field::Fp<97>;
        let (a, b): (Vec<F97>, Vec<F97>) =
            pairs.into_iter().map(|(x, y)| (F97::from_u64(x), F97::from_u64(y))).unzip();
        prop_assert_eq!(F97::dot(&a, &b), naive_dot(&a, &b));
    }
}

#[test]
fn f61_dot_of_maximal_residues_at_chunk_edges() {
    let top = -F61::ONE; // p − 1: every raw product is (p − 1)²
    for len in 0..=200 {
        // includes 31/32/33 and 64/65, one and two full chunks
        let v = vec![top; len];
        assert_eq!(F61::dot(&v, &v), naive_dot(&v, &v), "len {len}");
        assert_eq!(F61::dot(&v, &v), F61::from_u64(len as u64), "(−1)² · {len}");
    }
}

/// The reduce-per-addition fold every `PrimeField::extend_differences`
/// must equal: `out.len()` values, `d_j ← d_j + d_{j+1}` between them.
fn naive_extend<F: PrimeField>(diffs: &[F], len: usize) -> Vec<F> {
    let mut d = diffs.to_vec();
    (0..len)
        .map(|_| {
            let y = d.first().copied().unwrap_or(F::ZERO);
            for j in 1..d.len() {
                let next = d[j];
                d[j - 1] += next;
            }
            y
        })
        .collect()
}

fn extended<F: PrimeField>(diffs: &[F], len: usize) -> Vec<F> {
    let mut out = vec![F::ONE; len];
    F::extend_differences(diffs, &mut out);
    out
}

// `F61::extend_differences` keeps raw residues and folds every other
// step; no differences (the zero polynomial), a constant, fewer points
// than differences and odd point counts are its corners.
proptest! {
    #[test]
    fn f61_extension_equals_the_naive_fold(
        diffs in prop::collection::vec(felt(), 0..=40),
        len in 0usize..=90,
    ) {
        prop_assert_eq!(extended(&diffs, len), naive_extend(&diffs, len));
    }

    #[test]
    fn small_field_extension_uses_the_default_fold(
        diffs in prop::collection::vec(any::<u64>(), 0..=40),
        len in 0usize..=90,
    ) {
        type F97 = yoso_field::Fp<97>;
        let diffs: Vec<F97> = diffs.into_iter().map(F97::from_u64).collect();
        prop_assert_eq!(extended(&diffs, len), naive_extend(&diffs, len));
    }
}

/// The bound the lazy reduction rests on — two steps of entries
/// `≤ p + 7` stay below `2^64` — attacked with the largest residues
/// through a whole (n, t) = (2048, 511) sweep. Debug builds and the
/// `test-debug-assertions` job check every addition for overflow.
#[test]
fn f61_extension_of_maximal_differences_does_not_overflow() {
    use rand::SeedableRng;
    let (n, t) = (2048usize, 511usize);
    let top = -F61::ONE;
    let mut rng = rand::rngs::StdRng::seed_from_u64(24);
    let cases: [(&str, Vec<F61>); 4] = [
        ("all p − 1", vec![top; t + 1]),
        ("p − 1 at even j", (0..=t).map(|j| if j % 2 == 0 { top } else { F61::ZERO }).collect()),
        ("p − 1 at odd j", (0..=t).map(|j| if j % 2 == 1 { top } else { F61::ZERO }).collect()),
        ("random", (0..=t).map(|_| F61::random(&mut rng)).collect()),
    ];
    for (name, diffs) in &cases {
        assert_eq!(extended(diffs, n), naive_extend(diffs, n), "{name}");
    }
}

/// Pairwise-distinct evaluation points (1 ≤ n < 24).
fn distinct_points() -> impl Strategy<Value = Vec<F61>> {
    prop::collection::vec(felt(), 1..24).prop_map(|mut xs| {
        xs.sort_by_key(PrimeField::as_u64);
        xs.dedup();
        xs
    })
}

// Bit-identity of the EvalDomain fast paths against the naive
// reference implementations: exact field arithmetic over canonical
// representations means the cached/barycentric code must agree with
// `lagrange::{basis_at, interpolate}` on every bit, not just up to
// rounding.
proptest! {
    #[test]
    fn domain_basis_bit_identical_to_naive(xs in distinct_points(), x in felt()) {
        let domain = EvalDomain::new(xs.clone()).unwrap();
        let naive = lagrange::basis_at(&xs, x).unwrap();
        // Cold cache, then warm cache: both must equal the reference.
        prop_assert_eq!(&*domain.basis_at(x), &naive);
        prop_assert_eq!(&*domain.basis_at(x), &naive);
    }

    #[test]
    fn domain_basis_at_node_bit_identical(xs in distinct_points(), pick in any::<prop::sample::Index>()) {
        let domain = EvalDomain::new(xs.clone()).unwrap();
        let x = xs[pick.index(xs.len())];
        let naive = lagrange::basis_at(&xs, x).unwrap();
        prop_assert_eq!(&*domain.basis_at(x), &naive);
    }

    #[test]
    fn domain_interpolate_bit_identical_to_naive(xs in distinct_points(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ys: Vec<F61> = xs.iter().map(|_| F61::random(&mut rng)).collect();
        let domain = EvalDomain::new(xs.clone()).unwrap();
        let naive = lagrange::interpolate(&xs, &ys).unwrap();
        prop_assert_eq!(domain.interpolate(&ys).unwrap(), naive.clone());
        // Batched interpolation shares quotient polynomials; still
        // bit-identical.
        let many = domain.interpolate_many(&[ys.clone(), ys]).unwrap();
        prop_assert_eq!(&many[0], &naive);
        prop_assert_eq!(&many[1], &naive);
    }

    #[test]
    fn domain_eval_many_bit_identical_to_naive(
        xs in distinct_points(),
        targets in prop::collection::vec(felt(), 1..8),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ys: Vec<F61> = xs.iter().map(|_| F61::random(&mut rng)).collect();
        let domain = EvalDomain::new(xs.clone()).unwrap();
        let got = domain.eval_many(&ys, &targets).unwrap();
        for (&t, &g) in targets.iter().zip(&got) {
            prop_assert_eq!(g, lagrange::eval_at(&xs, &ys, t).unwrap());
        }
    }

    #[test]
    fn domain_duplicate_points_rejected_like_naive(xs in distinct_points(), dup in any::<prop::sample::Index>()) {
        // Inject a duplicate node; both paths must report it.
        let mut bad = xs.clone();
        bad.push(xs[dup.index(xs.len())]);
        let ys = vec![F61::ZERO; bad.len()];
        prop_assert_eq!(
            EvalDomain::new(bad.clone()).unwrap_err(),
            lagrange::interpolate(&bad, &ys).unwrap_err()
        );
    }

    #[test]
    fn domain_length_mismatch_rejected(xs in distinct_points(), extra in 1usize..4) {
        let domain = EvalDomain::new(xs.clone()).unwrap();
        let ys = vec![F61::ZERO; xs.len() + extra];
        prop_assert_eq!(
            domain.interpolate(&ys).unwrap_err(),
            lagrange::interpolate(&xs, &ys).unwrap_err()
        );
    }

    #[test]
    fn zero_element_inversion_rejected(vals in prop::collection::vec(felt(), 1..16), at in any::<prop::sample::Index>()) {
        // batch_invert underlies both the naive and the cached paths;
        // a zero element must surface as ZeroInverse, not a wrong row.
        let mut vals = vals;
        let pos = at.index(vals.len());
        vals[pos] = F61::ZERO;
        prop_assert_eq!(
            lagrange::batch_invert(&vals).unwrap_err(),
            yoso_field::FieldError::ZeroInverse
        );
    }
}

/// Smooth divisors of `p − 1 = 2·3²·5²·7·11·13·31·41·61·…` small
/// enough for exhaustive cross-checking against the Lagrange path.
const NTT_SIZES: [usize; 10] = [1, 2, 3, 6, 9, 14, 15, 18, 33, 45];

fn nonzero_felt() -> impl Strategy<Value = F61> {
    any::<u64>().prop_map(|v| F61::from_u64(v.max(1) % (F61::MODULUS - 1) + 1))
}

// Bit-identity of the mixed-radix transform paths against the Lagrange
// reference: the NttDomain evaluates/interpolates the same unique
// polynomial with exact field arithmetic, so forward/inverse must agree
// with Poly::eval_many / lagrange::interpolate / EvalDomain on every
// bit, across subgroup and coset domains.
proptest! {
    #[test]
    fn ntt_forward_bit_identical_to_horner(
        pick in any::<prop::sample::Index>(),
        shift in nonzero_felt(),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let size = NTT_SIZES[pick.index(NTT_SIZES.len())];
        let domain = NttDomain::<F61>::coset(size, shift).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = Poly::<F61>::random(&mut rng, size - 1);
        prop_assert_eq!(domain.forward(p.coeffs()).unwrap(), p.eval_many(domain.points()));
    }

    #[test]
    fn ntt_interpolate_bit_identical_to_lagrange(
        pick in any::<prop::sample::Index>(),
        shift in nonzero_felt(),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let size = NTT_SIZES[pick.index(NTT_SIZES.len())];
        let domain = NttDomain::<F61>::coset(size, shift).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ys: Vec<F61> = (0..size).map(|_| F61::random(&mut rng)).collect();
        let fast = domain.interpolate(&ys).unwrap();
        let slow = lagrange::interpolate(domain.points(), &ys).unwrap();
        let cached = EvalDomain::new(domain.points().to_vec()).unwrap();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(&fast, &cached.interpolate(&ys).unwrap());
    }

    #[test]
    fn ntt_roundtrip_recovers_padded_coefficients(
        pick in any::<prop::sample::Index>(),
        shift in nonzero_felt(),
        seed in any::<u64>(),
        deg_frac in 0.0f64..1.0,
    ) {
        use rand::SeedableRng;
        let size = NTT_SIZES[pick.index(NTT_SIZES.len())];
        let domain = NttDomain::<F61>::coset(size, shift).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Degrees below the boundary exercise the zero-padded path.
        let deg = ((size as f64 - 1.0) * deg_frac) as usize;
        let p = Poly::<F61>::random(&mut rng, deg);
        let evals = domain.evaluate(p.coeffs()).unwrap();
        prop_assert_eq!(domain.interpolate(&evals).unwrap(), p);
    }

    #[test]
    fn ntt_from_points_rederives_the_domain(
        pick in any::<prop::sample::Index>(),
        shift in nonzero_felt(),
    ) {
        let size = NTT_SIZES[pick.index(NTT_SIZES.len())];
        let domain = NttDomain::<F61>::coset(size, shift).unwrap();
        let again = NttDomain::from_points(domain.points()).unwrap();
        prop_assert_eq!(again.root(), domain.root());
        prop_assert_eq!(again.shift(), domain.shift());
        prop_assert_eq!(again.points(), domain.points());
    }
}
