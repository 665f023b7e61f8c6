//! Standard (non-packed) Shamir secret sharing of a single secret.
//!
//! Used for the threshold-encryption key sharing (`tsk` split among a
//! committee with threshold `t`) and for re-sharing shares between
//! committees (`TKRes`/`TKRec`). The secret lives at point `0`; party
//! `i` (0-based) holds the evaluation at `i + 1`.

use std::collections::HashMap;

use rand::Rng;

use yoso_field::{lagrange, EvalDomain, NttDomain, Poly, PrimeField};

use crate::{PssError, Share};

/// Deals a degree-`t` Shamir sharing of `secret` to `n` parties.
///
/// Any `t + 1` shares reconstruct; any `t` shares are independent of
/// the secret.
///
/// # Errors
///
/// Returns [`PssError::BadParameters`] if `t >= n` or `n` is too large
/// for the field.
pub fn share<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    secret: F,
    n: usize,
    t: usize,
) -> Result<Vec<Share<F>>, PssError> {
    if n == 0 || t >= n || (n as u64) >= F::MODULUS - 1 {
        return Err(PssError::BadParameters { n, k: t });
    }
    let mut coeffs = Vec::with_capacity(t + 1);
    coeffs.push(secret);
    for _ in 0..t {
        coeffs.push(F::random(rng));
    }
    let poly = Poly::new(coeffs);
    Ok((0..n)
        .map(|i| Share { party: i, value: poly.eval(F::from_u64(i as u64 + 1)) })
        .collect())
}

/// Reconstructs the secret from at least `t + 1` shares, checking any
/// surplus shares for consistency.
///
/// # Errors
///
/// - [`PssError::NotEnoughShares`] with fewer than `t + 1` shares.
/// - [`PssError::DuplicateParty`] on repeated indices.
/// - [`PssError::Inconsistent`] if shares disagree with a single
///   degree-`t` polynomial.
pub fn reconstruct<F: PrimeField>(shares: &[Share<F>], t: usize) -> Result<F, PssError> {
    let domain = check_and_domain(shares, t)?;
    reconstruct_on(&domain, shares, t)
}

/// Reconstructs many sharings opened by (possibly) the same parties —
/// e.g. a committee's partial decryptions across an epoch. Items with
/// identical provider subsets share one evaluation domain, so the
/// per-item cost after the first is a single `O(t)` dot product.
///
/// Each fresh provider subset is first tested for
/// transform-friendliness ([`NttDomain::from_points`], an `O(t)`
/// check): a subset whose points form a subgroup coset of `F*` skips
/// the `O(t²)` Lagrange domain construction for an `O(t log t)`
/// transform, with bit-identical results (both paths evaluate the same
/// unique polynomial exactly).
///
/// # Errors
///
/// Same conditions as [`reconstruct`], checked per item.
pub fn reconstruct_batch<F: PrimeField>(
    batch: &[Vec<Share<F>>],
    t: usize,
) -> Result<Vec<F>, PssError> {
    let mut domains: HashMap<Vec<usize>, BatchDomain<F>> = HashMap::new();
    batch
        .iter()
        .map(|shares| {
            let key: Vec<usize> = shares.iter().map(|s| s.party).collect();
            if let Some(domain) = domains.get(&key) {
                return reconstruct_on_batch(domain, shares, t);
            }
            check_shares(shares, t)?;
            let xs = provider_points(shares, t);
            let domain = match NttDomain::from_points(&xs) {
                Ok(d) => BatchDomain::Ntt(d),
                Err(_) => BatchDomain::Lagrange(EvalDomain::new(xs)?),
            };
            let out = reconstruct_on_batch(&domain, shares, t);
            domains.insert(key, domain);
            out
        })
        .collect()
}

/// A batch reconstruction domain: Lagrange for arbitrary provider
/// subsets, transform for subgroup-coset subsets.
enum BatchDomain<F: PrimeField> {
    Lagrange(EvalDomain<F>),
    Ntt(NttDomain<F>),
}

fn reconstruct_on_batch<F: PrimeField>(
    domain: &BatchDomain<F>,
    shares: &[Share<F>],
    t: usize,
) -> Result<F, PssError> {
    match domain {
        BatchDomain::Lagrange(d) => reconstruct_on(d, shares, t),
        BatchDomain::Ntt(d) => {
            let ys: Vec<F> = shares[..t + 1].iter().map(|s| s.value).collect();
            let poly = d.interpolate(&ys)?;
            for s in &shares[t + 1..] {
                if poly.eval(F::from_u64(s.party as u64 + 1)) != s.value {
                    return Err(PssError::Inconsistent);
                }
            }
            // The secret is f(0), i.e. the constant coefficient —
            // bit-identical to the basis-row dot product at zero.
            Ok(poly.coeff(0))
        }
    }
}

/// The evaluation points of the first `t + 1` providers.
fn provider_points<F: PrimeField>(shares: &[Share<F>], t: usize) -> Vec<F> {
    shares[..t + 1].iter().map(|s| F::from_u64(s.party as u64 + 1)).collect()
}

/// Share-count and duplicate-provider validation.
fn check_shares<F: PrimeField>(shares: &[Share<F>], t: usize) -> Result<(), PssError> {
    if shares.len() < t + 1 {
        return Err(PssError::NotEnoughShares { got: shares.len(), need: t + 1 });
    }
    check_distinct(shares.iter().map(|s| s.party))
}

/// Rejects a repeated party index, naming it.
fn check_distinct(parties: impl Iterator<Item = usize>) -> Result<(), PssError> {
    let mut seen = std::collections::HashSet::new();
    for p in parties {
        if !seen.insert(p) {
            return Err(PssError::DuplicateParty(p));
        }
    }
    Ok(())
}

/// Validates a share set and builds the evaluation domain over the
/// first `t + 1` provider points.
fn check_and_domain<F: PrimeField>(
    shares: &[Share<F>],
    t: usize,
) -> Result<EvalDomain<F>, PssError> {
    check_shares(shares, t)?;
    Ok(EvalDomain::new(provider_points(shares, t))?)
}

fn reconstruct_on<F: PrimeField>(
    domain: &EvalDomain<F>,
    shares: &[Share<F>],
    t: usize,
) -> Result<F, PssError> {
    let ys: Vec<F> = shares[..t + 1].iter().map(|s| s.value).collect();
    for s in &shares[t + 1..] {
        let row = domain.basis_at(F::from_u64(s.party as u64 + 1));
        if F::dot(&row, &ys) != s.value {
            return Err(PssError::Inconsistent);
        }
    }
    Ok(F::dot(&domain.basis_at(F::ZERO), &ys))
}

/// The Lagrange-at-zero recombination weights of one provider set:
/// `f(0) = Σ weights[j] · f(parties[j] + 1)` for every `f` of degree
/// below `parties.len()`.
///
/// Building it costs one `O(t²)` [`lagrange::basis_at`]; every value
/// recombined from the same providers afterwards is one `O(t)`
/// [`PrimeField::dot`]. The threshold-key chain builds one per distinct
/// provider set and shares it across a whole batch.
#[derive(Debug, Clone)]
pub struct ZeroWeights<F: PrimeField> {
    parties: Vec<usize>,
    weights: Vec<F>,
}

impl<F: PrimeField> ZeroWeights<F> {
    /// Computes the weights for `parties` (0-based; party `i` holds
    /// the evaluation at `i + 1`).
    ///
    /// # Errors
    ///
    /// - [`PssError::DuplicateParty`] on a repeated index.
    /// - [`PssError::Field`] if two indices map to the same field
    ///   point.
    pub fn new(parties: &[usize]) -> Result<Self, PssError> {
        check_distinct(parties.iter().copied())?;
        let xs: Vec<F> = parties.iter().map(|&p| F::from_u64(p as u64 + 1)).collect();
        let weights = lagrange::basis_at(&xs, F::ZERO)?;
        Ok(ZeroWeights { parties: parties.to_vec(), weights })
    }

    /// The providers, in weight order.
    pub fn parties(&self) -> &[usize] {
        &self.parties
    }

    /// The weights, one per provider.
    pub fn weights(&self) -> &[F] {
        &self.weights
    }

    /// Recombines at zero: `values[j]` is the evaluation held by
    /// `parties()[j]`.
    pub fn combine(&self, values: &[F]) -> F {
        F::dot(&self.weights, values)
    }
}

/// The powers `(i + 1)^c`, `c ≤ degree`, of every party's evaluation
/// point: a polynomial of that degree is evaluated at all `n` points by
/// one [`PrimeField::dot`] per party instead of a serially dependent
/// Horner chain.
///
/// Building it costs `n · degree` multiplications, as much as one
/// dealing, so a committee of dealers shares one table.
#[derive(Debug, Clone)]
pub struct PowerTable<F: PrimeField> {
    width: usize,
    powers: Vec<F>,
}

impl<F: PrimeField> PowerTable<F> {
    /// Tabulates the powers `0..=degree` for parties `0..n`.
    pub fn new(n: usize, degree: usize) -> Self {
        let width = degree + 1;
        let mut powers = vec![F::ONE; n * width];
        for (i, row) in powers.chunks_exact_mut(width).enumerate() {
            if let Some(x) = row.get_mut(1) {
                *x = F::from_u64(i as u64 + 1);
            }
            // x^c = x^⌊c/2⌋ · x^⌈c/2⌉: both factors lie far behind c,
            // so consecutive entries do not wait on each other.
            for c in 2..width {
                row[c] = row[c / 2] * row[c - c / 2];
            }
        }
        PowerTable { width, powers }
    }

    /// The polynomial degree tabulated.
    pub fn degree(&self) -> usize {
        self.width - 1
    }

    /// Every party's powers `(i + 1)^0 … (i + 1)^degree`, in party
    /// order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, F> {
        self.powers.chunks_exact(self.width)
    }

    /// Evaluates `Σ coeffs[c] · X^c` at every party's point, in party
    /// order. `coeffs` must hold exactly `degree + 1` coefficients.
    pub fn eval_all<'a>(&'a self, coeffs: &'a [F]) -> impl Iterator<Item = F> + 'a {
        self.rows().map(move |row| F::dot(coeffs, row))
    }
}

/// Re-shares a share: party `i` deals a degree-`t` sub-sharing of its
/// own share `s_i` to the next committee (the `TKRes` operation). The
/// next committee member `j` reconstructs its new share of the original
/// secret by Lagrange-combining the subshares it received at point 0
/// ([`recombine_subshares`], the `TKRec` operation).
///
/// # Errors
///
/// Same conditions as [`share`].
pub fn reshare<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    own_share: Share<F>,
    n: usize,
    t: usize,
) -> Result<Vec<Share<F>>, PssError> {
    share(rng, own_share.value, n, t)
}

/// Combines subshares received from the previous committee into a new
/// share of the original secret.
///
/// `subshares[j]` must be the subshare produced for *this* party by
/// previous-committee member `providers[j]` (0-based indices into the
/// previous committee). Requires at least `t + 1` providers.
///
/// # Errors
///
/// - [`PssError::NotEnoughShares`] with fewer than `t + 1` providers.
/// - [`PssError::DuplicateParty`] on repeated provider indices.
pub fn recombine_subshares<F: PrimeField>(
    providers: &[usize],
    subshares: &[F],
    t: usize,
) -> Result<F, PssError> {
    if providers.len() != subshares.len() || providers.len() < t + 1 {
        return Err(PssError::NotEnoughShares { got: providers.len().min(subshares.len()), need: t + 1 });
    }
    check_distinct(providers.iter().copied())?;
    Ok(ZeroWeights::new(&providers[..t + 1])?.combine(&subshares[..t + 1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    #[test]
    fn share_reconstruct_roundtrip() {
        let mut rng = rng();
        for (n, t) in [(5, 2), (7, 3), (10, 4), (3, 1), (2, 0)] {
            let shares = share(&mut rng, f(777), n, t).unwrap();
            assert_eq!(shares.len(), n);
            let got = reconstruct(&shares[..t + 1], t).unwrap();
            assert_eq!(got, f(777), "n={n}, t={t}");
        }
    }

    #[test]
    fn t_shares_are_insufficient() {
        let mut rng = rng();
        let shares = share(&mut rng, f(5), 7, 3).unwrap();
        assert!(matches!(
            reconstruct(&shares[..3], 3),
            Err(PssError::NotEnoughShares { got: 3, need: 4 })
        ));
    }

    #[test]
    fn corrupted_share_detected_with_surplus() {
        let mut rng = rng();
        let mut shares = share(&mut rng, f(5), 7, 3).unwrap();
        shares[6].value += F61::ONE;
        assert_eq!(reconstruct(&shares, 3), Err(PssError::Inconsistent));
    }

    #[test]
    fn invalid_parameters() {
        let mut rng = rng();
        assert!(share(&mut rng, f(1), 3, 3).is_err());
        assert!(share(&mut rng, f(1), 0, 0).is_err());
    }

    #[test]
    fn reshare_preserves_secret() {
        let mut rng = rng();
        let n = 7;
        let t = 3;
        let secret = f(424_242);
        let shares = share(&mut rng, secret, n, t).unwrap();

        // Every old member re-shares its share to the new committee.
        let all_subshares: Vec<Vec<Share<F61>>> =
            shares.iter().map(|s| reshare(&mut rng, *s, n, t).unwrap()).collect();

        // New member j combines the subshares addressed to it, using
        // any t+1 providers.
        let providers: Vec<usize> = vec![0, 2, 4, 6];
        let new_shares: Vec<Share<F61>> = (0..n)
            .map(|j| {
                let subs: Vec<F61> = providers.iter().map(|&p| all_subshares[p][j].value).collect();
                Share { party: j, value: recombine_subshares(&providers, &subs, t).unwrap() }
            })
            .collect();

        // The new shares form a valid sharing of the same secret.
        let got = reconstruct(&new_shares[1..t + 2], t).unwrap();
        assert_eq!(got, secret);
    }

    #[test]
    fn recombine_rejects_duplicates_and_shortage() {
        assert!(matches!(
            recombine_subshares::<F61>(&[0, 0, 1, 2], &[f(1), f(1), f(2), f(3)], 3),
            Err(PssError::NotEnoughShares { .. }) | Err(PssError::DuplicateParty(_))
        ));
        assert!(matches!(
            recombine_subshares::<F61>(&[0, 1], &[f(1), f(2)], 3),
            Err(PssError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn batch_matches_single_reconstruct() {
        let mut rng = rng();
        let shares = share(&mut rng, f(2024), 9, 3).unwrap();
        let batch = vec![shares[..4].to_vec(), shares[2..7].to_vec(), shares.clone()];
        let got = reconstruct_batch(&batch, 3).unwrap();
        for (item, &g) in batch.iter().zip(&got) {
            assert_eq!(g, reconstruct(item, 3).unwrap());
            assert_eq!(g, f(2024));
        }
    }

    #[test]
    fn batch_takes_transform_path_on_coset_subsets() {
        // Craft a provider subset whose points form a multiplicative
        // coset: {3, −3} = 3·⟨−1⟩ (−1 has order 2 since the 2-adicity
        // of F61 is exactly 1). Party indices are point − 1, so the
        // "party" holding point −3 = p − 3 has the huge-but-legal index
        // p − 4; the Shamir module puts no committee bound on indices.
        let secret = f(5);
        let poly = Poly::new(vec![secret, f(2)]); // 5 + 2x, degree t = 1
        let x1 = f(3);
        let x2 = -f(3);
        let shares = vec![
            Share { party: 2, value: poly.eval(x1) },
            Share { party: (x2.as_u64() - 1) as usize, value: poly.eval(x2) },
        ];
        let got = reconstruct_batch(std::slice::from_ref(&shares), 1).unwrap();
        assert_eq!(got, vec![secret]);
        // The single-item (always-Lagrange) path agrees bit-for-bit.
        assert_eq!(got[0], reconstruct(&shares, 1).unwrap());
        let pts = [x1, x2];
        assert!(
            NttDomain::from_points(&pts).is_ok(),
            "test premise: {{3, −3}} must be transform-friendly"
        );
    }

    #[test]
    fn different_subsets_agree() {
        let mut rng = rng();
        let shares = share(&mut rng, f(31337), 9, 4).unwrap();
        let a = reconstruct(&shares[0..5], 4).unwrap();
        let b = reconstruct(&shares[4..9], 4).unwrap();
        assert_eq!(a, b);
    }
}
