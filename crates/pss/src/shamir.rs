//! Standard (non-packed) Shamir secret sharing of a single secret.
//!
//! Used for the threshold-encryption key sharing (`tsk` split among a
//! committee with threshold `t`) and for re-sharing shares between
//! committees (`TKRes`/`TKRec`). The secret lives at point `0`; party
//! `i` (0-based) holds the evaluation at `i + 1`.

use std::collections::HashMap;

use rand::Rng;

use yoso_field::{lagrange, EvalDomain, NttDomain, PrimeField};

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
    let values = PowerTable::new(n, t).eval_all(&coeffs);
    Ok(values.into_iter().enumerate().map(|(party, value)| Share { party, value }).collect())
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

/// The parties' evaluation points `1, 2, …, n`, for polynomials of one
/// degree: evaluates a polynomial at all of them
/// ([`PowerTable::eval_all`]) and tabulates their powers
/// ([`PowerTable::rows`]).
///
/// The points are consecutive, so evaluation goes by forward
/// differences: the table holds `D[j][c] = Δ^j[X^c](1)`, upper
/// triangular, which sends coefficients to the differences `Δ^j f(1)`,
/// and [`PrimeField::extend_differences`] walks those along `1 … n` by
/// additions. Building it costs about `degree²` multiplications — a
/// dealing costs half that — whatever `n` is.
#[derive(Debug, Clone)]
pub struct PowerTable<F: PrimeField> {
    n: usize,
    width: usize,
    /// Row `j` is `D[j][j..=degree]`; rows follow each other.
    diffs: Vec<F>,
}

impl<F: PrimeField> PowerTable<F> {
    /// The table for parties `0..n` and polynomials of degree `degree`.
    pub fn new(n: usize, degree: usize) -> Self {
        let width = degree + 1;
        // Δ^j(X·g)(x) = (x + j)·Δ^j g(x) + j·Δ^(j−1) g(x), at x = 1 and
        // g = X^c: D[j][c + 1] = (j + 1)·D[j][c] + j·D[j − 1][c], from
        // D[0][c] = 1 and D[j][c] = 0 below the diagonal.
        let mut diffs = Vec::with_capacity(width * (width + 1) / 2);
        diffs.resize(width, F::ONE);
        let mut above = 0;
        for j in 1..width {
            let row = diffs.len();
            let (j0, j1) = (F::from_u64(j as u64), F::from_u64(j as u64 + 1));
            // Entry k of row j is column j + k; one column to its left
            // are D[j][j + k − 1], zero when left of the diagonal, and
            // entry k of the row above.
            let mut entry = F::ZERO;
            for k in 0..width - j {
                entry = j1 * entry + j0 * diffs[above + k];
                diffs.push(entry);
            }
            above = row;
        }
        PowerTable { n, width, diffs }
    }

    /// The polynomial degree tabulated.
    pub fn degree(&self) -> usize {
        self.width - 1
    }

    /// Every party's powers `(i + 1)^0 … (i + 1)^degree`, in party
    /// order, computed as asked for: `degree` multiplications a party.
    pub fn rows(&self) -> impl Iterator<Item = Vec<F>> + '_ {
        (1..=self.n as u64).map(|x| {
            let mut row = vec![F::ONE; self.width];
            if let Some(first) = row.get_mut(1) {
                *first = F::from_u64(x);
            }
            // x^c = x^⌊c/2⌋ · x^⌈c/2⌉: both factors lie far behind c,
            // so consecutive entries do not wait on each other.
            for c in 2..self.width {
                row[c] = row[c / 2] * row[c - c / 2];
            }
            row
        })
    }

    /// The rows of `D` right of the diagonal: `D[j][j..=degree]` for
    /// `j = 0..=degree`.
    fn difference_rows(&self) -> impl Iterator<Item = &[F]> {
        let mut rows = &self.diffs[..];
        (0..self.width).map(move |j| {
            let (row, below) = rows.split_at(self.width - j);
            rows = below;
            row
        })
    }

    /// Evaluates `Σ coeffs[c] · X^c` at every party's point, in party
    /// order. `coeffs` must hold exactly `degree + 1` coefficients.
    pub fn eval_all(&self, coeffs: &[F]) -> Vec<F> {
        debug_assert_eq!(coeffs.len(), self.width, "one coefficient per tabulated power");
        let differences: Vec<F> =
            self.difference_rows().enumerate().map(|(j, row)| F::dot(row, &coeffs[j..])).collect();
        let mut values = vec![F::ZERO; self.n];
        F::extend_differences(&differences, &mut values);
        values
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
    use yoso_field::{Poly, F61};

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

    /// `D[j][c] = Δ^j[X^c](1)`, against differences taken numerically
    /// down each column of the power rows; degrees around one
    /// `DOT_CHUNK` and the benchmark's.
    #[test]
    fn difference_matrix_matches_numerical_differences_of_the_powers() {
        for t in [0usize, 1, 2, 31, 32, 33, 127] {
            let table = PowerTable::<F61>::new(t + 1, t);
            let powers: Vec<Vec<F61>> = table.rows().collect();
            let mut columns: Vec<Vec<F61>> =
                (0..=t).map(|c| powers.iter().map(|row| row[c]).collect()).collect();
            for (j, row) in table.difference_rows().enumerate() {
                for (c, column) in columns.iter_mut().enumerate() {
                    let expect = if c < j { F61::ZERO } else { row[c - j] };
                    assert_eq!(column[0], expect, "t = {t}, D[{j}][{c}]");
                    *column = column.windows(2).map(|w| w[1] - w[0]).collect();
                }
            }
        }
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
