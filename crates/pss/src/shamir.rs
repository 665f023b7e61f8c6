//! Standard (non-packed) Shamir secret sharing of a single secret.
//!
//! Used for the threshold-encryption key sharing (`tsk` split among a
//! committee with threshold `t`). The key's re-share between committees
//! (`TKRes`/`TKRec`) deals through a [`PowerTable`] and recombines
//! through [`ZeroWeights`]; it lives with the threshold key, in
//! `yoso_the::mock` and `yoso_core::tsk`. The secret lives at point
//! `0`; party `i` (0-based) holds the evaluation at `i + 1`.

use rand::Rng;

use yoso_field::{lagrange, EvalDomain, PrimeField};

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
    // Refused before the table is built: `t` sizes it.
    check_dealing::<F>(n, t)?;
    share_with(rng, secret, &PowerTable::new(n, t))
}

/// [`share`] through the caller's table: a degree-`table.degree()`
/// sharing of `secret` to `table.parties()` parties. One table serves
/// every dealing of its `(n, t)`.
///
/// # Errors
///
/// Same conditions as [`share`].
pub fn share_with<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    secret: F,
    table: &PowerTable<F>,
) -> Result<Vec<Share<F>>, PssError> {
    check_dealing::<F>(table.parties(), table.degree())?;
    let mut coeffs = Vec::with_capacity(table.degree() + 1);
    coeffs.push(secret);
    for _ in 0..table.degree() {
        coeffs.push(F::random(rng));
    }
    let values = table.eval_all(&coeffs);
    Ok(values.into_iter().enumerate().map(|(party, value)| Share { party, value }).collect())
}

/// Refuses a dealing of degree `t` to `n` parties unless `t < n` and the
/// points `1 … n` are distinct field elements.
fn check_dealing<F: PrimeField>(n: usize, t: usize) -> Result<(), PssError> {
    if n == 0 || t >= n || (n as u64) >= F::MODULUS - 1 {
        return Err(PssError::BadParameters { n, k: t });
    }
    Ok(())
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

    /// The number of parties, whose points are `1 … n`.
    pub fn parties(&self) -> usize {
        self.n
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
        assert!(share_with(&mut rng, f(1), &PowerTable::new(3, 3)).is_err());
    }

    /// One table serves every dealing of its `(n, t)`, with the draws and
    /// shares of a dealing that builds its own.
    #[test]
    fn a_reused_table_deals_as_a_fresh_one() {
        let table = PowerTable::new(9, 4);
        let (mut fresh, mut reused) = (rng(), rng());
        for secret in [f(3), f(5), f(8)] {
            let want = share(&mut fresh, secret, 9, 4).unwrap();
            assert_eq!(share_with(&mut reused, secret, &table).unwrap(), want);
        }
    }

    /// The key's re-share (`TKRes`/`TKRec`): every old member deals a
    /// sharing of its own share, and new member `j` recombines the
    /// subshares addressed to it through one provider set's weights.
    #[test]
    fn reshare_preserves_secret() {
        let mut rng = rng();
        let (n, t, secret) = (7, 3, f(424_242));
        let shares = share(&mut rng, secret, n, t).unwrap();
        let subshares: Vec<Vec<Share<F61>>> =
            shares.iter().map(|s| share(&mut rng, s.value, n, t).unwrap()).collect();
        let weights = ZeroWeights::new(&[0, 2, 4, 6]).unwrap();
        let new_shares: Vec<Share<F61>> = (0..n)
            .map(|j| {
                let subs: Vec<F61> =
                    weights.parties().iter().map(|&p| subshares[p][j].value).collect();
                Share { party: j, value: weights.combine(&subs) }
            })
            .collect();
        assert_eq!(reconstruct(&new_shares[1..t + 2], t).unwrap(), secret);
    }

    #[test]
    fn zero_weights_reject_a_repeated_party() {
        assert_eq!(ZeroWeights::<F61>::new(&[0, 2, 0]).unwrap_err(), PssError::DuplicateParty(0));
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
