//! A Fiat–Shamir sigma protocol proving knowledge of a preimage under
//! a public linear map over a prime field.
//!
//! **Relation.** For a public (sparse) matrix `M ∈ F^{r×w}` and target
//! vector `x ∈ F^r`, the prover knows `w ∈ F^w` with `M·w = x`.
//!
//! **Protocol.** Commit `a = M·ρ` for random `ρ`; challenge
//! `e = H(M, x, a)`; response `z = ρ + e·w`. Verify `M·z = a + e·x`.
//!
//! This is special-sound (two accepting transcripts with distinct
//! challenges yield the witness `w = (z − z′)/(e − e′)`) and perfectly
//! honest-verifier zero-knowledge (simulate by sampling `z` and setting
//! `a = M·z − e·x`), hence a NIZKAoK in the random-oracle model.
//!
//! Every relation the mock-world YOSO protocol proves on the bulletin
//! board — correct encryption, correct partial decryption, correct
//! re-sharing, correct μ-share computation, correct re-encryption — is
//! linear over the field, so this single protocol is the NIZK engine of
//! the whole protocol stack.

use std::fmt;

use serde::{Deserialize, Serialize};

use rand::Rng;
use yoso_crypto::Transcript;
use yoso_field::PrimeField;

/// Why a [`Statement`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementError {
    /// The row count and the target count differ.
    RowTargetMismatch {
        /// Rows given.
        rows: usize,
        /// Targets given.
        targets: usize,
    },
    /// A row names a column outside the witness.
    ColumnOutOfRange {
        /// The offending row.
        row: usize,
        /// The column it names.
        col: usize,
        /// The witness length.
        witness_len: usize,
    },
    /// A row's columns are not strictly increasing (unsorted or
    /// duplicated).
    ColumnsNotIncreasing {
        /// The offending row.
        row: usize,
    },
    /// A dimension does not fit in one field element, so the
    /// Fiat–Shamir encoding could not represent it injectively.
    DimensionTooLarge,
}

impl fmt::Display for StatementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementError::RowTargetMismatch { rows, targets } => {
                write!(f, "{rows} rows but {targets} targets")
            }
            StatementError::ColumnOutOfRange { row, col, witness_len } => {
                write!(f, "row {row} names column {col} of a {witness_len}-element witness")
            }
            StatementError::ColumnsNotIncreasing { row } => {
                write!(f, "row {row} has unsorted or duplicate columns")
            }
            StatementError::DimensionTooLarge => {
                write!(f, "a dimension does not fit in one field element")
            }
        }
    }
}

impl std::error::Error for StatementError {}

/// A public statement: the linear map and the target vector. Row `i`
/// asserts `Σ_(col, coeff) ∈ rows[i] coeff · w_col = targets[i]`.
///
/// The rows are held in one canonical sparse form — `(col, coeff)`
/// pairs with `col < witness_len`, columns strictly increasing, no
/// stored zero — so equal linear maps are equal values and hash to the
/// same Fiat–Shamir input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement<F: PrimeField> {
    witness_len: usize,
    rows: Vec<Vec<(usize, F)>>,
    targets: Vec<F>,
}

impl<F: PrimeField> Statement<F> {
    /// Creates a statement over `witness_len` variables from sparse
    /// rows. Explicit zero coefficients are dropped.
    ///
    /// # Errors
    ///
    /// Rejects a row/target count mismatch, a column `≥ witness_len`,
    /// columns that are not strictly increasing, and dimensions that do
    /// not fit in a field element.
    pub fn new(
        witness_len: usize,
        rows: Vec<Vec<(usize, F)>>,
        targets: Vec<F>,
    ) -> Result<Self, StatementError> {
        Self::check_shape(witness_len, &rows, targets.len())?;
        Ok(Self::canonical(witness_len, rows, targets))
    }

    /// [`Statement::new`] for the builders of this module tree, whose
    /// rows have a valid shape by construction.
    pub(super) fn canonical(
        witness_len: usize,
        mut rows: Vec<Vec<(usize, F)>>,
        targets: Vec<F>,
    ) -> Self {
        debug_assert_eq!(Self::check_shape(witness_len, &rows, targets.len()), Ok(()));
        for row in &mut rows {
            row.retain(|(_, coeff)| !coeff.is_zero());
        }
        Statement { witness_len, rows, targets }
    }

    fn check_shape(
        witness_len: usize,
        rows: &[Vec<(usize, F)>],
        targets: usize,
    ) -> Result<(), StatementError> {
        if rows.len() != targets {
            return Err(StatementError::RowTargetMismatch { rows: rows.len(), targets });
        }
        let fits = |v: usize| (v as u64) < F::MODULUS;
        if !fits(witness_len) || !fits(rows.len()) {
            return Err(StatementError::DimensionTooLarge);
        }
        for (row, entries) in rows.iter().enumerate() {
            if !entries.windows(2).all(|pair| matches!(pair, [(a, _), (b, _)] if a < b)) {
                return Err(StatementError::ColumnsNotIncreasing { row });
            }
            if let Some(&(col, _)) = entries.last().filter(|(col, _)| *col >= witness_len) {
                return Err(StatementError::ColumnOutOfRange { row, col, witness_len });
            }
        }
        Ok(())
    }

    /// Number of witness variables.
    pub fn witness_len(&self) -> usize {
        self.witness_len
    }

    /// The sparse rows of the linear map.
    pub fn rows(&self) -> &[Vec<(usize, F)>] {
        &self.rows
    }

    /// The target vector, one entry per row.
    pub fn targets(&self) -> &[F] {
        &self.targets
    }

    /// Applies the map to a vector of `witness_len` elements, in
    /// `O(nnz)`.
    fn apply(&self, w: &[F]) -> Vec<F> {
        debug_assert_eq!(w.len(), self.witness_len);
        self.rows
            .iter()
            .map(|row| row.iter().map(|&(col, coeff)| coeff * w[col]).sum())
            .collect()
    }

    /// Returns `true` if `w` satisfies the statement (prover-side
    /// sanity check).
    pub fn is_satisfied_by(&self, w: &[F]) -> bool {
        w.len() == self.witness_len && self.apply(w) == self.targets
    }

    /// Derives the challenge: the domain, then **one** bulk absorb of
    ///
    /// ```text
    /// rows, witness_len,
    /// for each row: len, (col, coeff) × len,
    /// targets × rows, commitment × rows
    /// ```
    ///
    /// as field elements. Every run is length-prefixed (by `rows` or by
    /// the row's `len`) and the dimensions fit a field element
    /// ([`Statement::new`] checks), so the encoding is an injective
    /// function of the canonical statement and the commitment.
    fn challenge(&self, domain: &[u8], commitment: &[F]) -> F {
        debug_assert_eq!(commitment.len(), self.targets.len());
        let int = |v: usize| F::from_u64(v as u64);
        let nnz: usize = self.rows.iter().map(Vec::len).sum();
        let mut enc = Vec::with_capacity(2 + 3 * self.rows.len() + 2 * nnz);
        enc.push(int(self.rows.len()));
        enc.push(int(self.witness_len));
        for row in &self.rows {
            enc.push(int(row.len()));
            for &(col, coeff) in row {
                enc.push(int(col));
                enc.push(coeff);
            }
        }
        enc.extend_from_slice(&self.targets);
        enc.extend_from_slice(commitment);

        let mut t = Transcript::new(domain);
        t.absorb_fields(b"statement,commitment", &enc);
        t.challenge_field(b"e")
    }
}

/// A non-interactive proof of knowledge of a preimage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(bound = "")]
pub struct Proof<F: PrimeField> {
    /// The commitment `a = M·ρ`.
    pub commitment: Vec<F>,
    /// The response `z = ρ + e·w`.
    pub response: Vec<F>,
}

impl<F: PrimeField> Proof<F> {
    /// Serialized size in bytes (8 bytes per field element).
    pub fn size_bytes(&self) -> usize {
        8 * (self.commitment.len() + self.response.len())
    }
}

/// Proves knowledge of `witness` for `statement` under the given
/// domain separator.
///
/// # Panics
///
/// Panics (in debug builds) if the witness does not satisfy the
/// statement — proving a false statement is always a caller bug.
pub fn prove<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    domain: &[u8],
    statement: &Statement<F>,
    witness: &[F],
) -> Proof<F> {
    debug_assert!(statement.is_satisfied_by(witness), "witness does not satisfy statement");
    let rho: Vec<F> = (0..statement.witness_len()).map(|_| F::random(rng)).collect();
    let commitment = statement.apply(&rho);
    let e = statement.challenge(domain, &commitment);
    let response = rho.iter().zip(witness).map(|(&r, &w)| r + e * w).collect();
    Proof { commitment, response }
}

/// Verifies a proof.
pub fn verify<F: PrimeField>(domain: &[u8], statement: &Statement<F>, proof: &Proof<F>) -> bool {
    if proof.commitment.len() != statement.targets.len()
        || proof.response.len() != statement.witness_len()
    {
        return false;
    }
    let e = statement.challenge(domain, &proof.commitment);
    let lhs = statement.apply(&proof.response);
    lhs.iter()
        .zip(proof.commitment.iter().zip(&statement.targets))
        .all(|(&l, (&a, &x))| l == a + e * x)
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
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    fn example() -> (Statement<F61>, Vec<F61>) {
        // w = (3, 4); M = [[1, 2], [5, 6], [0, 1]]; x = M·w.
        let w = vec![f(3), f(4)];
        let rows = vec![vec![(0, f(1)), (1, f(2))], vec![(0, f(5)), (1, f(6))], vec![(1, f(1))]];
        let targets = vec![f(11), f(39), f(4)];
        (Statement::new(2, rows, targets).unwrap(), w)
    }

    #[test]
    fn prove_verify_roundtrip() {
        let mut r = rng();
        let (st, w) = example();
        assert!(st.is_satisfied_by(&w));
        let proof = prove(&mut r, b"test", &st, &w);
        assert!(verify(b"test", &st, &proof));
    }

    #[test]
    fn wrong_domain_rejected() {
        let mut r = rng();
        let (st, w) = example();
        let proof = prove(&mut r, b"test", &st, &w);
        assert!(!verify(b"other", &st, &proof));
    }

    #[test]
    fn tampered_statement_rejected() {
        let mut r = rng();
        let (st, w) = example();
        let proof = prove(&mut r, b"test", &st, &w);
        let mut st2 = st.clone();
        st2.targets[0] += F61::ONE;
        assert!(!verify(b"test", &st2, &proof));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut r = rng();
        let (st, w) = example();
        let mut proof = prove(&mut r, b"test", &st, &w);
        proof.response[0] += F61::ONE;
        assert!(!verify(b"test", &st, &proof));
        let mut proof2 = prove(&mut r, b"test", &st, &w);
        proof2.commitment[1] += F61::ONE;
        assert!(!verify(b"test", &st, &proof2));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut r = rng();
        let (st, w) = example();
        let mut proof = prove(&mut r, b"test", &st, &w);
        proof.response.pop();
        assert!(!verify(b"test", &st, &proof));
    }

    #[test]
    fn empty_witness_statement() {
        // Degenerate: no witness variables, rows must target zero.
        let st = Statement::<F61>::new(0, vec![], vec![]).unwrap();
        let mut r = rng();
        let proof = prove(&mut r, b"test", &st, &[]);
        assert!(verify(b"test", &st, &proof));
    }

    #[test]
    fn special_soundness_extracts_witness() {
        // With two accepting transcripts for distinct challenges we can
        // extract the witness: simulate by re-running the interactive
        // protocol manually.
        let (_st, w) = example();
        let mut r = rng();
        let rho: Vec<F61> = (0..2).map(|_| yoso_field::PrimeField::random(&mut r)).collect();
        let e1 = f(17);
        let e2 = f(29);
        let z1: Vec<F61> = rho.iter().zip(&w).map(|(&r, &w)| r + e1 * w).collect();
        let z2: Vec<F61> = rho.iter().zip(&w).map(|(&r, &w)| r + e2 * w).collect();
        let inv = (e1 - e2).inv().unwrap();
        let extracted: Vec<F61> = z1.iter().zip(&z2).map(|(&a, &b)| (a - b) * inv).collect();
        assert_eq!(extracted, w);
    }

    #[test]
    fn hvzk_simulation_matches_distribution_shape() {
        // Simulator: sample z and e, set a = M·z − e·x. The verifier
        // equation holds by construction.
        let (st, _) = example();
        let mut r = rng();
        let z: Vec<F61> = (0..2).map(|_| yoso_field::PrimeField::random(&mut r)).collect();
        let e = f(99);
        let mz = st.apply(&z);
        let a: Vec<F61> = mz.iter().zip(&st.targets).map(|(&m, &x)| m - e * x).collect();
        for i in 0..3 {
            assert_eq!(mz[i], a[i] + e * st.targets[i]);
        }
    }

    #[test]
    fn malformed_rows_are_typed_errors() {
        let one = F61::ONE;
        let new = |w, rows, targets| Statement::<F61>::new(w, rows, targets);
        assert_eq!(
            new(2, vec![vec![(0, one)]], vec![]),
            Err(StatementError::RowTargetMismatch { rows: 1, targets: 0 })
        );
        assert_eq!(
            new(2, vec![vec![(0, one), (2, one)]], vec![one]),
            Err(StatementError::ColumnOutOfRange { row: 0, col: 2, witness_len: 2 })
        );
        assert_eq!(
            new(0, vec![vec![(0, one)]], vec![one]),
            Err(StatementError::ColumnOutOfRange { row: 0, col: 0, witness_len: 0 })
        );
        for bad in [vec![(1, one), (0, one)], vec![(1, one), (1, one)]] {
            assert_eq!(
                new(2, vec![vec![], bad], vec![one, one]),
                Err(StatementError::ColumnsNotIncreasing { row: 1 })
            );
        }
        // A field too small to hold a dimension cannot hash it
        // injectively.
        type F5 = yoso_field::Fp<5>;
        assert_eq!(Statement::<F5>::new(5, vec![], vec![]), Err(StatementError::DimensionTooLarge));
        assert_eq!(
            Statement::<F5>::new(1, vec![vec![]; 5], vec![F5::ZERO; 5]),
            Err(StatementError::DimensionTooLarge)
        );
        assert!(Statement::<F5>::new(4, vec![vec![]; 4], vec![F5::ZERO; 4]).is_ok());
    }
}
