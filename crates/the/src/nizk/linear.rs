//! A Fiat–Shamir sigma protocol proving knowledge of a preimage under
//! a public linear map over a prime field.
//!
//! **Relation.** For a public matrix `M ∈ F^{r×w}` and target vector
//! `x ∈ F^r`, the prover knows `w ∈ F^w` with `M·w = x`.
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

use serde::{Deserialize, Serialize};

use rand::Rng;
use yoso_crypto::Transcript;
use yoso_field::PrimeField;

/// A public statement: the linear map (dense rows) and the target
/// vector. Row `i` asserts `Σ_j matrix[i][j] · w_j = targets[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(bound = "")]
pub struct Statement<F: PrimeField> {
    /// Dense rows of the linear map, each of length `witness_len`.
    pub matrix: Vec<Vec<F>>,
    /// The target vector, one entry per row.
    pub targets: Vec<F>,
}

impl<F: PrimeField> Statement<F> {
    /// Creates a statement, validating shape.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or the target count
    /// does not match the row count.
    pub fn new(matrix: Vec<Vec<F>>, targets: Vec<F>) -> Self {
        assert_eq!(matrix.len(), targets.len(), "row/target count mismatch");
        if let Some(first) = matrix.first() {
            let w = first.len();
            assert!(matrix.iter().all(|r| r.len() == w), "ragged matrix");
        }
        Statement { matrix, targets }
    }

    /// Number of witness variables.
    pub fn witness_len(&self) -> usize {
        self.matrix.first().map_or(0, |r| r.len())
    }

    /// Applies the map to a vector.
    fn apply(&self, w: &[F]) -> Vec<F> {
        self.matrix.iter().map(|row| F::dot(row, w)).collect()
    }

    /// Returns `true` if `w` satisfies the statement (prover-side
    /// sanity check).
    pub fn is_satisfied_by(&self, w: &[F]) -> bool {
        w.len() == self.witness_len() && self.apply(w) == self.targets
    }

    fn absorb_into(&self, t: &mut Transcript) {
        t.absorb_u64(b"rows", self.matrix.len() as u64);
        t.absorb_u64(b"cols", self.witness_len() as u64);
        for row in &self.matrix {
            for &c in row {
                t.absorb_field(b"m", c);
            }
        }
        for &x in &self.targets {
            t.absorb_field(b"x", x);
        }
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

    let mut t = Transcript::new(domain);
    statement.absorb_into(&mut t);
    for &a in &commitment {
        t.absorb_field(b"a", a);
    }
    let e: F = t.challenge_field(b"e");

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
    let mut t = Transcript::new(domain);
    statement.absorb_into(&mut t);
    for &a in &proof.commitment {
        t.absorb_field(b"a", a);
    }
    let e: F = t.challenge_field(b"e");

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
        let matrix = vec![vec![f(1), f(2)], vec![f(5), f(6)], vec![f(0), f(1)]];
        let targets = vec![f(11), f(39), f(4)];
        (Statement::new(matrix, targets), w)
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
        let st = Statement::<F61>::new(vec![], vec![]);
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
        let mz = [
            st.matrix[0][0] * z[0] + st.matrix[0][1] * z[1],
            st.matrix[1][0] * z[0] + st.matrix[1][1] * z[1],
            st.matrix[2][0] * z[0] + st.matrix[2][1] * z[1],
        ];
        let a: Vec<F61> = mz.iter().zip(&st.targets).map(|(&m, &x)| m - e * x).collect();
        for i in 0..3 {
            assert_eq!(mz[i], a[i] + e * st.targets[i]);
        }
    }
}
