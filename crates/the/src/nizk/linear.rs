//! A Fiat–Shamir sigma protocol proving knowledge of a preimage under
//! a public linear map over a prime field.
//!
//! **Relation.** For a public (sparse) matrix `M ∈ F^{r×w}` and target
//! vector `x ∈ F^r`, the prover knows `w ∈ F^w` with `M·w = x`.
//!
//! **Protocol.** Commit `a = M·ρ` for random `ρ`; challenge
//! `e = H(D ‖ H′(M) ‖ x ‖ a)`; response `z = ρ + e·w`. Verify
//! `M·z = a + e·x`.
//!
//! This is special-sound (two accepting transcripts with distinct
//! challenges yield the witness `w = (z − z′)/(e − e′)`) and perfectly
//! honest-verifier zero-knowledge (simulate by sampling `z` and setting
//! `a = M·z − e·x`), hence a NIZKAoK in the random-oracle model.
//!
//! **The map is the unit of hashing.** A [`LinearMap`] is built — shape
//! checked, put in canonical sparse form, digested, bound to its proof
//! type's [`yoso_crypto::Domain`] — once, where the public data it is
//! made of becomes known, and every proof over it (all `n` members of a
//! committee step, prover and verifier alike) borrows it. The map keeps
//! the SHA-256 state after the challenge's fixed prefix, so a challenge
//! hashes only the proof's own targets and commitment:
//! ⌈(9 + 16·rows) / 64⌉ compressions — one for a proof of up to three
//! rows — whatever the size of `M`. A map carries its domain, so a
//! proof is checked under the domain it was made for or not at all.
//!
//! Every relation the mock-world YOSO protocol proves on the bulletin
//! board — correct encryption, correct partial decryption, correct
//! re-sharing, correct μ-share computation, correct re-encryption — is
//! linear over the field, so this single protocol is the NIZK engine of
//! the whole protocol stack.

use std::borrow::Borrow;
use std::fmt;

use rand::Rng;
use yoso_crypto::{Domain, Sha256};
use yoso_field::PrimeField;

/// Why a [`LinearMap`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
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
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::ColumnOutOfRange { row, col, witness_len } => {
                write!(f, "row {row} names column {col} of a {witness_len}-element witness")
            }
            MapError::ColumnsNotIncreasing { row } => {
                write!(f, "row {row} has unsorted or duplicate columns")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// The separator of `H′`, the hash that digests a map: a map's encoding
/// is never mistaken for a challenge's input or the reverse.
static MAP_DIGEST: Domain = Domain::new(b"yoso-pss/nizk/linear-map/v3");

/// A public linear map `M`, bound to the domain of the proofs over it:
/// row `i` sends a witness `w` to `Σ_(col, coeff) ∈ row i coeff · w_col`.
///
/// The rows are held flat in one canonical sparse form — `(col, coeff)`
/// pairs with `col < witness_len`, columns strictly increasing, no
/// stored zero — so equal maps have equal digests. The digest commits
/// to the shape and every entry; it and the challenge prefix are
/// computed in [`LinearMap::new`] and nowhere else.
#[derive(Debug, Clone)]
pub struct LinearMap<F: PrimeField> {
    witness_len: usize,
    /// Row `i` is `entries[row_ends[i − 1]..row_ends[i]]` (from 0 for
    /// the first).
    row_ends: Vec<usize>,
    entries: Vec<(usize, F)>,
    digest: [u8; 32],
    /// The hasher after `block(D) ‖ H′(M) ‖ u64(rows) ‖ 0^24`, at a
    /// block boundary: what every challenge over the map starts from.
    prefix: Sha256,
}

impl<F: PrimeField> LinearMap<F> {
    /// Creates a map over `witness_len` variables from sparse rows, each
    /// a sequence of `(col, coeff)`, for proofs under `domain`. Explicit
    /// zero coefficients are dropped.
    ///
    /// # Errors
    ///
    /// Rejects a column `≥ witness_len` and columns that are not
    /// strictly increasing.
    pub fn new<R>(domain: &Domain, witness_len: usize, rows: R) -> Result<Self, MapError>
    where
        R: IntoIterator,
        R::Item: IntoIterator,
        <R::Item as IntoIterator>::Item: Borrow<(usize, F)>,
    {
        let mut row_ends = Vec::new();
        let mut entries = Vec::new();
        for (row, given) in rows.into_iter().enumerate() {
            let mut next_col = 0;
            for entry in given {
                let &(col, coeff) = entry.borrow();
                if col < next_col {
                    return Err(MapError::ColumnsNotIncreasing { row });
                }
                if col >= witness_len {
                    return Err(MapError::ColumnOutOfRange { row, col, witness_len });
                }
                next_col = col + 1;
                if !coeff.is_zero() {
                    entries.push((col, coeff));
                }
            }
            row_ends.push(entries.len());
        }
        let mut map =
            LinearMap { witness_len, row_ends, entries, digest: [0; 32], prefix: Sha256::new() };
        map.digest = map.encoding_digest();
        // 32 + 8 + 24 bytes: the prefix is exactly one block past the
        // domain's.
        let mut prefix = domain.hasher();
        prefix.update(&map.digest);
        prefix.update(&(map.row_count() as u64).to_le_bytes());
        prefix.update(&[0; 24]);
        map.prefix = prefix;
        Ok(map)
    }

    /// `H′(M)`: one hash, under its own separator, of
    ///
    /// ```text
    /// rows, witness_len,
    /// for each row: len, (col, coeff) × len
    /// ```
    ///
    /// eight little-endian bytes each. Both runs are length-prefixed (by
    /// `rows`, by the row's `len`), so the encoding is an injective
    /// function of the canonical map.
    fn encoding_digest(&self) -> [u8; 32] {
        let mut h = MAP_DIGEST.hasher();
        let mut word = |w: [u8; 8]| h.update(&w);
        let int = |v: usize| (v as u64).to_le_bytes();
        word(int(self.row_ends.len()));
        word(int(self.witness_len));
        for row in self.rows() {
            word(int(row.len()));
            for &(col, coeff) in row {
                word(int(col));
                word(coeff.to_bytes());
            }
        }
        h.finalize()
    }

    /// Number of witness variables.
    pub fn witness_len(&self) -> usize {
        self.witness_len
    }

    /// Number of rows — of targets, and of commitment entries.
    pub fn row_count(&self) -> usize {
        self.row_ends.len()
    }

    /// The sparse rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[(usize, F)]> + '_ {
        let mut start = 0;
        self.row_ends.iter().map(move |&end| {
            let row = &self.entries[start..end];
            start = end;
            row
        })
    }

    /// The digest `H′(M)` every challenge over this map absorbs.
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// What a malicious role posts in place of a proof over this map:
    /// [`Proof::garbage`] of the map's shape.
    pub fn garbage<R: Rng + ?Sized>(&self, rng: &mut R) -> Proof<F> {
        Proof::garbage(rng, self.row_count(), self.witness_len)
    }

    /// Applies the map to a vector of `witness_len` elements, in
    /// `O(nnz)`.
    fn apply(&self, w: &[F]) -> Vec<F> {
        debug_assert_eq!(w.len(), self.witness_len);
        self.rows().map(|row| row.iter().map(|&(col, coeff)| coeff * w[col]).sum()).collect()
    }

    /// Returns `true` if the map sends `witness` to `targets`
    /// (prover-side sanity check).
    pub fn is_satisfied_by(&self, targets: &[F], witness: &[F]) -> bool {
        witness.len() == self.witness_len && self.apply(witness) == targets
    }

    /// Derives the challenge with one hash from the map's pre-hashed
    /// prefix:
    ///
    /// ```text
    /// e = le64(SHA-256(domain block(s) ‖ H′(M) ‖ u64(rows) ‖ 0^24 ‖ targets ‖ commitment)[..8])
    /// ```
    ///
    /// The prefix is a whole block and the two runs have the stated
    /// length, so the input parses back to exactly one (domain, digest,
    /// targets, commitment).
    fn challenge(&self, targets: &[F], commitment: &[F]) -> F {
        debug_assert_eq!(targets.len(), self.row_count());
        debug_assert_eq!(commitment.len(), self.row_count());
        let mut h = self.prefix.clone();
        for v in targets.iter().chain(commitment) {
            h.update(&v.to_bytes());
        }
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = h.finalize();
        F::from_u64(u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]))
    }
}

/// A non-interactive proof of knowledge of a preimage.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// What a malicious role posts in place of a proof: the right shape
    /// for a map of `rows` rows over `witness_len` variables, every
    /// entry drawn independently.
    pub fn garbage<R: Rng + ?Sized>(rng: &mut R, rows: usize, witness_len: usize) -> Self {
        let mut draw = |count| (0..count).map(|_| F::random(rng)).collect();
        Proof { commitment: draw(rows), response: draw(witness_len) }
    }
}

/// Proves knowledge of a `witness` that `map` sends to `targets`, under
/// the map's domain. The `witness_len` masks are the first thing drawn
/// from `rng`.
///
/// # Panics
///
/// Panics (in debug builds) if the witness does not satisfy the
/// statement — proving a false statement is always a caller bug.
pub fn prove<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    map: &LinearMap<F>,
    targets: &[F],
    witness: &[F],
) -> Proof<F> {
    debug_assert!(map.is_satisfied_by(targets, witness), "witness does not satisfy statement");
    let rho: Vec<F> = (0..map.witness_len()).map(|_| F::random(rng)).collect();
    let commitment = map.apply(&rho);
    let e = map.challenge(targets, &commitment);
    let response = rho.iter().zip(witness).map(|(&r, &w)| r + e * w).collect();
    Proof { commitment, response }
}

/// Verifies a proof, under the map's domain, that the prover knows a
/// preimage of `targets` under `map`.
pub fn verify<F: PrimeField>(
    map: &LinearMap<F>,
    targets: &[F],
    proof: &Proof<F>,
) -> bool {
    if targets.len() != map.row_count()
        || proof.commitment.len() != map.row_count()
        || proof.response.len() != map.witness_len()
    {
        return false;
    }
    let e = map.challenge(targets, &proof.commitment);
    let lhs = map.apply(&proof.response);
    lhs.iter().zip(proof.commitment.iter().zip(targets)).all(|(&l, (&a, &x))| l == a + e * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;

    static TEST: Domain = Domain::new(b"test");

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    fn example() -> (LinearMap<F61>, Vec<F61>, Vec<F61>) {
        // w = (3, 4); M = [[1, 2], [5, 6], [0, 1]]; x = M·w.
        let w = vec![f(3), f(4)];
        let rows = vec![vec![(0, f(1)), (1, f(2))], vec![(0, f(5)), (1, f(6))], vec![(1, f(1))]];
        let targets = vec![f(11), f(39), f(4)];
        (LinearMap::new(&TEST, 2, rows).unwrap(), targets, w)
    }

    #[test]
    fn prove_verify_roundtrip() {
        let mut r = rng();
        let (map, x, w) = example();
        assert!(map.is_satisfied_by(&x, &w));
        let proof = prove(&mut r, &map, &x, &w);
        assert!(verify(&map, &x, &proof));
    }

    #[test]
    fn wrong_domain_rejected() {
        let mut r = rng();
        let (map, x, w) = example();
        let proof = prove(&mut r, &map, &x, &w);
        let rows: Vec<&[(usize, F61)]> = map.rows().collect();
        let other = LinearMap::new(&Domain::new(b"other"), 2, rows).unwrap();
        assert_eq!(other.digest(), map.digest());
        assert!(!verify(&other, &x, &proof));
    }

    #[test]
    fn tampered_statement_rejected() {
        let mut r = rng();
        let (map, x, w) = example();
        let proof = prove(&mut r, &map, &x, &w);
        let mut x2 = x.clone();
        x2[0] += F61::ONE;
        assert!(!verify(&map, &x2, &proof));
        let rows = vec![vec![(0, f(1)), (1, f(3))], vec![(0, f(5)), (1, f(6))], vec![(1, f(1))]];
        assert!(!verify(&LinearMap::new(&TEST, 2, rows).unwrap(), &x, &proof));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut r = rng();
        let (map, x, w) = example();
        let mut proof = prove(&mut r, &map, &x, &w);
        proof.response[0] += F61::ONE;
        assert!(!verify(&map, &x, &proof));
        let mut proof2 = prove(&mut r, &map, &x, &w);
        proof2.commitment[1] += F61::ONE;
        assert!(!verify(&map, &x, &proof2));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut r = rng();
        let (map, x, w) = example();
        let proof = prove(&mut r, &map, &x, &w);
        let mut short = proof.clone();
        short.response.pop();
        assert!(!verify(&map, &x, &short));
        // Targets are per proof now: a count that is not the map's row
        // count is a rejection, not an index out of range.
        assert!(!verify(&map, &x[..2], &proof));
        assert!(!verify(&map, &[&x[..], &[F61::ZERO]].concat(), &proof));
    }

    #[test]
    fn empty_witness_statement() {
        // Degenerate: no witness variables, rows must target zero.
        let map = LinearMap::<F61>::new(&TEST, 0, Vec::<Vec<(usize, F61)>>::new()).unwrap();
        let mut r = rng();
        let proof = prove(&mut r, &map, &[], &[]);
        assert!(verify(&map, &[], &proof));
    }

    #[test]
    fn special_soundness_extracts_witness() {
        // With two accepting transcripts for distinct challenges we can
        // extract the witness: simulate by re-running the interactive
        // protocol manually.
        let (_, _, w) = example();
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
        let (map, x, _) = example();
        let mut r = rng();
        let z: Vec<F61> = (0..2).map(|_| yoso_field::PrimeField::random(&mut r)).collect();
        let e = f(99);
        let mz = map.apply(&z);
        let a: Vec<F61> = mz.iter().zip(&x).map(|(&m, &x)| m - e * x).collect();
        for i in 0..3 {
            assert_eq!(mz[i], a[i] + e * x[i]);
        }
    }

    #[test]
    fn malformed_rows_are_typed_errors() {
        let one = F61::ONE;
        let new = |w, rows: Vec<Vec<(usize, F61)>>| LinearMap::<F61>::new(&TEST, w, rows).err();
        assert_eq!(
            new(2, vec![vec![(0, one), (2, one)]]),
            Some(MapError::ColumnOutOfRange { row: 0, col: 2, witness_len: 2 })
        );
        assert_eq!(
            new(0, vec![vec![(0, one)]]),
            Some(MapError::ColumnOutOfRange { row: 0, col: 0, witness_len: 0 })
        );
        // A stored zero is checked like any other entry before it is
        // dropped.
        assert_eq!(
            new(2, vec![vec![(5, F61::ZERO)]]),
            Some(MapError::ColumnOutOfRange { row: 0, col: 5, witness_len: 2 })
        );
        for bad in [vec![(1, one), (0, one)], vec![(1, one), (1, one)]] {
            assert_eq!(new(2, vec![vec![], bad]), Some(MapError::ColumnsNotIncreasing { row: 1 }));
        }
        // Dimensions are hashed as integers, not as field elements: a
        // field smaller than the map is no obstacle.
        type F5 = yoso_field::Fp<5>;
        let tall = LinearMap::<F5>::new(&TEST, 7, vec![vec![(6, F5::ONE)]; 9]).unwrap();
        assert_eq!((tall.row_count(), tall.witness_len()), (9, 7));
    }

    #[test]
    fn rows_come_back_flat_and_canonical() {
        let rows = vec![vec![(0, f(1)), (2, F61::ZERO), (3, f(2))], vec![], vec![(1, f(5))]];
        let map = LinearMap::new(&TEST, 4, &rows).unwrap();
        let got: Vec<&[(usize, F61)]> = map.rows().collect();
        let canonical = [&[(0, f(1)), (3, f(2))][..], &[], &[(1, f(5))]];
        assert_eq!(got, canonical);
        assert_eq!(map.row_count(), 3);
        // Borrowed rows, owned rows and slices of slices are one map.
        let from_slices = LinearMap::new(&TEST, 4, canonical).unwrap();
        assert!(from_slices.rows().eq(map.rows()));
        assert_eq!(from_slices.digest(), map.digest());
        assert_eq!(LinearMap::new(&TEST, 4, rows).unwrap().digest(), map.digest());
    }

    #[test]
    fn garbage_entries_are_drawn_independently() {
        let (map, x, _) = example();
        let proof = map.garbage(&mut rng());
        assert_eq!((proof.commitment.len(), proof.response.len()), (3, 2));
        assert_ne!(proof.commitment[0], proof.commitment[1]);
        assert_ne!(proof.commitment[1], proof.commitment[2]);
        assert_ne!(proof.response[0], proof.response[1]);
        // Commitment first, then response, one draw an entry.
        let mut replay = rng();
        let drawn: Vec<F61> = (0..5).map(|_| F61::random(&mut replay)).collect();
        assert_eq!([&proof.commitment[..], &proof.response[..]].concat(), drawn);
        assert!(!verify(&map, &x, &proof));
    }

    /// Exact and host-independent: a map is digested, and its prefix
    /// hashed (one block past the domain's), when it is built and never
    /// again; a challenge then costs ⌈(9 + 16·rows) / 64⌉ blocks —
    /// targets, commitment, padding — whatever the map holds.
    #[cfg(debug_assertions)]
    #[test]
    fn a_challenge_costs_its_tail_and_a_shared_map_is_digested_once() {
        use yoso_crypto::sha256::compressions_of;
        let mut r = rng();
        for (rows, witness_len) in [(2usize, 2usize), (3, 2), (4, 2), (5, 40), (6, 1), (40, 3)] {
            let w: Vec<F61> = (0..witness_len).map(|_| F61::random(&mut r)).collect();
            let dense: Vec<Vec<(usize, F61)>> = (0..rows)
                .map(|_| (0..witness_len).map(|col| (col, F61::random(&mut r))).collect())
                .collect();
            let (map, building) =
                compressions_of(|| LinearMap::new(&TEST, witness_len, &dense).unwrap());
            // 16 bytes of shape, 8 + 16·witness_len a row, 9 of padding;
            // then the prefix block.
            let digesting = (16 + rows * (8 + 16 * witness_len) + 9).div_ceil(64) as u64;
            assert_eq!(building, digesting + 1);
            let x = map.apply(&w);

            let per_challenge = (9 + 16 * rows).div_ceil(64) as u64;
            assert_eq!(per_challenge == 1, rows <= 3);
            let members = 7;
            let (_, proving) = compressions_of(|| {
                for _ in 0..members {
                    let proof = prove(&mut r, &map, &x, &w);
                    assert!(verify(&map, &x, &proof));
                }
            });
            assert_eq!(proving, 2 * members * per_challenge, "{rows} rows");
        }
    }
}
