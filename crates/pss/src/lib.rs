//! Packed Shamir secret sharing (Franklin–Yung).
//!
//! A degree-`d` *packed* Shamir sharing `[[x]]_d` stores a vector
//! `x ∈ F^k` of `k` secrets in a single sharing: a polynomial `f` of
//! degree at most `d` with `f(e_j) = x_j` at the *secret points*
//! `e_j = −(j−1)`, while party `i ∈ [n]` holds the *share* `f(i)`.
//!
//! Properties used throughout the paper (§3.2):
//!
//! - `d + 1` shares reconstruct; any `d − k + 1` shares are independent
//!   of the secrets.
//! - Linear homomorphism: `[[x + y]]_d = [[x]]_d + [[y]]_d`.
//! - Share-wise multiplication: `[[x * y]]_{d1+d2} = [[x]]_{d1} ⊙ [[y]]_{d2}`
//!   (requires `d1 + d2 < n`).
//! - Multiplication-friendliness: a *public* vector `c` can be
//!   multiplied in by locally computing the (deterministic)
//!   degree-`(k−1)` sharing `[[c]]_{k−1}` and share-wise multiplying.
//!
//! The crate exposes dealer-side whole-vector types ([`PackedShares`])
//! because the YOSO runtime simulates all roles in one process; the
//! per-party view is a [`Share`].
//!
//! # Example
//!
//! ```rust
//! use rand::SeedableRng;
//! use yoso_field::F61;
//! use yoso_pss_sharing::PackedSharing;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // n = 10 parties, k = 3 secrets per sharing.
//! let scheme = PackedSharing::<F61>::new(10, 3)?;
//! let secrets = [F61::from(5u64), F61::from(7u64), F61::from(9u64)];
//! let shares = scheme.share(&mut rng, &secrets, 5)?;
//! let back = scheme.reconstruct(&shares.select(&[0, 2, 4, 6, 8, 9]), 5)?;
//! assert_eq!(back, secrets.to_vec());
//! # Ok::<(), yoso_pss_sharing::PssError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shamir;

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use rand::Rng;

use yoso_field::allocstats::ensure_filled;
use yoso_field::{EvalDomain, FieldError, PrimeField};

/// Errors produced by sharing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PssError {
    /// Scheme parameters are inconsistent (e.g. `k = 0` or `k > n`).
    BadParameters {
        /// Committee size.
        n: usize,
        /// Packing factor.
        k: usize,
    },
    /// A degree outside `[k−1, n−1]` was requested.
    BadDegree {
        /// The offending degree.
        degree: usize,
        /// Packing factor `k` of the scheme.
        k: usize,
        /// Committee size `n` of the scheme.
        n: usize,
    },
    /// Too few shares were supplied to reconstruct.
    NotEnoughShares {
        /// Shares supplied.
        got: usize,
        /// Shares required (`degree + 1`).
        need: usize,
    },
    /// Supplied shares are inconsistent with a single polynomial of the
    /// claimed degree (error detection tripped).
    Inconsistent,
    /// The number of secrets does not match the packing factor.
    SecretCountMismatch {
        /// Secrets supplied.
        got: usize,
        /// Packing factor `k`.
        expected: usize,
    },
    /// A duplicate party index appeared in a share set.
    DuplicateParty(usize),
    /// An underlying field error.
    Field(FieldError),
}

impl std::fmt::Display for PssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PssError::BadParameters { n, k } => write!(f, "invalid packed sharing parameters: n={n}, k={k}"),
            PssError::BadDegree { degree, k, n } => {
                write!(f, "degree {degree} outside valid range [{}, {}]", k - 1, n - 1)
            }
            PssError::NotEnoughShares { got, need } => {
                write!(f, "not enough shares: got {got}, need {need}")
            }
            PssError::Inconsistent => write!(f, "shares are inconsistent with claimed degree"),
            PssError::SecretCountMismatch { got, expected } => {
                write!(f, "secret count mismatch: got {got}, expected {expected}")
            }
            PssError::DuplicateParty(i) => write!(f, "duplicate party index {i} in share set"),
            PssError::Field(e) => write!(f, "field error: {e}"),
        }
    }
}

impl std::error::Error for PssError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PssError::Field(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FieldError> for PssError {
    fn from(e: FieldError) -> Self {
        PssError::Field(e)
    }
}

/// Where a scheme places its evaluation points: the secrets at
/// `0, −1, …, −(k−1)` and party `i` at `i + 1`, as in the paper, and
/// the only layout there is. It stays only because the frozen benchmark
/// package names it, and goes when that package is repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointLayout {
    /// Secrets at `0, −1, …, −(k−1)`; party `i` at `i + 1`.
    #[default]
    Sequential,
}

/// One party's share of a packed sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share<F: PrimeField> {
    /// 0-based party index (party `i` evaluates at point `i + 1`).
    pub party: usize,
    /// The share value `f(party + 1)`.
    pub value: F,
}

/// A complete degree-`d` packed sharing: the dealer-side view holding
/// all `n` share values.
#[derive(Clone, PartialEq, Eq)]
pub struct PackedShares<F: PrimeField> {
    degree: usize,
    values: Vec<F>,
}

// lint:redact: prints the degree and share count only — the values
// together reconstruct every packed secret, so none are shown.
impl<F: PrimeField> std::fmt::Debug for PackedShares<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedShares")
            .field("degree", &self.degree)
            .field("values", &format_args!("<{} redacted>", self.values.len()))
            .finish()
    }
}

impl<F: PrimeField> PackedShares<F> {
    /// The sharing degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// All `n` share values (index `i` belongs to party `i`).
    pub fn values(&self) -> &[F] {
        &self.values
    }

    /// The share of party `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn share_of(&self, i: usize) -> Share<F> {
        Share { party: i, value: self.values[i] }
    }

    /// Extracts the shares of the given (0-based) parties.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select(&self, parties: &[usize]) -> Vec<Share<F>> {
        parties.iter().map(|&i| self.share_of(i)).collect()
    }

    /// Share-wise addition. Result degree is the max of the operands.
    ///
    /// # Panics
    ///
    /// Panics if the share vectors have different lengths.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(self.values.len(), rhs.values.len(), "mismatched committee sizes");
        PackedShares {
            degree: self.degree.max(rhs.degree),
            values: self.values.iter().zip(&rhs.values).map(|(&a, &b)| a + b).collect(),
        }
    }

    /// Share-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the share vectors have different lengths.
    pub fn sub(&self, rhs: &Self) -> Self {
        assert_eq!(self.values.len(), rhs.values.len(), "mismatched committee sizes");
        PackedShares {
            degree: self.degree.max(rhs.degree),
            values: self.values.iter().zip(&rhs.values).map(|(&a, &b)| a - b).collect(),
        }
    }

    /// Multiplication by a public scalar.
    pub fn scale(&self, s: F) -> Self {
        PackedShares { degree: self.degree, values: self.values.iter().map(|&v| v * s).collect() }
    }

    /// Share-wise multiplication: `[[x*y]]_{d1+d2}`.
    ///
    /// # Panics
    ///
    /// Panics if the share vectors have different lengths.
    pub fn mul_elementwise(&self, rhs: &Self) -> Self {
        assert_eq!(self.values.len(), rhs.values.len(), "mismatched committee sizes");
        PackedShares {
            degree: self.degree + rhs.degree,
            values: self.values.iter().zip(&rhs.values).map(|(&a, &b)| a * b).collect(),
        }
    }
}

/// A packed Shamir sharing scheme instance: `n` parties, `k` secrets
/// per sharing.
///
/// Secret `j` sits at `−j` and party `i` at `i + 1`, so the `d + 1`
/// nodes pinning a degree-`d` deal are the consecutive integers
/// `−(k − 1), …, d + 1 − k`, and the party points continue them: every
/// deal, public sharing and ciphertext packing is one difference table
/// extended by additions ([`Self::extend_into`]). Reconstruction runs
/// on whichever parties' shares arrive, consecutive or not, through a
/// Lagrange [`EvalDomain`] cached per party subset; its recombination
/// rows are memoised, so a repeated subset costs a dot product per
/// secret. Clones share the cache.
#[derive(Debug, Clone)]
pub struct PackedSharing<F: PrimeField> {
    n: usize,
    k: usize,
    party_points: Vec<F>,
    secret_points: Vec<F>,
    /// Reconstruction domains keyed by the ordered party subset.
    recon_domains: Arc<RwLock<ReconCache<F>>>,
}

/// Maximum number of reconstruction domains retained per scheme.
///
/// Each entry pins an [`EvalDomain`] whose memoised recombination rows
/// are `O(m)` field elements each, so an unbounded map grows without
/// limit across long epoch chains whose crash patterns keep producing
/// fresh party subsets. The protocol cycles through only a handful of
/// subsets per epoch, so a small bound keeps the working set hot while
/// capping memory.
const RECON_CACHE_CAP: usize = 64;

/// Bounded reconstruction-domain cache.
///
/// `BTreeMap`-backed so iteration order is deterministic (keyed by the
/// ordered party subset), with FIFO eviction by insertion stamp once
/// [`RECON_CACHE_CAP`] entries are held: the cache can never grow
/// without bound, and which entry is evicted never depends on hash
/// seeds or timing.
#[derive(Debug, Default)]
struct ReconCache<F: PrimeField> {
    entries: BTreeMap<Vec<usize>, (u64, Arc<EvalDomain<F>>)>,
    next_stamp: u64,
}

impl<F: PrimeField> ReconCache<F> {
    fn get(&self, parties: &[usize]) -> Option<&Arc<EvalDomain<F>>> {
        self.entries.get(parties).map(|(_, domain)| domain)
    }

    /// Inserts `domain` under `parties`, evicting the oldest entries
    /// when full. Returns the cached domain — an entry raced in by
    /// another writer wins, matching `entry().or_insert()` semantics.
    fn insert(&mut self, parties: Vec<usize>, domain: Arc<EvalDomain<F>>) -> Arc<EvalDomain<F>> {
        if let Some((_, hit)) = self.entries.get(&parties) {
            return Arc::clone(hit);
        }
        while self.entries.len() >= RECON_CACHE_CAP {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(key, _)| key.clone());
            match oldest {
                Some(key) => self.entries.remove(&key),
                None => break,
            };
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(parties, (stamp, Arc::clone(&domain)));
        domain
    }
}

/// Reusable working buffers for the `*_into` entry points
/// ([`PackedSharing::share_into`], [`PackedSharing::reconstruct_into`],
/// …).
///
/// Every buffer grows to its high-water mark on first use and is then
/// reused verbatim — `yoso_field::allocstats` counts only the growths,
/// which the repository benchmark reports as `pss.hot_allocs_per_gate`. A
/// scratch may be moved freely between schemes, degrees and
/// operations; buffers are resized per call.
#[derive(Debug, Default)]
pub struct PssScratch<F: PrimeField> {
    /// Dealing-node values (secrets, then randomness) and their
    /// differences, or the leading `degree + 1` share values during
    /// reconstruction.
    ys: Vec<F>,
    /// Party indices of the reconstructing subset.
    parties: Vec<usize>,
    /// Per-party duplicate-detection bitmap.
    seen: Vec<bool>,
}

impl<F: PrimeField> PssScratch<F> {
    /// An empty scratch; buffers allocate lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<F: PrimeField> PackedSharing<F> {
    /// Creates a scheme for `n` parties packing `k` secrets.
    ///
    /// # Errors
    ///
    /// Returns [`PssError::BadParameters`] unless `1 ≤ k ≤ n` and
    /// `n + k < MODULUS` (points must be distinct in the field).
    pub fn new(n: usize, k: usize) -> Result<Self, PssError> {
        if k == 0 || k > n || (n + k) as u64 >= F::MODULUS {
            return Err(PssError::BadParameters { n, k });
        }
        Ok(PackedSharing {
            n,
            k,
            party_points: (1..=n as u64).map(F::from_u64).collect(),
            secret_points: (0..k as i64).map(|j| F::from_i64(-j)).collect(),
            recon_domains: Arc::default(),
        })
    }

    /// [`Self::new`]: the layout has one value. It stays only because
    /// the frozen benchmark package calls it, and goes when that
    /// package is repaired.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn with_layout(n: usize, k: usize, _layout: PointLayout) -> Result<Self, PssError> {
        Self::new(n, k)
    }

    /// The reconstruction domain over the given ordered party subset.
    fn recon_domain(&self, parties: &[usize]) -> Result<Arc<EvalDomain<F>>, PssError> {
        if let Some(hit) = read_lock(&self.recon_domains).get(parties) {
            return Ok(Arc::clone(hit));
        }
        let points: Vec<F> = parties.iter().map(|&i| self.party_points[i]).collect();
        let domain = Arc::new(EvalDomain::new(points)?);
        Ok(write_lock(&self.recon_domains).insert(parties.to_vec(), domain))
    }

    /// Committee size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packing factor `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The evaluation point of party `i` (0-based), i.e. `i + 1`.
    pub fn party_point(&self, i: usize) -> F {
        self.party_points[i]
    }

    /// The evaluation point storing secret `j`, i.e. `−j` (0-based).
    pub fn secret_point(&self, j: usize) -> F {
        self.secret_points[j]
    }

    fn check_degree(&self, degree: usize) -> Result<(), PssError> {
        if degree + 1 < self.k || degree >= self.n {
            return Err(PssError::BadDegree { degree, k: self.k, n: self.n });
        }
        Ok(())
    }

    /// Deals a fresh uniformly random degree-`degree` sharing of
    /// `secrets`.
    ///
    /// The dealt polynomial is pinned by the `k` secrets plus
    /// `degree + 1 − k` random values at the first party points — the
    /// result is uniform among degree-`degree` polynomials with the
    /// prescribed secrets.
    ///
    /// # Errors
    ///
    /// Returns [`PssError::SecretCountMismatch`] or
    /// [`PssError::BadDegree`] on malformed input.
    pub fn share<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        secrets: &[F],
        degree: usize,
    ) -> Result<PackedShares<F>, PssError> {
        let mut values = Vec::new();
        self.share_into(rng, secrets, degree, &mut values, &mut PssScratch::default())?;
        Ok(PackedShares { degree, values })
    }

    /// Deals a sharing into caller-provided buffers — the arena variant
    /// of [`Self::share`]. Share values land in `out` (resized to `n`);
    /// every intermediate lives in `scratch`, so a caller reusing both
    /// across gates allocates only on first touch.
    ///
    /// Randomness is drawn exactly as in [`Self::share`], so the dealt
    /// values are bit-identical to the owning variant under the same
    /// RNG state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::share`].
    pub fn share_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        secrets: &[F],
        degree: usize,
        out: &mut Vec<F>,
        scratch: &mut PssScratch<F>,
    ) -> Result<(), PssError> {
        if secrets.len() != self.k {
            return Err(PssError::SecretCountMismatch { got: secrets.len(), expected: self.k });
        }
        self.check_degree(degree)?;
        // The dealing-node values: the `k` secrets, then `degree + 1 − k`
        // fresh random tail values.
        ensure_filled(&mut scratch.ys, degree + 1, F::ZERO);
        scratch.ys[..self.k].copy_from_slice(secrets);
        for slot in &mut scratch.ys[self.k..] {
            *slot = F::random(rng);
        }
        self.extend_into(&mut scratch.ys, out)
    }

    /// The scheme's one evaluator: given the values `nodes` of a
    /// polynomial of degree `d = nodes.len() − 1` at the dealing nodes —
    /// the `k` secret points in secret order, then the party points
    /// `1, …, d + 1 − k` — writes its value at every party point into
    /// `out` (resized to `n`).
    ///
    /// The nodes are the consecutive integers `−(k − 1), …, d + 1 − k`
    /// once the secrets are reversed into point order. In place, `nodes`
    /// becomes the top edge of their forward-difference table
    /// (`d(d + 1)/2` subtractions), and
    /// [`PrimeField::extend_differences`] walks it by additions over
    /// `−(k − 1), …, n`, of which the last `n` values are the shares. No
    /// multiplication is spent. The map is linear, so it applies as
    /// well to each component of homomorphic ciphertexts.
    ///
    /// # Errors
    ///
    /// Returns [`PssError::BadDegree`] unless `k ≤ nodes.len() ≤ n`.
    pub fn extend_into(&self, nodes: &mut [F], out: &mut Vec<F>) -> Result<(), PssError> {
        if nodes.len() < self.k || nodes.len() > self.n {
            return Err(PssError::BadDegree {
                degree: nodes.len().saturating_sub(1),
                k: self.k,
                n: self.n,
            });
        }
        nodes[..self.k].reverse();
        for j in 1..nodes.len() {
            for i in (j..nodes.len()).rev() {
                let below = nodes[i - 1];
                nodes[i] -= below;
            }
        }
        ensure_filled(out, self.k + self.n, F::ZERO);
        F::extend_differences(nodes, out);
        out.drain(..self.k);
        Ok(())
    }

    /// The dealing map for `degree` as explicit rows: row `i` takes the
    /// `degree + 1` node values [`Self::extend_into`] reads to party
    /// `i`'s share. Built afresh from Lagrange basis vectors on every
    /// call, and called by nothing in the protocol: it stays only
    /// because the frozen benchmark package times it, and goes when
    /// that package is repaired.
    ///
    /// # Errors
    ///
    /// Returns [`PssError::BadDegree`] outside `[k−1, n−1]`.
    pub fn dealing_basis_rows(&self, degree: usize) -> Result<Vec<Vec<F>>, PssError> {
        self.check_degree(degree)?;
        let nodes = self.secret_points.iter().chain(&self.party_points[..degree + 1 - self.k]);
        let domain = EvalDomain::new(nodes.copied().collect())?;
        Ok(self.party_points.iter().map(|&p| domain.basis_at(p).to_vec()).collect())
    }

    /// The *deterministic* degree-`(k−1)` sharing of a public vector
    /// `c` — every party can compute it locally (all shares are
    /// determined by the secrets). This is the first step of
    /// multiplication-friendliness.
    ///
    /// # Errors
    ///
    /// Returns [`PssError::SecretCountMismatch`] if `c` has the wrong
    /// length.
    pub fn share_public(&self, c: &[F]) -> Result<PackedShares<F>, PssError> {
        let mut values = Vec::new();
        self.share_public_into(c, &mut values, &mut PssScratch::default())?;
        Ok(PackedShares { degree: self.k - 1, values })
    }

    /// Arena variant of [`Self::share_public`]: writes the
    /// deterministic degree-`(k−1)` share values into `out` (resized
    /// to `n`), with the difference table in `scratch`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::share_public`].
    pub fn share_public_into(
        &self,
        c: &[F],
        out: &mut Vec<F>,
        scratch: &mut PssScratch<F>,
    ) -> Result<(), PssError> {
        if c.len() != self.k {
            return Err(PssError::SecretCountMismatch { got: c.len(), expected: self.k });
        }
        ensure_filled(&mut scratch.ys, self.k, F::ZERO);
        scratch.ys.copy_from_slice(c);
        self.extend_into(&mut scratch.ys, out)
    }

    /// Multiplies a public vector into a sharing:
    /// `c * [[x]]_d = [[c * x]]_{d + k − 1}` (the paper's
    /// `c * [[x]]_{n−k} = [[c*x]]_{n−1}` construction).
    ///
    /// # Errors
    ///
    /// Propagates [`PssError::SecretCountMismatch`]; returns
    /// [`PssError::BadDegree`] if the product degree reaches `n`.
    pub fn mul_public(&self, c: &[F], shares: &PackedShares<F>) -> Result<PackedShares<F>, PssError> {
        let c_shares = self.share_public(c)?;
        let out = c_shares.mul_elementwise(shares);
        if out.degree >= self.n {
            return Err(PssError::BadDegree { degree: out.degree, k: self.k, n: self.n });
        }
        Ok(out)
    }

    /// Reconstructs the packed secrets from at least `degree + 1`
    /// shares, with consistency (error-detection) checking of any
    /// surplus shares.
    ///
    /// # Errors
    ///
    /// - [`PssError::NotEnoughShares`] with fewer than `degree + 1`.
    /// - [`PssError::DuplicateParty`] on repeated indices.
    /// - [`PssError::Inconsistent`] if surplus shares do not lie on the
    ///   interpolated polynomial (some share is corrupted).
    pub fn reconstruct(&self, shares: &[Share<F>], degree: usize) -> Result<Vec<F>, PssError> {
        let mut out = Vec::new();
        self.reconstruct_into(shares, degree, &mut out, &mut PssScratch::default())?;
        Ok(out)
    }

    /// Arena variant of [`Self::reconstruct`]: the packed secrets land
    /// in `out` (resized to `k`); duplicate tracking and the share split
    /// live in `scratch`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::reconstruct`].
    pub fn reconstruct_into(
        &self,
        shares: &[Share<F>],
        degree: usize,
        out: &mut Vec<F>,
        scratch: &mut PssScratch<F>,
    ) -> Result<(), PssError> {
        self.check_degree(degree)?;
        if shares.len() < degree + 1 {
            return Err(PssError::NotEnoughShares { got: shares.len(), need: degree + 1 });
        }
        let PssScratch { ys, parties, seen } = scratch;
        ensure_filled(seen, self.n, false);
        for s in shares {
            if s.party >= self.n || seen[s.party] {
                return Err(PssError::DuplicateParty(s.party));
            }
            seen[s.party] = true;
        }
        ensure_filled(parties, degree + 1, 0);
        ensure_filled(ys, degree + 1, F::ZERO);
        for (i, s) in shares[..degree + 1].iter().enumerate() {
            parties[i] = s.party;
            ys[i] = s.value;
        }
        let domain = self.recon_domain(parties)?;
        // Error detection: every surplus share must agree with the
        // polynomial pinned by the first degree + 1 shares. The cached
        // recombination vector evaluates it without interpolating.
        for s in &shares[degree + 1..] {
            if F::dot(&domain.basis_at(self.party_points[s.party]), ys) != s.value {
                return Err(PssError::Inconsistent);
            }
        }
        ensure_filled(out, self.k, F::ZERO);
        for (slot, &e) in out.iter_mut().zip(&self.secret_points) {
            *slot = F::dot(&domain.basis_at(e), ys);
        }
        Ok(())
    }

    /// The recombination vector taking shares of parties `parties`
    /// (0-based) to the value at secret point `j`: coefficients `w`
    /// with `x_j = Σ w_i · f(party_i + 1)` for any polynomial of degree
    /// `< parties.len()`.
    ///
    /// # Errors
    ///
    /// Propagates field errors on duplicate parties.
    pub fn recombination_vector(&self, parties: &[usize], j: usize) -> Result<Vec<F>, PssError> {
        Ok(self.recon_domain(parties)?.basis_at(self.secret_points[j]).to_vec())
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
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn parameter_validation() {
        assert!(PackedSharing::<F61>::new(10, 3).is_ok());
        assert!(matches!(PackedSharing::<F61>::new(10, 0), Err(PssError::BadParameters { .. })));
        assert!(matches!(PackedSharing::<F61>::new(3, 4), Err(PssError::BadParameters { .. })));
        assert!(matches!(PackedSharing::<F61>::new(0, 0), Err(PssError::BadParameters { .. })));
    }

    #[test]
    fn share_reconstruct_roundtrip_all_degrees() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(12, 4).unwrap();
        let secrets = [f(1), f(22), f(333), f(4444)];
        for degree in 3..12 {
            let shares = scheme.share(&mut rng, &secrets, degree).unwrap();
            let subset: Vec<usize> = (0..=degree).collect();
            let got = scheme.reconstruct(&shares.select(&subset), degree).unwrap();
            assert_eq!(got, secrets.to_vec(), "degree {degree}");
        }
    }

    #[test]
    fn reconstruct_from_any_subset() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(9, 2).unwrap();
        let secrets = [f(10), f(20)];
        let shares = scheme.share(&mut rng, &secrets, 4).unwrap();
        for subset in [[0, 2, 4, 6, 8], [1, 3, 5, 7, 8], [4, 5, 6, 7, 0]] {
            let got = scheme.reconstruct(&shares.select(&subset), 4).unwrap();
            assert_eq!(got, secrets.to_vec());
        }
    }

    #[test]
    fn too_few_shares_rejected() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(9, 2).unwrap();
        let shares = scheme.share(&mut rng, &[f(1), f(2)], 4).unwrap();
        let err = scheme.reconstruct(&shares.select(&[0, 1, 2, 3]), 4).unwrap_err();
        assert_eq!(err, PssError::NotEnoughShares { got: 4, need: 5 });
    }

    #[test]
    fn corrupted_surplus_share_detected() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(9, 2).unwrap();
        let shares = scheme.share(&mut rng, &[f(1), f(2)], 4).unwrap();
        let mut subset = shares.select(&[0, 1, 2, 3, 4, 5]);
        subset[5].value += F61::ONE;
        assert_eq!(scheme.reconstruct(&subset, 4), Err(PssError::Inconsistent));
    }

    #[test]
    fn duplicate_party_rejected() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(9, 2).unwrap();
        let shares = scheme.share(&mut rng, &[f(1), f(2)], 4).unwrap();
        let mut subset = shares.select(&[0, 1, 2, 3, 4]);
        subset[4].party = 0;
        subset[4].value = shares.share_of(0).value;
        assert!(matches!(scheme.reconstruct(&subset, 4), Err(PssError::DuplicateParty(0))));
    }

    #[test]
    fn linearity() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(10, 3).unwrap();
        let a = [f(1), f(2), f(3)];
        let b = [f(100), f(200), f(300)];
        let sa = scheme.share(&mut rng, &a, 5).unwrap();
        let sb = scheme.share(&mut rng, &b, 5).unwrap();
        let sum = sa.add(&sb);
        let all: Vec<usize> = (0..10).collect();
        let got = scheme.reconstruct(&sum.select(&all), 5).unwrap();
        assert_eq!(got, vec![f(101), f(202), f(303)]);
        let diff = sum.sub(&sb);
        assert_eq!(scheme.reconstruct(&diff.select(&all), 5).unwrap(), a.to_vec());
        let scaled = sa.scale(f(7));
        assert_eq!(scheme.reconstruct(&scaled.select(&all), 5).unwrap(), vec![f(7), f(14), f(21)]);
    }

    #[test]
    fn elementwise_multiplication_degree_sum() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(11, 2).unwrap();
        let a = [f(3), f(4)];
        let b = [f(5), f(6)];
        let sa = scheme.share(&mut rng, &a, 4).unwrap();
        let sb = scheme.share(&mut rng, &b, 4).unwrap();
        let prod = sa.mul_elementwise(&sb);
        assert_eq!(prod.degree(), 8);
        let all: Vec<usize> = (0..11).collect();
        let got = scheme.reconstruct(&prod.select(&all), 8).unwrap();
        assert_eq!(got, vec![f(15), f(24)]);
    }

    #[test]
    fn mul_public_matches_paper_rule() {
        // c * [[x]]_{n-k} = [[c*x]]_{n-1}
        let mut rng = rng();
        let n = 10;
        let k = 3;
        let scheme = PackedSharing::<F61>::new(n, k).unwrap();
        let x = [f(2), f(3), f(4)];
        let c = [f(10), f(20), f(30)];
        let sx = scheme.share(&mut rng, &x, n - k).unwrap();
        let prod = scheme.mul_public(&c, &sx).unwrap();
        assert_eq!(prod.degree(), n - 1);
        let all: Vec<usize> = (0..n).collect();
        let got = scheme.reconstruct(&prod.select(&all), n - 1).unwrap();
        assert_eq!(got, vec![f(20), f(60), f(120)]);
    }

    #[test]
    fn mul_public_rejects_overflow_degree() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(10, 3).unwrap();
        let sx = scheme.share(&mut rng, &[f(1), f(2), f(3)], 8).unwrap();
        assert!(matches!(
            scheme.mul_public(&[f(1), f(1), f(1)], &sx),
            Err(PssError::BadDegree { .. })
        ));
    }

    #[test]
    fn privacy_low_degree_shares_leak_nothing() {
        // With degree d, any d - k + 1 shares of distinct random
        // sharings of *different* secrets are identically distributed.
        // We check a weaker invariant computationally: the shares of
        // d - k + 1 parties do not determine the secrets (many
        // polynomials through them yield different secrets).
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(10, 3).unwrap();
        let d = 6;
        let secrets = [f(1), f(2), f(3)];
        let shares = scheme.share(&mut rng, &secrets, d).unwrap();
        let observed = shares.select(&[0, 1, 2, 3]); // d - k + 1 = 4 shares
        // Build a different completion consistent with the observed shares.
        let mut xs: Vec<F61> = observed.iter().map(|s| scheme.party_point(s.party)).collect();
        let mut ys: Vec<F61> = observed.iter().map(|s| s.value).collect();
        let fake_secrets = [f(9), f(8), f(7)];
        for (j, &fake) in fake_secrets.iter().enumerate() {
            xs.push(scheme.secret_point(j));
            ys.push(fake);
        }
        let poly = yoso_field::lagrange::interpolate(&xs, &ys).unwrap();
        assert!(poly.degree().unwrap() <= d, "a consistent fake completion exists");
    }

    #[test]
    fn recombination_vector_reconstructs_secret() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(10, 3).unwrap();
        let secrets = [f(42), f(43), f(44)];
        let shares = scheme.share(&mut rng, &secrets, 6).unwrap();
        let parties: Vec<usize> = (0..7).collect();
        for (j, &secret) in secrets.iter().enumerate() {
            let w = scheme.recombination_vector(&parties, j).unwrap();
            let got: F61 = w
                .iter()
                .zip(&parties)
                .map(|(&wi, &p)| wi * shares.share_of(p).value)
                .sum();
            assert_eq!(got, secret);
        }
    }

    #[test]
    fn standard_shamir_is_k_equals_one() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(7, 1).unwrap();
        let shares = scheme.share(&mut rng, &[f(99)], 3).unwrap();
        let got = scheme.reconstruct(&shares.select(&[1, 3, 5, 6]), 3).unwrap();
        assert_eq!(got, vec![f(99)]);
    }

    #[test]
    fn recon_domain_cache_is_bounded_and_deterministic() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(9, 2).unwrap();
        let secrets = [f(10), f(20)];
        let shares = scheme.share(&mut rng, &secrets, 4).unwrap();
        // Drive more distinct 5-party subsets through reconstruction
        // than the cache may hold.
        let mut subsets = 0;
        'outer: for a in 0..5 {
            for b in (a + 1)..6 {
                for c in (b + 1)..7 {
                    for d in (c + 1)..8 {
                        for e in (d + 1)..9 {
                            let got =
                                scheme.reconstruct(&shares.select(&[a, b, c, d, e]), 4).unwrap();
                            assert_eq!(got, secrets.to_vec());
                            subsets += 1;
                            if subsets > RECON_CACHE_CAP + 16 {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        assert!(subsets > RECON_CACHE_CAP, "test premise: cache overflow");
        let cache = read_lock(&scheme.recon_domains);
        assert!(cache.entries.len() <= RECON_CACHE_CAP, "cache must stay bounded");
        // BTreeMap keys iterate in subset order, independent of
        // insertion history or hash seeds.
        let keys: Vec<&Vec<usize>> = cache.entries.keys().collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "deterministic iteration order");
    }

    #[test]
    fn arena_apis_match_owning_apis_bit_for_bit() {
        let scheme = PackedSharing::<F61>::new(14, 4).unwrap();
        let secrets = [f(7), f(8), f(9), f(10)];
        // One scratch moved across degrees and operations.
        let mut scratch = PssScratch::new();
        for degree in 3..14 {
            let mut r1 = rand::rngs::StdRng::seed_from_u64(degree as u64);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(degree as u64);
            let owned = scheme.share(&mut r1, &secrets, degree).unwrap();
            let mut values = Vec::new();
            scheme.share_into(&mut r2, &secrets, degree, &mut values, &mut scratch).unwrap();
            assert_eq!(owned.values(), &values[..], "deal parity, degree {degree}");
            let subset: Vec<usize> = (0..=degree).collect();
            let reference = scheme.reconstruct(&owned.select(&subset), degree).unwrap();
            let mut out = Vec::new();
            scheme.reconstruct_into(&owned.select(&subset), degree, &mut out, &mut scratch).unwrap();
            assert_eq!(reference, out, "reconstruction parity, degree {degree}");
            assert_eq!(out, secrets.to_vec());
        }
        let c = [f(2), f(4), f(6), f(8)];
        let mut pub_values = Vec::new();
        scheme.share_public_into(&c, &mut pub_values, &mut scratch).unwrap();
        assert_eq!(scheme.share_public(&c).unwrap().values(), &pub_values[..]);
    }

    #[test]
    fn failstop_bound_reconstruction_at_table1_scale() {
        // §5.4 fail-stop at Table-1 scale: n = 1024, ε = 1/4 gives
        // t = 255, k = 257, so a product sharing has degree
        // t + 2(k − 1) = 767 and exactly t + 2(k − 1) + 1 = 768
        // surviving shares must reconstruct. The arena path must be
        // byte-identical to the owning path.
        let (t, k) = (255usize, 257usize);
        let n = 1024usize;
        let rec_degree = t + 2 * (k - 1);
        assert_eq!(rec_degree, 767);
        let scheme = PackedSharing::<F61>::new(n, k).unwrap();
        let secrets: Vec<F61> = (0..k as u64).map(|i| f(i * i + 3)).collect();
        let mut rng = rng();
        let shares = scheme.share(&mut rng, &secrets, rec_degree).unwrap();
        // The first t + 1 = 256 parties crash after posting nothing;
        // the remaining 768 shares are exactly the fail-stop bound.
        let survivors: Vec<usize> = (n - (rec_degree + 1)..n).collect();
        assert_eq!(survivors.len(), t + 2 * (k - 1) + 1);
        let surviving = shares.select(&survivors);
        let materialized = scheme.reconstruct(&surviving, rec_degree).unwrap();
        let mut streamed = Vec::new();
        scheme
            .reconstruct_into(&surviving, rec_degree, &mut streamed, &mut PssScratch::new())
            .unwrap();
        assert_eq!(materialized, streamed, "arena path must be byte-identical");
        assert_eq!(streamed, secrets);
        // One share fewer must fail.
        assert!(matches!(
            scheme.reconstruct(&surviving[1..], rec_degree),
            Err(PssError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn debug_output_redacts_share_values() {
        let mut rng = rng();
        let scheme = PackedSharing::<F61>::new(12, 4).unwrap();
        let secrets = [f(1), f(22), f(333), f(4444)];
        let shares = scheme.share(&mut rng, &secrets, 7).unwrap();
        let rendered = format!("{:?}", shares);
        assert!(rendered.contains("redacted"), "{rendered}");
        // Evaluations of a random-coefficient polynomial are ~19-digit
        // field elements; none may appear in the Debug output.
        for v in &shares.values {
            let digits = v.as_u64().to_string();
            assert!(!rendered.contains(&digits), "Debug leaks a share value: {rendered}");
        }
    }
}
