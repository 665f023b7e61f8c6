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

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, RwLock};

use rand::Rng;

use yoso_field::allocstats::ensure_filled;
use yoso_field::ntt::{self, NttDomain, NttScratch};
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

/// Where a scheme places its evaluation points.
///
/// The layout is a *protocol parameter*: every role must agree on it,
/// since a share is an evaluation at the holder's point. Both layouts
/// provide identical secrecy and reconstruction guarantees (any set of
/// pairwise-distinct points does); they differ only in which fast
/// paths apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointLayout {
    /// Secrets at `0, −1, …, −(k−1)`; party `i` at `i + 1`. The
    /// paper's presentation and the default. Interpolation over these
    /// points always takes the `O(n²)` Lagrange path.
    #[default]
    Sequential,
    /// All points on a smooth-order multiplicative subgroup of `F*`,
    /// enumerated in subgroup-prefix order
    /// ([`ntt::chain_enumeration`]): secrets at the first `k`
    /// positions, parties at the next `n`. Dealing and reconstruction
    /// over transform-friendly subsets run in `O(n log n)` via
    /// [`NttDomain`]; everything else falls back to the Lagrange path
    /// with bit-identical results.
    Subgroup,
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
/// Precomputes the secret points and party points per the scheme's
/// [`PointLayout`], plus [`EvalDomain`]s for every node set the scheme
/// touches: dealing domains per sharing degree and reconstruction
/// domains per party subset. Domains memoise their recombination
/// vectors, so after the first deal/reconstruct at a given
/// degree/subset every further one is a plain matrix–vector product —
/// no interpolation. Under [`PointLayout::Subgroup`], dealing degrees
/// whose node count lies on the radix chain and reconstruction subsets
/// forming a subgroup coset instead take the `O(n log n)` transform
/// path ([`NttDomain`]), with bit-identical outputs. Clones share the
/// caches.
#[derive(Debug, Clone)]
pub struct PackedSharing<F: PrimeField> {
    n: usize,
    k: usize,
    layout: PointLayout,
    party_points: Vec<F>,
    secret_points: Vec<F>,
    /// Domain over the secret points (deterministic public sharings).
    secret_domain: Arc<EvalDomain<F>>,
    /// Dealing domains (secret points ∪ leading party points) keyed by
    /// sharing degree.
    share_domains: Arc<RwLock<HashMap<usize, Arc<EvalDomain<F>>>>>,
    /// Reconstruction domains keyed by the ordered party subset.
    recon_domains: ReconDomainCache<F>,
    /// Transform plan; `Some` only under [`PointLayout::Subgroup`].
    ntt: Option<Arc<NttPlan<F>>>,
}

/// Reconstruction-domain cache: ordered party subset → shared domain.
type ReconDomainCache<F> = Arc<RwLock<ReconCache<F>>>;

/// Maximum number of reconstruction domains retained per scheme.
///
/// Each entry pins an [`EvalDomain`] (or transform domain) whose
/// memoised recombination rows are `O(m)` field elements each, so an
/// unbounded map grows without limit across long epoch chains whose
/// crash patterns keep producing fresh party subsets. The protocol
/// cycles through only a handful of subsets per epoch, so a small
/// bound keeps the working set hot while capping memory.
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
    entries: BTreeMap<Vec<usize>, (u64, ReconDomain<F>)>,
    next_stamp: u64,
}

impl<F: PrimeField> ReconCache<F> {
    fn get(&self, parties: &[usize]) -> Option<&ReconDomain<F>> {
        self.entries.get(parties).map(|(_, domain)| domain)
    }

    /// Inserts `domain` under `parties`, evicting the oldest entries
    /// when full. Returns the cached domain — an entry raced in by
    /// another writer wins, matching `entry().or_insert()` semantics.
    fn insert(&mut self, parties: Vec<usize>, domain: ReconDomain<F>) -> ReconDomain<F> {
        if let Some((_, hit)) = self.entries.get(&parties) {
            return hit.clone();
        }
        self.evict_to_cap();
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(parties, (stamp, domain.clone()));
        domain
    }

    /// Inserts or replaces the entry under `parties` (used when a
    /// Lagrange domain must supersede a cached transform domain).
    fn replace(&mut self, parties: Vec<usize>, domain: ReconDomain<F>) {
        if self.entries.remove(&parties).is_none() {
            self.evict_to_cap();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(parties, (stamp, domain));
    }

    fn evict_to_cap(&mut self) {
        while self.entries.len() >= RECON_CACHE_CAP {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(key, _)| key.clone());
            match oldest {
                Some(key) => {
                    self.entries.remove(&key);
                }
                None => return,
            }
        }
    }
}

/// A cached reconstruction domain: the general Lagrange machinery, or
/// a transform domain when the subset's points form a subgroup coset.
#[derive(Debug, Clone)]
enum ReconDomain<F: PrimeField> {
    Lagrange(Arc<EvalDomain<F>>),
    Ntt(Arc<NttDomain<F>>),
}

/// Precomputed transform data for [`PointLayout::Subgroup`].
#[derive(Debug)]
struct NttPlan<F: PrimeField> {
    /// The order-`N` subgroup domain hosting all scheme points.
    full: NttDomain<F>,
    /// Subgroup-prefix enumeration: node `i` of the scheme (secrets
    /// first, then parties) sits at exponent `positions[i]`.
    positions: Vec<usize>,
    /// Node counts `m` whose leading nodes form the order-`m` subgroup
    /// (ascending); dealing with `degree + 1` on this chain is
    /// transform-friendly.
    chain: Vec<usize>,
    /// Prefix subgroup domains keyed by chain size, built on demand
    /// from powers of the full root (so they enumerate the same
    /// elements).
    prefix: RwLock<BTreeMap<usize, Arc<NttDomain<F>>>>,
}

impl<F: PrimeField> NttPlan<F> {
    /// The order-`m` prefix domain (`m` must divide the full size).
    fn prefix_domain(&self, m: usize) -> Result<Arc<NttDomain<F>>, PssError> {
        if let Some(hit) = read_lock(&self.prefix).get(&m) {
            return Ok(Arc::clone(hit));
        }
        let step = self.full.len() / m;
        let root = self.full.root().pow(step as u64);
        let domain = Arc::new(NttDomain::with_root(m, root, F::ONE)?);
        Ok(Arc::clone(write_lock(&self.prefix).entry(m).or_insert(domain)))
    }
}

/// Dealing-node count below which the transform dispatch falls back to
/// the Lagrange path even when the count lies on the radix chain.
///
/// Measured crossover (BENCH_hotpath.json): at 33 nodes the transform
/// *loses* to the memoised Lagrange recombination rows
/// (`interp_speedup: 0.57`) because the full-domain forward pass
/// dominates when the prefix is tiny, while at 143 nodes it wins 6.5×.
/// Both paths evaluate the same unique polynomial exactly, so the
/// routing is a pure performance choice with bit-identical outputs.
pub const NTT_DEAL_CROSSOVER: usize = 64;

/// Reusable working buffers for the `*_into` dealing and
/// reconstruction entry points ([`PackedSharing::share_into`],
/// [`PackedSharing::reconstruct_into`], …).
///
/// Every buffer grows to its high-water mark on first use and is then
/// reused verbatim — `yoso_field::allocstats` counts only the growths,
/// which the repository benchmark reports as `pss.hot_allocs_per_gate`. A
/// scratch may be moved freely between schemes, degrees and
/// operations; buffers are resized per call.
#[derive(Debug, Default)]
pub struct PssScratch<F: PrimeField> {
    /// Dealing-node values (secrets, then randomness), or the leading
    /// `degree + 1` share values during reconstruction.
    ys: Vec<F>,
    /// Natural-order staging for the transform deal.
    natural: Vec<F>,
    /// Interpolated coefficient vector (transform paths).
    coeffs: Vec<F>,
    /// Full-domain evaluations (transform deal).
    evals: Vec<F>,
    /// Party indices of the reconstructing subset.
    parties: Vec<usize>,
    /// Per-party duplicate-detection bitmap.
    seen: Vec<bool>,
    /// Transform working memory.
    ntt: NttScratch<F>,
}

impl<F: PrimeField> PssScratch<F> {
    /// An empty scratch; buffers allocate lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A pool of [`PssScratch`] buffers shared across worker threads.
///
/// Scratches are checked out, used and returned, so steady-state calls
/// allocate nothing. Scratch contents never influence outputs, only
/// where the working memory lives.
#[derive(Debug, Default)]
pub struct ScratchPool<F: PrimeField> {
    pool: Mutex<Vec<PssScratch<F>>>,
}

impl<F: PrimeField> ScratchPool<F> {
    /// Creates an empty pool; scratches are made on first demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a pooled scratch.
    pub fn with<R>(&self, f: impl FnOnce(&mut PssScratch<F>) -> R) -> R {
        let mut scratch = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        let out = f(&mut scratch);
        self.pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(scratch);
        out
    }
}

fn dot<F: PrimeField>(row: &[F], ys: &[F]) -> F {
    row.iter().zip(ys).map(|(&r, &y)| r * y).sum()
}

/// Evaluates the polynomial with coefficient vector `coeffs` (constant
/// term first, trailing zeros allowed) at `x` by Horner's rule — the
/// same association as [`yoso_field::Poly::eval`], so results are bit-identical
/// (high-order zero coefficients contribute exactly zero).
fn horner<F: PrimeField>(coeffs: &[F], x: F) -> F {
    let mut acc = F::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<F: PrimeField> PackedSharing<F> {
    /// Creates a scheme for `n` parties packing `k` secrets with the
    /// default [`PointLayout::Sequential`].
    ///
    /// # Errors
    ///
    /// Returns [`PssError::BadParameters`] unless `1 ≤ k ≤ n` and
    /// `n + k ≤ MODULUS` (points must be distinct in the field).
    pub fn new(n: usize, k: usize) -> Result<Self, PssError> {
        Self::with_layout(n, k, PointLayout::Sequential)
    }

    /// Creates a scheme for `n` parties packing `k` secrets with an
    /// explicit [`PointLayout`].
    ///
    /// # Errors
    ///
    /// Returns [`PssError::BadParameters`] as [`Self::new`], or — for
    /// [`PointLayout::Subgroup`] — if no smooth subgroup of size at
    /// least `n + k` divides `p − 1` within a small search window
    /// (never the case for `F_{2^61−1}` at practical sizes).
    pub fn with_layout(n: usize, k: usize, layout: PointLayout) -> Result<Self, PssError> {
        if k == 0 || k > n || n == 0 || (n + k) as u64 >= F::MODULUS {
            return Err(PssError::BadParameters { n, k });
        }
        let (party_points, secret_points, ntt) = match layout {
            PointLayout::Sequential => {
                let party: Vec<F> = (1..=n as u64).map(F::from_u64).collect();
                let secret: Vec<F> = (0..k as i64).map(|j| F::from_i64(-j)).collect();
                (party, secret, None)
            }
            PointLayout::Subgroup => {
                let size = Self::find_subgroup_size(n + k)
                    .ok_or(PssError::BadParameters { n, k })?;
                let full = NttDomain::<F>::new(size)?;
                let positions = ntt::chain_enumeration(full.radices());
                let chain = ntt::chain_sizes(full.radices());
                let points = full.points();
                let secret: Vec<F> = positions[..k].iter().map(|&e| points[e]).collect();
                let party: Vec<F> = positions[k..k + n].iter().map(|&e| points[e]).collect();
                let plan = NttPlan { full, positions, chain, prefix: RwLock::new(BTreeMap::new()) };
                (party, secret, Some(Arc::new(plan)))
            }
        };
        let secret_domain = Arc::new(EvalDomain::new(secret_points.clone())?);
        Ok(PackedSharing {
            n,
            k,
            layout,
            party_points,
            secret_points,
            secret_domain,
            share_domains: Arc::new(RwLock::new(HashMap::new())),
            recon_domains: Arc::new(RwLock::new(ReconCache::default())),
            ntt,
        })
    }

    /// The smallest supported transform size hosting `min` points, if
    /// one exists within a small multiple of the target (the smooth
    /// divisors of `p − 1` are dense, so the window is generous).
    fn find_subgroup_size(min: usize) -> Option<usize> {
        (min..=min.saturating_mul(4).saturating_add(64))
            .find(|&size| ntt::supported_size::<F>(size))
    }

    /// The dealing domain for `degree`: secret points followed by the
    /// first `degree + 1 − k` party points.
    fn share_domain(&self, degree: usize) -> Result<Arc<EvalDomain<F>>, PssError> {
        if let Some(hit) = read_lock(&self.share_domains).get(&degree) {
            return Ok(Arc::clone(hit));
        }
        let extra = degree + 1 - self.k;
        let mut points = self.secret_points.clone();
        points.extend_from_slice(&self.party_points[..extra]);
        let domain = Arc::new(EvalDomain::new(points)?);
        Ok(Arc::clone(
            write_lock(&self.share_domains).entry(degree).or_insert(domain),
        ))
    }

    /// The reconstruction domain over the given ordered party subset.
    /// Under [`PointLayout::Subgroup`] the subset's points are first
    /// tested for transform-friendliness
    /// ([`NttDomain::from_points`], an `O(m)` check); otherwise — and
    /// always under [`PointLayout::Sequential`] — the general
    /// [`EvalDomain`] is built.
    fn recon_domain(&self, parties: &[usize]) -> Result<ReconDomain<F>, PssError> {
        if let Some(hit) = read_lock(&self.recon_domains).get(parties) {
            return Ok(hit.clone());
        }
        let points: Vec<F> = parties.iter().map(|&i| self.party_points[i]).collect();
        let domain = if self.ntt.is_some() {
            match NttDomain::from_points(&points) {
                Ok(d) => ReconDomain::Ntt(Arc::new(d)),
                Err(_) => ReconDomain::Lagrange(Arc::new(EvalDomain::new(points)?)),
            }
        } else {
            ReconDomain::Lagrange(Arc::new(EvalDomain::new(points)?))
        };
        Ok(write_lock(&self.recon_domains).insert(parties.to_vec(), domain))
    }

    /// A Lagrange reconstruction domain over the subset, for callers
    /// that need explicit recombination rows (which the transform path
    /// does not materialise). Replaces a cached transform entry so the
    /// built domain is reused.
    fn lagrange_recon_domain(&self, parties: &[usize]) -> Result<Arc<EvalDomain<F>>, PssError> {
        if let Some(ReconDomain::Lagrange(hit)) = read_lock(&self.recon_domains).get(parties) {
            return Ok(Arc::clone(hit));
        }
        let points: Vec<F> = parties.iter().map(|&i| self.party_points[i]).collect();
        let domain = Arc::new(EvalDomain::new(points)?);
        write_lock(&self.recon_domains)
            .replace(parties.to_vec(), ReconDomain::Lagrange(Arc::clone(&domain)));
        Ok(domain)
    }

    /// Committee size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packing factor `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The point layout the scheme was built with.
    pub fn layout(&self) -> PointLayout {
        self.layout
    }

    /// The dealing node counts (`degree + 1`) served by the transform
    /// fast path; empty under [`PointLayout::Sequential`] or after
    /// [`Self::disable_ntt`].
    pub fn ntt_dealing_sizes(&self) -> Vec<usize> {
        self.ntt.as_ref().map(|p| p.chain.clone()).unwrap_or_default()
    }

    /// Test and benchmark hook: drops the transform plan so every
    /// operation takes the Lagrange path. Outputs are bit-identical
    /// with or without the plan; this exists to *prove* that in parity
    /// tests and to measure the speedup.
    pub fn disable_ntt(&mut self) {
        self.ntt = None;
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
    /// prescribed secrets. Party shares are produced directly through
    /// the dealing domain's cached recombination vectors, so repeated
    /// deals at the same degree never re-interpolate.
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
        self.deal_values(degree, out, scratch)
    }

    /// Computes every party's share of the polynomial pinned by the
    /// `degree + 1` dealing-node values staged in `scratch.ys` (secrets
    /// first, then the leading party points), writing them into `out`.
    ///
    /// Both paths evaluate the *same unique polynomial* exactly, so
    /// their outputs are bit-identical; the transform path merely gets
    /// there in `O(N log N)` instead of `O(n·degree)` per deal.
    fn deal_values(
        &self,
        degree: usize,
        out: &mut Vec<F>,
        scratch: &mut PssScratch<F>,
    ) -> Result<(), PssError> {
        let PssScratch { ys, natural, coeffs, evals, ntt, .. } = scratch;
        if let Some(plan) = &self.ntt {
            let m = degree + 1;
            // Transform-friendly iff the dealing nodes (the first m
            // scheme nodes) are exactly an order-m subgroup — and the
            // prefix is large enough that the transform actually wins
            // (see [`NTT_DEAL_CROSSOVER`]).
            if m >= NTT_DEAL_CROSSOVER && plan.chain.contains(&m) {
                // Transform dealing: inverse-NTT the dealing values
                // over the order-m prefix subgroup to coefficients,
                // then forward-NTT over the full domain and read off
                // each party's evaluation.
                let full_size = plan.full.len();
                let step = full_size / m;
                let prefix = plan.prefix_domain(m)?;
                // Scatter the dealing values into the prefix domain's
                // natural (exponent) order: scheme node i sits at full
                // exponent positions[i] = step · (its prefix index).
                ensure_filled(natural, m, F::ZERO);
                for (i, &y) in ys.iter().enumerate() {
                    natural[plan.positions[i] / step] = y;
                }
                prefix.inverse_into(natural, coeffs, ntt)?;
                plan.full.evaluate_into(coeffs, evals, ntt)?;
                ensure_filled(out, self.n, F::ZERO);
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = evals[plan.positions[self.k + i]];
                }
                return Ok(());
            }
        }
        let domain = self.share_domain(degree)?;
        self.values_from_domain_into(&domain, ys, out);
        Ok(())
    }

    /// Evaluates the polynomial pinned by `ys` on `domain` at every
    /// party point via cached recombination vectors, into `out`.
    fn values_from_domain_into(&self, domain: &EvalDomain<F>, ys: &[F], out: &mut Vec<F>) {
        yoso_field::transformstats::bump_slice_muls((self.n * ys.len()) as u64);
        ensure_filled(out, self.n, F::ZERO);
        for (slot, &p) in out.iter_mut().zip(&self.party_points) {
            *slot = dot(&domain.basis_at(p), ys);
        }
    }

    /// The dealing-domain recombination rows for `degree`: row `i`
    /// takes the `degree + 1` dealing-node values (the `k` secrets,
    /// then the leading party points' values) to party `i`'s share.
    ///
    /// Callers that apply the dealing map to *homomorphic ciphertexts*
    /// need this explicit linear form — the transform path never
    /// materialises it — and using the scheme's own rows keeps them on
    /// whatever [`PointLayout`] the scheme was built with.
    ///
    /// # Errors
    ///
    /// Returns [`PssError::BadDegree`] outside `[k−1, n−1]`.
    pub fn dealing_basis_rows(&self, degree: usize) -> Result<Vec<Vec<F>>, PssError> {
        self.check_degree(degree)?;
        let domain = self.share_domain(degree)?;
        Ok(self
            .party_points
            .iter()
            .map(|&p| domain.basis_at(p).to_vec())
            .collect())
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
        self.share_public_into(c, &mut values)?;
        Ok(PackedShares { degree: self.k - 1, values })
    }

    /// Arena variant of [`Self::share_public`]: writes the
    /// deterministic degree-`(k−1)` share values into `out` (resized
    /// to `n`), allocating nothing once `out` has reached capacity.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::share_public`].
    pub fn share_public_into(&self, c: &[F], out: &mut Vec<F>) -> Result<(), PssError> {
        if c.len() != self.k {
            return Err(PssError::SecretCountMismatch { got: c.len(), expected: self.k });
        }
        self.values_from_domain_into(&self.secret_domain, c, out);
        Ok(())
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
    /// in `out` (resized to `k`); duplicate tracking, the share split
    /// and transform work live in `scratch`. Bit-identical to the
    /// owning variant on every path.
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
        let PssScratch { ys, coeffs, parties, seen, ntt, .. } = scratch;
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
        match self.recon_domain(parties)? {
            ReconDomain::Lagrange(domain) => {
                // Error detection: every surplus share must agree with
                // the polynomial pinned by the first degree + 1 shares.
                // The cached recombination vector evaluates it without
                // interpolating.
                for s in &shares[degree + 1..] {
                    if dot(&domain.basis_at(self.party_points[s.party]), ys) != s.value {
                        return Err(PssError::Inconsistent);
                    }
                }
                ensure_filled(out, self.k, F::ZERO);
                for (slot, &e) in out.iter_mut().zip(&self.secret_points) {
                    *slot = dot(&domain.basis_at(e), ys);
                }
            }
            ReconDomain::Ntt(domain) => {
                // Transform path: interpolate once in O(m log m), then
                // evaluate the explicit polynomial (Horner, O(m) per
                // target). The coefficient vector is used untrimmed —
                // high-order zero coefficients contribute exactly zero,
                // so the result is bit-identical to the basis-row dot
                // products above and to a trimmed [`yoso_field::Poly`].
                domain.inverse_into(ys, coeffs, ntt)?;
                for s in &shares[degree + 1..] {
                    if horner(coeffs, self.party_points[s.party]) != s.value {
                        return Err(PssError::Inconsistent);
                    }
                }
                ensure_filled(out, self.k, F::ZERO);
                for (slot, &e) in out.iter_mut().zip(&self.secret_points) {
                    *slot = horner(coeffs, e);
                }
            }
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
        let domain = self.lagrange_recon_domain(parties)?;
        Ok(domain.basis_at(self.secret_points[j]).to_vec())
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
    fn subgroup_layout_dealing_matches_lagrange_bit_for_bit() {
        // n + k = 18 = 2 · 3² divides p − 1, so the scheme lands on the
        // order-18 subgroup with radix chain {1, 2, 6, 18}.
        let scheme = PackedSharing::<F61>::with_layout(14, 4, PointLayout::Subgroup).unwrap();
        assert_eq!(scheme.layout(), PointLayout::Subgroup);
        assert_eq!(scheme.ntt_dealing_sizes(), vec![1, 2, 6, 18]);
        // An independently built twin with the plan dropped: identical
        // points, Lagrange-only arithmetic.
        let mut plain = PackedSharing::<F61>::with_layout(14, 4, PointLayout::Subgroup).unwrap();
        plain.disable_ntt();
        assert!(plain.ntt_dealing_sizes().is_empty());
        let secrets = [f(11), f(22), f(33), f(44)];
        for degree in 3..14 {
            let mut r1 = rand::rngs::StdRng::seed_from_u64(degree as u64);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(degree as u64);
            let a = scheme.share(&mut r1, &secrets, degree).unwrap();
            let b = plain.share(&mut r2, &secrets, degree).unwrap();
            assert_eq!(a.values(), b.values(), "transform vs Lagrange deal, degree {degree}");
            let subset: Vec<usize> = (0..=degree).collect();
            assert_eq!(
                scheme.reconstruct(&a.select(&subset), degree).unwrap(),
                secrets.to_vec(),
                "degree {degree}"
            );
        }
    }

    #[test]
    fn subgroup_layout_transform_reconstruction() {
        // Degree 5: the 6 dealing nodes are exactly the order-6 prefix
        // subgroup (6 is on the radix chain), and the subset below has
        // exponents [1, 4, 7, 10, 13, 16] — a coset of that subgroup —
        // so dealing *and* reconstruction take the transform path.
        let scheme = PackedSharing::<F61>::with_layout(14, 4, PointLayout::Subgroup).unwrap();
        let subset = [2usize, 4, 6, 3, 5, 7];
        let pts: Vec<F61> = subset.iter().map(|&i| scheme.party_point(i)).collect();
        assert!(NttDomain::from_points(&pts).is_ok(), "test premise: coset subset");
        let mut rng = rng();
        let secrets = [f(5), f(6), f(7), f(8)];
        let shares = scheme.share(&mut rng, &secrets, 5).unwrap();
        let got = scheme.reconstruct(&shares.select(&subset), 5).unwrap();
        assert_eq!(got, secrets.to_vec());
        // Same subset with surplus shares: a corrupted surplus share
        // must still trip error detection on the transform path.
        let mut with_surplus = shares.select(&[2, 4, 6, 3, 5, 7, 0, 1]);
        assert_eq!(scheme.reconstruct(&with_surplus, 5).unwrap(), secrets.to_vec());
        with_surplus[7].value += F61::ONE;
        assert_eq!(scheme.reconstruct(&with_surplus, 5), Err(PssError::Inconsistent));
        // Asking for explicit recombination rows over the
        // transform-cached subset swaps in a Lagrange domain and agrees.
        let w = scheme.recombination_vector(&subset, 0).unwrap();
        let got0: F61 =
            w.iter().zip(&subset).map(|(&wi, &p)| wi * shares.share_of(p).value).sum();
        assert_eq!(got0, secrets[0]);
        assert_eq!(scheme.reconstruct(&shares.select(&subset), 5).unwrap(), secrets.to_vec());
    }

    #[test]
    fn subgroup_layout_on_small_field() {
        use yoso_field::Fp;
        type F97 = Fp<97>;
        // n + k = 8 divides 96 = |F97*|; radices [2, 2, 2], chain
        // {1, 2, 4, 8}.
        let scheme = PackedSharing::<F97>::with_layout(6, 2, PointLayout::Subgroup).unwrap();
        assert_eq!(scheme.ntt_dealing_sizes(), vec![1, 2, 4, 8]);
        let mut rng = rng();
        let secrets = [F97::from_u64(9), F97::from_u64(13)];
        for degree in 1..6 {
            let shares = scheme.share(&mut rng, &secrets, degree).unwrap();
            let subset: Vec<usize> = (0..=degree).collect();
            assert_eq!(
                scheme.reconstruct(&shares.select(&subset), degree).unwrap(),
                secrets.to_vec(),
                "degree {degree}"
            );
        }
    }

    #[test]
    fn transform_deal_above_crossover_matches_lagrange_bit_for_bit() {
        // n + k = 445 → order-450 subgroup (450 = 2 · 3² · 5² divides
        // p − 1), radix chain {1, 2, 6, 18, 90, 450}. Degree 89 gives
        // m = 90 ≥ NTT_DEAL_CROSSOVER on the chain, so this deal takes
        // the transform path (the 14/4 scheme above stays below the
        // crossover and pins the Lagrange fallback).
        let scheme = PackedSharing::<F61>::with_layout(400, 45, PointLayout::Subgroup).unwrap();
        assert!(scheme.ntt_dealing_sizes().contains(&90));
        let mut plain = scheme.clone();
        plain.disable_ntt();
        let secrets: Vec<F61> = (0..45).map(|i| f(1000 + i)).collect();
        let degree = 89;
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let a = scheme.share(&mut r1, &secrets, degree).unwrap();
        let b = plain.share(&mut r2, &secrets, degree).unwrap();
        assert_eq!(a.values(), b.values(), "transform vs Lagrange deal above crossover");
        let subset: Vec<usize> = (0..=degree).collect();
        assert_eq!(scheme.reconstruct(&a.select(&subset), degree).unwrap(), secrets);
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
        for layout in [PointLayout::Sequential, PointLayout::Subgroup] {
            let scheme = PackedSharing::<F61>::with_layout(14, 4, layout).unwrap();
            let secrets = [f(7), f(8), f(9), f(10)];
            let pool = ScratchPool::new();
            for degree in 3..14 {
                let mut r1 = rand::rngs::StdRng::seed_from_u64(degree as u64);
                let mut r2 = rand::rngs::StdRng::seed_from_u64(degree as u64);
                let owned = scheme.share(&mut r1, &secrets, degree).unwrap();
                let mut values = Vec::new();
                pool.with(|scratch| {
                    scheme.share_into(&mut r2, &secrets, degree, &mut values, scratch)
                })
                .unwrap();
                assert_eq!(owned.values(), &values[..], "deal parity, degree {degree}");
                let subset: Vec<usize> = (0..=degree).collect();
                let reference = scheme.reconstruct(&owned.select(&subset), degree).unwrap();
                let mut out = Vec::new();
                pool.with(|scratch| {
                    scheme.reconstruct_into(&owned.select(&subset), degree, &mut out, scratch)
                })
                .unwrap();
                assert_eq!(reference, out, "reconstruction parity, degree {degree}");
                assert_eq!(out, secrets.to_vec());
            }
            let c = [f(2), f(4), f(6), f(8)];
            let mut pub_values = Vec::new();
            scheme.share_public_into(&c, &mut pub_values).unwrap();
            assert_eq!(scheme.share_public(&c).unwrap().values(), &pub_values[..]);
        }
    }

    #[test]
    fn failstop_bound_reconstruction_at_table1_scale() {
        // §5.4 fail-stop at Table-1 scale: n = 1024, ε = 1/4 gives
        // t = 255, k = 257, so a product sharing has degree
        // t + 2(k − 1) = 767 and exactly t + 2(k − 1) + 1 = 768
        // surviving shares must reconstruct. The arena path (pooled
        // scratch) must be byte-identical to the owning path.
        let (t, k) = (255usize, 257usize);
        let n = 1024usize;
        let rec_degree = t + 2 * (k - 1);
        assert_eq!(rec_degree, 767);
        let scheme = PackedSharing::<F61>::with_layout(n, k, PointLayout::Subgroup).unwrap();
        let secrets: Vec<F61> = (0..k as u64).map(|i| f(i * i + 3)).collect();
        let mut rng = rng();
        let shares = scheme.share(&mut rng, &secrets, rec_degree).unwrap();
        // The first t + 1 = 256 parties crash after posting nothing;
        // the remaining 768 shares are exactly the fail-stop bound.
        let survivors: Vec<usize> = (n - (rec_degree + 1)..n).collect();
        assert_eq!(survivors.len(), t + 2 * (k - 1) + 1);
        let surviving = shares.select(&survivors);
        let materialized = scheme.reconstruct(&surviving, rec_degree).unwrap();
        let pool = ScratchPool::new();
        let mut streamed = Vec::new();
        pool.with(|scratch| {
            scheme.reconstruct_into(&surviving, rec_degree, &mut streamed, scratch)
        })
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
