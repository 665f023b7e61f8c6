//! Prime-field arithmetic, polynomials and Lagrange interpolation.
//!
//! This crate provides the algebra underlying the packed Shamir
//! secret-sharing scheme (`yoso-pss-sharing`), the mock threshold
//! encryption scheme (`yoso-the`) and the MPC protocol itself
//! (`yoso-core`):
//!
//! - [`PrimeField`]: the field abstraction (addition, multiplication,
//!   inversion, exponentiation, sampling, canonical byte encoding).
//! - [`F61`]: the production field `F_p` with the Mersenne prime
//!   `p = 2^61 − 1`, with fast reduction.
//! - [`Fp<P>`](Fp): a tiny const-generic prime field used in tests to
//!   exercise edge cases on small fields (e.g. `F_97`).
//! - [`Poly`]: dense univariate polynomials.
//! - [`lagrange`]: interpolation, Lagrange-basis coefficient vectors
//!   (the recombination vectors used to pack and to reconstruct packed
//!   sharings) and batch inversion.
//! - [`EvalDomain`]: a node set's barycentric weights and cached
//!   recombination vectors, for repeated openings from one subset.
//! - [`PrimeField::extend_differences`]: a polynomial's values along
//!   consecutive points from its forward differences, by additions —
//!   how every sharing is dealt.
//! - [`ntt`]: a mixed-radix forward transform ([`NttDomain`]) over
//!   smooth subgroup sizes dividing `p − 1`, which no protocol path
//!   runs any more.
//!
//! # Example
//!
//! ```rust
//! use yoso_field::{F61, PrimeField};
//!
//! // Interpolate the parabola through (0,1), (1,2), (2,5).
//! let xs = [F61::from(0u64), F61::from(1u64), F61::from(2u64)];
//! let ys = [F61::from(1u64), F61::from(2u64), F61::from(5u64)];
//! let f = yoso_field::lagrange::interpolate(&xs, &ys)?;
//! assert_eq!(f.eval(F61::from(10u64)), F61::from(101u64)); // x^2 + 1
//! # Ok::<(), yoso_field::FieldError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocstats;
mod domain;
mod element;
pub mod lagrange;
pub mod ntt;
mod poly;
mod smallfp;
pub mod transformstats;

pub use domain::EvalDomain;
pub use element::{F61, PrimeField};
pub use ntt::NttDomain;
pub use poly::Poly;
pub use smallfp::Fp;

/// Errors produced by field-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// Inversion of the zero element was attempted.
    ZeroInverse,
    /// Interpolation received duplicate x-coordinates.
    DuplicatePoint,
    /// Interpolation received mismatched input lengths.
    LengthMismatch {
        /// Number of x-coordinates supplied.
        xs: usize,
        /// Number of y-coordinates supplied.
        ys: usize,
    },
    /// A byte string did not decode to a canonical field element.
    NonCanonicalBytes,
    /// A transform domain size is not realisable in this field: zero,
    /// not a divisor of `p − 1`, or not [`ntt::MAX_RADIX`]-smooth.
    UnsupportedDomainSize {
        /// The requested domain size.
        size: usize,
    },
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::ZeroInverse => write!(f, "inverse of zero field element"),
            FieldError::DuplicatePoint => write!(f, "duplicate x-coordinate in interpolation"),
            FieldError::LengthMismatch { xs, ys } => {
                write!(f, "interpolation length mismatch: {xs} x-coordinates, {ys} y-coordinates")
            }
            FieldError::NonCanonicalBytes => write!(f, "bytes do not encode a canonical field element"),
            FieldError::UnsupportedDomainSize { size } => {
                write!(f, "no smooth multiplicative subgroup of size {size} in this field")
            }
        }
    }
}

impl std::error::Error for FieldError {}
