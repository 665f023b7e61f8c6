//! Cryptographic primitives built from scratch for the YOSO MPC stack.
//!
//! Contents:
//!
//! - [`sha256`]: the SHA-256 compression function and streaming hasher
//!   (FIPS 180-4), validated against the official test vectors.
//! - [`Transcript`]: a Fiat–Shamir transcript that absorbs labelled
//!   messages and squeezes unpredictable challenges (bytes, field
//!   elements, or big integers below a bound) — the random oracle of
//!   the Paillier proofs and of the DKG's base derivation.
//! - [`Domain`]: a domain separator hashed once (at compile time for a
//!   `static`), for proofs that derive their challenge with a single
//!   hash — the linear sigma protocol behind every mock-world NIZK.
//! - [`HashPrg`]: a deterministic expandable pseudorandom generator
//!   (SHA-256 in counter mode) implementing [`rand::RngCore`], used to
//!   derive per-role randomness reproducibly from seeds.
//!
//! Role keys and keys-for-future are not here: the protocol encrypts
//! to them with the threshold scheme's own linear PKE
//! (`yoso_the::mock::LinearPke`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod prg;
pub mod sha256;
mod transcript;

pub use domain::Domain;
pub use prg::HashPrg;
pub use sha256::Sha256;
pub use transcript::Transcript;
