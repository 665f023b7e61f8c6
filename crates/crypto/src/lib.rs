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
//! - [`pke`]: a public-key encryption abstraction with a hybrid
//!   Diffie–Hellman instantiation over `F_p^*` (`p = 2^61 − 1`). This is
//!   **simulation-grade** crypto: structurally faithful (real key pairs,
//!   real ephemeral ciphertexts, correct sizes for metering) but with a
//!   toy security level, as documented in DESIGN.md.
//! - [`commit`]: hash-based commitments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
mod domain;
pub mod pke;
mod prg;
pub mod sha256;
mod transcript;

pub use domain::Domain;
pub use prg::HashPrg;
pub use sha256::Sha256;
pub use transcript::Transcript;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A ciphertext failed to decrypt (wrong key or corrupted bytes).
    DecryptionFailed,
    /// A ciphertext or key had an invalid encoding.
    Malformed(&'static str),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::DecryptionFailed => write!(f, "decryption failed"),
            CryptoError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}
