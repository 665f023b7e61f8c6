//! Non-interactive zero-knowledge arguments of knowledge.
//!
//! All proofs here are sigma protocols compiled with the Fiat–Shamir
//! transform, SHA-256 as the random oracle:
//!
//! - [`linear`]: a generic proof of knowledge of a preimage under a
//!   public (sparse) linear map over a prime field. Every mock-world
//!   relation in the protocol is linear, so this single protocol covers
//!   them all. A [`LinearMap`] is digested once, when it is built; a
//!   challenge is then one hash, from the pre-hashed state of the
//!   proof type's [`yoso_crypto::Domain`], of that digest and the
//!   proof's own targets and commitment.
//! - [`EncMap`] ([`enc_proof`] / [`verify_enc_proof`]): correct
//!   encryption under [`crate::mock::MockTe`] (knowledge of `(m, r)`
//!   for a ciphertext). One map per threshold key.
//! - [`PdecMap`] ([`pdec_proof`] / [`verify_pdec_proof`]): correct
//!   partial decryption (knowledge of the key share `s_i` binding the
//!   Feldman verification key `vk_i` to the published `d_i`). One map
//!   per ciphertext, shared by the committee.
//! - [`DealMap`] ([`reshare_proof`] / [`verify_reshare_proof`]):
//!   correct key re-sharing (knowledge of the sub-sharing polynomial
//!   behind the Feldman commitments, consistent with the published
//!   subshare encryptions under the recipients' keys). One map per
//!   handover, shared by its dealers; it is also the DKG's deal map.
//! - [`ShareMap`] ([`share_proof`] / [`verify_share_proof`]): knowledge
//!   of the value and randomness inside a published μ-share
//!   contribution (the online phase's "proof of correctness" attached
//!   to every broadcast). One map per posting.
//!
//! The function pairs in brackets build their map for the one call;
//! protocol code that proves many statements over the same public data
//! builds the map once and calls its `prove` / `verify`.
//!
//! The Paillier-world proofs live in [`crate::paillier::nizk`], over
//! the [`yoso_crypto::Transcript`] oracle.

pub mod linear;

mod mock_proofs;

pub use linear::{
    prove as prove_linear, verify as verify_linear, LinearMap, Proof as LinearProof,
};
pub use mock_proofs::{
    enc_proof, pdec_proof, reshare_proof, share_proof, verify_enc_proof, verify_pdec_proof,
    verify_reshare_proof, verify_share_proof, DealMap, EncMap, EncProof, PdecMap, PdecProof,
    ReshareProof, ShareMap, ShareProof,
};
