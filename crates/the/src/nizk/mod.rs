//! Non-interactive zero-knowledge arguments of knowledge.
//!
//! All proofs here are sigma protocols compiled with the Fiat–Shamir
//! transform, SHA-256 as the random oracle:
//!
//! - [`linear`]: a generic proof of knowledge of a preimage under a
//!   public (sparse) linear map over a prime field. Every mock-world
//!   relation in the protocol is linear, so this single protocol covers
//!   them all. A [`LinearMap`] is bound to its proof type's
//!   [`yoso_crypto::Domain`] and digested once, when it is built, and
//!   keeps the hash state after that fixed prefix; a challenge then
//!   hashes only the proof's own targets and commitment — one SHA-256
//!   block for a proof of up to three rows.
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
//!   handover, shared by its dealers ([`DealMap::reshare`]); under the
//!   DKG's domain ([`DealMap::new`]) it is also the DKG's deal map.
//! - [`ShareMap`] ([`share_proof`] / [`verify_share_proof`]): knowledge
//!   of the value and randomness inside a published μ-share
//!   contribution (the online phase's "proof of correctness" attached
//!   to every broadcast). One map per posting.
//!
//! - [`PdecBatch`] and [`ShareBatch`]: one proof for a
//!   role's whole message where its postings share one witness — a key
//!   share's partials of a step's ciphertexts, a KFF key's μ-shares of
//!   a layer's batches — as the [`combine`] of their statements.
//! - [`EncBatch`]: one [`EncProof`] for a contribution member's whole
//!   message — its encryptions of fresh random values — as the
//!   [`combine`] of its ciphertexts, `ρ` bound to the role's index and
//!   the step kind's domain.
//!
//! The function pairs in brackets build their map for the one call;
//! protocol code that proves many statements over the same public data
//! builds the map once and calls its `prove` / `verify`. The two have
//! different owners in the protocol: the role that posts proves, and
//! each reader verifies what it reads — a threshold step only until it
//! has the `t + 1` valid postings it opens from.
//!
//! The Paillier-world proofs live in [`crate::paillier::nizk`], over
//! the [`yoso_crypto::Transcript`] oracle.

pub mod combine;
pub mod linear;

mod mock_proofs;

pub use linear::{prove as prove_linear, verify as verify_linear, LinearMap, Proof as LinearProof};
pub use mock_proofs::{
    enc_proof, pdec_proof, reshare_proof, share_proof, verify_enc_proof, verify_pdec_proof,
    verify_reshare_proof, verify_share_proof, DealMap, EncBatch, EncMap, EncProof, PdecBatch,
    PdecMap, PdecProof, ReshareProof, ShareBatch, ShareMap, SharePosting, ShareProof,
};
