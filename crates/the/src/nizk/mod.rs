//! Non-interactive zero-knowledge arguments of knowledge.
//!
//! All proofs here are sigma protocols compiled with the Fiat–Shamir
//! transform over the [`yoso_crypto::Transcript`] random oracle:
//!
//! - [`linear`]: a generic proof of knowledge of a preimage under a
//!   public (sparse) linear map over a prime field. Every mock-world
//!   relation in the protocol is linear, so this single protocol covers
//!   them all; each proof hashes its statement once, over the non-zeros.
//! - [`enc_proof`] / [`verify_enc_proof`]: correct encryption under
//!   [`crate::mock::MockTe`] (knowledge of `(m, r)` for a ciphertext).
//! - [`pdec_proof`] / [`verify_pdec_proof`]: correct partial
//!   decryption (knowledge of the key share `s_i` binding the Feldman
//!   verification key `vk_i` to the published `d_i`).
//! - [`reshare_proof`] / [`verify_reshare_proof`]: correct key
//!   re-sharing (knowledge of the sub-sharing polynomial behind the
//!   Feldman commitments, consistent with the published subshare
//!   encryptions under the recipients' keys). Its statement,
//!   [`feldman_deal_statement`], is also the DKG's deal statement.
//! - [`share_proof`] / [`verify_share_proof`]: knowledge of the value
//!   and randomness inside a published μ-share contribution (the online
//!   phase's "proof of correctness" attached to every broadcast).
//!
//! Paillier-world proofs live in [`crate::paillier::nizk`].

pub mod linear;

mod mock_proofs;

pub use linear::{prove as prove_linear, verify as verify_linear, Proof as LinearProof};
pub use mock_proofs::{
    enc_proof, feldman_deal_statement, pdec_proof, reshare_proof, share_proof, verify_enc_proof,
    verify_pdec_proof, verify_reshare_proof, verify_share_proof, EncProof, PdecProof,
    ReshareProof, ShareProof,
};
