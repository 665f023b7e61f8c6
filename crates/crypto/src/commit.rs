//! Hash-based commitments.
//!
//! Used by the runtime's equivocation tests and by protocol steps that
//! need binding-before-reveal semantics (e.g. committing to μ-share
//! contributions before the challenge round in the interactive tests).

use rand::Rng;

use crate::sha256::Sha256;

/// A binding, hiding commitment `H(domain ‖ randomness ‖ message)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Commitment {
    digest: [u8; 32],
}

/// The opening of a commitment: the randomness and the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opening {
    /// The blinding randomness.
    pub randomness: [u8; 32],
    /// The committed message.
    pub message: Vec<u8>,
}

fn hash(randomness: &[u8; 32], message: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"yoso-pss/commit/v1");
    h.update(randomness);
    h.update(&(message.len() as u64).to_le_bytes());
    h.update(message);
    h.finalize()
}

/// Commits to `message` with fresh randomness.
pub fn commit<R: Rng + ?Sized>(rng: &mut R, message: &[u8]) -> (Commitment, Opening) {
    let mut randomness = [0u8; 32];
    rng.fill_bytes(&mut randomness);
    let digest = hash(&randomness, message);
    (Commitment { digest }, Opening { randomness, message: message.to_vec() })
}

/// Verifies an opening against a commitment.
pub fn verify(commitment: &Commitment, opening: &Opening) -> bool {
    hash(&opening.randomness, &opening.message) == commitment.digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn commit_verify_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (c, o) = commit(&mut rng, b"message");
        assert!(verify(&c, &o));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (c, mut o) = commit(&mut rng, b"message");
        o.message = b"other".to_vec();
        assert!(!verify(&c, &o));
    }

    #[test]
    fn wrong_randomness_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (c, mut o) = commit(&mut rng, b"message");
        o.randomness[0] ^= 1;
        assert!(!verify(&c, &o));
    }

    #[test]
    fn commitments_are_hiding_across_randomness() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (c1, _) = commit(&mut rng, b"same");
        let (c2, _) = commit(&mut rng, b"same");
        assert_ne!(c1, c2);
    }
}
