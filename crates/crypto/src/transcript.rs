//! Fiat–Shamir transcripts.

use yoso_bignum::Nat;
use yoso_field::PrimeField;

use crate::sha256::Sha256;

/// A Fiat–Shamir transcript: absorbs labelled protocol messages and
/// produces challenges that are binding to everything absorbed so far.
///
/// Each absorb operation is length-prefixed and labelled, so distinct
/// message sequences can never collide. Challenges are derived by
/// hashing the running state together with a squeeze counter, and each
/// squeeze also re-keys the state (so later challenges depend on
/// earlier ones).
///
/// # Example
///
/// ```rust
/// use yoso_crypto::Transcript;
///
/// let mut t1 = Transcript::new(b"example-proof");
/// t1.absorb(b"statement", b"x = 42");
/// let c1 = t1.challenge_bytes(b"c");
///
/// let mut t2 = Transcript::new(b"example-proof");
/// t2.absorb(b"statement", b"x = 42");
/// assert_eq!(c1, t2.challenge_bytes(b"c")); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct Transcript {
    state: [u8; 32],
    squeezes: u64,
}

impl Transcript {
    /// Creates a transcript bound to a protocol domain separator.
    pub fn new(domain: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"yoso-pss/transcript/v1");
        h.update(&(domain.len() as u64).to_le_bytes());
        h.update(domain);
        Transcript { state: h.finalize(), squeezes: 0 }
    }

    /// Absorbs a labelled message.
    pub fn absorb(&mut self, label: &[u8], message: &[u8]) {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(b"absorb");
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        h.update(&(message.len() as u64).to_le_bytes());
        h.update(message);
        self.state = h.finalize();
    }

    /// Absorbs a `u64` (little-endian).
    pub fn absorb_u64(&mut self, label: &[u8], v: u64) {
        self.absorb(label, &v.to_le_bytes());
    }

    /// Absorbs a field element.
    pub fn absorb_field<F: PrimeField>(&mut self, label: &[u8], v: F) {
        self.absorb(label, &v.to_bytes());
    }

    /// Absorbs a big integer.
    pub fn absorb_nat(&mut self, label: &[u8], v: &Nat) {
        self.absorb(label, &v.to_bytes_be());
    }

    /// Squeezes 32 challenge bytes.
    pub fn challenge_bytes(&mut self, label: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(b"squeeze");
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        h.update(&self.squeezes.to_le_bytes());
        let out = h.finalize();
        self.squeezes += 1;
        // Re-key so subsequent challenges depend on this one.
        let mut rk = Sha256::new();
        rk.update(&self.state);
        rk.update(b"rekey");
        rk.update(&out);
        self.state = rk.finalize();
        out
    }

    /// Squeezes a field element challenge.
    pub fn challenge_field<F: PrimeField>(&mut self, label: &[u8]) -> F {
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.challenge_bytes(label);
        F::from_u64(u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]))
    }

    /// Squeezes a uniformly distributed `Nat` below `bound` (rejection
    /// sampling over successive squeezes).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn challenge_nat(&mut self, label: &[u8], bound: &Nat) -> Nat {
        assert!(!bound.is_zero(), "challenge_nat: zero bound");
        let bytes_needed = bound.bit_len().div_ceil(8);
        loop {
            let mut buf = Vec::with_capacity(bytes_needed);
            while buf.len() < bytes_needed {
                buf.extend_from_slice(&self.challenge_bytes(label));
            }
            buf.truncate(bytes_needed);
            // Mask the top byte to the bound's bit length to keep the
            // rejection probability below 1/2.
            let top_bits = bound.bit_len() % 8;
            if top_bits != 0 {
                buf[0] &= (1u16 << top_bits) as u8 - 1;
            }
            let candidate = Nat::from_bytes_be(&buf);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoso_field::{F61, PrimeField};

    #[test]
    fn deterministic_for_identical_transcripts() {
        let mut a = Transcript::new(b"t");
        let mut b = Transcript::new(b"t");
        a.absorb(b"m", b"hello");
        b.absorb(b"m", b"hello");
        assert_eq!(a.challenge_bytes(b"c"), b.challenge_bytes(b"c"));
        // After one squeeze, the next challenges still agree.
        assert_eq!(a.challenge_bytes(b"c"), b.challenge_bytes(b"c"));
    }

    #[test]
    fn different_messages_give_different_challenges() {
        let mut a = Transcript::new(b"t");
        let mut b = Transcript::new(b"t");
        a.absorb(b"m", b"hello");
        b.absorb(b"m", b"hellp");
        assert_ne!(a.challenge_bytes(b"c"), b.challenge_bytes(b"c"));
    }

    #[test]
    fn domain_separation() {
        let mut a = Transcript::new(b"proto-a");
        let mut b = Transcript::new(b"proto-b");
        assert_ne!(a.challenge_bytes(b"c"), b.challenge_bytes(b"c"));
    }

    #[test]
    fn length_prefixing_prevents_ambiguity() {
        // ("ab", "c") must differ from ("a", "bc").
        let mut a = Transcript::new(b"t");
        let mut b = Transcript::new(b"t");
        a.absorb(b"ab", b"c");
        b.absorb(b"a", b"bc");
        assert_ne!(a.challenge_bytes(b"c"), b.challenge_bytes(b"c"));
    }

    #[test]
    fn successive_challenges_differ() {
        let mut t = Transcript::new(b"t");
        let c1 = t.challenge_bytes(b"c");
        let c2 = t.challenge_bytes(b"c");
        assert_ne!(c1, c2);
    }

    #[test]
    fn field_challenge_is_canonical() {
        let mut t = Transcript::new(b"t");
        let c: F61 = t.challenge_field(b"c");
        assert!(c.as_u64() < F61::MODULUS);
    }

    #[test]
    fn nat_challenge_below_bound() {
        let mut t = Transcript::new(b"t");
        let bound: Nat = "123456789123456789123456789".parse().unwrap();
        for _ in 0..20 {
            let c = t.challenge_nat(b"c", &bound);
            assert!(c < bound);
        }
    }
}
