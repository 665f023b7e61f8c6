//! Public-key encryption for role keys and keys-for-future.
//!
//! The YOSO protocol uses PKE in three places: (1) the role-assignment
//! keys under which messages to future committees are encrypted, (2)
//! the keys-for-future (KFF) generated at setup, and (3) encrypting
//! `tsk` subshares between committees. The protocol only requires
//! IND-CPA security and correct sizes for communication metering.
//!
//! The instantiation here is hybrid Diffie–Hellman over the
//! multiplicative group of `F_p` (`p = 2^61 − 1`): a real asymmetric
//! scheme with real ephemeral ciphertexts, but a **toy security level**
//! (61-bit group). DESIGN.md documents this substitution; nothing in
//! the protocol logic or the communication accounting depends on the
//! group size, which is configurable in the meter.

use rand::Rng;

use yoso_field::{F61, PrimeField};

use crate::sha256::Sha256;
use crate::CryptoError;

/// A fixed generator of a large subgroup of `F_p^*` for `p = 2^61 − 1`.
///
/// 3 generates a subgroup of order divisible by the large prime factor
/// `2305843009213693951 / small factors`; for the simulation all that
/// matters is that powers of 3 mix well.
const GENERATOR: u64 = 3;

/// A PKE public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// `g^x` for secret exponent `x`.
    point: u64,
}

/// A PKE secret key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    exponent: u64,
}

// lint:redact: the secret exponent is never printed.
impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecretKey").field("exponent", &"<redacted>").finish()
    }
}

/// A hybrid ciphertext: ephemeral group element plus masked payload
/// with an integrity tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    ephemeral: u64,
    masked: Vec<u8>,
    tag: [u8; 16],
}

impl Ciphertext {
    /// Serialized size in bytes (for communication metering).
    pub fn size_bytes(&self) -> usize {
        8 + self.masked.len() + 16
    }
}

/// A PKE key pair.
// lint:redact: the derived Debug delegates to SecretKey's redacted impl,
// so no exponent is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    /// The public portion.
    pub public: PublicKey,
    /// The secret portion.
    pub secret: SecretKey,
}

/// Generates a fresh key pair.
pub fn keygen<R: Rng + ?Sized>(rng: &mut R) -> KeyPair {
    // Exponent in [1, p-1).
    let exponent = 1 + rng.gen::<u64>() % (F61::MODULUS - 2);
    let point = F61::from_u64(GENERATOR).pow(exponent).as_u64();
    KeyPair { public: PublicKey { point }, secret: SecretKey { exponent } }
}

fn derive_stream(shared: u64, ephemeral: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u64;
    while out.len() < len {
        let mut h = Sha256::new();
        h.update(b"yoso-pss/pke/stream");
        h.update(&shared.to_le_bytes());
        h.update(&ephemeral.to_le_bytes());
        h.update(&counter.to_le_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

fn derive_tag(shared: u64, ephemeral: u64, masked: &[u8]) -> [u8; 16] {
    let mut h = Sha256::new();
    h.update(b"yoso-pss/pke/tag");
    h.update(&shared.to_le_bytes());
    h.update(&ephemeral.to_le_bytes());
    h.update(masked);
    let d = h.finalize();
    // lint:allow(panic): infallible — a 16-byte slice of a 32-byte SHA-256
    // digest always converts into [u8; 16].
    d[..16].try_into().expect("16 bytes")
}

/// Encrypts `plaintext` to `pk`.
pub fn encrypt<R: Rng + ?Sized>(rng: &mut R, pk: &PublicKey, plaintext: &[u8]) -> Ciphertext {
    let y = 1 + rng.gen::<u64>() % (F61::MODULUS - 2);
    let ephemeral = F61::from_u64(GENERATOR).pow(y).as_u64();
    let shared = F61::from_u64(pk.point).pow(y).as_u64();
    let stream = derive_stream(shared, ephemeral, plaintext.len());
    let masked: Vec<u8> = plaintext.iter().zip(&stream).map(|(p, s)| p ^ s).collect();
    let tag = derive_tag(shared, ephemeral, &masked);
    Ciphertext { ephemeral, masked, tag }
}

/// Decrypts `ct` with `sk`.
///
/// # Errors
///
/// Returns [`CryptoError::DecryptionFailed`] if the integrity tag does
/// not verify (wrong key or tampered ciphertext).
pub fn decrypt(sk: &SecretKey, ct: &Ciphertext) -> Result<Vec<u8>, CryptoError> {
    let shared = F61::from_u64(ct.ephemeral).pow(sk.exponent).as_u64();
    let tag = derive_tag(shared, ct.ephemeral, &ct.masked);
    if tag != ct.tag {
        return Err(CryptoError::DecryptionFailed);
    }
    // lint:allow(taint-flow): decrypt's contract is returning the plaintext; callers own its hygiene
    let stream = derive_stream(shared, ct.ephemeral, ct.masked.len());
    Ok(ct.masked.iter().zip(&stream).map(|(m, s)| m ^ s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let kp = keygen(&mut rng);
        let msg = b"the quick brown fox";
        let ct = encrypt(&mut rng, &kp.public, msg);
        assert_eq!(decrypt(&kp.secret, &ct).unwrap(), msg.to_vec());
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let kp1 = keygen(&mut rng);
        let kp2 = keygen(&mut rng);
        let ct = encrypt(&mut rng, &kp1.public, b"secret");
        assert_eq!(decrypt(&kp2.secret, &ct), Err(CryptoError::DecryptionFailed));
    }

    #[test]
    fn tampering_detected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let kp = keygen(&mut rng);
        let mut ct = encrypt(&mut rng, &kp.public, b"secret payload");
        ct.masked[0] ^= 1;
        assert_eq!(decrypt(&kp.secret, &ct), Err(CryptoError::DecryptionFailed));
    }

    #[test]
    fn empty_plaintext() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let kp = keygen(&mut rng);
        let ct = encrypt(&mut rng, &kp.public, b"");
        assert_eq!(decrypt(&kp.secret, &ct).unwrap(), Vec::<u8>::new());
        assert_eq!(ct.size_bytes(), 24);
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let kp = keygen(&mut rng);
        let c1 = encrypt(&mut rng, &kp.public, b"same message");
        let c2 = encrypt(&mut rng, &kp.public, b"same message");
        assert_ne!(c1, c2);
        assert_eq!(decrypt(&kp.secret, &c1).unwrap(), decrypt(&kp.secret, &c2).unwrap());
    }

    #[test]
    fn large_plaintext_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let kp = keygen(&mut rng);
        let msg: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let ct = encrypt(&mut rng, &kp.public, &msg);
        assert_eq!(decrypt(&kp.secret, &ct).unwrap(), msg);
        assert_eq!(ct.size_bytes(), 8 + msg.len() + 16);
    }
}
