//! One proof for a role's whole message: a random linear combination.
//!
//! In YOSO a role speaks once, and its message is everything it posts
//! in its round. Where the postings of one message are statements over
//! one witness — a key share's partial decryptions of `m` ciphertexts,
//! a KFF key's μ-shares of `B` batches — the role proves them as one:
//! with `e_c` the error of statement `c` (zero for every true one), it
//! proves `Σ_c ρ^c·e_c = 0` for a `ρ` hashed from the step's public
//! data and the role's whole message. The message fixes every `e_c`
//! before `ρ` is drawn, so a message with a false statement passes only
//! if `ρ` is a root of the non-zero polynomial `Σ_c e_c·X^c` of degree
//! below `m`: probability at most `m/p` per role and step (the SPDZ
//! MAC-check shape: check a random combination, not each item).
//!
//! Only statements that share their whole witness combine this way. A
//! statement with a witness variable of its own — the encryption
//! randomness of each re-encrypted item — must keep its own rows: in a
//! combined row that variable is free, and then any ciphertext passes.

use yoso_crypto::{Domain, Sha256};
use yoso_field::PrimeField;

/// The hash the combination coefficient `ρ` of a step's role messages
/// is drawn from, with the step's public data absorbed once.
///
/// ```text
/// ρ = le64(SHA-256(domain block(s) ‖ u64(|public|) ‖ public ‖ 0… ‖ message)[..8])
/// ```
///
/// The public data is zero-padded to a block boundary, so a role's `ρ`
/// hashes only its own message, and its length prefix makes the split
/// between the two unambiguous.
#[derive(Debug, Clone)]
pub struct Combiner {
    prefix: Sha256,
}

impl Combiner {
    /// Absorbs the step's `public` data under `domain`.
    pub fn new<F: PrimeField>(domain: &Domain, public: &[F]) -> Self {
        let mut prefix = domain.hasher();
        prefix.update(&(public.len() as u64).to_le_bytes());
        for v in public {
            prefix.update(&v.to_bytes());
        }
        let absorbed = 8 * (1 + public.len());
        prefix.update(&vec![0; absorbed.next_multiple_of(64) - absorbed]);
        Combiner { prefix }
    }

    /// The coefficient `ρ` of one role's `message`.
    pub fn rho<F: PrimeField>(&self, message: impl IntoIterator<Item = F>) -> F {
        let mut h = self.prefix.clone();
        for v in message {
            h.update(&v.to_bytes());
        }
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = h.finalize();
        F::from_u64(u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]))
    }
}

/// `Σ_c ρ^c·values[c]`.
pub fn combine<F: PrimeField>(rho: F, values: impl IntoIterator<Item = F>) -> F {
    let (mut sum, mut power) = (F::ZERO, F::ONE);
    for v in values {
        sum += power * v;
        power *= rho;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoso_field::F61;

    static TEST: Domain = Domain::new(b"test");

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    #[test]
    fn combine_is_the_polynomial_in_rho() {
        assert_eq!(combine(f(10), [f(1), f(2), f(3)]), f(321));
        assert_eq!(combine(f(7), std::iter::empty()), F61::ZERO);
        assert_eq!(combine(F61::ZERO, [f(5), f(9)]), f(5));
    }

    #[test]
    fn rho_binds_public_data_and_message() {
        let step = Combiner::new(&TEST, &[f(1), f(2)]);
        let rho = step.rho([f(3), f(4)]);
        assert_eq!(rho, step.rho([f(3), f(4)]));
        assert_ne!(rho, step.rho([f(3), f(5)]));
        assert_ne!(rho, step.rho([f(4), f(3)]));
        assert_ne!(rho, Combiner::new(&TEST, &[f(1), f(3)]).rho([f(3), f(4)]));
        assert_ne!(rho, Combiner::new(&Domain::new(b"other"), &[f(1), f(2)]).rho([f(3), f(4)]));
        // A value moved from the public data into the message is another
        // input: the length prefix and the padding split the two.
        assert_ne!(Combiner::new(&TEST, &[f(1)]).rho([f(2), f(3), f(4)]), rho);
    }

    /// Exact and host-independent: the public data is hashed once, and
    /// a role's `ρ` costs its message and the padding, ⌈(8·m + 9) / 64⌉
    /// blocks.
    #[cfg(debug_assertions)]
    #[test]
    fn a_rho_costs_its_message() {
        use yoso_crypto::sha256::compressions_of;
        for (public, m) in [(0usize, 1usize), (7, 6), (8, 7), (52, 52), (100, 144)] {
            let data: Vec<F61> = (0..public as u64).map(f).collect();
            let (step, building) = compressions_of(|| Combiner::new(&TEST, &data));
            assert_eq!(building, (8 * (1 + public) as u64).div_ceil(64));
            let message: Vec<F61> = (0..m as u64).map(f).collect();
            let (_, hashing) = compressions_of(|| step.rho(message.iter().copied()));
            assert_eq!(hashing, (8 * m as u64 + 9).div_ceil(64), "{public}, {m}");
        }
    }
}
