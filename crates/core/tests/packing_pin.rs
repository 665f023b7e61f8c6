//! The packed dealing, the public sharing and the ciphertext packing,
//! pinned value for value, and the packing against the dealing map it
//! applies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yoso_core::offline::pack_ciphertexts;
use yoso_crypto::sha256::Sha256;
use yoso_field::{PrimeField, F61};
use yoso_pss_sharing::PackedSharing;
use yoso_the::mock::{Ciphertext, MockTe};

fn random_ciphertexts(rng: &mut impl Rng, count: usize) -> Vec<Ciphertext<F61>> {
    (0..count).map(|_| Ciphertext { u: F61::random(rng), v: F61::random(rng) }).collect()
}

/// 50 rounds at `(n, k, d) = (64, 16, 47)`, `d = t + k − 1` with
/// `t = 32`: a degree-`d` deal, the public sharing of the same secrets
/// and one packing of `k` wire and `t` helper ciphertexts, all hashed in
/// order. Every value is exact field arithmetic on a fixed RNG stream,
/// so no change to how a share is computed may move the hash.
#[test]
fn packed_deals_public_sharings_and_packs_are_pinned() {
    const PIN: &str = "95c513c6f91ab8fe05722faec908473aa1848aafadac29c9b23453edee4bd327";
    let (n, k, t) = (64usize, 16usize, 32usize);
    let scheme = PackedSharing::<F61>::new(n, k).unwrap();
    let mut rng = StdRng::seed_from_u64(0x7061_636b);
    let mut pack_shares = Vec::new();
    let mut hasher = Sha256::new();
    let mut absorb = |values: &[F61]| {
        for v in values {
            hasher.update(&v.to_bytes());
        }
    };
    for _ in 0..50 {
        let secrets: Vec<F61> = (0..k).map(|_| F61::random(&mut rng)).collect();
        absorb(scheme.share(&mut rng, &secrets, t + k - 1).unwrap().values());
        absorb(scheme.share_public(&secrets).unwrap().values());
        let wires = random_ciphertexts(&mut rng, k);
        let helpers = random_ciphertexts(&mut rng, t);
        for ct in pack_ciphertexts(&scheme, t, &wires, &helpers, &mut pack_shares).unwrap() {
            absorb(&[ct.u, ct.v]);
        }
    }
    let got: String = hasher.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got, PIN);
}

/// Packing is the dealing map applied to ciphertexts: party `i`'s
/// packed ciphertext is `MockTe::eval` of the `k + t` inputs over
/// dealing row `i`.
#[test]
fn packing_applies_the_dealing_rows_to_ciphertexts() {
    let mut rng = StdRng::seed_from_u64(0x726f_7773);
    for (n, k, t) in [(1usize, 1usize, 0usize), (5, 1, 2), (9, 3, 2), (24, 4, 5), (64, 16, 32), (40, 7, 20)] {
        let scheme = PackedSharing::<F61>::new(n, k).unwrap();
        let wires = random_ciphertexts(&mut rng, k);
        let helpers = random_ciphertexts(&mut rng, t);
        let inputs: Vec<Ciphertext<F61>> = wires.iter().chain(&helpers).copied().collect();
        let want: Vec<Ciphertext<F61>> = scheme
            .dealing_basis_rows(t + k - 1)
            .unwrap()
            .iter()
            .map(|row| MockTe::eval(&inputs, row).unwrap())
            .collect();
        let packed = pack_ciphertexts(&scheme, t, &wires, &helpers, &mut Vec::new()).unwrap();
        assert_eq!(packed, want, "(n, k, t) = ({n}, {k}, {t})");
    }
}
