//! Property tests for the crypto substrate: hash determinism and
//! streaming equivalence, transcript injectivity surfaces, PRG stream
//! consistency.

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use yoso_crypto::{HashPrg, Sha256, Transcript};

proptest! {
    #[test]
    fn sha256_is_deterministic_and_input_sensitive(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let d1 = Sha256::digest(&data);
        let d2 = Sha256::digest(&data);
        prop_assert_eq!(d1, d2);
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            prop_assert_ne!(Sha256::digest(&flipped), d1);
        }
    }

    #[test]
    fn sha256_streaming_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..400),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha256_length_extension_of_input_changes_digest(
        data in prop::collection::vec(any::<u8>(), 0..100),
        extra in prop::collection::vec(any::<u8>(), 1..50),
    ) {
        let mut extended = data.clone();
        extended.extend_from_slice(&extra);
        prop_assert_ne!(Sha256::digest(&data), Sha256::digest(&extended));
    }

    #[test]
    fn transcript_message_boundaries_matter(
        a in prop::collection::vec(any::<u8>(), 1..40),
        b in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        // absorb(a then b) differs from absorb(a‖b) as one message.
        let mut t1 = Transcript::new(b"t");
        t1.absorb(b"m", &a);
        t1.absorb(b"m", &b);
        let mut t2 = Transcript::new(b"t");
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        t2.absorb(b"m", &joined);
        prop_assert_ne!(t1.challenge_bytes(b"c"), t2.challenge_bytes(b"c"));
    }

    #[test]
    fn transcript_labels_matter(m in prop::collection::vec(any::<u8>(), 0..40)) {
        let mut t1 = Transcript::new(b"t");
        t1.absorb(b"label-a", &m);
        let mut t2 = Transcript::new(b"t");
        t2.absorb(b"label-b", &m);
        prop_assert_ne!(t1.challenge_bytes(b"c"), t2.challenge_bytes(b"c"));
    }

    #[test]
    fn transcript_replay_is_exact(
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..30), 0..6),
    ) {
        let mut t1 = Transcript::new(b"replay");
        let mut t2 = Transcript::new(b"replay");
        for m in &msgs {
            t1.absorb(b"m", m);
            t2.absorb(b"m", m);
        }
        for _ in 0..3 {
            prop_assert_eq!(t1.challenge_bytes(b"c"), t2.challenge_bytes(b"c"));
        }
    }

    #[test]
    fn prg_chunking_invariance(seed in any::<[u8; 32]>(), sizes in prop::collection::vec(1usize..50, 1..8)) {
        let total: usize = sizes.iter().sum();
        let mut whole = vec![0u8; total];
        HashPrg::from_seed(seed).fill_bytes(&mut whole);
        let mut chunked = Vec::new();
        let mut prg = HashPrg::from_seed(seed);
        for s in &sizes {
            let mut buf = vec![0u8; *s];
            prg.fill_bytes(&mut buf);
            chunked.extend_from_slice(&buf);
        }
        prop_assert_eq!(chunked, whole);
    }
}
