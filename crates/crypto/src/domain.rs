//! Pre-hashed Fiat–Shamir domain separators.

use crate::sha256::Sha256;

/// A domain separator, hashed once: the [`Sha256`] state after the
/// separator's own block(s)
///
/// ```text
/// u64le(|label|) ‖ label ‖ 0…0        (zero-padded to a multiple of 64 bytes)
/// ```
///
/// so a challenge under the domain starts from a clone of that state
/// and pays nothing for the separator. The length prefix makes the
/// framing injective — no label's block(s) are another's, whatever
/// follows — and the padding leaves the hasher at a block boundary.
///
/// `new` is a `const fn`: a `static` domain is evaluated at compile
/// time, and a label known only at run time goes through the same
/// function.
///
/// # Example
///
/// ```rust
/// use yoso_crypto::{Domain, Sha256};
///
/// static PROOF: Domain = Domain::new(b"example/proof/v1");
///
/// let mut h = PROOF.hasher();
/// h.update(b"statement");
///
/// let mut fresh = Sha256::new();
/// fresh.update(&16u64.to_le_bytes());
/// fresh.update(b"example/proof/v1");
/// fresh.update(&[0u8; 64 - 8 - 16]);
/// fresh.update(b"statement");
/// assert_eq!(h.finalize(), fresh.finalize());
/// ```
#[derive(Debug, Clone)]
pub struct Domain {
    midstate: Sha256,
}

impl Domain {
    /// Hashes the separator's block(s).
    pub const fn new(label: &[u8]) -> Self {
        let len = (label.len() as u64).to_le_bytes();
        let framed = len.len() + label.len();
        let mut midstate = Sha256::new();
        let mut at = 0;
        while at < framed {
            let mut block = [0u8; 64];
            let mut i = 0;
            while i < block.len() && at + i < framed {
                block[i] = if at + i < len.len() { len[at + i] } else { label[at + i - len.len()] };
                i += 1;
            }
            midstate.absorb_block(&block);
            at += block.len();
        }
        Domain { midstate }
    }

    /// A hasher that has absorbed the separator and nothing else.
    pub fn hasher(&self) -> Sha256 {
        self.midstate.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The separator's framing, hashed the long way.
    fn afresh(label: &[u8]) -> Sha256 {
        let mut framed = (label.len() as u64).to_le_bytes().to_vec();
        framed.extend_from_slice(label);
        framed.resize(framed.len().next_multiple_of(64), 0);
        let mut h = Sha256::new();
        h.update(&framed);
        h
    }

    fn labels() -> Vec<Vec<u8>> {
        let long: Vec<u8> = (0..200u8).collect();
        let mut labels: Vec<Vec<u8>> = [0usize, 1, 2, 55, 56, 57, 119, 120, 121, 200]
            .iter()
            .map(|&len| long[..len].to_vec())
            .collect();
        // The two-byte label plus the zero its padding starts with:
        // only the length prefix tells them apart.
        labels.push(vec![0u8, 1, 0]);
        labels
    }

    #[test]
    fn cloning_the_midstate_equals_hashing_the_blocks_afresh() {
        for label in labels() {
            for tail in [&b""[..], b"x", &[7u8; 130]] {
                let mut a = Domain::new(&label).hasher();
                let mut b = afresh(&label);
                a.update(tail);
                b.update(tail);
                assert_eq!(a.finalize(), b.finalize(), "label of {} bytes", label.len());
            }
        }
    }

    #[test]
    fn prefixes_the_empty_label_and_multi_block_labels_are_all_distinct() {
        // Each of the first ten labels is a prefix of the next; the
        // first is empty; 57 bytes and up need a second block, 121 and
        // up a third.
        let digests: Vec<[u8; 32]> =
            labels().iter().map(|l| Domain::new(l).hasher().finalize()).collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[..i] {
                assert_ne!(a, b);
            }
        }
        // Distinct under a common continuation too, including one that
        // spells out the longer label's extra bytes.
        let (short, long) = (Domain::new(b"ab"), Domain::new(b"abc"));
        let (mut s, mut l) = (short.hasher(), long.hasher());
        s.update(b"c");
        l.update(b"c");
        assert_ne!(s.finalize(), l.finalize());
    }

    #[test]
    fn a_static_domain_is_the_run_time_one() {
        static AT_COMPILE_TIME: Domain = Domain::new(b"yoso-pss/test/v1");
        let label: Vec<u8> = "yoso-pss/test/v".bytes().chain([b'1']).collect();
        let at_run_time = Domain::new(&label);
        assert_eq!(AT_COMPILE_TIME.hasher().finalize(), at_run_time.hasher().finalize());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_clone_costs_no_compression() {
        let domain = Domain::new(b"yoso-pss/test/v1");
        let (_, blocks) = crate::sha256::compressions_of(|| {
            let mut h = domain.hasher();
            h.update(&[0u8; 55]);
            h.finalize()
        });
        assert_eq!(blocks, 1);
    }
}
