//! Bulletin-board message descriptors and size accounting.
//!
//! The simulation passes protocol data through typed structs (all
//! roles live in one process); the bulletin board records *what* was
//! posted and *how large* it was, so experiments measure exactly the
//! traffic a distributed deployment would broadcast.
//!
//! Sizes are counted in **ring elements** (the paper's unit; one
//! element of `F_p` = 8 bytes in the mock instantiation). A mock-TE or
//! PKE ciphertext is 2 elements; a sigma-protocol proof is
//! `rows + witness` elements.
//!
//! A role speaks once, so each posting is a role's whole message in its
//! step, with one proof: a `Decrypt` holder's partials of every
//! ciphertext, a `Re-encrypt` holder's every re-encrypted item, a
//! `3-mult` member's share of every batch of its layer, a contribution
//! member's every encrypted random value (every triple's, every
//! maskable wire's, every pack helper's). Where the postings of a
//! message share one witness — or, for a contribution's encryptions,
//! are each known to the member — their statements are proved as one
//! random combination; a re-encrypted item keeps its own randomness
//! rows, and a Beaver b-side triple its own four
//! (`yoso_the::nizk::combine`).

use yoso_runtime::transport::{BoardError, WireCursor, WireMessage};

/// What a posting contains (audit record on the board).
///
/// Every variant is a pure size descriptor: the simulation keeps the
/// actual protocol data in process, so a `Post` is a few bytes and
/// `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Post {
    /// A contribution member's message (offline Steps 1, 2, 4): its
    /// `TEnc` encryptions of fresh random values and one proof for all
    /// of them — [`contribution_elements`]`(m)` for `m` ciphertexts, or
    /// a Beaver b-side member's [`beaver_b_elements`]`(T)`.
    Contribution {
        /// Which offline step.
        step: ContributionStep,
        /// Number of ciphertexts in the message: one per item (`T`
        /// triples, `M` maskable wires, `3t·B` pack helpers), two per
        /// triple on the Beaver b-side.
        ciphertexts: u32,
    },
    /// A holder's `Decrypt` message (offline Step 3, the baseline's
    /// multiplications): its partial decryption of each of the step's
    /// ciphertexts and one proof for all of them.
    PartialDec,
    /// A holder's `Re-encrypt` message (offline Steps 5–6, online key
    /// distribution and output): each of the call's items re-encrypted
    /// to its target, and one proof for all of them.
    EncryptedPartial,
    /// A `tsk` re-share message (commitments + `n` encrypted
    /// subshares + proof), once per committee handover.
    TskReshare,
    /// A client's published `μ = v − λ` input values.
    InputMu {
        /// Number of input wires covered.
        wires: u32,
    },
    /// One committee member's `3-mult` message: its μ-share of each
    /// multiplication batch of its layer, and one proof for all of them.
    MulShare,
    /// Baseline protocol: a client's encrypted input.
    BaselineInput,
}

impl WireMessage for Post {
    // Tags 7 (the baseline's never-posted partial decryption) and 8 (a
    // payload-bearing variant) are retired and must stay unassigned: an
    // old `board-stats --dump` or a stale worker still using one has to
    // fail to decode, not decode as something else. New variants start
    // at 9.
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), BoardError> {
        match self {
            Post::Contribution { step, ciphertexts } => {
                out.push(0);
                out.push(match step {
                    ContributionStep::Beaver => 0,
                    ContributionStep::WireRandom => 1,
                    ContributionStep::PackHelper => 2,
                });
                out.extend_from_slice(&ciphertexts.to_le_bytes());
            }
            Post::PartialDec => out.push(1),
            Post::EncryptedPartial => out.push(2),
            Post::TskReshare => out.push(3),
            Post::InputMu { wires } => {
                out.push(4);
                out.extend_from_slice(&wires.to_le_bytes());
            }
            Post::MulShare => out.push(5),
            Post::BaselineInput => out.push(6),
        }
        Ok(())
    }

    fn decode(cur: &mut WireCursor<'_>) -> Result<Self, BoardError> {
        match cur.u8()? {
            0 => {
                let step = match cur.u8()? {
                    0 => ContributionStep::Beaver,
                    1 => ContributionStep::WireRandom,
                    2 => ContributionStep::PackHelper,
                    other => {
                        return Err(BoardError::Protocol(format!(
                            "unknown contribution step tag {other}"
                        )))
                    }
                };
                Ok(Post::Contribution { step, ciphertexts: cur.u32()? })
            }
            1 => Ok(Post::PartialDec),
            2 => Ok(Post::EncryptedPartial),
            3 => Ok(Post::TskReshare),
            4 => Ok(Post::InputMu { wires: cur.u32()? }),
            5 => Ok(Post::MulShare),
            6 => Ok(Post::BaselineInput),
            other => Err(BoardError::Protocol(format!("unknown post tag {other}"))),
        }
    }
}

/// Which offline step a contribution belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContributionStep {
    /// Beaver-triple `a`-side or `b`-side contribution (Step 1).
    Beaver,
    /// Random wire mask contribution (Step 2).
    WireRandom,
    /// Packing helper randomness (Step 4).
    PackHelper,
}

/// Elements in a mock ciphertext (TE or linear PKE): `(u, v)`.
pub const CT_ELEMENTS: u64 = 2;

/// Elements in a cleartext partial decryption.
pub const PDEC_ELEMENTS: u64 = 1;

/// Elements in a linear sigma proof with `rows` rows and `witness`
/// variables.
pub const fn proof_elements(rows: u64, witness: u64) -> u64 {
    rows + witness
}

/// Elements in an encryption proof (2 rows, 2 witness variables).
pub const ENC_PROOF_ELEMENTS: u64 = proof_elements(2, 2);

/// Elements in a partial-decryption proof (2 rows, 1 witness).
pub const PDEC_PROOF_ELEMENTS: u64 = proof_elements(2, 1);

/// Elements in a μ-share proof (2 rows, 1 witness).
pub const MULSHARE_PROOF_ELEMENTS: u64 = proof_elements(2, 1);

/// Elements in a contribution message of `m` ciphertexts: the
/// ciphertexts and one encryption proof of their combination, `2m + 4`.
pub const fn contribution_elements(m: u64) -> u64 {
    m * CT_ELEMENTS + ENC_PROOF_ELEMENTS
}

/// Elements in a Beaver b-side message over `T` triples: per triple
/// `c_b` and `c_c`, and one proof with four rows and two witness
/// variables (`b`, `r`) per triple, `10T`.
pub const fn beaver_b_elements(triples: u64) -> u64 {
    2 * triples * CT_ELEMENTS + proof_elements(4 * triples, 2 * triples)
}

/// Elements in a `Decrypt` message over `m` ciphertexts: `m` partials
/// and one partial-decryption proof of their combination, `m + 3`.
pub const fn decrypt_elements(m: u64) -> u64 {
    m * PDEC_ELEMENTS + PDEC_PROOF_ELEMENTS
}

/// Elements in a `Re-encrypt` message over `m` items: `m` ciphertexts
/// and one proof with a key-share row and two rows per item
/// (`2m + 1` rows, `m + 1` witness variables: the key share and each
/// item's randomness), `5m + 2`.
pub const fn reencrypt_elements(m: u64) -> u64 {
    m * CT_ELEMENTS + proof_elements(2 * m + 1, m + 1)
}

/// Elements in a `3-mult` message over a layer of `batches` batches:
/// one share per batch and one μ-share proof of their combination,
/// `B + 3`.
pub const fn mulshare_elements(batches: u64) -> u64 {
    batches + MULSHARE_PROOF_ELEMENTS
}

/// Elements in a `tsk` re-share message for committee size `n`,
/// threshold `t`: `t+1` commitments, `n` encrypted subshares, and the
/// reshare proof (`(t+1) + 2n` rows, `(t+1) + n` witness variables).
pub const fn reshare_elements(n: u64, t: u64) -> u64 {
    (t + 1) + n * CT_ELEMENTS + proof_elements((t + 1) + 2 * n, (t + 1) + n)
}

/// Bytes per ring element in the mock instantiation.
pub const ELEMENT_BYTES: u64 = 8;

/// Converts an element count to bytes.
pub const fn to_bytes(elements: u64) -> u64 {
    elements * ELEMENT_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(CT_ELEMENTS, 2);
        assert_eq!(ENC_PROOF_ELEMENTS, 4);
        assert_eq!(PDEC_PROOF_ELEMENTS, 3);
        // One proof per role message: 2m + 4, 10T, m + 3, 5m + 2, B + 3.
        assert_eq!((contribution_elements(1), contribution_elements(107)), (6, 218));
        assert_eq!((beaver_b_elements(1), beaver_b_elements(52)), (10, 520));
        assert_eq!((decrypt_elements(1), decrypt_elements(52)), (4, 55));
        assert_eq!((reencrypt_elements(1), reencrypt_elements(144)), (7, 722));
        assert_eq!((mulshare_elements(1), mulshare_elements(2)), (4, 5));
        // n = 10, t = 2: 3 + 20 + (3 + 20 + 3 + 10) = 59.
        assert_eq!(reshare_elements(10, 2), 3 + 20 + 23 + 13);
        assert_eq!(to_bytes(5), 40);
    }

    #[test]
    fn post_wire_roundtrip() {
        let posts = [
            Post::Contribution { step: ContributionStep::Beaver, ciphertexts: 7 },
            Post::Contribution { step: ContributionStep::WireRandom, ciphertexts: 0 },
            Post::Contribution { step: ContributionStep::PackHelper, ciphertexts: u32::MAX },
            Post::PartialDec,
            Post::EncryptedPartial,
            Post::TskReshare,
            Post::InputMu { wires: 42 },
            Post::MulShare,
            Post::BaselineInput,
        ];
        for p in posts {
            let mut buf = Vec::new();
            p.encode(&mut buf).unwrap();
            let mut cur = WireCursor::new(&buf);
            assert_eq!(Post::decode(&mut cur).unwrap(), p);
        }
    }

    #[test]
    fn post_decode_rejects_bad_tags() {
        let mut cur = WireCursor::new(&[99]);
        assert!(Post::decode(&mut cur).is_err());
        let mut cur = WireCursor::new(&[0, 9, 0, 0, 0, 0]);
        assert!(Post::decode(&mut cur).is_err());
        // A retired tag is a typed error whatever follows it.
        for tag in [7u8, 8] {
            for buf in [&[tag][..], &[tag, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3]] {
                assert_eq!(
                    Post::decode(&mut WireCursor::new(buf)),
                    Err(BoardError::Protocol(format!("unknown post tag {tag}")))
                );
            }
        }
        // Truncated after the tag: an error, never a panic.
        for buf in [&[][..], &[0], &[0, 1], &[0, 1, 7, 0], &[4], &[4, 42, 0, 0]] {
            assert!(matches!(
                Post::decode(&mut WireCursor::new(buf)),
                Err(BoardError::Protocol(_))
            ));
        }
    }
}
