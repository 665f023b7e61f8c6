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

use yoso_runtime::transport::{BoardError, WireCursor, WireMessage};

/// What a posting contains (audit record on the board).
///
/// Every variant is a pure size descriptor: the simulation keeps the
/// actual protocol data in process, so a `Post` is a few bytes and
/// `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Post {
    /// A `TEnc` contribution with its encryption proof
    /// (offline Steps 1, 2, 4).
    Contribution {
        /// Which offline step.
        step: ContributionStep,
        /// Number of ciphertexts in the contribution.
        ciphertexts: u32,
    },
    /// A partial decryption with its correctness proof
    /// (offline Step 3 `Decrypt`).
    PartialDec,
    /// An encrypted partial decryption (a `Re-encrypt` posting:
    /// offline Steps 5–6, online key distribution and output).
    EncryptedPartial,
    /// A `tsk` re-share message (commitments + `n` encrypted
    /// subshares + proof), once per committee handover.
    TskReshare,
    /// A client's published `μ = v − λ` input values.
    InputMu {
        /// Number of input wires covered.
        wires: u32,
    },
    /// One committee member's μ-share for a multiplication batch,
    /// with its proof.
    MulShare,
    /// Baseline protocol: a client's encrypted input.
    BaselineInput,
    /// Baseline protocol: a partial decryption in the per-gate
    /// multiplication.
    BaselinePartialDec,
}

impl WireMessage for Post {
    // Tag 8 is retired (it carried a payload-bearing variant) and must
    // stay unassigned: an old `board-stats --dump` or a stale worker
    // still using it has to fail to decode, not decode as something
    // else. New variants start at 9.
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
            Post::BaselinePartialDec => out.push(7),
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
            7 => Ok(Post::BaselinePartialDec),
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

/// Elements in an encrypted-partial proof (3 rows, 2 witness: the
/// partial value and the encryption randomness).
pub const ENC_PDEC_PROOF_ELEMENTS: u64 = proof_elements(3, 2);

/// Elements in a μ-share proof (2 rows, 1 witness).
pub const MULSHARE_PROOF_ELEMENTS: u64 = proof_elements(2, 1);

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
            Post::BaselinePartialDec,
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
        // The retired tag is a typed error whatever follows it.
        for buf in [&[8u8][..], &[8, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3]] {
            assert_eq!(
                Post::decode(&mut WireCursor::new(buf)),
                Err(BoardError::Protocol("unknown post tag 8".into()))
            );
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
