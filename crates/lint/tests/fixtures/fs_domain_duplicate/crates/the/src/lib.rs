//! Violating fixture, second half: … that another crate's proof type
//! uses too (a proof of either now verifies as the other wherever the
//! two relations have the same shape), next to a separator that could
//! never be retired.
#![forbid(unsafe_code)]

static DOMAIN_ENC: Domain = Domain::new(b"fixture/nizk/enc/v3");
const DOMAIN_SHARE: &[u8] = b"fixture/nizk/share";

pub fn verify_enc(map: &LinearMap, targets: &[u64], proof: &Proof) -> bool {
    verify_linear(&DOMAIN_ENC, map, targets, proof)
}

pub fn share_transcript() -> Transcript {
    Transcript::new(DOMAIN_SHARE)
}
