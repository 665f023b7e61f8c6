//! Violating fixture, first half: this crate's proof type claims a
//! separator …
#![forbid(unsafe_code)]

static DOMAIN_ENC_PDEC: Domain = Domain::new(b"fixture/nizk/enc/v3");

pub fn verify(map: &LinearMap, targets: &[u64], proof: &Proof) -> bool {
    verify_linear(&DOMAIN_ENC_PDEC, map, targets, proof)
}
