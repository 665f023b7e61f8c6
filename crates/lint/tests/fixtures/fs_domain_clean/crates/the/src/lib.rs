//! Clean fixture: two proof types, two separators, each versioned —
//! one pre-hashed, one a plain byte string — and a run-time label the
//! pass cannot see and does not judge.
#![forbid(unsafe_code)]

static DOMAIN_ENC: Domain = Domain::new(b"fixture/nizk/enc/v3");
const DOMAIN_PAILLIER_ENC: &[u8] = b"fixture/paillier/enc/v1";

pub fn retired(version: &str) -> Domain {
    Domain::new(format!("fixture/nizk/enc/{version}").as_bytes())
}
