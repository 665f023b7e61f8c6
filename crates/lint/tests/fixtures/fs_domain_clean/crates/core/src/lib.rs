//! Clean fixture: a proof type of this crate under its own versioned
//! separator; test code may use whatever label it likes.
#![forbid(unsafe_code)]

static DOMAIN_ENC_PDEC: Domain = Domain::new(b"fixture/nizk/enc-pdec/v3");

pub fn verify(map: &LinearMap, targets: &[u64], proof: &Proof) -> bool {
    verify_linear(&DOMAIN_ENC_PDEC, map, targets, proof)
}

#[cfg(test)]
mod tests {
    static DOMAIN_T: Domain = Domain::new(b"fixture/nizk/enc/v3");
    const DOMAIN_U: &[u8] = b"unversioned";
}
