//! The setup phase `Π_YOSO-Setup` (paper §5.1).
//!
//! Generates:
//!
//! 1. **Keys-for-future (KFF)**: a key pair for every role of every
//!    *online* committee and for every input-contributing client. The
//!    public halves are published; the secret halves are encrypted
//!    under the threshold key `tpk` and posted, to be re-encrypted to
//!    the real YOSO role keys once those exist (online phase, "future
//!    key distribution").
//! 2. The NIZK setup (Fiat–Shamir domain separators — nothing to
//!    generate in this instantiation).
//! 3. The threshold key pair `(tpk, tsk₁…tskₙ)`; the shares go to the
//!    first offline committee.
//!
//! The setup is modelled as a trusted dealer, exactly as the paper
//! assumes (removing it via class-group DKG is listed as future work,
//! §7).

use rand::Rng;

use yoso_field::PrimeField;
use yoso_runtime::{BulletinBoard, RoleId};
use yoso_the::mock::{Ciphertext, LinearPke, MockTe, PkeKeyPair};

use crate::messages::{ContributionStep, Post, CT_ELEMENTS};
use crate::tsk::TskChain;
use crate::{ProtocolError, ProtocolParams};

/// Everything the setup phase produces.
///
/// The `kff_pairs` fields retain the secret halves **only for test
/// assertions**; the protocol path never reads them — online roles
/// recover their KFF secrets through the re-encryption chain.
#[derive(Debug, Clone)]
pub struct SetupArtifacts<F: PrimeField> {
    /// The threshold-key custody chain, currently held by the first
    /// offline committee.
    pub tsk: TskChain<F>,
    /// KFF key pairs per online multiplication committee (layer ×
    /// member).
    pub kff_pairs: Vec<Vec<PkeKeyPair<F>>>,
    /// `TEnc(tpk, kff_sk)` per online committee role.
    pub kff_cts: Vec<Vec<Ciphertext<F>>>,
    /// KFF key pairs per client.
    pub client_kff_pairs: Vec<PkeKeyPair<F>>,
    /// `TEnc(tpk, kff_sk)` per client.
    pub client_kff_cts: Vec<Ciphertext<F>>,
}

/// Runs `Π_YOSO-Setup` for a circuit with `layers` multiplication
/// layers and `clients` clients.
///
/// # Errors
///
/// Propagates key-generation errors.
pub fn run_setup<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &ProtocolParams,
    board: &BulletinBoard<Post>,
    layers: usize,
    clients: usize,
) -> Result<SetupArtifacts<F>, ProtocolError> {
    let sb = crate::workitem::ShardedBoard::solo(board);
    run_setup_in(rng, params, &sb, layers, clients)
}

/// [`run_setup`] posting through an existing sharded board. The
/// dealer's posts are not member-indexed, so the leader worker appends
/// all of them; every worker still replicates the key generation (the
/// artifacts are the shared protocol state).
pub(crate) fn run_setup_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &ProtocolParams,
    sb: &crate::workitem::ShardedBoard<'_>,
    layers: usize,
    clients: usize,
) -> Result<SetupArtifacts<F>, ProtocolError> {
    let tsk = TskChain::keygen(rng, params.n, params.t)?;
    let dealer = RoleId::new("setup", 0);
    let leader = sb.is_leader();

    let mut kff_pairs = Vec::with_capacity(layers);
    let mut kff_cts = Vec::with_capacity(layers);
    for _ in 0..layers {
        let mut pairs = Vec::with_capacity(params.n);
        let mut cts = Vec::with_capacity(params.n);
        for _ in 0..params.n {
            let kp = LinearPke::keygen(rng);
            let (ct, _) = MockTe::encrypt(rng, &tsk.pk, kp.secret.scalar);
            // Public key (2 elements) + encrypted secret (2 elements).
            sb.post(
                leader,
                dealer.clone(),
                Post::Contribution { step: ContributionStep::WireRandom, ciphertexts: 1 },
                "setup",
                2 * CT_ELEMENTS,
            )?;
            pairs.push(kp);
            cts.push(ct);
        }
        kff_pairs.push(pairs);
        kff_cts.push(cts);
    }

    let mut client_kff_pairs = Vec::with_capacity(clients);
    let mut client_kff_cts = Vec::with_capacity(clients);
    for _ in 0..clients {
        let kp = LinearPke::keygen(rng);
        let (ct, _) = MockTe::encrypt(rng, &tsk.pk, kp.secret.scalar);
        sb.post(
            leader,
            dealer.clone(),
            Post::Contribution { step: ContributionStep::WireRandom, ciphertexts: 1 },
            "setup",
            2 * CT_ELEMENTS,
        )?;
        client_kff_pairs.push(kp);
        client_kff_cts.push(ct);
    }

    Ok(SetupArtifacts { tsk, kff_pairs, kff_cts, client_kff_pairs, client_kff_cts })
}

/// Re-keys a setup onto a different threshold key: re-encrypts every
/// KFF secret under the new chain's `tpk` (used when the dealer's key
/// is replaced by the DKG one — the KFF secrets themselves are
/// unchanged, only their threshold-encrypted copies move).
///
/// # Errors
///
/// Propagates encryption errors (none occur).
pub fn rekey_setup<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &ProtocolParams,
    board: &BulletinBoard<Post>,
    setup: SetupArtifacts<F>,
    chain: TskChain<F>,
) -> Result<SetupArtifacts<F>, ProtocolError> {
    let sb = crate::workitem::ShardedBoard::solo(board);
    rekey_setup_in(rng, params, &sb, setup, chain)
}

/// [`rekey_setup`] posting through an existing sharded board
/// (leader-owned dealer posts, same contract as [`run_setup_in`]).
pub(crate) fn rekey_setup_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    _params: &ProtocolParams,
    sb: &crate::workitem::ShardedBoard<'_>,
    mut setup: SetupArtifacts<F>,
    chain: TskChain<F>,
) -> Result<SetupArtifacts<F>, ProtocolError> {
    let dealer = RoleId::new("setup-rekey", 0);
    let leader = sb.is_leader();
    for (layer, pairs) in setup.kff_pairs.iter().enumerate() {
        for (i, kp) in pairs.iter().enumerate() {
            let (ct, _) = MockTe::encrypt(rng, &chain.pk, kp.secret.scalar);
            setup.kff_cts[layer][i] = ct;
            sb.post(
                leader,
                dealer.clone(),
                Post::Contribution { step: ContributionStep::WireRandom, ciphertexts: 1 },
                "setup",
                CT_ELEMENTS,
            )?;
        }
    }
    for (c, kp) in setup.client_kff_pairs.iter().enumerate() {
        let (ct, _) = MockTe::encrypt(rng, &chain.pk, kp.secret.scalar);
        setup.client_kff_cts[c] = ct;
        sb.post(
            leader,
            dealer.clone(),
            Post::Contribution { step: ContributionStep::WireRandom, ciphertexts: 1 },
            "setup",
            CT_ELEMENTS,
        )?;
    }
    setup.tsk = chain;
    Ok(setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;
    use yoso_runtime::Committee;

    #[test]
    fn setup_shapes_and_kff_decryptability() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let params = ProtocolParams::new(6, 1, 2).unwrap();
        let board = BulletinBoard::new();
        let s = run_setup::<F61, _>(&mut rng, &params, &board, 3, 2).unwrap();
        assert_eq!(s.kff_pairs.len(), 3);
        assert_eq!(s.kff_cts[0].len(), 6);
        assert_eq!(s.client_kff_pairs.len(), 2);
        // The encrypted KFF secrets decrypt (via tsk) to the real secrets.
        let committee = Committee::honest("d", 6);
        let cfg = crate::ExecutionConfig::default();
        let got = s
            .tsk
            .decrypt(&mut rng, &board, &committee, &cfg, "test", &[s.kff_cts[1][3]])
            .unwrap();
        assert_eq!(got[0], s.kff_pairs[1][3].secret.scalar);
        // Setup posted (3·6 + 2) KFF records.
        let phases = board.phases().unwrap();
        let setup = phases.iter().find(|(k, _)| k == "setup").map(|(_, s)| s.messages);
        assert_eq!(setup, Some(20));
    }
}
