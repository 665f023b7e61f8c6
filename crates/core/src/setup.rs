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
use std::sync::Arc;

use yoso_runtime::{BulletinBoard, Speakers};
use yoso_the::mock::{Ciphertext, LinearPke, MockTe, PkeKeyPair};

use crate::messages::{ContributionStep, Post, CT_ELEMENTS};
use crate::parallel::{Author, PostBuffer};
use crate::tsk::TskChain;
use crate::workitem::{RolePartition, ShardedBoard};
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
/// layers and `clients` clients, alone on `board`.
///
/// # Errors
///
/// Propagates key-generation and transport errors.
pub fn run_setup<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &ProtocolParams,
    board: &BulletinBoard<Post>,
    layers: usize,
    clients: usize,
) -> Result<SetupArtifacts<F>, ProtocolError> {
    let sb = ShardedBoard::new(board, RolePartition::solo());
    run_setup_in(rng, params, &sb, layers, clients)
}

/// [`run_setup`] on the run's board view. The dealer's postings are
/// not member-indexed, so the leader worker appends all of them, as
/// one buffer; every worker still replicates the key generation (the
/// artifacts are the shared protocol state).
pub(crate) fn run_setup_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &ProtocolParams,
    sb: &ShardedBoard<'_>,
    layers: usize,
    clients: usize,
) -> Result<SetupArtifacts<F>, ProtocolError> {
    let tsk = TskChain::keygen(rng, params.n, params.t)?;
    // Every KFF record is a public key (2 elements) and the encrypted
    // secret (2 elements).
    let mut posts = PostBuffer::new();
    let dealer = dealer_run(&mut posts, "setup", 2 * CT_ELEMENTS);
    let mut kff_pair = || {
        let kp = LinearPke::keygen(rng);
        let (ct, _) = MockTe::encrypt(rng, &tsk.pk, kp.secret.scalar);
        dealer.push(0);
        (kp, ct)
    };
    let (kff_pairs, kff_cts) =
        (0..layers).map(|_| (0..params.n).map(|_| kff_pair()).unzip()).unzip();
    let (client_kff_pairs, client_kff_cts) = (0..clients).map(|_| kff_pair()).unzip();
    sb.flush_buffer(posts)?;
    Ok(SetupArtifacts { tsk, kff_pairs, kff_cts, client_kff_pairs, client_kff_cts })
}

/// The run of a setup dealer's postings, opened on `posts`: each a
/// contribution of `elements` under the `setup` phase, appended by the
/// leader worker.
fn dealer_run<'p>(posts: &'p mut PostBuffer, dealer: &str, elements: u64) -> &'p mut Speakers {
    let post = Post::Contribution { step: ContributionStep::WireRandom, ciphertexts: 1 };
    posts.open_run(Author::Leader, &Arc::from(dealer), post, "setup", elements)
}

/// Re-keys a setup onto a different threshold key: re-encrypts every
/// KFF secret under the new chain's `tpk` (used when the dealer's key
/// is replaced by the DKG one — the KFF secrets themselves are
/// unchanged, only their threshold-encrypted copies move). The
/// leader appends the dealer's postings, as [`run_setup`] does.
///
/// # Errors
///
/// Propagates transport errors.
pub fn rekey_setup<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &ShardedBoard<'_>,
    mut setup: SetupArtifacts<F>,
    chain: TskChain<F>,
) -> Result<SetupArtifacts<F>, ProtocolError> {
    let mut posts = PostBuffer::new();
    let dealer = dealer_run(&mut posts, "setup-rekey", CT_ELEMENTS);
    let pairs = setup.kff_pairs.iter().flatten().chain(&setup.client_kff_pairs);
    let cts = setup.kff_cts.iter_mut().flatten().chain(&mut setup.client_kff_cts);
    for (kp, ct) in pairs.zip(cts) {
        *ct = MockTe::encrypt(rng, &chain.pk, kp.secret.scalar).0;
        dealer.push(0);
    }
    sb.flush_buffer(posts)?;
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
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let got =
            s.tsk.decrypt(&mut rng, &sb, &committee, &cfg, "test", &[s.kff_cts[1][3]]).unwrap();
        assert_eq!(got[0], s.kff_pairs[1][3].secret.scalar);
        // Setup posted (3·6 + 2) KFF records.
        let phases = board.phases().unwrap();
        let setup = phases.iter().find(|(k, _)| k == "setup").map(|(_, s)| s.messages);
        assert_eq!(setup, Some(20));
    }
}
