//! Scalable YOSO MPC via packed secret sharing — the paper's protocol
//! `Π = (Π_Setup, Π_Offline, Π_Online)` plus the CDN-style baseline it
//! improves on.
//!
//! # Protocol overview (paper §5)
//!
//! The protocol computes an arithmetic circuit among ever-changing
//! committees of `n` roles, `t < n(1/2 − ε)` of which are corrupt,
//! with **guaranteed output delivery**, in three phases:
//!
//! - **Setup** ([`setup`]): a threshold key pair `(tpk, tsk₁…tskₙ)` of
//!   a linearly homomorphic threshold encryption scheme is generated;
//!   *keys-for-future* (KFF) are published for every role of the later
//!   online committees (public part in the clear, secret part encrypted
//!   under `tpk`).
//! - **Offline** ([`offline`]): committees prepare, per circuit wire, a
//!   random mask `λ` encrypted under `tpk` (Beaver triples → dependent
//!   wire values `Γ = λ_α·λ_β − λ_γ` → homomorphic *packing* into
//!   degree-`(t+k−1)` packed shares → re-encryption of each share to
//!   the KFF of the online role that will consume it).
//! - **Online** ([`online`]): the first online committee re-encrypts
//!   the KFF secret keys to the now-known role keys; clients publish
//!   `μ = v − λ` for their inputs; addition is free; a batch of `k`
//!   multiplications costs each committee member a *single* published
//!   share `μᵢ^γ` (with a NIZK), reconstructed from any
//!   `t + 2(k−1) + 1` verified shares — `O(1)` amortized elements per
//!   gate, independent of `n`.
//!
//! The [`failstop`] configuration (§5.4) halves the packing factor to
//! tolerate `n·ε` crashed honest roles. The [`baseline`] module
//! implements the CDN-style protocol of Gentry et al. (CRYPTO'21) —
//! threshold decryption per multiplication, `O(n)` online elements per
//! gate — used as the comparison point in every experiment.
//!
//! All committee interaction goes through the `yoso-runtime` bulletin
//! board, so every experiment *measures* communication rather than
//! estimating it.
//!
//! # Example
//!
//! ```rust
//! use rand::SeedableRng;
//! use yoso_circuit::generators;
//! use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
//! use yoso_field::F61;
//! use yoso_runtime::Adversary;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let circuit = generators::inner_product::<F61>(4)?;
//! let params = ProtocolParams::new(10, 2, 3)?; // n = 10, t = 2, k = 3
//! let engine = Engine::new(params, ExecutionConfig::default());
//! let inputs = vec![
//!     (1..=4u64).map(F61::from).collect::<Vec<_>>(),
//!     (5..=8u64).map(F61::from).collect::<Vec<_>>(),
//! ];
//! let run = engine.run(&mut rng, &circuit, &inputs, &Adversary::none())?;
//! assert_eq!(run.outputs[0], vec![F61::from(70u64)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod dkg;
mod engine;
pub mod failstop;
pub mod itbgw;
pub mod messages;
pub mod offline;
pub mod online;
pub mod parallel;
mod params;
pub mod setup;
mod step;
pub mod tsk;
pub mod workitem;

pub use engine::{crash_phases, BoardBackend, Engine, ExecutionConfig, RunResult};
pub use params::ProtocolParams;
pub use workitem::{RolePartition, ShardedBoard, WorkItem};
pub use yoso_pss_sharing::PointLayout;

use yoso_circuit::CircuitError;
use yoso_pss_sharing::PssError;
use yoso_the::TeError;

/// Errors produced by the MPC protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Parameters violate the protocol's constraints.
    BadParameters(String),
    /// Too few valid contributions to proceed (GOD violated — should be
    /// impossible within the corruption model).
    NotEnoughContributions {
        /// Which step starved.
        step: &'static str,
        /// Valid contributions observed.
        got: usize,
        /// Contributions required.
        need: usize,
    },
    /// An underlying threshold-encryption error.
    Te(TeError),
    /// An underlying secret-sharing error.
    Pss(PssError),
    /// An underlying circuit error.
    Circuit(CircuitError),
    /// An internal invariant did not hold. Reaching this is a bug in the
    /// protocol driver, not a property of the inputs; it exists so broken
    /// invariants surface as typed errors instead of panics (the YOSO
    /// model cannot tolerate a committee member aborting mid-epoch).
    Invariant(&'static str),
    /// The bulletin-board transport failed (I/O or protocol error on a
    /// remote backend; the in-process backend never produces this).
    Transport(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadParameters(msg) => write!(f, "bad protocol parameters: {msg}"),
            ProtocolError::NotEnoughContributions { step, got, need } => {
                write!(f, "not enough valid contributions in {step}: got {got}, need {need}")
            }
            ProtocolError::Te(e) => write!(f, "threshold encryption error: {e}"),
            ProtocolError::Pss(e) => write!(f, "secret sharing error: {e}"),
            ProtocolError::Circuit(e) => write!(f, "circuit error: {e}"),
            ProtocolError::Invariant(msg) => {
                write!(f, "internal invariant broken (bug): {msg}")
            }
            ProtocolError::Transport(msg) => write!(f, "board transport error: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Te(e) => Some(e),
            ProtocolError::Pss(e) => Some(e),
            ProtocolError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TeError> for ProtocolError {
    fn from(e: TeError) -> Self {
        ProtocolError::Te(e)
    }
}

impl From<PssError> for ProtocolError {
    fn from(e: PssError) -> Self {
        ProtocolError::Pss(e)
    }
}

impl From<CircuitError> for ProtocolError {
    fn from(e: CircuitError) -> Self {
        ProtocolError::Circuit(e)
    }
}

impl From<yoso_runtime::BoardError> for ProtocolError {
    fn from(e: yoso_runtime::BoardError) -> Self {
        ProtocolError::Transport(e.to_string())
    }
}
