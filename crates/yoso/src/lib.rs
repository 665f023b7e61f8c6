//! The YOSO execution model: roles, committees, the bulletin board,
//! adversaries and communication metering.
//!
//! The paper's model (§2): computation is performed by *roles* grouped
//! into committees; each role speaks **once** (posting to a broadcast
//! channel — in YOSO, broadcast costs the same as point-to-point) and
//! is then killed, its state erased. A *role-assignment* layer maps
//! roles to physical machines; the adversary corrupts a random `τ`
//! fraction of computation roles and arbitrarily chosen input/output
//! roles, and may also *fail-stop* honest roles (the paper's §5.4
//! extension).
//!
//! This crate simulates that model in-process:
//!
//! - [`RoleId`] / [`SpeakOnce`]: role identities and the
//!   speak-once discipline (a role's token is consumed by its single
//!   broadcast; the type system enforces the `Spoke` semantics).
//! - [`Committee`]: a committee of `n` roles with per-role
//!   [`Behavior`] assigned by the [`adversary`] module (honest, leaky,
//!   active strategies, fail-stop crash schedules).
//! - [`BulletinBoard`]: the authenticated broadcast channel, recording
//!   every posting with its size so experiments can *measure* (not
//!   estimate) communication in ring elements and bytes: the log is the
//!   meter, and [`BoardTransport::phases`] folds it into
//!   [`PhaseStats`] per protocol phase, wherever the log lives.
//! - [`sortition`]: the committee-sampling simulator (each of `N`
//!   parties joins a committee with probability `C/N`; corrupt parties
//!   are a random `f` fraction), matching the model analyzed in §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod board;
pub(crate) mod frame;
pub mod metrics;
pub mod role;
pub mod sortition;
pub mod tcp;
pub mod transport;
pub mod views;

pub use adversary::{ActiveAttack, Adversary, Behavior};
pub use board::{BulletinBoard, PhaseAccumulator, Posting};
pub use metrics::PhaseStats;
pub use role::{Committee, RoleId, SpeakOnce, SpokeError};
pub use tcp::{BoardServer, ServerHandle, ServerWireStats, TcpOptions, TcpTransport, WireStats};
pub use transport::{
    BoardError, BoardTransport, InProcessTransport, PostRecord, PostRun, Speakers, WireMessage,
};
pub use views::{LeakEntry, LeakLog};
