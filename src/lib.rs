//! # yoso-pss — Scalable YOSO MPC via Packed Secret-Sharing
//!
//! A from-scratch Rust implementation of the protocol of Escudero,
//! Masserova and Polychroniadou (*Towards Scalable YOSO MPC via Packed
//! Secret-Sharing*, PODC 2025): YOSO MPC with guaranteed output
//! delivery whose **online communication is `O(1)` ring elements per
//! gate, independent of the committee size** — obtained by combining
//! Turbopack-style packed masks with a CDN-style threshold-encryption
//! backbone and *keys-for-future*, under the corruption gap
//! `t < n(1/2 − ε)`.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`bignum`] | `yoso-bignum` | Arbitrary-precision integers (threshold Paillier substrate) |
//! | [`field`] | `yoso-field` | `F_p` (`p = 2^61 − 1`), polynomials, Lagrange interpolation |
//! | [`crypto`] | `yoso-crypto` | SHA-256, Fiat–Shamir transcripts, NIZK challenge domains, PRG |
//! | [`the`] | `yoso-the` | Threshold encryption (mock field TE + threshold Paillier) and NIZKs |
//! | [`pss`] | `yoso-pss-sharing` | Packed Shamir secret sharing |
//! | [`circuit`] | `yoso-circuit` | Arithmetic circuit IR, batching, generators |
//! | [`runtime`] | `yoso-runtime` | Roles, committees, bulletin board, adversaries, metering |
//! | [`core`] | `yoso-core` | The protocol: setup / offline / online, fail-stop, CDN baseline |
//! | [`sortition`] | `yoso-sortition` | §6 committee-size analysis (Table 1) and Monte-Carlo validation |
//!
//! # Quickstart
//!
//! ```rust
//! use rand::SeedableRng;
//! use yoso_pss::circuit::generators;
//! use yoso_pss::core::{Engine, ExecutionConfig, ProtocolParams};
//! use yoso_pss::field::F61;
//! use yoso_pss::runtime::Adversary;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // Two parties compute the inner product of their private vectors.
//! let circuit = generators::inner_product::<F61>(4)?;
//! let params = ProtocolParams::from_gap(12, 0.2)?; // n = 12, ε = 0.2
//! let engine = Engine::new(params, ExecutionConfig::default());
//! let x: Vec<F61> = (1..=4u64).map(F61::from).collect();
//! let y: Vec<F61> = (5..=8u64).map(F61::from).collect();
//! let run = engine.run(&mut rng, &circuit, &[x, y], &Adversary::none())?;
//! assert_eq!(run.outputs[0], vec![F61::from(70u64)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/`
//! for the experiment harness that regenerates the paper's table and
//! quantitative claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use yoso_bignum as bignum;
pub use yoso_circuit as circuit;
pub use yoso_core as core;
pub use yoso_crypto as crypto;
pub use yoso_field as field;
pub use yoso_pss_sharing as pss;
pub use yoso_runtime as runtime;
pub use yoso_sortition as sortition;
pub use yoso_the as the;
