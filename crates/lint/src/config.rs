//! Rule identifiers, severity levels, and the workspace policy tables
//! (protocol crates, transcript modules, secret-type registry).

use std::collections::BTreeMap;

/// Every rule the analyzer knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// in non-test code of a protocol crate.
    Panic,
    /// A secret-registry type derives or implements `Debug`/`Display`
    /// without a redaction marker.
    SecretDebug,
    /// A formatting/log macro interpolates a secret-named binding, or
    /// `dbg!` appears in protocol code.
    SecretFormat,
    /// Nondeterminism sources (`HashMap`, `std::time`, `thread_rng`,
    /// thread identity) in a transcript-affecting module.
    Determinism,
    /// Crate root missing `#![forbid(unsafe_code)]`, or an `unsafe` token
    /// anywhere outside the vendored shims.
    UnsafePolicy,
    /// A secret-tainted value reaches a sink (format macro, posting
    /// payload, serialization, raw-byte return) without passing through
    /// a sanctioned sanitizer (`encrypt*`/`share*`/`commit*` or a
    /// `lint:sanitize`-marked function).
    TaintFlow,
    /// A Fiat–Shamir domain-separator literal that appears at two sites
    /// of the workspace, or that carries no `/vN` version suffix.
    FsDomain,
    /// Malformed `lint:allow` marker: unknown rule or missing
    /// justification.
    BadAllow,
    /// A `lint:allow` marker that suppressed nothing.
    UnusedAllow,
}

/// Severity a rule runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Rule disabled.
    Allow,
    /// Finding reported; does not affect the exit code.
    Warn,
    /// Finding reported; any occurrence fails the run.
    Deny,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 9] = [
        RuleId::Panic,
        RuleId::SecretDebug,
        RuleId::SecretFormat,
        RuleId::Determinism,
        RuleId::UnsafePolicy,
        RuleId::TaintFlow,
        RuleId::FsDomain,
        RuleId::BadAllow,
        RuleId::UnusedAllow,
    ];

    /// Stable kebab-case name used in CLI flags and `lint:allow` markers.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Panic => "panic",
            RuleId::SecretDebug => "secret-debug",
            RuleId::SecretFormat => "secret-format",
            RuleId::Determinism => "determinism",
            RuleId::UnsafePolicy => "unsafe-policy",
            RuleId::TaintFlow => "taint-flow",
            RuleId::FsDomain => "fs-domain",
            RuleId::BadAllow => "bad-allow",
            RuleId::UnusedAllow => "unused-allow",
        }
    }

    /// Parse a rule name as written in flags and allow markers.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// Severity the rule runs at unless overridden on the command line:
    /// every rule denies, so a clean run is one with no finding at all.
    pub fn default_level(self) -> Level {
        Level::Deny
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::Panic => {
                "unwrap/expect/panic!/unreachable!/todo! in non-test protocol code"
            }
            RuleId::SecretDebug => {
                "Debug/Display on a secret-registry type without a redaction marker"
            }
            RuleId::SecretFormat => {
                "format/log macro interpolating a secret-named binding, or dbg!"
            }
            RuleId::Determinism => {
                "HashMap/HashSet, std::time, thread_rng or thread identity in a \
                 transcript-affecting module"
            }
            RuleId::UnsafePolicy => {
                "crate root missing #![forbid(unsafe_code)], or any unsafe token"
            }
            RuleId::TaintFlow => {
                "secret-tainted value reaching a sink without a sanctioned sanitizer"
            }
            RuleId::FsDomain => {
                "Fiat-Shamir domain separator used twice workspace-wide, or without a /vN suffix"
            }
            RuleId::BadAllow => "lint:allow marker with unknown rule or empty justification",
            RuleId::UnusedAllow => "lint:allow marker that suppressed nothing",
        }
    }
}

/// Effective configuration for one run: per-rule severities.
#[derive(Debug, Clone)]
pub struct LintConfig {
    levels: BTreeMap<RuleId, Level>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let levels = RuleId::ALL.iter().map(|&r| (r, r.default_level())).collect();
        LintConfig { levels }
    }
}

impl LintConfig {
    /// Override one rule's severity.
    pub fn set_level(&mut self, rule: RuleId, level: Level) {
        self.levels.insert(rule, level);
    }

    /// Severity `rule` runs at.
    pub fn level(&self, rule: RuleId) -> Level {
        self.levels.get(&rule).copied().unwrap_or_else(|| rule.default_level())
    }
}

/// Crates whose non-test code must be panic-free. These hold the protocol
/// logic whose abort-freedom the YOSO model depends on.
pub const PROTOCOL_CRATES: [&str; 5] = ["core", "the", "pss", "crypto", "sortition"];

/// Modules whose control flow feeds the bulletin-board transcript; any
/// nondeterminism here breaks the byte-identical-transcript guarantee.
pub const TRANSCRIPT_MODULES: [&str; 9] = [
    "crates/core/src/online.rs",
    "crates/core/src/offline.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/step.rs",
    "crates/field/src/ntt.rs",
    // The board transports carry every posting of the transcript:
    // iteration order or time-dependence here would desynchronize
    // backends that must produce byte-identical logs.
    "crates/yoso/src/board.rs",
    "crates/yoso/src/transport.rs",
    "crates/yoso/src/tcp.rs",
    "crates/yoso/src/frame.rs",
];

/// True if `type_name` names secret material per the registry.
///
/// The registry is pattern-based so newly added key types are covered by
/// default: `SecretKey*`, `*SecretKey`, `*KeyShare`/`KeyShare`,
/// `*KeyPair`, `Plaintext`, `Randomness`, `*Seed`, `ReshareMsg`,
/// `PackedShares`, `Tsk*`.
pub fn is_secret_type(type_name: &str) -> bool {
    type_name.contains("SecretKey")
        || type_name.ends_with("KeyShare")
        || type_name == "KeyShare"
        || type_name.ends_with("KeyPair")
        || type_name == "Plaintext"
        || type_name == "Randomness"
        || type_name.ends_with("Seed")
        || type_name == "ReshareMsg"
        || type_name == "PackedShares"
        || type_name.starts_with("Tsk")
}

/// True if `binding` names a secret-typed value per the naming convention
/// (used by the format-interpolation rule, which has no type information).
pub fn is_secret_binding(binding: &str) -> bool {
    matches!(
        binding,
        "sk" | "secret" | "plaintext" | "randomness" | "key_share" | "sk_share" | "secret_key"
    ) || binding.ends_with("_sk")
        || binding.starts_with("sk_")
        || binding.ends_with("_secret")
        || binding.starts_with("secret_")
}

/// Formatting/printing macros inspected by the secret-format rule.
pub const FORMAT_MACROS: [&str; 10] = [
    "println", "print", "eprintln", "eprint", "format", "format_args", "write", "writeln",
    "log", "panic",
];

/// Call-name prefixes the taint pass accepts as sanitizers: routing a
/// tainted value through one of these produces public material
/// (ciphertexts, shares, commitments). Extended per-file by
/// `lint:sanitize`-marked functions.
pub const SANITIZER_PREFIXES: [&str; 3] = ["encrypt", "share", "commit"];

/// Callee names the taint pass treats as serialization sinks when a
/// tainted value is the receiver or an argument.
pub const SERIALIZE_SINKS: [&str; 4] = ["serialize", "to_bytes", "to_writer", "encode"];

/// Identifiers that signal nondeterminism inside transcript modules.
pub const NONDET_IDENTS: [&str; 7] = [
    "HashMap",
    "HashSet",
    "hash_map",
    "thread_rng",
    "Instant",
    "SystemTime",
    "ThreadId",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn secret_registry_matches() {
        for name in [
            "SecretKey",
            "SecretKeyShare",
            "PkeSecretKey",
            "KeyShare",
            "PaillierKeyShare",
            "PkeKeyPair",
            "Plaintext",
            "Randomness",
            "ReshareMsg",
            "PackedShares",
            "TskChain",
        ] {
            assert!(is_secret_type(name), "{name} should be secret");
        }
        for name in ["PublicKey", "Ciphertext", "Share", "Board", "KeyShareProof"] {
            assert!(!is_secret_type(name), "{name} should not be secret");
        }
    }

    #[test]
    fn secret_bindings() {
        for b in ["sk", "my_sk", "sk_share", "secret", "secret_scalar", "key_share"] {
            assert!(is_secret_binding(b), "{b}");
        }
        for b in ["pk", "mask", "skip", "risk", "shares"] {
            assert!(!is_secret_binding(b), "{b}");
        }
    }

    #[test]
    fn default_levels() {
        let cfg = LintConfig::default();
        assert_eq!(cfg.level(RuleId::Panic), Level::Deny);
        assert_eq!(cfg.level(RuleId::UnusedAllow), Level::Deny);
        let mut cfg = cfg;
        cfg.set_level(RuleId::UnusedAllow, Level::Warn);
        assert_eq!(cfg.level(RuleId::UnusedAllow), Level::Warn);
    }
}
