//! Adversarial view accounting.
//!
//! The ideal functionality (§2) distinguishes `Malicious` and `Leaky`
//! roles: both hand their entire view to the adversary. This module
//! records which *secret objects* (shares of a packed sharing, shares
//! of `tsk`, KFF secrets) each corrupted role exposes, so tests and
//! experiments can check the protocol's privacy budget **by counting**:
//! a degree-`d` packed sharing with `k` secrets keeps them
//! information-theoretically hidden as long as the adversary sees at
//! most `d − k + 1` of its shares.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;


use crate::role::RoleId;

/// One exposure: a corrupted role revealed its piece of a secret object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakEntry {
    /// The corrupted (malicious or leaky) role.
    pub role: RoleId,
    /// The secret object, e.g. `"batch3/alpha"`, `"tsk/epoch2"`.
    pub object: String,
    /// Which share/piece of the object (usually the member index).
    pub piece: usize,
}

/// A shared, append-only log of adversarial exposures.
#[derive(Debug, Clone, Default)]
pub struct LeakLog {
    inner: Arc<RwLock<Vec<LeakEntry>>>,
}

impl LeakLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an exposure.
    pub fn record(&self, role: RoleId, object: impl Into<String>, piece: usize) {
        self.inner.write().push(LeakEntry { role, object: object.into(), piece });
    }

    /// All entries (clones).
    pub fn entries(&self) -> Vec<LeakEntry> {
        self.inner.read().clone()
    }

    /// Number of *distinct* pieces exposed per object.
    pub fn pieces_per_object(&self) -> BTreeMap<String, usize> {
        let mut sets: BTreeMap<String, std::collections::BTreeSet<usize>> = BTreeMap::new();
        for e in self.inner.read().iter() {
            sets.entry(e.object.clone()).or_default().insert(e.piece);
        }
        sets.into_iter().map(|(k, v)| (k, v.len())).collect()
    }

    /// The largest distinct-piece count over all objects (the worst-case
    /// exposure the adversary achieved).
    pub fn max_exposure(&self) -> usize {
        self.pieces_per_object().values().copied().max().unwrap_or(0)
    }

    /// Total entries recorded.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether nothing leaked.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let log = LeakLog::new();
        log.record(RoleId::new("c", 0), "batch0/alpha", 0);
        log.record(RoleId::new("c", 2), "batch0/alpha", 2);
        log.record(RoleId::new("c", 2), "batch0/alpha", 2); // duplicate piece
        log.record(RoleId::new("c", 1), "tsk/epoch0", 1);
        let per = log.pieces_per_object();
        assert_eq!(per["batch0/alpha"], 2);
        assert_eq!(per["tsk/epoch0"], 1);
        assert_eq!(log.max_exposure(), 2);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let log = LeakLog::new();
        let log2 = log.clone();
        log.record(RoleId::new("c", 0), "x", 0);
        assert_eq!(log2.len(), 1);
    }

    #[test]
    fn empty_log() {
        let log = LeakLog::new();
        assert_eq!(log.max_exposure(), 0);
        assert!(log.is_empty());
    }
}
