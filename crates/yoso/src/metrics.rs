//! Communication statistics.
//!
//! The paper's efficiency claims are stated in *ring elements per
//! gate*: `O(n)` offline, `O(1)` online (Theorem 1). Every posting
//! carries its metered size, so the per-phase statistics are a fold
//! over the board's own log ([`crate::BoardTransport::phases`]): the
//! experiment harness reports what was actually posted, not an
//! analytic estimate or a counter kept beside the log.

use std::collections::BTreeMap;

/// Aggregated traffic for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Ring elements posted.
    pub elements: u64,
    /// Bytes posted.
    pub bytes: u64,
    /// Number of board postings.
    pub messages: u64,
}

impl PhaseStats {
    /// Adds another stats record.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.elements += other.elements;
        self.bytes += other.bytes;
        self.messages += other.messages;
    }
}

/// Per-phase stats keyed by label, in label order — what a fold over
/// the log accumulates into.
pub(crate) type PhaseTable = BTreeMap<String, PhaseStats>;

/// Adds `stats` to `phase`'s entry, allocating the key only the first
/// time a label is seen.
pub(crate) fn tally(table: &mut PhaseTable, phase: &str, stats: PhaseStats) {
    match table.get_mut(phase) {
        Some(s) => s.merge(&stats),
        None => {
            table.insert(phase.to_string(), stats);
        }
    }
}
