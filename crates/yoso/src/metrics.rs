//! Communication metering.
//!
//! The paper's efficiency claims are stated in *ring elements per
//! gate*: `O(n)` offline, `O(1)` online (Theorem 1). The meter counts
//! exactly what gets posted to the bulletin board, broken down by
//! phase, so the experiment harness reports measured counts rather
//! than analytic estimates.
//!
//! The hot path ([`CommMeter::record`]) is lock-free for already-seen
//! phases: counters are per-phase atomics behind a shared read lock,
//! so parallel workers replaying posts never serialize on the meter.
//! The write lock is taken only the first time a phase label appears.
//!
//! The map's keys double as the board's **phase-label interner**: each
//! label is allocated once, as an `Arc<str>`, and every recording call
//! hands that allocation back, so the postings of a phase all alias one
//! label and the audit log can tell "same phase" by pointer.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;


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

/// Per-phase atomic counters: bumped without any exclusive lock.
#[derive(Debug, Default)]
struct PhaseCounters {
    elements: AtomicU64,
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl PhaseCounters {
    fn add(&self, elements: u64, bytes: u64, messages: u64) {
        self.elements.fetch_add(elements, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(messages, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PhaseStats {
        PhaseStats {
            elements: self.elements.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
        }
    }
}

/// A thread-safe communication meter keyed by phase label.
///
/// Recording under a phase that already exists takes only a shared
/// read lock plus relaxed atomic adds; concurrent recorders do not
/// serialize each other.
#[derive(Debug, Clone, Default)]
pub struct CommMeter {
    inner: Arc<RwLock<BTreeMap<Arc<str>, PhaseCounters>>>,
}

impl CommMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a posting of `elements` ring elements / `bytes` bytes
    /// under `phase`.
    pub fn record(&self, phase: &str, elements: u64, bytes: u64) {
        self.record_many(phase, elements, bytes, 1);
    }

    /// Records a whole batch under `phase` in one update: `messages`
    /// postings totalling `elements` elements / `bytes` bytes. Returns
    /// the meter's shared allocation of the label — the one to put on
    /// the postings this call accounts for.
    pub fn record_many(&self, phase: &str, elements: u64, bytes: u64, messages: u64) -> Arc<str> {
        if let Some((label, c)) = self.inner.read().get_key_value(phase) {
            c.add(elements, bytes, messages);
            return Arc::clone(label);
        }
        let mut g = self.inner.write();
        // If another recorder registered the label between the two
        // locks the entry is occupied and `key()` is its allocation.
        let entry = g.entry(Arc::from(phase));
        let label = Arc::clone(entry.key());
        entry.or_default().add(elements, bytes, messages);
        label
    }

    /// The shared allocation of `phase`'s label, registering the phase
    /// with zero traffic if this meter has not seen it — for posts that
    /// are labelled now and metered when they are appended (a sharded
    /// worker's pending runs, the parallel engine's replay buffers, any
    /// caller building [`crate::PostRecord`]s by hand).
    pub fn intern(&self, phase: &str) -> Arc<str> {
        self.record_many(phase, 0, 0, 0)
    }

    /// The stats for one phase (zero if never recorded).
    pub fn phase(&self, phase: &str) -> PhaseStats {
        self.inner.read().get(phase).map(|c| c.snapshot()).unwrap_or_default()
    }

    /// Sum of stats over phases whose label starts with `prefix`.
    pub fn phase_prefix(&self, prefix: &str) -> PhaseStats {
        let mut acc = PhaseStats::default();
        for (k, v) in self.inner.read().iter() {
            if k.starts_with(prefix) {
                acc.merge(&v.snapshot());
            }
        }
        acc
    }

    /// Total over all phases.
    pub fn total(&self) -> PhaseStats {
        let mut acc = PhaseStats::default();
        for v in self.inner.read().values() {
            acc.merge(&v.snapshot());
        }
        acc
    }

    /// All phases in label order.
    pub fn phases(&self) -> Vec<(String, PhaseStats)> {
        self.inner.read().iter().map(|(k, v)| (k.to_string(), v.snapshot())).collect()
    }

    /// Clears all recorded stats.
    pub fn reset(&self) {
        self.inner.write().clear();
    }

    /// Elements per gate for a phase, given the gate count.
    ///
    /// # Panics
    ///
    /// Panics if `gates` is zero.
    pub fn elements_per_gate(&self, phase_prefix: &str, gates: usize) -> f64 {
        assert!(gates > 0, "elements_per_gate: zero gates");
        self.phase_prefix(phase_prefix).elements as f64 / gates as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let m = CommMeter::new();
        m.record("offline/triples", 10, 80);
        m.record("offline/pack", 5, 40);
        m.record("online/mult", 2, 16);
        assert_eq!(m.phase("offline/triples").elements, 10);
        assert_eq!(m.phase_prefix("offline").elements, 15);
        assert_eq!(m.phase_prefix("offline").messages, 2);
        assert_eq!(m.total().bytes, 136);
        assert_eq!(m.phase("nonexistent"), PhaseStats::default());
    }

    #[test]
    fn per_gate_normalization() {
        let m = CommMeter::new();
        m.record("online", 100, 800);
        assert!((m.elements_per_gate("online", 50) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears() {
        let m = CommMeter::new();
        m.record("x", 1, 1);
        m.reset();
        assert_eq!(m.total(), PhaseStats::default());
    }

    #[test]
    fn phases_sorted() {
        let m = CommMeter::new();
        m.record("b", 1, 1);
        m.record("a", 1, 1);
        let phases = m.phases();
        assert_eq!(phases[0].0, "a");
        assert_eq!(phases[1].0, "b");
    }

    #[test]
    fn record_many_aggregates_like_singles() {
        let a = CommMeter::new();
        let b = CommMeter::new();
        for _ in 0..7 {
            a.record("x", 3, 24);
        }
        b.record_many("x", 21, 168, 7);
        assert_eq!(a.phase("x"), b.phase("x"));
    }

    #[test]
    fn labels_are_interned_once_per_phase() {
        let m = CommMeter::new();
        let a = m.record_many("offline/1-beaver", 3, 24, 1);
        let b = m.intern("offline/1-beaver");
        let c = m.record_many(&String::from("offline/1-beaver"), 1, 8, 1);
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &m.intern("online/3-mult")));
        // Interning meters nothing.
        assert_eq!(m.phase("offline/1-beaver").messages, 2);
        assert_eq!(m.phase("online/3-mult"), PhaseStats::default());
        // Clones of the meter share the table.
        assert!(Arc::ptr_eq(&a, &m.clone().intern("offline/1-beaver")));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = CommMeter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.record("hot", 1, 8);
                    }
                });
            }
        });
        let stats = m.phase("hot");
        assert_eq!(stats.messages, 8000);
        assert_eq!(stats.elements, 8000);
        assert_eq!(stats.bytes, 64000);
    }
}
