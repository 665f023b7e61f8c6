//! Tracing from outside: a [`BoardTransport`] wrapper that records one
//! span per transport call, and the rule that turns the spans of one
//! execution into an exclusive-time table.
//!
//! # Attribution rule
//!
//! The board is the protocol's only channel, so every phase ends in
//! posts. Time *inside* a transport call is the `yoso` layer's self
//! time (split by call kind). The *gap* between two calls is compute,
//! and belongs to the phase label of the **next** post — the work that
//! produced that post. Gaps after the last post (the stats rebuild, the
//! fleet join) have no next post and are the tail. Every nanosecond
//! between the start of an execution and its return lands in exactly
//! one row, so the rows sum to the wall clock by construction.
//!
//! Blind spot: work a phase does *after* its last post is billed to the
//! next phase's label. Spans inside the program are a later change.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use yoso_core::messages::Post;
use yoso_runtime::{BoardError, BoardTransport, PostRecord, Posting, RoleId};

use crate::metrics::PHASES;

/// Index of the catch-all bucket for a phase label not in [`PHASES`]
/// (none exists today; the correctness gate fails the run if one shows
/// up, since its time would have no metric to land in).
pub const OTHER_PHASE: usize = PHASES.len();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `post_batch` / `post_stream` / `post_slice`.
    Post,
    /// `read_round` / `read_from` / `for_each*`.
    Read,
    /// `len` / `round` (the worker gates spin on these) and the
    /// leader's `advance_round`.
    Poll,
}

/// One transport call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Index into [`PHASES`] of the first record's label (posts only).
    pub phase: u8,
    pub records: u32,
    pub elements: u64,
    pub bytes: u64,
    /// Nanoseconds since the execution started.
    pub start_ns: u64,
    pub end_ns: u64,
}

fn phase_index(label: &str) -> u8 {
    PHASES
        .iter()
        .position(|p| *p == label)
        .unwrap_or(OTHER_PHASE) as u8
}

/// Wraps a transport and records every call as a [`Span`]. Forwards
/// each method to the inner transport's own implementation (including
/// the overridden fast paths), so the posting log is the one the inner
/// transport alone would have produced.
pub struct TracingTransport<T> {
    inner: T,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl<T> TracingTransport<T> {
    /// `epoch` is the start of the execution; spans are relative to it.
    pub fn new(inner: T, epoch: Instant) -> Self {
        TracingTransport {
            inner,
            epoch,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The spans recorded so far, in call order.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A push cannot leave the vector half-updated, so a poisoned
        // lock (a worker panicked elsewhere) still guards valid data.
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record<R>(&self, kind: Kind, call: impl FnOnce() -> (R, u8, u32, u64, u64)) -> R {
        let start_ns = self.now_ns();
        let (out, phase, records, elements, bytes) = call();
        let end_ns = self.now_ns();
        self.lock().push(Span {
            kind,
            phase,
            records,
            elements,
            bytes,
            start_ns,
            end_ns,
        });
        out
    }

    fn plain<R>(&self, kind: Kind, call: impl FnOnce() -> R) -> R {
        self.record(kind, || (call(), OTHER_PHASE as u8, 0, 0, 0))
    }
}

impl<T: BoardTransport<Post>> BoardTransport<Post> for TracingTransport<T> {
    fn post_batch(&self, records: Vec<PostRecord<Post>>) -> Result<(), BoardError> {
        self.record(Kind::Post, || {
            let phase = records
                .first()
                .map_or(OTHER_PHASE as u8, |r| phase_index(&r.phase));
            let count = records.len() as u32;
            let elements = records.iter().map(|r| r.elements).sum();
            let bytes = records.iter().map(|r| r.bytes).sum();
            (
                self.inner.post_batch(records),
                phase,
                count,
                elements,
                bytes,
            )
        })
    }

    fn post_stream(
        &self,
        records: &mut dyn Iterator<Item = PostRecord<Post>>,
    ) -> Result<u64, BoardError> {
        self.record(Kind::Post, || {
            let (mut phase, mut count, mut elements, mut bytes) = (OTHER_PHASE as u8, 0u32, 0, 0);
            let out = self.inner.post_stream(&mut records.inspect(|r| {
                if count == 0 {
                    phase = phase_index(&r.phase);
                }
                count += 1;
                elements += r.elements;
                bytes += r.bytes;
            }));
            (out, phase, count, elements, bytes)
        })
    }

    fn post_slice(
        &self,
        from: &RoleId,
        phase: &Arc<str>,
        messages: &[Post],
        elements: u64,
        bytes: u64,
    ) -> Result<(), BoardError> {
        self.record(Kind::Post, || {
            let count = messages.len() as u64;
            (
                self.inner
                    .post_slice(from, phase, messages, elements, bytes),
                phase_index(phase),
                count as u32,
                elements * count,
                bytes * count,
            )
        })
    }

    fn advance_round(&self) -> Result<u64, BoardError> {
        self.plain(Kind::Poll, || self.inner.advance_round())
    }

    fn round(&self) -> Result<u64, BoardError> {
        self.plain(Kind::Poll, || self.inner.round())
    }

    fn len(&self) -> Result<usize, BoardError> {
        self.plain(Kind::Poll, || self.inner.len())
    }

    fn read_round(&self, round: u64) -> Result<Vec<Posting<Post>>, BoardError> {
        self.plain(Kind::Read, || self.inner.read_round(round))
    }

    fn read_from(&self, cursor: usize) -> Result<Vec<Posting<Post>>, BoardError> {
        self.plain(Kind::Read, || self.inner.read_from(cursor))
    }

    fn for_each(&self, f: &mut dyn FnMut(&Posting<Post>)) -> Result<(), BoardError> {
        self.plain(Kind::Read, || self.inner.for_each(f))
    }

    fn for_each_in_round(
        &self,
        round: u64,
        f: &mut dyn FnMut(&Posting<Post>),
    ) -> Result<(), BoardError> {
        self.plain(Kind::Read, || self.inner.for_each_in_round(round, f))
    }

    fn retain_rounds_from(&self, round: u64) -> Result<(), BoardError> {
        self.inner.retain_rounds_from(round)
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// The exclusive-time table of one traced execution. All times in
/// seconds; `phase_s` and the three board rows and `tail_s` partition
/// the wall clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Compute preceding each phase's posts; last slot = unknown label.
    pub phase_s: [f64; PHASES.len() + 1],
    /// Metered elements posted under each phase.
    pub phase_elems: [u64; PHASES.len() + 1],
    pub post_s: f64,
    pub post_calls: u64,
    pub posts: u64,
    pub bytes: u64,
    pub read_s: f64,
    pub read_calls: u64,
    pub poll_s: f64,
    pub poll_calls: u64,
    /// Overlay, not a row: wall time of every run of back-to-back
    /// polls, first start to last end — the spin/sleep of a worker
    /// parked on a position gate or a round barrier.
    pub barrier_wait_s: f64,
    /// Compute after the last post: the gaps between the closing board
    /// calls, and the last call → return.
    pub tail_s: f64,
}

impl Table {
    /// Sum of the rows that partition the wall clock.
    pub fn rows_total_s(&self) -> f64 {
        self.phase_s.iter().sum::<f64>() + self.post_s + self.read_s + self.poll_s + self.tail_s
    }
}

/// Applies the attribution rule to the spans of one thread of one
/// execution that took `wall_ns` from its start to its return.
pub fn attribute(spans: &[Span], wall_ns: u64) -> Table {
    const NS: f64 = 1e-9;
    let mut t = Table::default();
    let last_post = spans.iter().rposition(|s| s.kind == Kind::Post);
    let mut cursor = 0u64; // end of the previous call
    let mut pending = 0u64; // gap time waiting for the next post's label
    let mut poll_run: Option<(u64, u64, u32)> = None; // (first start, last end, calls)
    let close_run = |run: &mut Option<(u64, u64, u32)>, t: &mut Table| {
        if let Some((first, last, calls)) = run.take() {
            if calls > 1 {
                t.barrier_wait_s += (last - first) as f64 * NS;
            }
        }
    };
    for (i, s) in spans.iter().enumerate() {
        let after_last_post = last_post.is_none_or(|lp| i > lp);
        let gap = s.start_ns.saturating_sub(cursor);
        let inside = s.end_ns.saturating_sub(s.start_ns);
        if after_last_post {
            t.tail_s += gap as f64 * NS;
        } else {
            pending += gap;
        }
        match s.kind {
            Kind::Post => {
                let p = s.phase as usize;
                t.phase_s[p] += pending as f64 * NS;
                pending = 0;
                t.phase_elems[p] += s.elements;
                t.post_calls += 1;
                t.posts += u64::from(s.records);
                t.bytes += s.bytes;
                t.post_s += inside as f64 * NS;
            }
            Kind::Read => {
                t.read_calls += 1;
                t.read_s += inside as f64 * NS;
            }
            Kind::Poll => {
                t.poll_calls += 1;
                t.poll_s += inside as f64 * NS;
            }
        }
        if s.kind == Kind::Poll {
            poll_run = Some(match poll_run {
                Some((first, _, calls)) => (first, s.end_ns, calls + 1),
                None => (s.start_ns, s.end_ns, 1),
            });
        } else {
            close_run(&mut poll_run, &mut t);
        }
        cursor = s.end_ns;
    }
    close_run(&mut poll_run, &mut t);
    t.tail_s += wall_ns.saturating_sub(cursor) as f64 * NS;
    t
}

/// The table of a whole execution from its workers' span lists (the
/// leader's first; a solo run has one list). Times are the leader's —
/// they partition the execution's wall clock — while counts (calls,
/// posts, bytes, elements) are summed over the workers, so they are the
/// protocol's totals at any worker count.
pub fn attribute_fleet(workers: &[Vec<Span>], wall_s: f64) -> Table {
    let wall_ns = (wall_s * 1e9) as u64;
    let mut table = workers
        .first()
        .map(|s| attribute(s, wall_ns))
        .unwrap_or_default();
    for peer in workers.iter().skip(1) {
        let p = attribute(peer, wall_ns);
        for (mine, theirs) in table.phase_elems.iter_mut().zip(p.phase_elems) {
            *mine += theirs;
        }
        table.post_calls += p.post_calls;
        table.posts += p.posts;
        table.bytes += p.bytes;
        table.read_calls += p.read_calls;
        table.poll_calls += p.poll_calls;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, phase: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            phase: phase_index(phase),
            records: 2,
            elements: 10,
            bytes: 80,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn gaps_go_to_the_next_post_and_rows_sum_to_wall() {
        let spans = [
            span(Kind::Poll, "", 10, 20),                   // gap 10 → setup
            span(Kind::Post, "setup", 50, 60),              // gap 30 → setup
            span(Kind::Post, "offline/1-beaver", 160, 180), // gap 100 → beaver
            span(Kind::Read, "", 200, 230),                 // gap 20 → tail
        ];
        let t = attribute(&spans, 300);
        let ns = 1e-9;
        assert!((t.phase_s[0] - 40.0 * ns).abs() < 1e-15);
        assert!((t.phase_s[1] - 100.0 * ns).abs() < 1e-15);
        assert!((t.poll_s - 10.0 * ns).abs() < 1e-15);
        assert!((t.post_s - 30.0 * ns).abs() < 1e-15);
        assert!((t.read_s - 30.0 * ns).abs() < 1e-15);
        assert!((t.tail_s - 90.0 * ns).abs() < 1e-15);
        assert!((t.rows_total_s() - 300.0 * ns).abs() < 1e-15);
        assert_eq!(
            (t.post_calls, t.posts, t.bytes, t.read_calls, t.poll_calls),
            (2, 4, 160, 1, 1)
        );
        assert_eq!(t.phase_elems[0], 10);
    }

    #[test]
    fn barrier_wait_spans_back_to_back_polls_only() {
        let spans = [
            span(Kind::Poll, "", 0, 5),
            span(Kind::Poll, "", 1_000, 1_005),
            span(Kind::Poll, "", 2_000, 2_005),
            span(Kind::Post, "online/3-mult", 2_100, 2_200),
            span(Kind::Poll, "", 2_300, 2_310),
        ];
        let t = attribute(&spans, 2_400);
        assert!((t.barrier_wait_s - 2_005e-9).abs() < 1e-15);
        assert!((t.rows_total_s() - 2_400e-9).abs() < 1e-15);
    }

    #[test]
    fn unknown_labels_land_in_the_other_bucket() {
        let t = attribute(&[span(Kind::Post, "dkg/1", 5, 6)], 10);
        assert!(t.phase_s[OTHER_PHASE] > 0.0);
    }
}
